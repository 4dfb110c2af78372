"""Self-time arithmetic and rebinding of the wrapper harness."""

import sys
import threading
import types

import pytest
from harness import Entry, LayerTracer

MOD = "repro._perfbench_fixture"
ALIAS = "repro._perfbench_alias"


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


@pytest.fixture
def fixture_modules():
    clock = FakeClock()
    mod = types.ModuleType(MOD)

    def inner():
        clock.work(2.0)

    def outer():
        clock.work(1.0)
        mod.inner()
        clock.work(1.0)

    def gen(n):
        for i in range(n):
            clock.work(1.0)
            yield i

    class Thing:
        def method(self):
            clock.work(0.5)

    mod.inner, mod.outer, mod.gen, mod.Thing = inner, outer, gen, Thing
    alias = types.ModuleType(ALIAS)
    alias.outer = outer  # a ``from ... import outer`` alias
    sys.modules[MOD], sys.modules[ALIAS] = mod, alias
    tracer = LayerTracer(clock=clock)
    yield tracer, clock, mod, alias
    tracer.uninstall()
    del sys.modules[MOD], sys.modules[ALIAS]


def _install(tracer, mod):
    tracer.install([
        Entry(f"{MOD}:outer", "upper"),
        Entry(f"{MOD}:inner", "lower"),
        Entry(f"{MOD}:gen", "gen"),
        Entry(f"{MOD}:Thing.method", "meth", "units", lambda args, result: 3),
    ])
    tracer.enabled = True


def test_nested_self_time_excludes_children(fixture_modules):
    tracer, clock, mod, alias = fixture_modules
    _install(tracer, mod)
    with tracer.op("S"):
        clock.work(0.25)
        alias.outer()
    fig = tracer.snapshot()
    assert fig.self_s[("S", "upper")] == pytest.approx(2.0)
    assert fig.self_s[("S", "lower")] == pytest.approx(2.0)
    assert fig.self_s[("S", "systems")] == pytest.approx(0.25)
    assert fig.op_wall["S"] == pytest.approx(4.25)
    # the layers add up to the operation's wall time
    assert sum(fig.self_s.values()) == pytest.approx(fig.op_wall["S"])
    assert fig.incl_s[("S", f"{MOD}:outer")] == pytest.approx(4.0)
    assert fig.calls[("S", f"{MOD}:outer")] == 1
    assert fig.calls[("S", f"{MOD}:inner")] == 1


def test_recursion_counts_once_at_the_outermost_call():
    clock = FakeClock()
    mod = types.ModuleType(MOD)

    def rec(n):
        clock.work(1.0)
        if n:
            mod.rec(n - 1)

    mod.rec = rec
    sys.modules[MOD] = mod
    tracer = LayerTracer(clock=clock)
    try:
        tracer.install([Entry(f"{MOD}:rec", "hdfs")])
        tracer.enabled = True
        with tracer.op("S"):
            mod.rec(3)
            mod.rec(0)
        fig = tracer.snapshot()
    finally:
        tracer.uninstall()
        del sys.modules[MOD]
    assert fig.calls[("S", f"{MOD}:rec")] == 2
    assert fig.self_s[("S", "hdfs")] == pytest.approx(5.0)
    assert fig.self_s[("S", "systems")] == pytest.approx(0.0)


def test_generator_is_timed_per_resumption(fixture_modules):
    tracer, clock, mod, _ = fixture_modules
    _install(tracer, mod)
    with tracer.op("S"):
        for _ in mod.gen(3):
            clock.work(10.0)  # consumer work is not the generator's
    fig = tracer.snapshot()
    assert fig.calls[("S", f"{MOD}:gen")] == 1
    assert fig.self_s[("S", "gen")] == pytest.approx(3.0)
    assert fig.self_s[("S", "systems")] == pytest.approx(30.0)


def test_method_wrapper_and_measured_quantity(fixture_modules):
    tracer, clock, mod, _ = fixture_modules
    _install(tracer, mod)
    with tracer.op("S"):
        mod.Thing().method()
        mod.Thing().method()
    fig = tracer.snapshot()
    assert fig.self_s[("S", "meth")] == pytest.approx(1.0)
    assert fig.quantities[("S", "units")] == 6
    assert fig.fired() == {f"{MOD}:Thing.method"}


def test_disabled_tracer_records_nothing(fixture_modules):
    tracer, clock, mod, alias = fixture_modules
    _install(tracer, mod)
    tracer.enabled = False
    with tracer.op("S"):
        alias.outer()
    assert tracer.snapshot().calls == {}


def test_uninstall_restores_every_alias(fixture_modules):
    tracer, clock, mod, alias = fixture_modules
    original = alias.outer
    _install(tracer, mod)
    assert alias.outer is not original and mod.outer is not original
    tracer.uninstall()
    assert alias.outer is original and mod.outer is original
    assert "method" in vars(mod.Thing)


def test_reset_drops_figures(fixture_modules):
    tracer, clock, mod, alias = fixture_modules
    _install(tracer, mod)
    with tracer.op("S"):
        alias.outer()
    tracer.reset()
    assert tracer.snapshot().calls == {}


def test_threads_attribute_to_their_own_system():
    tracer = LayerTracer()
    mod = types.ModuleType(MOD)

    def work():
        return sum(range(1000))

    mod.work = work
    sys.modules[MOD] = mod
    try:
        tracer.install([Entry(f"{MOD}:work", "k")])
        tracer.enabled = True
        barrier = threading.Barrier(2)

        def client(system, n):
            barrier.wait(timeout=10)
            with tracer.op(system):
                for _ in range(n):
                    mod.work()

        threads = [threading.Thread(target=client, args=(s, n))
                   for s, n in (("A", 30), ("B", 50))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        fig = tracer.snapshot()
    finally:
        tracer.uninstall()
        del sys.modules[MOD]
    assert fig.calls[("A", f"{MOD}:work")] == 30
    assert fig.calls[("B", f"{MOD}:work")] == 50


def test_unknown_target_fails_loudly():
    tracer = LayerTracer()
    with pytest.raises(AttributeError):
        tracer.install([Entry("repro.geometry.wkt:no_such_function", "wkt")])
