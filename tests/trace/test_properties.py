"""Property tests for the span-tree invariants of :mod:`repro.trace`.

For randomly generated span programs (and for real executor runs), the
recorded tree must satisfy:

* **Nesting** — a child span's ``[start, end]`` interval lies inside its
  parent's when both ran on the same worker (pid, tid).
* **Sibling exclusion** — same-worker sibling spans never overlap.
* **Conservation** — a span's inclusive counter deltas equal its own
  charges plus the sum of its children's, exactly (integer charges lose
  nothing to float re-association because snapshots diff the same ledger
  the charges landed in).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import SerialBackend, merge_outcomes
from repro.metrics import Counters
from repro.trace import Tracer, span

KEYS = ("cpu.ops", "io.bytes", "join.results")

charges = st.dictionaries(st.sampled_from(KEYS), st.integers(1, 1_000), max_size=3)
#: A random span program: (charges made inside the span, child programs).
programs = st.recursive(
    st.tuples(charges, st.just(())),
    lambda sub: st.tuples(charges, st.lists(sub, max_size=3)),
    max_leaves=10,
)


def record(program, counters):
    """Run a span program for real: open a span, charge, recurse."""
    charge, children = program
    with span("node", counters=counters):
        for key, amount in charge.items():
            counters.add(key, amount)  # repro: noqa[CTR001]
        for child in children:
            record(child, counters)


def inclusive_charges(program):
    """The charges a program makes inside its root span, descendants included."""
    charge, children = program
    total = dict(charge)
    for child in children:
        for key, value in inclusive_charges(child).items():
            total[key] = total.get(key, 0) + value
    return total


def assert_matches_program(sp, program):
    charge, children = program
    assert len(sp.children) == len(children)
    expected = {k: float(v) for k, v in inclusive_charges(program).items()}
    assert dict(sp.counters) == expected
    # Exclusive view: exactly the charges made in this span's own body.
    assert dict(sp.self_counters()) == {k: float(v) for k, v in charge.items()}
    for child_span, child_program in zip(sp.children, children):
        assert_matches_program(child_span, child_program)


def assert_intervals_wellformed(root):
    for parent in root.walk():
        by_worker = {}
        for child in parent.children:
            worker = (child.pid, child.tid)
            if worker == (parent.pid, parent.tid):
                assert parent.start <= child.start, (parent.name, child.name)
                assert child.end <= parent.end, (parent.name, child.name)
            by_worker.setdefault(worker, []).append(child)
        for siblings in by_worker.values():
            siblings = sorted(siblings, key=lambda s: s.start)
            for earlier, later in zip(siblings, siblings[1:]):
                assert earlier.end <= later.start, (earlier.name, later.name)


class TestRandomPrograms:
    @given(programs)
    def test_counters_conserved_exactly(self, program):
        counters = Counters()
        tracer = Tracer()
        with tracer.session("root", counters=counters):
            record(program, counters)
        root = tracer.root
        assert len(root.children) == 1
        assert_matches_program(root.children[0], program)
        # The session root saw every charge of the whole program.
        assert dict(root.counters) == {
            k: float(v) for k, v in inclusive_charges(program).items()
        }
        # ... and the real ledger holds exactly the same totals: the spans
        # only ever snapshotted it.
        assert dict(counters) == dict(root.counters)

    @given(programs)
    def test_nesting_and_sibling_exclusion(self, program):
        counters = Counters()
        tracer = Tracer()
        with tracer.session("root", counters=counters):
            record(program, counters)
        assert_intervals_wellformed(tracer.root)

    @given(programs)
    def test_fingerprint_ignores_timing(self, program):
        counters_a, counters_b = Counters(), Counters()
        tracer_a, tracer_b = Tracer(), Tracer()
        with tracer_a.session("root", counters=counters_a):
            record(program, counters_a)
        with tracer_b.session("root", counters=counters_b):
            record(program, counters_b)
        # Wall clocks differ between the two runs; fingerprints must not.
        assert tracer_a.root.fingerprint() == tracer_b.root.fingerprint()


class TestExecutorTaskSpans:
    @given(st.lists(charges, min_size=1, max_size=6))
    @settings(deadline=None, max_examples=20)
    def test_task_spans_conserve_on_serial(self, task_charges):
        backend = SerialBackend()
        shared = Counters()

        def make(spec):
            def body():
                for key, amount in spec.items():
                    shared.add(key, amount)  # repro: noqa[CTR001]

            return body

        tracer = Tracer()
        with tracer.session("root", counters=shared):
            with span("stage", kind="phase", counters=shared):
                outcomes = backend.run_tasks(
                    "stage", [make(spec) for spec in task_charges], shared
                )
                merge_outcomes(outcomes, shared)
        phase = tracer.root.children[0]
        # Grafted in task-index order.
        assert [c.attrs["index"] for c in phase.children] == list(
            range(len(task_charges))
        )
        for child, spec in zip(phase.children, task_charges):
            assert dict(child.counters) == {
                k: float(v) for k, v in spec.items()
            }
        # All the phase's work happened inside tasks: nothing exclusive.
        assert dict(phase.self_counters()) == {}
        expected_total = {}
        for spec in task_charges:
            for key, value in spec.items():
                expected_total[key] = expected_total.get(key, 0.0) + value
        assert dict(phase.counters) == expected_total
        assert dict(shared) == expected_total
        assert_intervals_wellformed(tracer.root)
