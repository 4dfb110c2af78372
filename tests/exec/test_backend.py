"""Unit tests for the pluggable task execution backends.

The contract under test: *any* backend produces bit-identical shared
counters, result ordering, side outputs and failure behaviour — only
wall-clock time may differ.  The process backend also has edges of its
own: a worker that dies mid-stage, a platform without ``fork`` (the
backend must degrade loudly), and whole joins whose trace fingerprints
and ledgers must equal serial.
"""

import multiprocessing
import os
import threading

import numpy as np
import pytest

from repro import spatial_join
from repro.data import census_blocks, taxi_points
from repro.exec import (
    BACKENDS,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    emit,
    merge_outcomes,
    resolve_backend,
    run_task,
)
from repro.geometry import GeometryBatch, Point
from repro.metrics import Counters

# process-2 runs two children per stage: the error test's failing task
# (index 3 of 6) opens the second child's slice.
ALL_BACKENDS = [SerialBackend(), ThreadBackend(4), ProcessBackend(4), ProcessBackend(2)]
BACKEND_IDS = ["serial", "thread", "process", "process-2"]

requires_fork = pytest.mark.skipif(
    not ProcessBackend.available(), reason="requires fork"
)


def make_tasks(shared, n=8):
    """Task bodies charging the shared counters and returning their index."""

    def make(i):
        def body():
            shared.add("work.ops", i + 1)
            shared.add("work.tasks")
            return i * 10

        return body

    return [make(i) for i in range(n)]


class TestRunTask:
    def test_captures_result_and_counters(self):
        shared = Counters()

        def body():
            shared.add("x", 3)  # repro: noqa[CTR001]
            return "done"

        outcome = run_task(0, body, shared)
        assert outcome.result == "done"
        assert outcome.error is None
        assert outcome.counters == {"x": 3}
        assert shared == {}  # nothing leaked into the shared instance
        assert outcome.seconds >= 0.0

    def test_captures_error_after_partial_charges(self):
        shared = Counters()

        def body():
            shared.add("x", 2)  # repro: noqa[CTR001]
            raise ValueError("boom")

        outcome = run_task(0, body, shared)
        assert isinstance(outcome.error, ValueError)
        assert outcome.counters == {"x": 2}
        assert shared == {}

    def test_unrelated_counters_not_redirected(self):
        shared, other = Counters(), Counters()

        def body():
            other.add("y")

        run_task(0, body, shared)
        assert other == {"y": 1}

    def test_merge_inside_task_is_redirected(self):
        shared = Counters()

        def body():
            shared.merge({"a": 1, "b": 2})

        outcome = run_task(0, body, shared)
        assert outcome.counters == {"a": 1, "b": 2}
        assert shared == {}


class TestEmit:
    def test_emit_outside_task_raises(self):
        with pytest.raises(RuntimeError, match="outside a task"):
            emit("k", 1)

    def test_emit_travels_in_outcome(self):
        shared = Counters()

        def body():
            emit("part", "payload")
            emit("part", "payload2")

        outcome = run_task(0, body, shared)
        assert outcome.side == [("part", "payload"), ("part", "payload2")]


class TestMergeOutcomes:
    def test_merges_in_index_order(self):
        shared = Counters()
        tasks = make_tasks(shared, n=6)
        outcomes = [run_task(i, fn, shared) for i, fn in enumerate(tasks)]
        results, side = merge_outcomes(outcomes, shared)
        assert results == [0, 10, 20, 30, 40, 50]
        assert side == {}
        assert shared == {"work.ops": 21, "work.tasks": 6}

    def test_error_reraised_after_merging_failing_scratch(self):
        shared = Counters()

        def good():
            shared.add("n")  # repro: noqa[CTR001]

        def bad():
            shared.add("n")  # repro: noqa[CTR001]
            raise RuntimeError("task failed")

        outcomes = [run_task(0, good, shared), run_task(1, bad, shared)]
        with pytest.raises(RuntimeError, match="task failed"):
            merge_outcomes(outcomes, shared)
        # Both the preceding task's and the failing task's charges landed,
        # exactly like a serial loop that died on task 1.
        assert shared == {"n": 2}

    def test_side_outputs_keyed_and_ordered(self):
        shared = Counters()

        def make(i):
            def body():
                emit("k", i)

            return body

        outcomes = [run_task(i, make(i), shared) for i in range(4)]
        _, side = merge_outcomes(outcomes, shared)
        assert side == {"k": [0, 1, 2, 3]}


@pytest.mark.parametrize("backend", ALL_BACKENDS, ids=BACKEND_IDS)
class TestBackendEquivalence:
    def test_results_and_counters_identical_to_serial(self, backend):
        shared = Counters()
        outcomes = backend.run_tasks("stage", make_tasks(shared, 8), shared)
        results, _ = merge_outcomes(outcomes, shared)
        assert results == [i * 10 for i in range(8)]
        assert shared == {"work.ops": 36, "work.tasks": 8}

    def test_error_surfaces_at_failing_index(self, backend):
        shared = Counters()

        def make(i):
            def body():
                shared.add("n")  # repro: noqa[CTR001]
                if i == 3:
                    raise ValueError(f"task {i} died")
                return i

            return body

        outcomes = backend.run_tasks("stage", [make(i) for i in range(6)], shared)
        # A task error is data, not breakage: it rides in its outcome.
        assert [o.index for o in outcomes] == list(range(len(outcomes)))
        assert [o.index for o in outcomes if o.error is not None] == [3]
        with pytest.raises(ValueError, match="task 3 died"):
            merge_outcomes(outcomes, shared)
        # Tasks 0..3 merged; parallel backends may have *run* later tasks,
        # but their scratches are discarded by the failing merge.
        assert shared == {"n": 4}

    def test_empty_task_list(self, backend):
        shared = Counters()
        assert backend.run_tasks("stage", [], shared) == []

    def test_profile_rows_recorded(self, backend):
        shared = Counters()
        backend.profile.clear()
        backend.run_tasks("alpha", make_tasks(shared, 4), shared)
        summary = backend.profile_summary()
        assert summary["backend"] == backend.name
        assert summary["phases"][-1]["label"] == "alpha"
        assert summary["phases"][-1]["tasks"] == 4
        assert summary["task_seconds"] >= 0.0


class TestNestedDispatch:
    def test_stage_inside_task_runs_inline(self):
        shared = Counters()
        backend = ThreadBackend(4)

        def outer():
            inner = backend.run_tasks(
                "inner",
                [lambda: shared.add("inner.ops") for _ in range(3)],  # repro: noqa[CTR001]
                shared,
            )
            merge_outcomes(inner, shared)
            shared.add("outer.ops")  # repro: noqa[CTR001]

        outcomes = backend.run_tasks("outer", [outer, outer], shared)
        merge_outcomes(outcomes, shared)
        assert shared == {"inner.ops": 6, "outer.ops": 2}


class TestResolveBackend:
    def test_default_is_serial(self):
        assert resolve_backend().name == "serial"
        assert resolve_backend(None, 1).name == "serial"

    def test_workers_pick_parallel(self):
        backend = resolve_backend(None, 4)
        assert backend.name in ("process", "thread")
        assert backend.workers == 4

    def test_explicit_names(self):
        for name in BACKENDS:
            assert resolve_backend(name, 2).name == name

    def test_instance_passthrough(self):
        backend = ThreadBackend(2)
        assert resolve_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            resolve_backend("mpi", 4)

    def test_serial_forces_one_worker(self):
        assert SerialBackend(8).workers == 1


@requires_fork
class TestProcessWorkers:
    def test_batch_crosses_the_process_boundary(self):
        # Children inherit a driver batch at fork time and pickle the
        # batches they return as six arrays; both directions are exact.
        batch = GeometryBatch.from_geometries(
            [Point(x, 2 * x) for x in np.linspace(-5.0, 5.0, 4096)]
        )

        def inspect(b=batch):
            return len(b), b.slice(0, len(b))

        shared = Counters()
        outcomes = ProcessBackend(2).run_tasks("inspect", [inspect, inspect], shared)
        results, _ = merge_outcomes(outcomes, shared)
        for length, clone in results:
            assert length == len(batch)
            assert clone.coords.tobytes() == batch.coords.tobytes()
            assert clone.equals(batch)

    # Slices are (0, 2) and (2, 3): the dead task is in the first child
    # (its sibling must still be reaped) or in the last one.
    @pytest.mark.parametrize("dead", [0, 2])
    def test_dead_worker_raises_and_backend_recovers(self, dead):
        backend = ProcessBackend(2)
        shared = Counters()

        def die():
            os._exit(13)  # a worker crash mid-stage: no outcome is sent

        tasks = [lambda: 1, lambda: 2, lambda: 3]
        tasks[dead] = die
        caught = []

        def crash_stage():
            try:
                backend.run_tasks("crash", tasks, shared)
            except RuntimeError as err:
                caught.append(err)

        runner = threading.Thread(target=crash_stage, daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive(), "stage hung after a worker died"
        assert len(caught) == 1
        assert "exited (code 13)" in str(caught[0])
        assert multiprocessing.active_children() == []

        # Nothing outlives a stage, so the next one starts clean.
        outcomes = backend.run_tasks("next", make_tasks(shared, 4), shared)
        results, _ = merge_outcomes(outcomes, shared)
        assert results == [0, 10, 20, 30]


class TestFallback:
    def test_no_fork_degrades_to_threads_loudly(self, monkeypatch):
        monkeypatch.setattr(
            ProcessBackend, "available", staticmethod(lambda: False)
        )
        report = spatial_join(
            taxi_points(200, seed=31),
            census_blocks(30, seed=32),
            system="SpatialHadoop",
            workers=3,
            backend="process",
        )
        assert report.ok
        assert report.counters.get("exec.backend_fallback") == 1.0
        assert report.warnings
        assert any("fallback" in w or "thread" in w for w in report.warnings)

    def test_fallback_charged_once_per_backend(self, monkeypatch):
        monkeypatch.setattr(
            ProcessBackend, "available", staticmethod(lambda: False)
        )
        backend = ProcessBackend(2)
        shared = Counters()
        backend.run_tasks("a", make_tasks(shared), shared)
        backend.run_tasks("b", make_tasks(shared), shared)
        assert shared.get("exec.backend_fallback") == 1.0
        assert len(backend.warnings) == 1

    @requires_fork
    def test_healthy_backend_never_charges_fallback(self):
        backend = ProcessBackend(2)
        shared = Counters()
        backend.run_tasks("a", make_tasks(shared), shared)
        assert shared.get("exec.backend_fallback") is None
        assert backend.warnings == ()


@requires_fork
class TestProcessDeterminism:
    def run(self, backend, trace=True):
        return spatial_join(
            taxi_points(400, seed=21),
            census_blocks(50, seed=22),
            system="SpatialHadoop",
            workers=1 if backend == "serial" else 3,
            backend=backend,
            seed=5,
            trace=trace,
        )

    def test_fingerprints_and_ledgers_match_serial(self):
        serial = self.run("serial")
        # Two consecutive process runs: each stage forks afresh, so the
        # second must not depend on anything the first left behind.
        for forked in (self.run("process"), self.run("process")):
            assert forked.pairs == serial.pairs
            assert dict(forked.counters) == dict(serial.counters)
            assert forked.trace.fingerprint() == serial.trace.fingerprint()

    def test_untraced_then_traced_runs_stay_correct(self):
        # Children inherit the trace session state at fork time;
        # interleaving traced and untraced runs must not bleed state.
        quiet = self.run("process", trace=False)
        traced = self.run("process", trace=True)
        serial = self.run("serial", trace=True)
        assert quiet.trace is None
        assert quiet.pairs == serial.pairs
        assert traced.trace.fingerprint() == serial.trace.fingerprint()
