"""Tracing is zero-cost-to-results.

Spans only snapshot-and-diff the ledgers the run was writing anyway —
never charge, never redirect — so a traced run must produce bit-identical
result pairs and counter totals to an untraced one, for every system ×
local-join algorithm, on serial and parallel backends alike.
"""

import pytest

from repro import spatial_join
from repro.data.synthetic import census_blocks, taxi_points

#: system × algorithm grid: every local-join code path of every system.
CASES = [
    ("HadoopGIS", {}),
    ("SpatialHadoop", {"local_algorithm": "plane_sweep"}),
    ("SpatialHadoop", {"local_algorithm": "sync_rtree"}),
    ("SpatialSpark", {"broadcast_join": False}),
    ("SpatialSpark", {"broadcast_join": True}),
]


def case_id(case):
    system, kwargs = case
    suffix = ",".join(f"{k}={v}" for k, v in kwargs.items())
    return f"{system}({suffix})" if suffix else system


def run(system, system_kwargs, *, trace, backend="serial"):
    return spatial_join(
        taxi_points(300, seed=21),
        census_blocks(40, seed=22),
        system=system,
        cluster="WS",
        workers=1 if backend == "serial" else 2,
        backend=backend,
        seed=5,
        system_kwargs=system_kwargs,
        trace=trace,
    )


@pytest.mark.parametrize("case", CASES, ids=case_id)
class TestZeroImpact:
    def test_results_identical_traced_vs_untraced(self, case):
        system, kwargs = case
        untraced = run(system, kwargs, trace=False)
        traced = run(system, kwargs, trace=True)
        assert untraced.trace is None
        assert traced.trace is not None
        assert traced.pairs == untraced.pairs
        # dict equality on floats is bitwise here: same charges, same order.
        assert dict(traced.counters) == dict(untraced.counters)
        assert traced.status == untraced.status

    def test_results_identical_on_parallel_backend(self, case):
        system, kwargs = case
        untraced = run(system, kwargs, trace=False, backend="process")
        traced = run(system, kwargs, trace=True, backend="process")
        assert traced.pairs == untraced.pairs
        assert dict(traced.counters) == dict(untraced.counters)


class TestPhaseSpansMatchClock:
    """The acceptance cross-check: every phase span's counter deltas equal
    the same-named ``PhaseRecord``'s counters, because the span brackets
    exactly the snapshot→record window the clock uses."""

    # Pin the partitioned pipeline: with plan="auto" the planner may pick
    # broadcast for SpatialSpark at this scale, which has a single phase.
    @pytest.mark.parametrize(
        "case",
        CASES[:3] + [("SpatialSpark", {"broadcast_join": False})],
        ids=case_id,
    )
    def test_phase_spans_equal_phase_records(self, case):
        system, kwargs = case
        report = run(system, kwargs, trace=True)
        spans_by_name = {}
        for sp in report.trace.walk():
            if sp.kind == "phase":
                spans_by_name.setdefault(sp.name, []).append(sp)
        matched = 0
        for record in report.clock.phases:
            spans = spans_by_name.get(record.name)
            if not spans:
                continue
            sp = spans.pop(0)  # names recur in record order
            assert dict(sp.counters) == dict(record.counters), record.name
            matched += 1
        assert matched >= 3, f"{system}: too few phase spans matched clock records"

    def test_phase_wall_clock_nests_inside_run(self):
        report = run("SpatialHadoop", {}, trace=True)
        root = report.trace
        for sp in root.walk():
            if sp.kind == "phase":
                assert sp.seconds >= 0.0
                assert root.start <= sp.start
                assert sp.end <= root.end + 1e-9
        phase_total = sum(s.seconds for s in root.walk() if s.kind == "phase")
        # Phases don't nest inside each other, so their summed wall clock
        # fits inside the root session's.
        assert phase_total <= root.seconds + 1e-9
