"""Integration invariants across the whole stack.

The reproduction's central correctness premise: the three systems are
different *implementations of the same query*.  These tests hammer that
premise across workload shapes, parameterizations and configurations.
"""

import numpy as np
import pytest

from repro.core import BSPPartitioner, GridPartitioner
from repro.data import census_blocks, linear_water, taxi_points, tiger_edges
from repro.geometry import PolyLine, geometries_intersect
from repro.systems import (
    ALL_SYSTEMS,
    RunEnvironment,
    SpatialHadoop,
    SpatialSpark,
    make_system,
)


def run_all(left, right, **env_kw):
    out = {}
    for name in sorted(ALL_SYSTEMS):
        env = RunEnvironment.create(block_size=1 << 13, **env_kw)
        out[name] = make_system(name).run(env, left, right)
    return out


class TestResultParityAcrossWorkloads:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mixed_scale_point_workloads(self, seed):
        pts = taxi_points(300 * seed, seed=seed)
        blocks = census_blocks(40 * seed, seed=seed + 100)
        reports = run_all(pts, blocks)
        pairs = {r.pairs for r in reports.values()}
        assert len(pairs) == 1
        assert all(r.ok for r in reports.values())

    @pytest.mark.parametrize("seed", [4, 5])
    def test_polyline_workloads(self, seed):
        edges = tiger_edges(600, seed=seed)
        water = linear_water(200, seed=seed + 50)
        reports = run_all(edges, water)
        pairs = {r.pairs for r in reports.values()}
        assert len(pairs) == 1

    def test_polyline_vs_polygon(self):
        # A kind-pair no paper experiment uses: polylines × polygons.
        water = linear_water(150, seed=9, domain=census_blocks(1, seed=1)[0].mbr.expanded(0.5))
        blocks = census_blocks(60, seed=10)
        reports = run_all(water, blocks)
        assert len({r.pairs for r in reports.values()}) == 1

    def test_single_record_sides(self):
        pts = taxi_points(1, seed=11)
        blocks = census_blocks(50, seed=12)
        reports = run_all(pts, blocks)
        brute = frozenset(
            (0, j) for j, b in enumerate(blocks) if geometries_intersect(pts[0], b)
        )
        for r in reports.values():
            assert r.pairs == brute


class TestParameterizationInvariance:
    """Results must not depend on tuning knobs — only costs may change."""

    def workload(self):
        return tiger_edges(500, seed=13), linear_water(180, seed=14)

    def test_spatialhadoop_local_algorithm(self):
        left, right = self.workload()
        results = set()
        for algo in ("plane_sweep", "sync_rtree"):
            env = RunEnvironment.create(block_size=1 << 13)
            results.add(SpatialHadoop(local_algorithm=algo).run(env, left, right).pairs)
        assert len(results) == 1

    def test_spatialspark_partitioner_and_mode(self):
        left, right = self.workload()
        results = set()
        for kwargs in (
            {"partitioner": GridPartitioner()},
            {"partitioner": BSPPartitioner()},
            {"broadcast_join": True},
            {"n_partitions": 7},
            {"sample_fraction": 0.5},
        ):
            env = RunEnvironment.create(block_size=1 << 13)
            results.add(SpatialSpark(**kwargs).run(env, left, right).pairs)
        assert len(results) == 1

    def test_block_size_invariance(self):
        left, right = self.workload()
        results = set()
        for block_size in (1 << 11, 1 << 13, 1 << 16):
            env = RunEnvironment.create(block_size=block_size)
            results.add(SpatialHadoop().run(env, left, right).pairs)
        assert len(results) == 1

    def test_cluster_invariance_of_results(self):
        # The cluster only changes costs/failures, never the answer.
        from repro.cluster import PAPER_CONFIGS

        left, right = self.workload()
        results = set()
        for config in PAPER_CONFIGS().values():
            env = RunEnvironment.create(config, block_size=1 << 13)
            results.add(SpatialSpark().run(env, left, right).pairs)
        assert len(results) == 1


class TestDeduplication:
    """Multi-assignment must never produce duplicate result pairs."""

    def test_spanning_geometries(self):
        # Long polylines spanning many partitions force multi-assignment.
        rng = np.random.default_rng(15)
        spans = [
            PolyLine(np.round(np.column_stack([
                np.linspace(-74.2, -73.7, 20),
                40.6 + 0.2 * rng.random(20),
            ]), 6))
            for _ in range(20)
        ]
        blocks = census_blocks(150, seed=16)
        reports = run_all(spans, blocks)
        brute = frozenset(
            (i, j)
            for i, s in enumerate(spans)
            for j, b in enumerate(blocks)
            if s.mbr.intersects(b.mbr) and geometries_intersect(s, b)
        )
        for name, r in reports.items():
            assert r.pairs == brute, name


class TestCostedReports:
    def test_costing_every_config(self):
        from repro.cluster import PAPER_CONFIGS

        pts = taxi_points(300, seed=17)
        blocks = census_blocks(40, seed=18)
        for name, config in PAPER_CONFIGS().items():
            env = RunEnvironment.create(config, block_size=1 << 13)
            report = SpatialHadoop().run(env, pts, blocks).costed()
            assert report.clock.total_seconds > 0, name

    def test_geos_system_costs_more_geometry_time(self):
        # Same workload: HadoopGIS's engine profile must make its geometry
        # seconds larger than SpatialHadoop's for comparable op counts.
        from repro.cluster import CostModel, ws_config
        from repro.geometry import GEOS_COST_PROFILE, JTS_COST_PROFILE

        ops = {"geom.pip_tests": 1e6, "geom.vertex_ops": 1e7}
        from repro.cluster import PhaseRecord
        from repro.metrics import Counters

        phase = PhaseRecord(name="x", counters=Counters(ops), tasks=1)
        geos = CostModel(ws_config(), engine_profile=GEOS_COST_PROFILE).phase_seconds(phase)
        jts = CostModel(ws_config(), engine_profile=JTS_COST_PROFILE).phase_seconds(phase)
        assert geos == pytest.approx(4 * jts)


BACKENDS = ("serial", "process")


def report_fingerprint(report):
    """Everything a run produced except wall-clock: must match across
    backends bit for bit."""
    return (
        report.status,
        report.failure_kind,
        report.failure,
        report.pairs,
        dict(report.counters),
        [
            (p.name, p.group, p.tasks, p.seconds, dict(p.counters))
            for p in report.clock.phases
        ],
        report.memory_pressure,
    )


class TestBackendDeterminism:
    """The tentpole invariant: parallel execution backends change only
    wall-clock time — pairs, per-phase counters, simulated seconds and
    failure outcomes are bit-identical to serial execution."""

    @pytest.mark.parametrize("exp_id", ["taxi-nycb", "edges-linearwater"])
    @pytest.mark.parametrize("system", sorted(ALL_SYSTEMS))
    def test_table2_experiments_identical_across_backends(self, exp_id, system):
        from repro.experiments import run_experiment

        fingerprints = {
            backend: report_fingerprint(
                run_experiment(
                    exp_id, system, "EC2-10", exec_records=400,
                    seed=2, workers=3, backend=backend,
                )
            )
            for backend in BACKENDS
        }
        assert fingerprints["process"] == fingerprints["serial"]

    def test_oom_failure_identical_across_backends(self):
        from repro.experiments import run_experiment

        fingerprints = [
            report_fingerprint(
                run_experiment(
                    "taxi-nycb", "SpatialSpark", "EC2-6", exec_records=600,
                    seed=1, workers=3, backend=backend,
                )
            )
            for backend in BACKENDS
        ]
        assert fingerprints[0][1] == "oom"
        assert fingerprints[0] == fingerprints[1]

    def test_broken_pipe_failure_identical_across_backends(self):
        from repro.experiments import run_experiment

        fingerprints = [
            report_fingerprint(
                run_experiment(
                    "edges-linearwater", "HadoopGIS", "EC2-10",
                    exec_records=600, seed=1, workers=3, backend=backend,
                )
            )
            for backend in BACKENDS
        ]
        assert fingerprints[0][1] == "broken_pipe"
        assert fingerprints[0] == fingerprints[1]

    def test_direct_run_identical_and_profiled(self):
        pts = taxi_points(400, seed=19)
        blocks = census_blocks(50, seed=20)
        reports = {}
        for backend in BACKENDS:
            env = RunEnvironment.create(
                block_size=1 << 13, workers=4, backend=backend
            )
            reports[backend] = SpatialHadoop().run(env, pts, blocks)
        base = report_fingerprint(reports["serial"])
        assert report_fingerprint(reports["process"]) == base
        exec_profile = reports["process"].engine_profile["exec"]
        assert exec_profile["backend"] == "process"
        assert exec_profile["tasks"] > 0
        assert exec_profile["task_seconds"] > 0.0
