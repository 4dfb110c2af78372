"""SpatialSpark's broadcast-based join probes the broadcast tree a slice
of left records at a time.

The slicing is a wall-clock optimisation only: the counter ledgers and
simulated seconds below are literals from the record-at-a-time probe,
and every slice size must reproduce them along with the exact pairs.
"""

import pytest

import repro.systems.spatialspark as spatialspark
from repro import spatial_join
from repro.core import within_distance
from repro.core.predicate import INTERSECTS
from repro.data import census_blocks, linear_water, taxi_points, tiger_edges
from repro.geometry import Point, geometries_intersect, geometry_distance
from repro.geometry.mbr import MBR
from repro.spark.context import SparkContext
from repro.spark.rdd import RDD

#: The dense square of the polyline workload and the Manhattan road box.
EDGES_DOMAIN = MBR(-74.25, 40.5, -73.9, 40.85)
MANHATTAN = MBR(-74.02, 40.70, -73.93, 40.80)

SHAPES = {
    "taxi-blocks": (
        lambda: (taxi_points(400, seed=41), census_blocks(40, seed=42)),
        INTERSECTS,
    ),
    "taxi-roads": (
        lambda: (
            taxi_points(400, seed=43),
            tiger_edges(120, seed=44, domain=MANHATTAN),
        ),
        within_distance(0.002),
    ),
    "edges-water": (
        lambda: (
            tiger_edges(250, seed=45, domain=EDGES_DOMAIN),
            linear_water(120, seed=46, domain=EDGES_DOMAIN),
        ),
        INTERSECTS,
    ),
}
CLUSTERS = ("WS", "EC2-10")

_TAXI_BLOCKS = {
    "geom.pip_tests": 582.0, "geom.vertex_ops": 11810.0,
    "hdfs.bytes_read": 32366.0, "hdfs.bytes_written": 0.0,
    "hdfs.records_read": 440.0, "hdfs.records_written": 0.0,
    "index.build_ops": 40.0, "index.node_visits": 15792.0,
    "index.nodes_built": 4.0, "net.bytes_broadcast": 20430.0,
    "parse.bytes": 31926.0, "parse.records": 440.0,
    "spark.stages": 2.0, "spark.tasks": 10.0,
}
_TAXI_ROADS = {
    "geom.dist_tests": 141.0, "geom.vertex_ops": 3416.0,
    "hdfs.bytes_read": 51312.0, "hdfs.bytes_written": 0.0,
    "hdfs.records_read": 520.0, "hdfs.records_written": 0.0,
    "index.build_ops": 120.0, "index.node_visits": 13552.0,
    "index.nodes_built": 9.0, "net.bytes_broadcast": 41070.0,
    "parse.bytes": 50792.0, "parse.records": 520.0,
    "spark.stages": 2.0, "spark.tasks": 14.0,
}
_EDGES_WATER = {
    "geom.mbr_tests": 18.0, "geom.seg_pair_tests": 38069.0,
    "geom.vertex_ops": 1858.0,
    "hdfs.bytes_read": 275756.0, "hdfs.bytes_written": 0.0,
    "hdfs.records_read": 370.0, "hdfs.records_written": 0.0,
    "index.build_ops": 120.0, "index.node_visits": 8000.0,
    "index.nodes_built": 9.0, "net.bytes_broadcast": 173970.0,
    "parse.bytes": 275386.0, "parse.records": 370.0,
    "spark.stages": 2.0, "spark.tasks": 76.0,
}

#: (shape, cluster) -> (pair count, counter ledger, DJ = TOT seconds),
#: captured from the record-at-a-time probe.
GOLDEN = {
    ("taxi-blocks", "WS"): (400, _TAXI_BLOCKS, 1.8215841213305883),
    ("taxi-blocks", "EC2-10"): (400, _TAXI_BLOCKS, 1.8209091294899682),
    ("taxi-roads", "WS"): (110, _TAXI_ROADS, 1.8207072782314846),
    ("taxi-roads", "EC2-10"): (110, _TAXI_ROADS, 1.8209199733165395),
    ("edges-water", "WS"): (10, _EDGES_WATER, 9.10133574198126),
    ("edges-water", "EC2-10"): (10, _EDGES_WATER, 1.823322157990403),
}


def run(left, right, predicate, cluster="WS", *, broadcast=True, trace=False):
    report = spatial_join(
        left, right,
        system="SpatialSpark",
        predicate=predicate,
        cluster=cluster,
        block_size=1 << 13,
        seed=7,
        plan=None,
        system_kwargs={"broadcast_join": broadcast},
        trace=trace,
    )
    assert report.ok, report.failure
    return report


def brute(left, right, predicate):
    if predicate.kind == "intersects":
        return frozenset(
            (i, j)
            for i, a in enumerate(left)
            for j, b in enumerate(right)
            if geometries_intersect(a, b)
        )
    return frozenset(
        (i, j)
        for i, a in enumerate(left)
        for j, b in enumerate(right)
        if geometry_distance(a, b) <= predicate.distance
    )


@pytest.fixture(scope="module")
def inputs():
    return {name: make() for name, (make, _pred) in SHAPES.items()}


@pytest.fixture(scope="module")
def oracle(inputs):
    return {
        name: brute(*inputs[name], SHAPES[name][1]) for name in SHAPES
    }


@pytest.mark.parametrize("cluster", CLUSTERS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
class TestGolden:
    def test_ledger_and_seconds_match_record_at_a_time_probe(
        self, shape, cluster, inputs
    ):
        n_pairs, ledger, seconds = GOLDEN[(shape, cluster)]
        report = run(*inputs[shape], SHAPES[shape][1], cluster)
        assert len(report.pairs) == n_pairs
        assert dict(report.counters) == ledger
        assert report.breakdown_seconds() == {
            "IA": 0, "IB": 0, "DJ": seconds, "TOT": seconds,
        }

    def test_pairs_equal_brute_force_and_partition_join(
        self, shape, cluster, inputs, oracle
    ):
        left, right = inputs[shape]
        predicate = SHAPES[shape][1]
        pairs = run(left, right, predicate, cluster).pairs
        assert pairs == oracle[shape]
        assert pairs == run(left, right, predicate, cluster, broadcast=False).pairs


@pytest.mark.parametrize("rows", [1, 7, 10**6])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_slice_size_changes_nothing(shape, rows, inputs, oracle, monkeypatch):
    monkeypatch.setattr(spatialspark, "_PROBE_ROWS", rows)
    report = run(*inputs[shape], SHAPES[shape][1])
    _n_pairs, ledger, seconds = GOLDEN[(shape, "WS")]
    assert report.pairs == oracle[shape]
    assert dict(report.counters) == ledger
    assert report.breakdown_seconds()["TOT"] == seconds


def test_left_records_that_hit_nothing(inputs, oracle):
    pts, blocks = inputs["taxi-blocks"]
    # Far outside the blocks' extent: their probe boxes reach no tree leaf.
    strays = [Point(0.0, 0.0), Point(-10.0, 5.0), Point(100.0, -40.0)]
    left = strays + pts
    pairs = run(left, blocks, INTERSECTS).pairs
    assert pairs == brute(left, blocks, INTERSECTS)
    assert {i for i, _j in pairs}.isdisjoint({0, 1, 2})
    assert len(pairs) == len(oracle["taxi-blocks"])


def test_more_partitions_than_left_records(inputs, monkeypatch):
    pts, blocks = inputs["taxi-blocks"]
    left = pts[:5]
    original = SparkContext.from_hdfs

    def one_record_per_partition(self, path, n_partitions=None):
        rdd = original(self, path, n_partitions)
        if path != "/input/a":
            return rdd

        def compute():
            lines = [line for part in rdd._partitions() for line in part]
            return [[line] for line in lines] + [[], [], []]

        return RDD(self, parents=(rdd,), compute=compute,
                   n_partitions=len(left) + 3, label=rdd.label)

    monkeypatch.setattr(SparkContext, "from_hdfs", one_record_per_partition)
    assert run(left, blocks, INTERSECTS).pairs == brute(left, blocks, INTERSECTS)


def test_task_spans_carry_candidate_and_refine_counts(inputs):
    left, right = inputs["taxi-roads"]
    predicate = SHAPES["taxi-roads"][1]
    report = run(left, right, predicate, trace=True)
    probes = [
        sp for sp in report.trace.walk()
        if sp.kind == "task" and "candidates" in sp.attrs
    ]
    assert probes
    # No multi-assignment in the broadcast join: refined pairs are the
    # result, and every candidate came from one tree probe.
    assert sum(sp.attrs["refined"] for sp in probes) == len(report.pairs)
    assert sum(sp.attrs["candidates"] for sp in probes) == (
        _TAXI_ROADS["geom.dist_tests"]
    )
