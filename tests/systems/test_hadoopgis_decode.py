"""HadoopGIS decodes each streamed record once per run.

Every streaming hop still charges its parse (``parse.*`` counters); only
the wall clock stops paying for repeated decodes, through the per-run
memo on :class:`~repro.systems.base.RunEnvironment`.  The ledgers and
simulated seconds below are literals from the decode-at-every-hop
pipeline, and every backend must reproduce them with the exact pairs.
"""

from collections import Counter

import pytest

import repro.data.loaders as loaders
from repro import spatial_join
from repro.data import census_blocks, linear_water, taxi_points, tiger_edges
from repro.geometry import geometries_intersect, to_wkt
from repro.geometry.mbr import MBR
from repro.systems.base import RunEnvironment

#: The dense square of the polyline workload.
EDGES_DOMAIN = MBR(-74.25, 40.5, -73.9, 40.85)

SHAPES = {
    "taxi-blocks": lambda: (taxi_points(400, seed=41), census_blocks(40, seed=42)),
    "edges-water": lambda: (
        tiger_edges(250, seed=45, domain=EDGES_DOMAIN),
        linear_water(120, seed=46, domain=EDGES_DOMAIN),
    ),
}
CLUSTERS = ("WS", "EC2-10")

_TAXI_BLOCKS = {
    "cpu.ops": 63.0, "geom.pip_tests": 582.0, "geom.vertex_ops": 11810.0,
    "hdfs.bytes_read": 186321.0, "hdfs.bytes_written": 125983.0,
    "hdfs.records_read": 2708.0, "hdfs.records_written": 1806.0,
    "index.build_ops": 115.0, "index.node_visits": 1280.0,
    "join.candidates": 582.0,
    "localfs.bytes_read": 830.0, "localfs.bytes_written": 1744.0,
    "mr.jobs": 11.0, "mr.tasks": 37.0,
    "parse.bytes": 143268.0, "parse.records": 1848.0,
    "pipe.bytes": 479826.0, "pipe.records": 5020.0,
    "serialize.bytes": 118594.0, "serialize.records": 1380.0,
    "shuffle.bytes_disk": 98261.0, "sort.ops": 15201.99925114893,
    "streaming.processes": 39.0, "streaming.refine_calls": 582.0,
}
_EDGES_WATER = {
    "cpu.ops": 33.0, "geom.mbr_tests": 18.0, "geom.seg_pair_tests": 38069.0,
    "geom.vertex_ops": 1858.0,
    "hdfs.bytes_read": 1585060.0, "hdfs.bytes_written": 904734.0,
    "hdfs.records_read": 4430.0, "hdfs.records_written": 1280.0,
    "index.build_ops": 2648.0, "index.node_visits": 3296.0,
    "index.splits": 166.0, "join.candidates": 18.0,
    "localfs.bytes_read": 5501.0, "localfs.bytes_written": 916.0,
    "mr.jobs": 11.0, "mr.tasks": 238.0,
    "parse.bytes": 1149814.0, "parse.records": 1545.0,
    "pipe.bytes": 3572177.0, "pipe.records": 3920.0,
    "serialize.bytes": 900266.0, "serialize.records": 1179.0,
    "shuffle.bytes_disk": 634652.0, "sort.ops": 9639.36861769477,
    "streaming.processes": 240.0, "streaming.refine_calls": 18.0,
}

#: (shape, cluster) -> (pair count, counter ledger, IA/IB/DJ/TOT seconds),
#: captured from the pipeline that decoded every record at every hop.
GOLDEN = {
    ("taxi-blocks", "WS"): (400, _TAXI_BLOCKS, {
        "IA": 64.89545178846643, "IB": 64.89584893611921,
        "DJ": 18.68843073992727, "TOT": 148.4797314645129,
    }),
    ("taxi-blocks", "EC2-10"): (400, _TAXI_BLOCKS, {
        "IA": 64.89944211467349, "IB": 64.8999150102346,
        "DJ": 18.80922283965756, "TOT": 148.60857996456562,
    }),
    ("edges-water", "WS"): (10, _EDGES_WATER, {
        "IA": 64.89891243816264, "IB": 101.98536913973064,
        "DJ": 55.63277660654439, "TOT": 222.5170581844377,
    }),
    ("edges-water", "EC2-10"): (10, _EDGES_WATER, {
        "IA": 64.90313234439057, "IB": 64.90586401136927,
        "DJ": 18.54919924574091, "TOT": 148.35819560150074,
    }),
}


def run(left, right, cluster="WS", **kwargs):
    report = spatial_join(
        left, right,
        system="HadoopGIS",
        cluster=cluster,
        block_size=1 << 13,
        seed=7,
        plan=None,
        **kwargs,
    )
    assert report.ok, report.failure
    return report


@pytest.fixture(scope="module")
def inputs():
    return {name: make() for name, make in SHAPES.items()}


@pytest.mark.parametrize("cluster", CLUSTERS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_ledger_and_seconds_match_decode_at_every_hop(shape, cluster, inputs):
    n_pairs, ledger, seconds = GOLDEN[(shape, cluster)]
    report = run(*inputs[shape], cluster)
    assert len(report.pairs) == n_pairs
    assert dict(report.counters) == ledger
    assert report.breakdown_seconds() == seconds


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_pairs_equal_brute_force(shape, inputs):
    left, right = inputs[shape]
    expected = frozenset(
        (i, j)
        for i, a in enumerate(left)
        for j, b in enumerate(right)
        if geometries_intersect(a, b)
    )
    assert run(left, right).pairs == expected


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_serial_run_decodes_each_line_once(shape, inputs, monkeypatch):
    left, right = inputs[shape]
    decoded = []
    real = loaders.from_wkt

    def spy(text):
        decoded.append(text)
        return real(text)

    monkeypatch.setattr(loaders, "from_wkt", spy)
    report = run(left, right)
    # Every record crosses five decode sites (convert, sample, assign,
    # join map, join reduce) and several of them more than once; the
    # ledger still charges each of those parses.
    assert report.counters["parse.records"] > 2 * (len(left) + len(right))
    assert Counter(decoded) == Counter(to_wkt(g) for g in [*left, *right])


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_process_backend_matches_serial(shape, inputs):
    serial = run(*inputs[shape])
    forked = run(*inputs[shape], workers=2, backend="process")
    assert forked.pairs == serial.pairs
    assert dict(forked.counters) == dict(serial.counters)
    assert [
        (p.name, p.group, p.tasks, dict(p.counters)) for p in forked.clock.phases
    ] == [
        (p.name, p.group, p.tasks, dict(p.counters)) for p in serial.clock.phases
    ]
    assert forked.breakdown_seconds() == serial.breakdown_seconds()


def test_decode_memo_belongs_to_one_environment():
    line = "3\tPOINT (1.5 -2.0)"
    env, other = RunEnvironment.create(), RunEnvironment.create()
    rec = env.decode_line(line)
    assert rec == loaders.from_tsv_line(line)
    assert env.decode_line(line) is rec
    assert other.decoded == {}
    with pytest.raises(ValueError):
        env.decode_line("4\tLINESTRING (0 0 0, 1 1 1)")
    assert list(env.decoded) == [line]
