"""Golden equivalence: object plane vs columnar plane, bit for bit.

The tentpole invariant of the columnar data plane: every local join
algorithm, under every geometry engine, produces *identical pairs and
identical counters* whether the inputs are geometry-object lists or
:class:`~repro.geometry.batch.GeometryBatch` instances.  Same for the
full systems through :func:`repro.api.spatial_join`, on every execution
backend.
"""

import numpy as np
import pytest

from repro.api import spatial_join
from repro.core.localjoin import LOCAL_JOIN_ALGORITHMS, local_join
from repro.core.predicate import INTERSECTS, within_distance
from repro.data.synthetic import (
    census_blocks,
    census_blocks_batch,
    taxi_points,
    taxi_points_batch,
    tiger_edges,
    tiger_edges_batch,
)
from repro.geometry.batch import GeometryBatch
from repro.geometry.engine import make_engine
from repro.index.strtree import STRtree
from repro.metrics import Counters

WORKLOADS = [
    ("pts_poly", lambda: (taxi_points(600, seed=21), census_blocks(90, seed=22)),
     INTERSECTS),
    ("pts_edges", lambda: (taxi_points(400, seed=23), tiger_edges(80, seed=24)),
     within_distance(0.01)),
]


@pytest.mark.parametrize("algorithm", sorted(LOCAL_JOIN_ALGORITHMS))
@pytest.mark.parametrize("engine_name", ["jts", "geos"])
@pytest.mark.parametrize("workload", WORKLOADS, ids=[w[0] for w in WORKLOADS])
def test_local_join_object_vs_batch(algorithm, engine_name, workload):
    _name, make, predicate = workload
    left, right = make()
    results = {}
    for tag, l_in, r_in in (
        ("object", left, right),
        ("batch", GeometryBatch.from_geometries(left),
         GeometryBatch.from_geometries(right)),
    ):
        counters = Counters()
        engine = make_engine(engine_name, counters)
        pairs = local_join(
            algorithm, l_in, r_in, engine, counters=counters, predicate=predicate
        )
        results[tag] = (pairs, dict(counters))
    obj_pairs, obj_counters = results["object"]
    bat_pairs, bat_counters = results["batch"]
    # The object plane keeps the documented sorted list of tuples; the
    # batch plane is a lexsorted (n, 2) int64 ndarray of the same pairs.
    assert isinstance(obj_pairs, list)
    assert isinstance(bat_pairs, np.ndarray)
    assert bat_pairs.dtype == np.int64 and bat_pairs.ndim == 2
    as_tuples = list(map(tuple, bat_pairs.tolist()))
    assert as_tuples == sorted(as_tuples)  # lexsorted
    assert obj_pairs == as_tuples
    assert obj_counters == bat_counters


def test_query_many_matches_scalar_queries():
    boxes = GeometryBatch.from_geometries(census_blocks(120, seed=30)).mbrs
    probes = GeometryBatch.from_geometries(taxi_points(300, seed=31)).mbrs

    c_many = Counters()
    tree = STRtree(boxes, counters=c_many)
    build_charges = dict(c_many)
    hits_many = tree.query_many(probes)

    c_scalar = Counters()
    tree_scalar = STRtree(boxes, counters=c_scalar)
    hits_scalar = [tree_scalar.query(probes.take([i]).extent())
                   for i in range(len(probes))]

    assert len(hits_many) == len(hits_scalar)
    for a, b in zip(hits_many, hits_scalar):
        assert a.tolist() == b.tolist()
    # Identical traversal accounting, not just identical results.
    assert dict(c_many) == dict(c_scalar)
    assert build_charges  # the tree build itself was counted


@pytest.mark.parametrize("system", ["HadoopGIS", "SpatialHadoop", "SpatialSpark"])
def test_systems_object_vs_batch(system):
    lo, ro = taxi_points(500, seed=25), census_blocks(60, seed=26)
    lb = taxi_points_batch(500, seed=25)
    rb = census_blocks_batch(60, seed=26)
    reports = {}
    for tag, L, R in (("object", lo, ro), ("batch", lb, rb)):
        rep = spatial_join(L, R, system=system, block_size=1 << 12, seed=5)
        reports[tag] = (rep.status, rep.pairs,
                        tuple(sorted(rep.counters.items())))
    assert reports["object"] == reports["batch"]


@pytest.mark.parametrize("backend,workers", [
    ("serial", 1), ("process", 3),
])
def test_batch_inputs_deterministic_across_backends(backend, workers):
    lb = taxi_points_batch(500, seed=27)
    rb = tiger_edges_batch(60, seed=28)
    rep = spatial_join(
        lb, rb, system="SpatialHadoop", predicate=within_distance(0.01),
        backend=backend, workers=workers, block_size=1 << 12, seed=5,
    )
    ref = spatial_join(
        lb, rb, system="SpatialHadoop", predicate=within_distance(0.01),
        backend="serial", workers=1, block_size=1 << 12, seed=5,
    )
    assert rep.status == ref.status == "ok"
    assert rep.pairs == ref.pairs
    assert dict(rep.counters) == dict(ref.counters)


def test_distance_pairs_match_bruteforce():
    # End-to-end sanity on the batch plane: the refined pairs are the
    # geometrically correct ones, not merely consistent between planes.
    left = taxi_points(120, seed=29)
    right = census_blocks(25, seed=32)
    lb, rb = (GeometryBatch.from_geometries(left),
              GeometryBatch.from_geometries(right))
    counters = Counters()
    engine = make_engine("jts", counters)
    got = local_join("plane_sweep", lb, rb, engine,
                     counters=counters, predicate=INTERSECTS)
    brute = make_engine("jts", Counters())
    expected = sorted(
        (i, j)
        for i, p in enumerate(left)
        for j, poly in enumerate(right)
        if INTERSECTS.evaluate(brute, p, poly)
    )
    assert list(map(tuple, got.tolist())) == expected


def test_write_batch_file_matches_write_file():
    from repro.data.loaders import SpatialRecord
    from repro.hdfs.filesystem import SimulatedHDFS

    geoms = taxi_points(150, seed=33) + tiger_edges(30, seed=34)
    batch = GeometryBatch.from_geometries(geoms)
    records = [SpatialRecord(i, g) for i, g in enumerate(geoms)]

    h1, h2 = (SimulatedHDFS(block_size=1 << 11, counters=Counters()),
              SimulatedHDFS(block_size=1 << 11, counters=Counters()))
    f_obj = h1.write_file("/d", records)
    f_bat = h2.write_batch_file("/d", batch)

    # Identical block boundaries, byte accounting and counters.
    assert [(len(b), b.nbytes) for b in f_obj.blocks] == \
           [(len(b), b.nbytes) for b in f_bat.blocks]
    assert dict(h1.counters) == dict(h2.counters)

    back = h2.read_batch_file("/d")
    assert back.to_geometries() == geoms
    assert np.array_equal(back.mbrs.data, batch.mbrs.data)
