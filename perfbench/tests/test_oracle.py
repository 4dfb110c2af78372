"""The oracles agree with the repository's brute-force validator."""

import pytest
from oracle import DistanceOracle, intersect_pairs, range_ids
from repro.core.predicate import INTERSECTS, within_distance
from repro.data import synthetic
from repro.experiments.validate import _brute
from repro.geometry import geometries_intersect
from repro.geometry.primitives import Polygon
from workloads import EDGES_DOMAIN, MANHATTAN


def _geoms(batch):
    assert list(batch.ids) == list(range(len(batch)))  # _brute yields row indices
    return batch.to_geometries()


@pytest.mark.parametrize("seed", [1, 2])
def test_points_in_blocks(seed):
    left = synthetic.taxi_points_batch(120, seed=seed)
    right = synthetic.census_blocks_batch(12, seed=seed + 7)
    expected = _brute(_geoms(left), _geoms(right), INTERSECTS)
    assert expected
    assert intersect_pairs(left, right) == expected


@pytest.mark.parametrize("seed", [1, 2])
def test_edges_cross_water(seed):
    left = synthetic.tiger_edges_batch(150, seed=seed, domain=EDGES_DOMAIN)
    right = synthetic.linear_water_batch(30, seed=seed + 7, domain=EDGES_DOMAIN)
    expected = _brute(_geoms(left), _geoms(right), INTERSECTS)
    assert intersect_pairs(left, right) == expected


@pytest.mark.parametrize("radius", [0.0008, 0.0017, 0.003])
def test_points_near_roads_at_any_radius(radius):
    left = synthetic.taxi_points_batch(300, seed=3)
    right = synthetic.tiger_edges_batch(60, seed=4, domain=MANHATTAN)
    oracle = DistanceOracle(left, right, 0.003)
    expected = _brute(_geoms(left), _geoms(right), within_distance(radius))
    assert expected
    assert oracle.pairs(radius) == expected
    with pytest.raises(ValueError):
        oracle.pairs(0.004)


def test_range_ids_match_a_full_scan():
    batch = synthetic.taxi_points_batch(300, seed=5)
    box = (-74.0, 40.74, -73.97, 40.77)
    poly = Polygon([(box[0], box[1]), (box[2], box[1]), (box[2], box[3]), (box[0], box[3])])
    expected = tuple(i for i, g in enumerate(_geoms(batch)) if geometries_intersect(g, poly))
    assert expected
    assert range_ids(batch, box) == expected
