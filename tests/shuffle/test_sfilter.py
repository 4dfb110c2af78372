"""Property-based tests of the sFilter's zero-false-negative guarantee.

The contract the whole prune pipeline rests on: a record the sFilter
prunes (``contains(...) == False``) has an MBR *provably disjoint* from
every MBR of the build side — for arbitrary generated batches, margins
and resolutions, including the degenerate shapes (empty side, single
cell, all-hot bitmap).  False positives are allowed (they only forgo
savings); false negatives never are, because a false negative silently
drops a result pair.

The hypothesis suite runs ≥200 generated cases in CI (see
``test_pruned_box_is_disjoint_from_entire_build_side``), and the
backend matrix pins that a full system run with the filter on is
bit-identical across serial and process execution.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import spatial_join
from repro.data.synthetic import census_blocks, hotspot_points
from repro.exec.backend import ProcessBackend
from repro.geometry.mbr import MBRArray
from repro.shuffle import SFilter, ShuffleConfig, resolve_shuffle

coord = st.floats(
    min_value=-50, max_value=50, allow_nan=False, allow_infinity=False
)


@st.composite
def box_rows(draw, min_size=0, max_size=24):
    """(n, 4) float rows of valid (possibly degenerate) MBRs."""
    n = draw(st.integers(min_size, max_size))
    rows = []
    for _ in range(n):
        x1, x2 = sorted((draw(coord), draw(coord)))
        y1, y2 = sorted((draw(coord), draw(coord)))
        rows.append((x1, y1, x2, y2))
    return np.array(rows, dtype=np.float64).reshape(n, 4)


def _disjoint(q, build_rows, margin):
    """True iff the margin-expanded query row touches no build row."""
    qx0, qy0, qx1, qy1 = q[0] - margin, q[1] - margin, q[2] + margin, q[3] + margin
    for bx0, by0, bx1, by1 in build_rows:
        if not (qx1 < bx0 or bx1 < qx0 or qy1 < by0 or by1 < qy0):
            return False
    return True


class TestZeroFalseNegatives:
    @given(
        build=box_rows(min_size=1),
        queries=box_rows(min_size=1),
        margin=st.floats(min_value=0, max_value=5, allow_nan=False),
        resolution=st.sampled_from([1, 2, 7, 64]),
    )
    @settings(max_examples=200, deadline=None)
    def test_pruned_box_is_disjoint_from_entire_build_side(
        self, build, queries, margin, resolution
    ):
        sf = SFilter(MBRArray(build), resolution=resolution)
        keep = sf.contains(MBRArray(queries), margin=margin)
        for q, kept in zip(queries, keep):
            if not kept:
                assert _disjoint(q, build, margin), (
                    f"false negative: pruned {q} intersects the build side"
                )

    @given(build=box_rows(min_size=1), queries=box_rows(min_size=1))
    @settings(max_examples=50, deadline=None)
    def test_deterministic_pure_function(self, build, queries):
        a = SFilter(MBRArray(build)).contains(MBRArray(queries))
        b = SFilter(MBRArray(build)).contains(MBRArray(queries))
        assert np.array_equal(a, b)


class TestEdgeCases:
    def test_empty_build_side_prunes_everything(self):
        sf = SFilter(MBRArray.empty())
        queries = MBRArray(np.array([[0, 0, 1, 1], [5, 5, 6, 6]], dtype=float))
        assert not sf.contains(queries).any()
        assert sf.n_cells == 0

    def test_empty_query_side(self):
        sf = SFilter(MBRArray(np.array([[0, 0, 1, 1]], dtype=float)))
        assert sf.contains(MBRArray.empty()).shape == (0,)

    def test_single_cell_resolution(self):
        sf = SFilter(
            MBRArray(np.array([[0, 0, 1, 1], [3, 3, 4, 4]], dtype=float)),
            resolution=1,
        )
        assert sf.n_cells == 1
        queries = MBRArray(
            np.array([[2, 2, 2.5, 2.5], [9, 9, 10, 10]], dtype=float)
        )
        keep = sf.contains(queries)
        # One cell covers the whole extent: everything inside bounds is a
        # (harmless) false positive, everything outside is still pruned.
        assert keep.tolist() == [True, False]

    def test_degenerate_point_build_side(self):
        # All build boxes share one point: bounds collapse to a 1x1 grid.
        sf = SFilter(MBRArray(np.array([[2, 3, 2, 3]] * 4, dtype=float)))
        assert (sf.nx, sf.ny) == (1, 1)
        queries = MBRArray(
            np.array([[1.5, 2.5, 2.5, 3.5], [4, 4, 5, 5]], dtype=float)
        )
        assert sf.contains(queries).tolist() == [True, False]

    def test_all_hot_bitmap_prunes_only_outside_bounds(self):
        # One giant box sets every cell: pruning degrades gracefully to a
        # pure bounds check, never to a wrong answer.
        sf = SFilter(MBRArray(np.array([[0, 0, 10, 10]], dtype=float)))
        assert sf.cells_set == sf.n_cells
        queries = MBRArray(
            np.array([[4, 4, 5, 5], [11, 11, 12, 12]], dtype=float)
        )
        assert sf.contains(queries).tolist() == [True, False]

    def test_margin_rescues_near_miss(self):
        sf = SFilter(MBRArray(np.array([[0, 0, 1, 1]], dtype=float)))
        near = MBRArray(np.array([[1.5, 0, 2, 1]], dtype=float))
        assert not sf.contains(near, margin=0.0).any()
        assert sf.contains(near, margin=1.0).all()

    def test_resolution_must_be_positive(self):
        with pytest.raises(ValueError, match="resolution"):
            SFilter(MBRArray.empty(), resolution=0)


class TestResolveShuffle:
    def test_none_and_false_mean_off(self):
        assert resolve_shuffle(None) is None
        assert resolve_shuffle(False) is None

    def test_true_means_defaults(self):
        assert resolve_shuffle(True) == ShuffleConfig()

    def test_config_passes_through(self):
        cfg = ShuffleConfig(hot_factor=8.0)
        assert resolve_shuffle(cfg) is cfg

    def test_rejects_other_types(self):
        with pytest.raises(TypeError, match="shuffle="):
            resolve_shuffle("skew")


BACKENDS = ["serial"] + (["process"] if ProcessBackend.available() else [])


class TestBackendDeterminism:
    """A run with the filter on is bit-identical across execution backends.

    The prune charges happen inside task bodies, so this pins that they
    flow through the thread-local redirect sinks and merge in task-index
    order like every other counter.
    """

    @pytest.fixture(scope="class")
    def runs(self):
        left = hotspot_points(240, seed=33)
        right = census_blocks(40, seed=34)
        out = {}
        for backend in BACKENDS:
            report = spatial_join(
                left, right, system="SpatialSpark", plan=None,
                workers=1 if backend == "serial" else 2, backend=backend,
                system_kwargs={
                    "partitioner": "grid", "n_partitions": 9, "shuffle": True,
                },
            )
            out[backend] = report
        return out

    def test_pairs_identical_across_backends(self, runs):
        baseline = runs["serial"].pairs
        for backend, report in runs.items():
            assert report.pairs == baseline, backend

    def test_counter_ledgers_identical_across_backends(self, runs):
        baseline = runs["serial"].counters.snapshot()
        assert baseline.get("shuffle.records_pruned", 0) > 0
        for backend, report in runs.items():
            assert report.counters.snapshot() == baseline, backend
