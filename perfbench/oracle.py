"""Expected answers, computed without the program's join machinery.

Every oracle is a NumPy MBR prefilter followed by the scalar object
predicates ``geometries_intersect`` / ``geometry_distance`` — the same
method as the repository's brute-force validator, but with the
quadratic candidate scan done on MBR arrays in row blocks so it stays
cheap at benchmark sizes.  Nothing here touches the CSR kernels, the
indexes or any system.
"""

from __future__ import annotations

import numpy as np

__all__ = ["intersect_pairs", "DistanceOracle", "range_ids"]

_BLOCK = 512


def _mbr_candidates(left_mbrs: np.ndarray, right_mbrs: np.ndarray, margin: float = 0.0):
    """Row/column index arrays of MBR pairs within *margin* of overlapping."""
    rows, cols = [], []
    r = right_mbrs
    for start in range(0, left_mbrs.shape[0], _BLOCK):
        lm = left_mbrs[start:start + _BLOCK]
        hit = (
            (lm[:, None, 0] <= r[None, :, 2] + margin)
            & (lm[:, None, 2] >= r[None, :, 0] - margin)
            & (lm[:, None, 1] <= r[None, :, 3] + margin)
            & (lm[:, None, 3] >= r[None, :, 1] - margin)
        )
        i, j = np.nonzero(hit)
        rows.append(i + start)
        cols.append(j)
    if not rows:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(rows), np.concatenate(cols)


def intersect_pairs(left, right) -> frozenset:
    """``{(left id, right id)}`` of intersecting geometries of two batches."""
    from repro.geometry import geometries_intersect

    rows, cols = _mbr_candidates(left.mbrs.data, right.mbrs.data)
    lg, rg = left.to_geometries(), right.to_geometries()
    lid, rid = left.ids, right.ids
    return frozenset(
        (int(lid[i]), int(rid[j]))
        for i, j in zip(rows.tolist(), cols.tolist())
        if geometries_intersect(lg[i], rg[j])
    )


class DistanceOracle:
    """Exact distances of every pair within *max_radius*, kept once.

    The answer of a distance join at any radius up to *max_radius* is a
    threshold over this list, so one scan serves every served query.
    """

    def __init__(self, left, right, max_radius: float):
        from repro.geometry import geometry_distance

        self.max_radius = max_radius
        rows, cols = _mbr_candidates(left.mbrs.data, right.mbrs.data, max_radius)
        lg, rg = left.to_geometries(), right.to_geometries()
        dist = np.fromiter(
            (geometry_distance(lg[i], rg[j]) for i, j in zip(rows.tolist(), cols.tolist())),
            dtype=np.float64, count=rows.shape[0],
        )
        keep = dist <= max_radius
        self.left_ids = left.ids[rows[keep]].astype(np.int64)
        self.right_ids = right.ids[cols[keep]].astype(np.int64)
        self.dist = dist[keep]

    def pairs(self, radius: float) -> frozenset:
        if radius > self.max_radius:
            raise ValueError("radius beyond the oracle's range")
        sel = self.dist <= radius
        return frozenset(zip(self.left_ids[sel].tolist(), self.right_ids[sel].tolist()))


def range_ids(batch, box) -> tuple:
    """Ids (in row order) of records whose geometry intersects *box*."""
    from repro.geometry import geometries_intersect
    from repro.geometry.primitives import Polygon

    xmin, ymin, xmax, ymax = box
    m = batch.mbrs.data
    rows = np.nonzero(
        (m[:, 0] <= xmax) & (m[:, 2] >= xmin) & (m[:, 1] <= ymax) & (m[:, 3] >= ymin)
    )[0]
    poly = Polygon([(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)])
    return tuple(
        int(batch.ids[i]) for i in rows.tolist() if geometries_intersect(batch[i], poly)
    )
