"""CSR-native multi-geometry kernels: all candidate pairs in one pass.

Where :mod:`repro.geometry.vectorized` evaluates many points against
*one* ring or polyline, these kernels evaluate a whole candidate set —
``(point, polygon)`` or ``(point, polyline)`` pairs — directly against a
:class:`~repro.geometry.batch.GeometryBatch`'s packed CSR buffers
(``coords`` / ``ring_offsets`` / ``geom_rings``).  No per-geometry
Python iteration, no ``Polygon``/``PolyLine`` materialisation.

Layout
------
Work is flattened onto a single ``(candidate x segment)`` axis: candidate
``c`` against a geometry with ``s_c`` segments contributes ``s_c``
consecutive flat elements.  ``flat_offsets`` (an exclusive prefix sum of
segment counts) maps flat positions back to candidates, so one
``searchsorted`` per chunk recovers the candidate window, ``bincount``
folds per-segment hits into per-candidate crossing counts, and
``minimum.reduceat`` folds per-segment distances into per-candidate
minima.  Chunking the flat axis bounds peak memory regardless of how
skewed the per-candidate segment counts are.

Bit-parity contract
-------------------
Every elementwise expression here is written with the same operand
order as its per-ring counterpart in ``vectorized.py`` (crossing-number
half-open rule, ``safe_dy`` horizontal-segment guard, exact ``cross ==
0`` boundary test, clamped projection distances).  Crossing parity and
min-distance reductions are exact (integer counts; ``min`` is
order-independent), so the masks are bit-identical to the per-group
path — the engines rely on this to keep the golden-equivalence
guarantee while charging counters in bulk.
"""

from __future__ import annotations

import numpy as np

from .batch import _ranges

__all__ = [
    "points_in_polygons_csr",
    "points_within_polylines_csr",
]

# Chunk size for the flattened (candidate x segment) axis: large enough
# to amortize NumPy dispatch, small enough to keep intermediates in
# cache-friendly territory.
_FLAT_CHUNK = 1 << 16

def _flat_chunks(flat_offsets: np.ndarray, seg_starts: np.ndarray, chunk: int):
    """Iterate the flattened (candidate x segment) axis in bounded chunks.

    Yields ``(c0, c1, rel, seg_idx, bounds)`` per chunk where candidates
    ``c0:c1`` intersect the chunk, ``rel`` maps each flat element to its
    candidate (relative to ``c0``), ``seg_idx`` is the element's segment
    start index into the coords buffer, and ``bounds`` are the reduceat
    boundaries of the per-candidate runs inside the chunk.
    """
    total = int(flat_offsets[-1])
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        c0 = int(np.searchsorted(flat_offsets, lo, side="right") - 1)
        c1 = int(np.searchsorted(flat_offsets, hi, side="left"))
        clipped = np.clip(flat_offsets[c0 : c1 + 1], lo, hi)
        counts = np.diff(clipped)
        rel = np.repeat(np.arange(c1 - c0, dtype=np.int64), counts)
        seg_idx = np.arange(lo, hi, dtype=np.int64) + np.repeat(
            seg_starts[c0:c1] - flat_offsets[c0:c1], counts
        )
        yield c0, c1, rel, seg_idx, clipped[:-1] - lo


def _rings_parity_edge(
    pts: np.ndarray,
    pair_cand: np.ndarray,
    pair_ring: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
    ring_offsets: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per (candidate, ring) pair: crossing parity and exact-edge flag.

    ``cx``/``cy`` are contiguous 1-D coordinate columns.  The
    crossing-number half-open rule and the ``cross == 0`` boundary test
    match ``points_in_ring`` / ``points_on_ring`` expression for
    expression; parity is folded across chunks with XOR (exact — parity
    of a sum is the XOR of partial parities).
    """
    n_cr = pair_ring.shape[0]
    seg_starts = ring_offsets[pair_ring]
    seg_counts = ring_offsets[pair_ring + 1] - seg_starts - 1
    flat_offsets = np.zeros(n_cr + 1, dtype=np.int64)
    np.cumsum(seg_counts, out=flat_offsets[1:])
    parity = np.zeros(n_cr, dtype=bool)
    on_edge = np.zeros(n_cr, dtype=bool)
    pts_x = np.ascontiguousarray(pts[:, 0])
    pts_y = np.ascontiguousarray(pts[:, 1])
    for c0, c1, rel, seg_idx, bounds in _flat_chunks(
        flat_offsets, seg_starts, _FLAT_CHUNK
    ):
        ax, ay = cx[seg_idx], cy[seg_idx]
        bx, by = cx[seg_idx + 1], cy[seg_idx + 1]
        cand = pair_cand[c0 + rel]
        px, py = pts_x[cand], pts_y[cand]
        dy = by - ay
        safe_dy = np.where(dy == 0.0, 1.0, dy)
        straddles = (ay > py) != (by > py)
        x_cross = ax + (py - ay) * (bx - ax) / safe_dy
        hit = straddles & (px < x_cross)
        parity[c0:c1] ^= np.logical_xor.reduceat(hit, bounds)
        cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        on_seg = (
            (np.minimum(ax, bx) <= px)
            & (px <= np.maximum(ax, bx))
            & (np.minimum(ay, by) <= py)
            & (py <= np.maximum(ay, by))
        )
        edge = (cross == 0.0) & on_seg
        on_edge[c0:c1] |= np.logical_or.reduceat(edge, bounds)
    return parity, on_edge


def points_in_polygons_csr(
    xy: np.ndarray,
    rows: np.ndarray,
    coords: np.ndarray,
    ring_offsets: np.ndarray,
    geom_rings: np.ndarray,
    mbr_data: np.ndarray,
    coords_cols: "tuple[np.ndarray, np.ndarray] | None" = None,
) -> np.ndarray:
    """Inclusive point-in-polygon mask for many (point, polygon) pairs.

    ``xy[c]`` is tested against the polygon stored at batch row
    ``rows[c]``; holes are honoured with the same inclusive-boundary
    rule as ``vectorized.points_in_polygon``.  One chunked pass over the
    packed coords buffer, no per-polygon iteration.  Pass the batch's
    cached :meth:`~repro.geometry.batch.GeometryBatch.coords_cols` as
    *coords_cols* to skip re-splitting the coordinate columns.
    """
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    rows = np.asarray(rows, dtype=np.int64)
    k = xy.shape[0]
    result = np.zeros(k, dtype=bool)
    if k == 0:
        return result
    boxes = mbr_data[rows]
    in_box = (
        (boxes[:, 0] <= xy[:, 0])
        & (xy[:, 0] <= boxes[:, 2])
        & (boxes[:, 1] <= xy[:, 1])
        & (xy[:, 1] <= boxes[:, 3])
    )
    cand = np.flatnonzero(in_box)
    if cand.size == 0:
        return result
    pts = xy[cand]
    crows = rows[cand]
    # One (candidate, ring) pair per ring of each candidate's polygon,
    # exterior ring first (CSR ring order).
    ring_lo = geom_rings[crows]
    ring_counts = geom_rings[crows + 1] - ring_lo
    n_cr = int(ring_counts.sum())
    cr_ring = _ranges(ring_lo, ring_counts, n_cr)
    cr_cand = np.repeat(np.arange(cand.size, dtype=np.int64), ring_counts)
    if coords_cols is None:
        coords_cols = (
            np.ascontiguousarray(coords[:, 0]),
            np.ascontiguousarray(coords[:, 1]),
        )
    cx, cy = coords_cols
    parity, on_edge = _rings_parity_edge(pts, cr_cand, cr_ring, cx, cy, ring_offsets)
    first = np.zeros(cand.size + 1, dtype=np.int64)
    np.cumsum(ring_counts, out=first[1:])
    first = first[:-1]  # index of each candidate's exterior-ring pair
    is_first = np.zeros(n_cr, dtype=bool)
    is_first[first] = True
    # Exterior: inclusive containment (inside by parity, or on edge).
    mask = parity[first] | on_edge[first]
    # Holes veto a candidate when the point is strictly inside one
    # (inside by parity and not on the hole's edge).
    hole_bad = parity & ~on_edge & ~is_first
    mask &= np.bincount(cr_cand[hole_bad], minlength=cand.size) == 0
    result[cand] = mask
    return result


def points_within_polylines_csr(
    xy: np.ndarray,
    rows: np.ndarray,
    coords: np.ndarray,
    ring_offsets: np.ndarray,
    geom_rings: np.ndarray,
    distance: float,
    coords_cols: "tuple[np.ndarray, np.ndarray] | None" = None,
) -> np.ndarray:
    """Mask of (point, polyline) pairs within *distance* of each other.

    Clamped point-to-segment projection identical to
    ``vectorized.points_segments_min_distance`` (per-component form of
    the same expressions — a 2-element ``.sum(axis=1)`` is exactly
    ``x + y``); the per-candidate minimum is folded across chunks
    (order-independent, exact).
    """
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    rows = np.asarray(rows, dtype=np.int64)
    k = xy.shape[0]
    if k == 0:
        return np.zeros(0, dtype=bool)
    ring0 = geom_rings[rows]  # a polyline is stored as one open "ring"
    seg_starts = ring_offsets[ring0]
    seg_counts = ring_offsets[ring0 + 1] - seg_starts - 1
    flat_offsets = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(seg_counts, out=flat_offsets[1:])
    if coords_cols is None:
        coords_cols = (
            np.ascontiguousarray(coords[:, 0]),
            np.ascontiguousarray(coords[:, 1]),
        )
    cx, cy = coords_cols
    pts_x = np.ascontiguousarray(xy[:, 0])
    pts_y = np.ascontiguousarray(xy[:, 1])
    min_d2 = np.full(k, np.inf)
    for c0, c1, rel, seg_idx, bounds in _flat_chunks(
        flat_offsets, seg_starts, _FLAT_CHUNK
    ):
        ax, ay = cx[seg_idx], cy[seg_idx]
        bx, by = cx[seg_idx + 1], cy[seg_idx + 1]
        dx = bx - ax
        dy = by - ay
        seg_len2 = dx * dx + dy * dy
        safe_len2 = np.where(seg_len2 == 0.0, 1.0, seg_len2)
        px, py = pts_x[c0 + rel], pts_y[c0 + rel]
        t = ((px - ax) * dx + (py - ay) * dy) / safe_len2
        np.clip(t, 0.0, 1.0, out=t)
        ex = px - (ax + t * dx)
        ey = py - (ay + t * dy)
        dist2 = ex * ex + ey * ey
        partial = np.minimum.reduceat(dist2, bounds)
        np.minimum(min_d2[c0:c1], partial, out=min_d2[c0:c1])
    return np.sqrt(min_d2) <= distance
