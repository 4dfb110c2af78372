"""Sort-Tile-Recursive (STR) bulk-loaded R-tree.

This is the workhorse index of the reproduction: SpatialHadoop packs one
per HDFS block in its preprocessing stage, SpatialSpark builds one over
partition MBRs for the broadcast global join and one per partition for the
local indexed nested-loop join.

The tree is stored level-by-level in flat NumPy arrays (struct-of-arrays,
per the HPC guides): each level keeps an ``(m, 4)`` bounds array plus
contiguous child ranges into the level below, so a query touches only
vectorized slice operations — no per-node Python objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..geometry.mbr import MBR, MBRArray
from ..metrics import Counters

__all__ = ["STRtree", "str_packing_order", "sync_tree_join"]

DEFAULT_LEAF_CAPACITY = 16
DEFAULT_FANOUT = 16


def str_packing_order(bounds: np.ndarray, capacity: int) -> np.ndarray:
    """Return the STR tiling order for an ``(n, 4)`` bounds array.

    Sort-Tile-Recursive: sort by center-x, cut into ``S = ceil(sqrt(n/c))``
    vertical slabs of ``S*c`` entries, sort each slab by center-y.  The
    returned permutation groups spatially-close rectangles into runs of
    *capacity*.
    """
    n = bounds.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    centers_x = (bounds[:, 0] + bounds[:, 2]) / 2.0
    centers_y = (bounds[:, 1] + bounds[:, 3]) / 2.0
    n_groups = -(-n // capacity)
    n_slabs = int(np.ceil(np.sqrt(n_groups)))
    slab_size = -(-n // n_slabs)
    by_x = np.argsort(centers_x, kind="stable")
    order = np.empty(n, dtype=np.int64)
    for s in range(n_slabs):
        slab = by_x[s * slab_size : (s + 1) * slab_size]
        order[s * slab_size : s * slab_size + slab.size] = slab[
            np.argsort(centers_y[slab], kind="stable")
        ]
    return order


def _expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(s, s + c)`` for each (start, count) pair."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.zeros(counts.shape[0], dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    return np.arange(total, dtype=np.int64) + np.repeat(starts - offsets, counts)


@dataclass
class _Level:
    """One tree level: node bounds plus contiguous child ranges below."""

    bounds: np.ndarray  # (m, 4)
    starts: np.ndarray  # (m,) start index into the level below (or items)
    ends: np.ndarray  # (m,) end index (exclusive)


def _pack_level(bounds: np.ndarray, fanout: int) -> _Level:
    """Group consecutive runs of *fanout* nodes into parents."""
    m = bounds.shape[0]
    n_parents = -(-m // fanout)
    starts = np.arange(n_parents, dtype=np.int64) * fanout
    ends = np.minimum(starts + fanout, m)
    parent_bounds = np.empty((n_parents, 4), dtype=np.float64)
    for i in range(n_parents):
        chunk = bounds[starts[i] : ends[i]]
        parent_bounds[i, 0] = chunk[:, 0].min()
        parent_bounds[i, 1] = chunk[:, 1].min()
        parent_bounds[i, 2] = chunk[:, 2].max()
        parent_bounds[i, 3] = chunk[:, 3].max()
    return _Level(parent_bounds, starts, ends)


class STRtree:
    """Immutable, bulk-loaded STR-packed R-tree over a batch of MBRs.

    Parameters
    ----------
    mbrs:
        The rectangles to index (``MBRArray`` or ``(n, 4)`` array).
    leaf_capacity, fanout:
        Packing widths for leaves and internal nodes.
    counters:
        Optional shared :class:`~repro.metrics.Counters`; when present,
        every build and query charges ``index.*`` counters used by the
        simulated-time cost model.
    """

    def __init__(
        self,
        mbrs: MBRArray | np.ndarray,
        *,
        leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
        fanout: int = DEFAULT_FANOUT,
        counters: Optional[Counters] = None,
    ):
        if isinstance(mbrs, MBRArray):
            bounds = mbrs.data
        else:
            bounds = np.ascontiguousarray(mbrs, dtype=np.float64)
        if leaf_capacity < 2 or fanout < 2:
            raise ValueError("leaf_capacity and fanout must be >= 2")
        self.counters = counters if counters is not None else Counters()
        self._n_items = bounds.shape[0]
        self.leaf_capacity = leaf_capacity
        self.fanout = fanout

        # Leaf level: STR-permute items, then group runs of leaf_capacity.
        order = str_packing_order(bounds, leaf_capacity)
        self.item_ids = order  # position -> original item id
        item_bounds = bounds[order] if order.size else bounds.reshape(0, 4)
        self._item_bounds = np.ascontiguousarray(item_bounds)

        self._levels: list[_Level] = []
        if self._n_items:
            level = _pack_level(self._item_bounds, leaf_capacity)
            self._levels.append(level)
            while level.bounds.shape[0] > 1:
                level = _pack_level(level.bounds, fanout)
                self._levels.append(level)
        # Accounting: every item placement plus every node creation.
        self.counters.add("index.build_ops", self._n_items)
        self.counters.add("index.nodes_built", sum(l.bounds.shape[0] for l in self._levels))

    # ------------------------------------------------------------ metadata
    def __len__(self) -> int:
        return self._n_items

    @property
    def height(self) -> int:
        """Number of levels above the items (0 for an empty tree)."""
        return len(self._levels)

    @property
    def extent(self) -> MBR:
        if not self._levels:
            return MBRArray(self._item_bounds).extent()
        root = self._levels[-1].bounds[0]
        return MBR(root[0], root[1], root[2], root[3])

    # --------------------------------------------------------------- query
    def query(self, box: MBR) -> np.ndarray:
        """Original ids of all items whose MBR intersects *box*."""
        if self._n_items == 0 or box.is_empty:
            return np.empty(0, dtype=np.int64)
        frontier = np.array([0], dtype=np.int64)  # root node index
        qxmin, qymin, qxmax, qymax = box.xmin, box.ymin, box.xmax, box.ymax
        visits = 0
        # Walk top level -> leaf level, keeping node positions whose bounds hit.
        for level in reversed(self._levels):
            if level is not self._levels[-1]:
                b = level.bounds[frontier]
                visits += frontier.size
                hit = (
                    (b[:, 0] <= qxmax)
                    & (qxmin <= b[:, 2])
                    & (b[:, 1] <= qymax)
                    & (qymin <= b[:, 3])
                )
                frontier = frontier[hit]
                if frontier.size == 0:
                    self.counters.add("index.node_visits", visits)
                    return np.empty(0, dtype=np.int64)
            # Expand to children ranges (positions in the level below).
            spans = [
                np.arange(level.starts[i], level.ends[i]) for i in frontier
            ]
            frontier = np.concatenate(spans) if spans else np.empty(0, dtype=np.int64)
        # frontier now holds item positions; test item bounds.
        visits += frontier.size
        self.counters.add("index.node_visits", visits)
        b = self._item_bounds[frontier]
        hit = (
            (b[:, 0] <= qxmax)
            & (qxmin <= b[:, 2])
            & (b[:, 1] <= qymax)
            & (qymin <= b[:, 3])
        )
        return self.item_ids[frontier[hit]]

    def query_many(self, boxes: MBRArray) -> list[np.ndarray]:
        """Query every box in one level-synchronous batched traversal.

        Instead of walking the tree once per box, all live (query, node)
        pairs descend together as two flat arrays, so each level is one
        vectorized bounds test over the whole batch.  Results and the
        ``index.node_visits`` total are bit-identical to calling
        :meth:`query` per box: per query the charge is the pre-filter
        frontier size at every level below the root plus the item-level
        frontier size, and within each query item ids keep the same
        (ascending-position) order.

        The working set is every live (query, entry) pair of one level,
        so it grows with the number of queries times the entries each
        query's box expands to — at the item level, the leaf entries of
        every leaf the box reaches.  Callers probing many boxes should
        pass them in bounded slices rather than all at once.
        """
        n_q = len(boxes)
        empty = np.empty(0, dtype=np.int64)
        if self._n_items == 0 or n_q == 0:
            return [empty] * n_q
        data = boxes.data
        # Empty query boxes never traverse (and never charge), as in query().
        active = np.flatnonzero((data[:, 0] <= data[:, 2]) & (data[:, 1] <= data[:, 3]))
        if active.size == 0:
            return [empty] * n_q
        qidx = active  # stays sorted ascending throughout
        node = np.zeros(active.size, dtype=np.int64)  # root position per query
        visits = 0
        for level in reversed(self._levels):
            if level is not self._levels[-1]:
                visits += node.size
                if node.size:
                    b = level.bounds[node]
                    q = data[qidx]
                    hit = (
                        (b[:, 0] <= q[:, 2])
                        & (q[:, 0] <= b[:, 2])
                        & (b[:, 1] <= q[:, 3])
                        & (q[:, 1] <= b[:, 3])
                    )
                    qidx = qidx[hit]
                    node = node[hit]
            starts = level.starts[node]
            counts = level.ends[node] - starts
            qidx = np.repeat(qidx, counts)
            node = _expand_ranges(starts, counts)
        # node now holds item positions; test item bounds.
        visits += node.size
        if node.size:
            b = self._item_bounds[node]
            q = data[qidx]
            hit = (
                (b[:, 0] <= q[:, 2])
                & (q[:, 0] <= b[:, 2])
                & (b[:, 1] <= q[:, 3])
                & (q[:, 1] <= b[:, 3])
            )
            qidx = qidx[hit]
            node = node[hit]
        self.counters.add("index.node_visits", visits)
        ids = self.item_ids[node]
        per_query = np.bincount(qidx, minlength=n_q)
        return np.split(ids, np.cumsum(per_query[:-1]))

    def count_query(self, box: MBR) -> int:
        """Number of items whose MBR intersects *box*."""
        return int(self.query(box).size)


def sync_tree_join(
    a: STRtree, b: STRtree, counters: Optional[Counters] = None
) -> np.ndarray:
    """Synchronized traversal join of two STR trees.

    Descends both trees simultaneously, pruning subtree pairs whose
    bounds are disjoint — the classic R-tree spatial-join of Brinkhoff
    et al. that SpatialHadoop offers as a local-join algorithm.  The
    traversal is an iterative level-synchronous pair-frontier expansion:
    every generation holds all live ``(node_a, node_b)`` pairs (which
    share one ``(level_a, level_b)`` state, since the descend rule is a
    pure function of the levels), expands the deeper side's children in
    one vectorized step and prunes disjoint child pairs in one bounds
    test.  The generation frontier sizes equal the recursive formulation's
    call multiset, so ``index.node_visits`` / ``index.leaf_pair_tests``
    totals are unchanged — they are simply charged once per call.

    Returns a lexsorted ``(n, 2)`` int64 array of (a_id, b_id) pairs
    whose item MBRs intersect.
    """
    empty = np.empty((0, 2), dtype=np.int64)
    if len(a) == 0 or len(b) == 0:
        return empty
    counters = counters if counters is not None else Counters()
    if not a.extent.intersects(b.extent):
        return empty

    level_a = len(a._levels) - 1
    level_b = len(b._levels) - 1
    na = np.zeros(1, dtype=np.int64)  # frontier: node positions in a
    nb = np.zeros(1, dtype=np.int64)  # paired node positions in b
    visits = 0
    while na.size and (level_a >= 0 or level_b >= 0):
        visits += na.size
        # Descend the deeper side (levels are counted from the leaves).
        if level_a >= 0 and (level_b < 0 or level_a >= level_b):
            level = a._levels[level_a]
            starts = level.starts[na]
            counts = level.ends[na] - starts
            children = _expand_ranges(starts, counts)
            partner = np.repeat(nb, counts)
            child_bounds = (
                a._item_bounds[children]
                if level_a == 0
                else a._levels[level_a - 1].bounds[children]
            )
            other = (
                b._item_bounds[partner]
                if level_b < 0
                else b._levels[level_b].bounds[partner]
            )
            na, nb, level_a = children, partner, level_a - 1
        else:
            level = b._levels[level_b]
            starts = level.starts[nb]
            counts = level.ends[nb] - starts
            children = _expand_ranges(starts, counts)
            partner = np.repeat(na, counts)
            child_bounds = (
                b._item_bounds[children]
                if level_b == 0
                else b._levels[level_b - 1].bounds[children]
            )
            other = (
                a._item_bounds[partner]
                if level_a < 0
                else a._levels[level_a].bounds[partner]
            )
            na, nb, level_b = partner, children, level_b - 1
        hit = (
            (child_bounds[:, 0] <= other[:, 2])
            & (other[:, 0] <= child_bounds[:, 2])
            & (child_bounds[:, 1] <= other[:, 3])
            & (other[:, 1] <= child_bounds[:, 3])
        )
        na, nb = na[hit], nb[hit]
    # Leaf generation: na / nb are item positions in both trees.
    visits += na.size
    counters.add("index.node_visits", visits)
    counters.add("index.leaf_pair_tests", na.size)
    if not na.size:
        return empty
    ba = a._item_bounds[na]
    bb = b._item_bounds[nb]
    hit = (
        (ba[:, 0] <= bb[:, 2])
        & (bb[:, 0] <= ba[:, 2])
        & (ba[:, 1] <= bb[:, 3])
        & (bb[:, 1] <= ba[:, 3])
    )
    pairs = np.stack([a.item_ids[na[hit]], b.item_ids[nb[hit]]], axis=1)
    if pairs.shape[0] < 2:
        return pairs
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
