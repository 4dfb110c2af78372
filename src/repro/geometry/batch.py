"""Columnar structure-of-arrays geometry batches.

:class:`GeometryBatch` is the columnar counterpart of a ``list`` of
:class:`~repro.geometry.primitives.Geometry` objects.  One batch of *n*
geometries is five flat NumPy arrays instead of *n* Python objects:

* ``kinds`` — ``(n,)`` int8 kind codes (:data:`KIND_POINT`,
  :data:`KIND_POLYLINE`, :data:`KIND_POLYGON`),
* ``coords`` — one packed C-contiguous ``(P, 2)`` float64 buffer holding
  every coordinate of every geometry, ring after ring,
* ``ring_offsets`` — ``(R + 1,)`` int64 offsets into ``coords`` framing
  the *R* rings (a point or polyline is a single "ring"),
* ``geom_rings`` — ``(n + 1,)`` int64 offsets into ``ring_offsets``
  framing each geometry's rings (ring 0 is a polygon's exterior),
* ``ids`` — ``(n,)`` int64 record ids.

``mbrs`` is an :class:`~repro.geometry.mbr.MBRArray` computed **once**
when the batch is built (at parse time on the loader paths) so every
downstream MBR filter slices it with zero recompute.  The values are
bit-identical to the per-object ``Geometry.mbr`` properties — polygon
rows use the exterior ring only, matching :class:`Polygon`.

The batch is the unit the data plane carries end-to-end: TSV/WKT codecs
produce it, simulated-HDFS blocks hold it, the local/global join kernels
filter on ``mbrs`` and refine straight out of ``coords``, and pickling
(:meth:`__reduce__`) ships the handful of array buffers — not thousands
of objects — through the fork/process execution backend.

For incremental migration the object world stays reachable: ``batch[i]``
lazily materialises (and caches) a single :class:`Geometry`, and the
``from_geometries`` / ``to_geometries`` converters round-trip exactly.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .mbr import MBR, MBRArray
from .primitives import Geometry, Point, PolyLine, Polygon

__all__ = [
    "GeometryBatch",
    "KIND_POINT",
    "KIND_POLYLINE",
    "KIND_POLYGON",
    "KIND_CODES",
    "as_mbr_array",
]

#: Kind codes stored in :attr:`GeometryBatch.kinds`.
KIND_POINT = 0
KIND_POLYLINE = 1
KIND_POLYGON = 2

#: ``Geometry.kind`` string -> kind code.
KIND_CODES = {"point": KIND_POINT, "polyline": KIND_POLYLINE, "polygon": KIND_POLYGON}


def _compute_mbrs(kinds, coords, ring_offsets, geom_rings) -> MBRArray:
    """Per-geometry MBRs from the packed buffer, bit-identical to objects.

    ``Geometry.mbr`` reduces over a single coordinate block per geometry:
    the full block for points/polylines and the *exterior ring only* for
    polygons.  In every case that block is ring 0 of the geometry, so one
    ``reduceat`` over the first-ring spans reproduces the object values
    exactly (min/max never round).
    """
    n = len(kinds)
    if n == 0:
        return MBRArray.empty()
    first_ring = geom_rings[:-1]
    # Reduce per *ring* (ring_offsets is strictly increasing: every ring
    # has >= 1 point), then pick each geometry's ring 0.
    ring_mins = np.minimum.reduceat(coords, ring_offsets[:-1], axis=0)
    ring_maxs = np.maximum.reduceat(coords, ring_offsets[:-1], axis=0)
    data = np.empty((n, 4), dtype=np.float64)
    data[:, 0:2] = ring_mins[first_ring]
    data[:, 2:4] = ring_maxs[first_ring]
    return MBRArray(data)


class GeometryBatch:
    """A structure-of-arrays batch of geometries with cached MBRs."""

    __slots__ = (
        "kinds",
        "coords",
        "ring_offsets",
        "geom_rings",
        "ids",
        "mbrs",
        "_objects",
        "_id_rows",
        "_coords_cols",
    )

    def __init__(
        self,
        kinds: np.ndarray,
        coords: np.ndarray,
        ring_offsets: np.ndarray,
        geom_rings: np.ndarray,
        ids: Optional[np.ndarray] = None,
        mbrs: Optional[MBRArray] = None,
    ):
        self.kinds = np.ascontiguousarray(kinds, dtype=np.int8)
        self.coords = np.ascontiguousarray(coords, dtype=np.float64).reshape(-1, 2)
        self.ring_offsets = np.ascontiguousarray(ring_offsets, dtype=np.int64)
        self.geom_rings = np.ascontiguousarray(geom_rings, dtype=np.int64)
        n = self.kinds.shape[0]
        if self.geom_rings.shape[0] != n + 1:
            raise ValueError(
                f"geom_rings must have {n + 1} entries, got {self.geom_rings.shape[0]}"
            )
        if ids is None:
            ids = np.arange(n, dtype=np.int64)
        self.ids = np.ascontiguousarray(ids, dtype=np.int64)
        if self.ids.shape[0] != n:
            raise ValueError(f"ids must have {n} entries, got {self.ids.shape[0]}")
        if mbrs is None:
            mbrs = _compute_mbrs(self.kinds, self.coords, self.ring_offsets, self.geom_rings)
        self.mbrs = mbrs
        self._objects: Optional[list] = None  # lazy Geometry cache
        self._id_rows: Optional[dict] = None  # lazy id -> row map
        self._coords_cols: Optional[tuple] = None  # lazy (x, y) columns

    # ----------------------------------------------------------- constructors
    @staticmethod
    def empty() -> "GeometryBatch":
        return GeometryBatch(
            np.empty(0, dtype=np.int8),
            np.empty((0, 2), dtype=np.float64),
            np.zeros(1, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
        )

    @staticmethod
    def from_parts(
        kinds: Sequence[int],
        rings_per_geom: Sequence[Sequence[np.ndarray]],
        ids: Optional[Sequence[int]] = None,
    ) -> "GeometryBatch":
        """Assemble a batch from per-geometry lists of ring arrays.

        Rings must already be validated/normalized ``(k, 2)`` float64
        arrays (closed and oriented for polygons) — this is the shared
        packing step behind the converters and the batch WKT codec.
        """
        n = len(kinds)
        if n == 0:
            return GeometryBatch.empty()
        ring_sizes = [r.shape[0] for rings in rings_per_geom for r in rings]
        ring_offsets = np.zeros(len(ring_sizes) + 1, dtype=np.int64)
        np.cumsum(ring_sizes, out=ring_offsets[1:])
        geom_rings = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([len(rings) for rings in rings_per_geom], out=geom_rings[1:])
        if ring_offsets[-1]:
            coords = np.concatenate(
                [r for rings in rings_per_geom for r in rings], axis=0
            )
        else:  # pragma: no cover - every geometry kind has >= 1 point
            coords = np.empty((0, 2), dtype=np.float64)
        return GeometryBatch(
            np.asarray(kinds, dtype=np.int8), coords, ring_offsets, geom_rings,
            ids=None if ids is None else np.asarray(ids, dtype=np.int64),
        )

    @staticmethod
    def from_geometries(
        geometries: Iterable[Geometry], ids: Optional[Sequence[int]] = None
    ) -> "GeometryBatch":
        """Pack materialised :class:`Geometry` objects into one batch."""
        kinds: list[int] = []
        rings: list[list[np.ndarray]] = []
        for geom in geometries:
            if isinstance(geom, Point):
                kinds.append(KIND_POINT)
                rings.append([np.array([[geom.x, geom.y]], dtype=np.float64)])
            elif isinstance(geom, PolyLine):
                kinds.append(KIND_POLYLINE)
                rings.append([geom.coords])
            elif isinstance(geom, Polygon):
                kinds.append(KIND_POLYGON)
                rings.append([geom.exterior, *geom.holes])
            else:
                raise TypeError(f"not a geometry: {geom!r}")
        return GeometryBatch.from_parts(kinds, rings, ids=ids)

    @staticmethod
    def from_records(records: Sequence) -> "GeometryBatch":
        """Pack ``SpatialRecord``-like objects (``.rid``/``.geometry``)."""
        return GeometryBatch.from_geometries(
            [r.geometry for r in records], ids=[r.rid for r in records]
        )

    @staticmethod
    def from_points(xy: np.ndarray, ids: Optional[Sequence[int]] = None) -> "GeometryBatch":
        """Fast path: a batch of *n* points from an ``(n, 2)`` array."""
        xy = np.ascontiguousarray(xy, dtype=np.float64)
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise ValueError(f"expected an (n, 2) point array, got {xy.shape}")
        if not np.all(np.isfinite(xy)):
            raise ValueError("Point coordinates must be finite")
        n = xy.shape[0]
        offsets = np.arange(n + 1, dtype=np.int64)
        return GeometryBatch(
            np.zeros(n, dtype=np.int8), xy, offsets, offsets,
            ids=None if ids is None else np.asarray(ids, dtype=np.int64),
            mbrs=MBRArray.from_points(xy),
        )

    @staticmethod
    def coerce(items: Union["GeometryBatch", Sequence]) -> "GeometryBatch":
        """Normalise any accepted input shape into a batch.

        Accepts an existing batch (returned as-is), a sequence of
        geometries, or a sequence of ``SpatialRecord``-like objects.
        """
        if isinstance(items, GeometryBatch):
            return items
        seq = list(items)
        if seq and not isinstance(seq[0], Geometry):
            return GeometryBatch.from_records(seq)
        return GeometryBatch.from_geometries(seq)

    @staticmethod
    def concat(batches: Sequence["GeometryBatch"]) -> "GeometryBatch":
        """Concatenate batches into one (ids are carried through)."""
        batches = [b for b in batches if len(b)]
        if not batches:
            return GeometryBatch.empty()
        if len(batches) == 1:
            return batches[0]
        kinds = np.concatenate([b.kinds for b in batches])
        coords = np.concatenate([b.coords for b in batches], axis=0)
        ids = np.concatenate([b.ids for b in batches])
        ring_parts = []
        geom_parts = [np.zeros(1, dtype=np.int64)]
        coord_base = 0
        ring_base = 0
        for b in batches:
            ring_parts.append(b.ring_offsets[:-1] + coord_base if ring_parts else
                              b.ring_offsets[:-1])
            geom_parts.append(b.geom_rings[1:] + ring_base)
            coord_base += b.coords.shape[0]
            ring_base += b.ring_offsets.shape[0] - 1
        ring_parts.append(np.array([coord_base], dtype=np.int64))
        mbrs = MBRArray(np.concatenate([b.mbrs.data for b in batches], axis=0))
        return GeometryBatch(
            kinds, coords, np.concatenate(ring_parts),
            np.concatenate(geom_parts), ids=ids, mbrs=mbrs,
        )

    # -------------------------------------------------------------- accessors
    def __len__(self) -> int:
        return self.kinds.shape[0]

    def __getitem__(self, i: int) -> Geometry:
        """Lazily materialise (and cache) one geometry object."""
        i = int(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(i)
        if self._objects is None:
            self._objects = [None] * len(self)
        geom = self._objects[i]
        if geom is None:
            geom = self._build_geometry(i)
            self._objects[i] = geom
        return geom

    def _build_geometry(self, i: int) -> Geometry:
        kind = self.kinds[i]
        r0, r1 = self.geom_rings[i], self.geom_rings[i + 1]
        if kind == KIND_POINT:
            s = self.ring_offsets[r0]
            return Point(self.coords[s, 0], self.coords[s, 1])
        rings = [
            self.coords[self.ring_offsets[r] : self.ring_offsets[r + 1]]
            for r in range(r0, r1)
        ]
        if kind == KIND_POLYLINE:
            return PolyLine(rings[0])
        return Polygon(rings[0], rings[1:])

    geometry = __getitem__

    def rings(self, i: int) -> list[np.ndarray]:
        """Ring coordinate views of geometry *i* (no copy, no objects)."""
        r0, r1 = self.geom_rings[i], self.geom_rings[i + 1]
        return [
            self.coords[self.ring_offsets[r] : self.ring_offsets[r + 1]]
            for r in range(r0, r1)
        ]

    def __iter__(self) -> Iterator[Geometry]:
        for i in range(len(self)):
            yield self[i]

    def __repr__(self) -> str:
        return f"GeometryBatch(<{len(self)} geometries, {self.coords.shape[0]} pts>)"

    def to_geometries(self) -> list[Geometry]:
        """Materialise every geometry (fills the object cache)."""
        return [self[i] for i in range(len(self))]

    def to_records(self) -> list:
        """Materialise ``SpatialRecord`` objects (ids carried through)."""
        from ..data.loaders import SpatialRecord

        return [SpatialRecord(int(self.ids[i]), self[i]) for i in range(len(self))]

    def extent(self) -> MBR:
        """Union of all cached MBRs (no recompute)."""
        return self.mbrs.extent()

    # ----------------------------------------------------------- array slices
    def geom_point_spans(self) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, ends)`` coordinate spans of each geometry in ``coords``."""
        return (
            self.ring_offsets[self.geom_rings[:-1]],
            self.ring_offsets[self.geom_rings[1:]],
        )

    def num_points(self) -> np.ndarray:
        """Vector of per-geometry point counts (holes included)."""
        starts, ends = self.geom_point_spans()
        return ends - starts

    def points_xy(self, rows: np.ndarray) -> np.ndarray:
        """``(k, 2)`` coordinates of the given *point* rows.

        Reads straight from the packed buffer — the vectorized refine
        kernels use this instead of per-object ``.x``/``.y`` access.
        Rows must all be :data:`KIND_POINT` geometries.
        """
        starts = self.ring_offsets[self.geom_rings[np.asarray(rows, dtype=np.int64)]]
        return self.coords[starts]

    def coords_cols(self) -> tuple[np.ndarray, np.ndarray]:
        """Contiguous 1-D copies of the x and y coordinate columns.

        Fancy-indexing a contiguous 1-D array is markedly faster than
        indexing a strided column view of the ``(P, 2)`` buffer; the CSR
        refine kernels gather from these heavily.  Built lazily, cached
        for the batch's lifetime (the buffers are immutable).
        """
        if self._coords_cols is None:
            self._coords_cols = (
                np.ascontiguousarray(self.coords[:, 0]),
                np.ascontiguousarray(self.coords[:, 1]),
            )
        return self._coords_cols

    def serialized_sizes(self) -> np.ndarray:
        """Vector of ``Geometry.serialized_size()`` values (20 + 20·points)."""
        return 20 + self.num_points() * 20

    def record_sizes(self) -> np.ndarray:
        """Vector of ``SpatialRecord.serialized_size()`` values.

        Record size = id text width + 1 (tab) + geometry size, matching
        the scalar accounting in :mod:`repro.data.loaders`.
        """
        id_widths = np.char.str_len(self.ids.astype("U21")).astype(np.int64)
        return id_widths + 1 + self.serialized_sizes()

    def serialized_size(self) -> int:
        """Total record bytes — the hook :func:`repro.hdfs.estimate_size` uses."""
        return int(self.record_sizes().sum())

    # ------------------------------------------------------------- reshaping
    def take(self, rows: np.ndarray) -> "GeometryBatch":
        """New batch holding the selected rows (repacks the buffers)."""
        rows = np.asarray(rows, dtype=np.int64)
        ring_lo = self.geom_rings[rows]
        ring_hi = self.geom_rings[rows + 1]
        ring_counts = ring_hi - ring_lo
        n_rings = int(ring_counts.sum())
        ring_idx = _ranges(ring_lo, ring_counts, n_rings)
        sizes = self.ring_offsets[ring_idx + 1] - self.ring_offsets[ring_idx]
        coord_idx = _ranges(self.ring_offsets[ring_idx], sizes, int(sizes.sum()))
        ring_offsets = np.zeros(n_rings + 1, dtype=np.int64)
        np.cumsum(sizes, out=ring_offsets[1:])
        geom_rings = np.zeros(rows.shape[0] + 1, dtype=np.int64)
        np.cumsum(ring_counts, out=geom_rings[1:])
        return GeometryBatch(
            self.kinds[rows], self.coords[coord_idx], ring_offsets, geom_rings,
            ids=self.ids[rows], mbrs=self.mbrs.take(rows),
        )

    def slice(self, start: int, stop: int) -> "GeometryBatch":
        """Contiguous sub-batch sharing the underlying buffers (no copy)."""
        r0, r1 = self.geom_rings[start], self.geom_rings[stop]
        c0 = self.ring_offsets[r0]
        return GeometryBatch(
            self.kinds[start:stop],
            self.coords[self.ring_offsets[r0] : self.ring_offsets[r1]],
            self.ring_offsets[r0 : r1 + 1] - c0,
            self.geom_rings[start : stop + 1] - r0,
            ids=self.ids[start:stop],
            mbrs=MBRArray(self.mbrs.data[start:stop]),
        )

    def with_positional_ids(self) -> "GeometryBatch":
        """The same batch with ids ``0..n-1`` (self if already positional)."""
        n = len(self)
        if np.array_equal(self.ids, np.arange(n, dtype=np.int64)):
            return self
        return GeometryBatch(
            self.kinds, self.coords, self.ring_offsets, self.geom_rings,
            ids=np.arange(n, dtype=np.int64), mbrs=self.mbrs,
        )

    # ------------------------------------------------------------- id lookups
    def rows_for_ids(self, wanted: Sequence[int]) -> np.ndarray:
        """Row indices of the given record ids (fast path: positional ids)."""
        wanted = np.asarray(wanted, dtype=np.int64)
        n = len(self)
        if np.array_equal(self.ids, np.arange(n, dtype=np.int64)):
            return wanted
        if self._id_rows is None:
            self._id_rows = {int(v): i for i, v in enumerate(self.ids)}
        return np.array([self._id_rows[int(v)] for v in wanted], dtype=np.int64)

    def mbrs_of_ids(self, wanted: Sequence[int]) -> MBRArray:
        """Cached MBRs of the given record ids — no geometry recompute."""
        return self.mbrs.take(self.rows_for_ids(wanted))

    # --------------------------------------------------------------- equality
    def equals(self, other: "GeometryBatch") -> bool:
        """Structural equality of the five arrays (test helper)."""
        return (
            isinstance(other, GeometryBatch)
            and np.array_equal(self.kinds, other.kinds)
            and np.array_equal(self.coords, other.coords)
            and np.array_equal(self.ring_offsets, other.ring_offsets)
            and np.array_equal(self.geom_rings, other.geom_rings)
            and np.array_equal(self.ids, other.ids)
            and np.array_equal(self.mbrs.data, other.mbrs.data)
        )

    # --------------------------------------------------------------- pickling
    def __reduce__(self):
        # Array-based pickling: the process backend ships six NumPy
        # buffers per batch instead of thousands of geometry objects.
        return (
            _rebuild_batch,
            (
                self.kinds,
                self.coords,
                self.ring_offsets,
                self.geom_rings,
                self.ids,
                self.mbrs.data,
            ),
        )


def _rebuild_batch(kinds, coords, ring_offsets, geom_rings, ids, mbr_data):
    return GeometryBatch(
        kinds, coords, ring_offsets, geom_rings, ids=ids, mbrs=MBRArray(mbr_data)
    )


def _ranges(starts: np.ndarray, counts: np.ndarray, total: int) -> np.ndarray:
    """Concatenate ``arange(s, s + c)`` for each (start, count) pair."""
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.zeros(counts.shape[0], dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    return np.arange(total, dtype=np.int64) + np.repeat(starts - offsets, counts)


def as_mbr_array(source) -> MBRArray:
    """The MBRs of a geometry source — cached for batches, built for lists.

    This is the single choke point the join/partitioning layers use to
    accept either representation: a :class:`GeometryBatch` answers from
    its parse-time cache, an :class:`MBRArray` passes through, and a
    plain geometry sequence falls back to the per-object build.
    """
    if isinstance(source, GeometryBatch):
        return source.mbrs
    if isinstance(source, MBRArray):
        return source
    return MBRArray.from_geometries(source)
