"""WKT (Well-Known Text) codec for the supported geometry types.

All three systems in the paper exchange geometries as text — HadoopGIS is
*forced* to (Hadoop Streaming pipes strings), and the TIGER/taxi inputs are
WKT/CSV files.  This codec provides the parse/serialize path whose per-record
cost the paper identifies as a major HadoopGIS overhead; the substrates
charge a parse cost every time a record crosses a text boundary.

Supported: POINT, LINESTRING, POLYGON (with holes), and the matching
MULTI* forms are intentionally out of scope (the paper's workloads do not
use them).
"""

from __future__ import annotations

import math
import re

import numpy as np

from .batch import KIND_POINT, KIND_POLYGON, KIND_POLYLINE
from .primitives import Geometry, Point, PolyLine, Polygon

__all__ = ["to_wkt", "from_wkt", "wkt_parts", "wkt_of_parts", "WktError"]


class WktError(ValueError):
    """Raised for malformed WKT input."""


def _coords_text(coords: np.ndarray) -> str:
    """``x y, x y, ...`` with each coordinate as ``repr`` of its float."""
    return ", ".join([f"{x!r} {y!r}" for x, y in coords.tolist()])


def to_wkt(geom: Geometry) -> str:
    """Serialize a geometry to WKT."""
    if isinstance(geom, Point):
        return f"POINT ({float(geom.x)!r} {float(geom.y)!r})"
    if isinstance(geom, PolyLine):
        return f"LINESTRING ({_coords_text(geom.coords)})"
    if isinstance(geom, Polygon):
        rings = [f"({_coords_text(geom.exterior)})"]
        rings += [f"({_coords_text(h)})" for h in geom.holes]
        return f"POLYGON ({', '.join(rings)})"
    raise TypeError(f"cannot serialize {type(geom).__name__} to WKT")


_POINT_RE = re.compile(r"^\s*POINT\s*\(\s*(\S+)\s+(\S+)\s*\)\s*$", re.IGNORECASE)
_LINESTRING_RE = re.compile(r"^\s*LINESTRING\s*\((.*)\)\s*$", re.IGNORECASE | re.DOTALL)
_POLYGON_RE = re.compile(r"^\s*POLYGON\s*\((.*)\)\s*$", re.IGNORECASE | re.DOTALL)
_RING_RE = re.compile(r"\(([^()]*)\)")


def _coords(text: str, what: str) -> np.ndarray:
    """The one coordinate-list parser: ``x y, x y, ...`` -> ``(n, 2)`` float64.

    Every comma-separated pair must hold exactly two tokens, and every
    coordinate must parse as a finite float (NumPy's string conversion
    gives the same values as ``float()``).
    """
    pairs = [pair.split() for pair in text.split(",")]
    if set(map(len, pairs)) != {2}:
        raise WktError(f"malformed coordinate list {text[:80]!r} in {what}")
    try:
        arr = np.array(pairs, dtype=np.float64)
    except ValueError as exc:
        raise WktError(f"non-numeric coordinate in {what}") from exc
    if not np.isfinite(arr).all():
        raise WktError(f"non-finite coordinate in {what}")
    return arr


def _parse(text: str) -> tuple[int, object]:
    """Dispatch on the geometry tag and parse its coordinates.

    Returns ``(KIND_POINT, (x, y))``, ``(KIND_POLYLINE, coords)`` or
    ``(KIND_POLYGON, [ring, ...])`` with rings as written (not yet
    closed or oriented).  Raises :class:`WktError` on anything malformed.
    """
    if not isinstance(text, str):
        raise WktError(f"WKT must be a string, got {type(text).__name__}")
    m = _POINT_RE.match(text)
    if m:
        try:
            x, y = float(m.group(1)), float(m.group(2))
        except ValueError as exc:
            raise WktError(f"malformed POINT: {text!r}") from exc
        if not (math.isfinite(x) and math.isfinite(y)):
            raise WktError(f"non-finite POINT: {text!r}")
        return KIND_POINT, (x, y)
    m = _LINESTRING_RE.match(text)
    if m:
        coords = _coords(m.group(1), "LINESTRING")
        if coords.shape[0] < 2:
            raise WktError("LINESTRING requires at least 2 points")
        return KIND_POLYLINE, coords
    m = _POLYGON_RE.match(text)
    if m:
        body = m.group(1)
        rings = [_coords(r.group(1), "POLYGON ring") for r in _RING_RE.finditer(body)]
        if not rings:
            raise WktError(f"POLYGON with no rings: {text!r}")
        # Between the rings only single commas may appear.
        between = _RING_RE.sub("", body)
        if between.replace(",", "").strip() or between.count(",") != len(rings) - 1:
            raise WktError(f"malformed POLYGON ring list: {text[:80]!r}")
        return KIND_POLYGON, rings
    raise WktError(f"unrecognized WKT: {text[:80]!r}")


def from_wkt(text: str) -> Geometry:
    """Parse WKT into a geometry object.

    Raises :class:`WktError` on malformed input — the error the substrates
    surface when a corrupted record flows through a streaming pipe.
    """
    kind, parsed = _parse(text)
    if kind == KIND_POINT:
        return Point(*parsed)
    if kind == KIND_POLYLINE:
        return PolyLine(parsed)
    try:
        return Polygon(parsed[0], parsed[1:])
    except ValueError as exc:
        raise WktError(str(exc)) from exc


# --------------------------------------------------------------------------
# Batch (columnar) codec: the same text format, parsed straight into the
# ring arrays a GeometryBatch packs, without materialising Geometry objects.


def wkt_parts(text: str) -> tuple[int, list[np.ndarray]]:
    """Parse WKT into ``(kind_code, ring_arrays)`` for batch assembly.

    The returned rings carry exactly the values :func:`from_wkt` would
    store on the equivalent geometry object (same coordinate parser,
    same ring closing/orientation normalization), so a batch assembled
    from them is bit-identical to one packed from parsed objects.  Both
    parsers accept and reject exactly the same text.
    """
    kind, parsed = _parse(text)
    if kind == KIND_POINT:
        return kind, [np.array([parsed], dtype=np.float64)]
    if kind == KIND_POLYLINE:
        return kind, [parsed]
    try:
        normalized = [
            Polygon._normalize_ring(parsed[0], ccw=True, what="Polygon exterior")
        ] + [
            Polygon._normalize_ring(r, ccw=False, what="Polygon hole")
            for r in parsed[1:]
        ]
    except ValueError as exc:
        raise WktError(str(exc)) from exc
    return kind, normalized


def wkt_of_parts(kind: int, rings: list[np.ndarray]) -> str:
    """Serialize batch ring arrays to WKT — same text as :func:`to_wkt`."""
    if kind == KIND_POINT:
        return f"POINT ({_coords_text(rings[0])})"
    if kind == KIND_POLYLINE:
        return f"LINESTRING ({_coords_text(rings[0])})"
    if kind == KIND_POLYGON:
        return f"POLYGON ({', '.join(f'({_coords_text(r)})' for r in rings)})"
    raise TypeError(f"unknown kind code {kind!r}")
