"""WKT codec round-trip and error-handling tests."""

import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.data.loaders import decode_lines_batch
from repro.geometry import (
    GeometryBatch,
    Point,
    PolyLine,
    Polygon,
    WktError,
    from_wkt,
    to_wkt,
    wkt_of_parts,
    wkt_parts,
)

#: Both parsers must accept and reject exactly the same text.
PARSERS = [from_wkt, wkt_parts]


class TestRoundTrip:
    def test_point(self):
        p = Point(1.25, -3.5)
        assert from_wkt(to_wkt(p)) == p

    def test_linestring(self):
        line = PolyLine([(0, 0), (1.5, 2.25), (-3, 4)])
        assert from_wkt(to_wkt(line)) == line

    def test_polygon(self):
        poly = Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
        assert from_wkt(to_wkt(poly)) == poly

    def test_polygon_with_holes(self):
        poly = Polygon(
            [(0, 0), (10, 0), (10, 10), (0, 10)],
            holes=[[(2, 2), (4, 2), (4, 4), (2, 4)], [(6, 6), (8, 6), (8, 8), (6, 8)]],
        )
        back = from_wkt(to_wkt(poly))
        assert back == poly
        assert len(back.holes) == 2

    def test_high_precision_coordinates_survive(self):
        p = Point(-73.98201375213, 40.74301293847)
        assert from_wkt(to_wkt(p)) == p


class TestParsing:
    def test_case_insensitive(self):
        assert isinstance(from_wkt("point (1 2)"), Point)
        assert isinstance(from_wkt("LineString (0 0, 1 1)"), PolyLine)

    def test_whitespace_tolerant(self):
        assert from_wkt("  POINT (  1   2 ) ") == Point(1, 2)

    def test_scientific_notation(self):
        assert from_wkt("POINT (1e3 -2.5e-2)") == Point(1000.0, -0.025)


MALFORMED = [
    "",
    "POINT ()",
    "POINT (1)",
    "POINT (a b)",
    "POINT (nan 0)",
    "POINT (0 inf)",
    "LINESTRING (1 1)",
    "LINESTRING (1 1, x 2)",
    "LINESTRING ()",
    "LINESTRING (0 0, 1 1,)",
    "LINESTRING (0 0, , 1 1)",
    # A pair with three tokens, or one, next to a pair with the
    # complement: the token count is even, so only a per-pair check
    # catches it.
    "LINESTRING (0 0 0, 1 1 1)",
    "LINESTRING (0, 0 1 1)",
    "LINESTRING (nan 0, 1 1)",
    "LINESTRING (1e400 0, 1 1)",
    "LINESTRING (0 0, -inf 1)",
    "POLYGON ()",
    "POLYGON ((0 0, 1 1))",  # too few distinct points
    "POLYGON ((0 0, 1 0 0, 1 1, 0 1))",
    "POLYGON ((0 0, 1 0, 1 1, 0 1), (0.2 0.2, nan 0.2, 0.5 0.5))",
    # Only commas may separate rings.
    "POLYGON ((0 0, 1 0, 1 1) junk)",
    "POLYGON ((0 0, 1 0, 1 1, 0 1) (0.2 0.2, 0.5 0.2, 0.5 0.5))",
    "POLYGON ((0 0, 1 0, 1 1, 0 1),, (0.2 0.2, 0.5 0.2, 0.5 0.5))",
    "TRIANGLE ((0 0, 1 0, 0 1))",
    "MULTIPOINT ((1 1))",
]


class TestErrors:
    @pytest.mark.parametrize("bad", MALFORMED)
    def test_malformed_raises(self, bad):
        for parse in PARSERS:
            with pytest.raises(WktError):
                parse(bad)

    def test_non_string(self):
        for parse in PARSERS:
            with pytest.raises(WktError):
                parse(42)

    def test_batch_decoder_rejects_uneven_pairs(self):
        with pytest.raises(WktError):
            decode_lines_batch(["0\tPOINT (1 2)", "1\tLINESTRING (0 0 0, 1 1 1)"])

    def test_unsupported_geometry_serialization(self):
        with pytest.raises(TypeError):
            to_wkt(object())


# --------------------------------------------------------------------------
# Properties of the codec over random geometries.


def _oracle_coords(coords) -> str:
    """The reference text: ``repr(float(v))`` per coordinate."""
    return ", ".join(f"{repr(float(x))} {repr(float(y))}" for x, y in coords)


def _oracle_wkt(geom) -> str:
    if isinstance(geom, Point):
        return f"POINT ({repr(float(geom.x))} {repr(float(geom.y))})"
    if isinstance(geom, PolyLine):
        return f"LINESTRING ({_oracle_coords(geom.coords)})"
    rings = [geom.exterior, *geom.holes]
    return f"POLYGON ({', '.join(f'({_oracle_coords(r)})' for r in rings)})"


def _arrays(geom) -> list[np.ndarray]:
    if isinstance(geom, Point):
        return [np.array([[geom.x, geom.y]])]
    if isinstance(geom, PolyLine):
        return [geom.coords]
    return [geom.exterior, *geom.holes]


def _bits(arrays) -> list[tuple]:
    """Shapes and raw bytes: tells -0.0 from 0.0, unlike ``==``."""
    return [(a.shape, a.tobytes()) for a in arrays]


values = st.one_of(
    st.floats(min_value=-1e15, max_value=1e15, allow_nan=False, width=64),
    st.integers(-(10**9), 10**9).map(float),
    st.sampled_from([0.0, -0.0, 1e15, -1e15, 1e-300, -1e-300, 5e-324]),
)
pairs = st.tuples(values, values)


def _ring(draw, min_size=3):
    return draw(st.lists(pairs, min_size=min_size, max_size=8))


@st.composite
def geometries(draw):
    kind = draw(st.sampled_from(["point", "polyline", "polygon"]))
    if kind == "point":
        return Point(*draw(pairs))
    if kind == "polyline":
        return PolyLine(_ring(draw, min_size=2))
    rings = [_ring(draw) for _ in range(draw(st.integers(1, 3)))]
    try:
        return Polygon(rings[0], rings[1:])
    except ValueError:  # fewer than 3 distinct points once closed
        assume(False)


class TestCodecProperties:
    @given(geometries())
    @settings(max_examples=300, deadline=None)
    def test_text_equals_per_coordinate_repr(self, geom):
        text = to_wkt(geom)
        assert text == _oracle_wkt(geom)
        batch = GeometryBatch.coerce([geom])
        assert wkt_of_parts(batch.kinds[0], batch.rings(0)) == text

    @given(geometries())
    @settings(max_examples=300, deadline=None)
    def test_round_trip_is_bit_exact(self, geom):
        back = from_wkt(to_wkt(geom))
        assert type(back) is type(geom)
        assert _bits(_arrays(back)) == _bits(_arrays(geom))

    @given(geometries())
    @settings(max_examples=300, deadline=None)
    def test_parsers_agree(self, geom):
        text = to_wkt(geom)
        kind, rings = wkt_parts(text)
        assert kind == GeometryBatch.coerce([geom]).kinds[0]
        assert _bits(rings) == _bits(_arrays(from_wkt(text)))

    @given(
        st.lists(pairs, min_size=3, max_size=6),
        st.integers(0, 5),
        st.sampled_from(["extra", "missing", "empty", "trailing", "word", "nan", "inf"]),
        st.sampled_from(["LINESTRING ({})", "POLYGON (({}))"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_malformed_coordinate_lists_rejected(self, coords, at, how, shape):
        tokens = [[repr(x), repr(y)] for x, y in coords]
        at %= len(tokens)
        if how == "extra":
            tokens[at].append("0.5")
        elif how == "missing":
            tokens[at].pop()
        elif how == "empty":
            tokens.insert(at, [])
        elif how == "trailing":
            tokens.append([])
        elif how == "word":
            tokens[at][0] = "x1"
        else:
            tokens[at][1] = {"nan": "nan", "inf": "-1e400"}[how]
        text = shape.format(", ".join(" ".join(t) for t in tokens))
        for parse in PARSERS:
            with pytest.raises(WktError):
                parse(text)


def test_signed_zero_and_tiny_values_keep_their_bits():
    line = PolyLine([(-0.0, 5e-324), (1e15, -1e-300)])
    text = to_wkt(line)
    assert text == "LINESTRING (-0.0 5e-324, 1000000000000000.0 -1e-300)"
    back = from_wkt(text).coords
    assert [struct.pack("<d", v) for v in back.ravel()] == [
        struct.pack("<d", v) for v in line.coords.ravel()
    ]
    assert math.copysign(1.0, wkt_parts(text)[1][0][0, 0]) == -1.0
