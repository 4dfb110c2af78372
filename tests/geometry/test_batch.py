"""GeometryBatch: round trips, cached MBRs, codecs, pickling, reshaping.

The columnar data plane's contract is *bit-identical equivalence* with
the object plane: same MBRs, same WKT text, same sizes, same geometry
values back out.  These tests pin that contract, including via
hypothesis over random mixed-kind collections.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.loaders import (
    SpatialRecord,
    decode_lines,
    decode_lines_batch,
    encode_batch,
    encode_dataset,
)
from repro.data.synthetic import census_blocks, taxi_points, tiger_edges
from repro.geometry import (
    KIND_POINT,
    KIND_POLYGON,
    KIND_POLYLINE,
    GeometryBatch,
    MBRArray,
    Point,
    PolyLine,
    Polygon,
    as_mbr_array,
    from_wkt,
    to_wkt,
    wkt_of_parts,
    wkt_parts,
)

coord = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False, width=64
)


@st.composite
def geometries(draw):
    kind = draw(st.sampled_from(["point", "polyline", "polygon"]))
    if kind == "point":
        return Point(draw(coord), draw(coord))
    if kind == "polyline":
        n = draw(st.integers(2, 6))
        return PolyLine([(draw(coord), draw(coord)) for _ in range(n)])
    cx, cy = draw(coord), draw(coord)
    r = draw(st.floats(0.1, 10.0))
    n = draw(st.integers(3, 7))
    angles = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return Polygon([(cx + r * np.cos(a), cy + r * np.sin(a)) for a in angles])


def assert_planes_bit_identical(got, want):
    """All six array planes equal in dtype, shape and bytes."""
    for a, b in (
        (got.kinds, want.kinds),
        (got.coords, want.coords),
        (got.ring_offsets, want.ring_offsets),
        (got.geom_rings, want.geom_rings),
        (got.ids, want.ids),
        (got.mbrs.data, want.mbrs.data),
    ):
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def mixed_dataset():
    return (
        taxi_points(40, seed=1)
        + census_blocks(12, seed=2)
        + tiger_edges(15, seed=3)
    )


class TestRoundTrip:
    def test_from_to_geometries(self):
        geoms = mixed_dataset()
        batch = GeometryBatch.from_geometries(geoms)
        assert len(batch) == len(geoms)
        assert batch.to_geometries() == geoms

    def test_lazy_getitem_matches_and_caches(self):
        geoms = mixed_dataset()
        batch = GeometryBatch.from_geometries(geoms)
        assert batch[5] == geoms[5]
        assert batch[5] is batch[5]  # cached materialization
        assert batch[-1] == geoms[-1]

    def test_polygon_with_holes_round_trips(self):
        poly = Polygon(
            [(0, 0), (10, 0), (10, 10), (0, 10)],
            holes=[[(2, 2), (4, 2), (4, 4), (2, 4)]],
        )
        batch = GeometryBatch.from_geometries([poly])
        assert batch[0] == poly
        assert batch.mbrs.data[0].tolist() == [0.0, 0.0, 10.0, 10.0]

    def test_from_records_keeps_ids(self):
        records = [SpatialRecord(i * 7, g) for i, g in enumerate(mixed_dataset())]
        batch = GeometryBatch.from_records(records)
        assert batch.ids.tolist() == [r.rid for r in records]
        assert [r.geometry for r in batch.to_records()] == [
            r.geometry for r in records
        ]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(geometries(), min_size=0, max_size=12))
    def test_property_round_trip(self, geoms):
        batch = GeometryBatch.from_geometries(geoms)
        assert batch.to_geometries() == geoms
        ref = MBRArray.from_geometries(geoms)
        assert np.array_equal(batch.mbrs.data, ref.data)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(geometries(), min_size=1, max_size=10))
    def test_property_codec_matches_scalar(self, geoms):
        lines = list(encode_batch(GeometryBatch.from_geometries(geoms)))
        assert lines == list(encode_dataset(geoms))
        back = decode_lines_batch(lines)
        assert back.to_geometries() == geoms


class TestCachedMBRs:
    def test_mbrs_equal_object_mbrs(self):
        geoms = mixed_dataset()
        batch = GeometryBatch.from_geometries(geoms)
        ref = MBRArray.from_geometries(geoms)
        assert np.array_equal(batch.mbrs.data, ref.data)
        assert batch.extent() == ref.extent()

    def test_as_mbr_array_uses_cache(self):
        batch = GeometryBatch.from_geometries(mixed_dataset())
        assert as_mbr_array(batch) is batch.mbrs

    def test_polygon_mbr_is_exterior_only(self):
        poly = Polygon(
            [(0, 0), (10, 0), (10, 10), (0, 10)],
            holes=[[(2, 2), (4, 2), (4, 4), (2, 4)]],
        )
        batch = GeometryBatch.from_geometries([poly])
        assert batch.mbrs.data[0].tolist() == list(poly.mbr.as_tuple())


class TestWktParts:
    def test_parts_match_scalar_parser(self):
        for geom in mixed_dataset():
            text = to_wkt(geom)
            kind, rings = wkt_parts(text)
            expected = {Point: KIND_POINT, PolyLine: KIND_POLYLINE,
                        Polygon: KIND_POLYGON}[type(geom)]
            assert kind == expected
            assert wkt_of_parts(kind, rings) == text
            assert from_wkt(text) == geom

    def test_malformed_wkt_raises(self):
        from repro.geometry.wkt import WktError

        for bad in ("POINT (1)", "LINESTRING (1 2)", "POLYGON ((1 2, 3 4))",
                    "CIRCLE (0 0)", "POINT (a b)"):
            with pytest.raises(WktError):
                wkt_parts(bad)


class TestCodecs:
    def test_encode_batch_matches_encode_dataset(self):
        geoms = mixed_dataset()
        batch = GeometryBatch.from_geometries(geoms)
        assert list(encode_batch(batch)) == list(encode_dataset(geoms))

    def test_decode_lines_batch_matches_scalar(self):
        lines = list(encode_dataset(mixed_dataset()))
        batch = decode_lines_batch(lines)
        records = list(decode_lines(lines))
        assert batch.ids.tolist() == [r.rid for r in records]
        assert batch.to_geometries() == [r.geometry for r in records]

    def test_decode_rejects_tabless_line(self):
        with pytest.raises(ValueError):
            decode_lines_batch(["no-tab-here"])

    def test_record_sizes_match_serialized_size(self):
        records = [
            SpatialRecord(rid, g)
            for rid, g in zip((0, 7, 123, 45678), mixed_dataset())
        ]
        batch = GeometryBatch.from_records(records)
        assert batch.record_sizes().tolist() == [
            r.serialized_size() for r in records
        ]
        assert batch.serialized_size() == sum(r.serialized_size() for r in records)


class TestPickle:
    def test_pickle_round_trip(self):
        batch = GeometryBatch.from_geometries(mixed_dataset())
        clone = pickle.loads(pickle.dumps(batch))
        assert clone.equals(batch)
        assert np.array_equal(clone.mbrs.data, batch.mbrs.data)

    def test_pickle_is_array_based(self):
        # The payload must serialize arrays, not per-geometry objects:
        # materialize every object, then check none of them travel.
        batch = GeometryBatch.from_geometries(mixed_dataset())
        list(batch)  # fill the lazy object cache
        payload = pickle.dumps(batch)
        assert b"Polygon" not in payload and b"primitives" not in payload

    # Pickling is how a batch crosses into and out of a process-backend
    # worker, so every plane must survive it bit for bit.
    @settings(max_examples=40, deadline=None)
    @given(st.lists(geometries(), min_size=0, max_size=25))
    def test_any_batch_pickles_bit_identically(self, geoms):
        batch = GeometryBatch.from_geometries(geoms)
        clone = pickle.loads(pickle.dumps(batch))
        assert_planes_bit_identical(clone, batch)
        assert clone.to_geometries() == geoms

    def test_empty_batch_pickles(self):
        clone = pickle.loads(pickle.dumps(GeometryBatch.empty()))
        assert_planes_bit_identical(clone, GeometryBatch.empty())
        assert len(clone) == 0

    def test_degenerate_rings_pickle(self):
        # Zero-area polygon (all vertices collinear) and a zero-length
        # polyline segment: shape/dtype edge cases, not validity checks.
        batch = GeometryBatch.from_geometries([
            Polygon([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]),
            PolyLine([(5.0, 5.0), (5.0, 5.0)]),
            Point(-0.0, 0.0),
        ])
        assert_planes_bit_identical(pickle.loads(pickle.dumps(batch)), batch)


class TestReshaping:
    def test_take_slice_concat(self):
        geoms = mixed_dataset()
        batch = GeometryBatch.from_geometries(geoms)
        rows = np.array([3, 0, 41, 55], dtype=np.int64)
        taken = batch.take(rows)
        assert taken.to_geometries() == [geoms[i] for i in rows]
        assert taken.ids.tolist() == rows.tolist()
        assert np.array_equal(taken.mbrs.data, batch.mbrs.data[rows])

        part = batch.slice(10, 20)
        assert part.to_geometries() == geoms[10:20]

        merged = GeometryBatch.concat([batch.slice(0, 10), batch.slice(10, len(batch))])
        assert merged.to_geometries() == geoms

    def test_points_xy_reads_packed_buffer(self):
        pts = taxi_points(25, seed=9)
        batch = GeometryBatch.from_geometries(pts)
        rows = np.array([4, 11, 19], dtype=np.int64)
        xy = batch.points_xy(rows)
        assert xy.tolist() == [[pts[i].x, pts[i].y] for i in rows]

    def test_coerce_accepts_all_representations(self):
        geoms = mixed_dataset()
        batch = GeometryBatch.from_geometries(geoms)
        assert GeometryBatch.coerce(batch) is batch
        assert GeometryBatch.coerce(geoms).equals(batch)
        records = [SpatialRecord(i, g) for i, g in enumerate(geoms)]
        assert GeometryBatch.coerce(records).equals(batch)

    def test_empty_batch(self):
        empty = GeometryBatch.empty()
        assert len(empty) == 0
        assert empty.to_geometries() == []
        assert len(empty.mbrs) == 0
        assert GeometryBatch.concat([]).equals(empty)
