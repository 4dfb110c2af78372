"""estimate_size's exact-type fast paths give the reference values.

``reference_estimate_size`` is the estimator without fast paths: one
isinstance chain, with the ``serialized_size`` probe ahead of the
container cases.  The fast paths check exact types (``str``, ``int``,
``float``, ``tuple``, ``list``) first, which must not change a value:
``bool`` is an ``int`` subclass and still sizes as 2.
"""

from typing import Any, NamedTuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.loaders import SpatialRecord
from repro.geometry import Point, PolyLine
from repro.hdfs import estimate_size
from repro.pairs import PairBlock


def reference_estimate_size(obj: Any) -> int:
    if obj is None:
        return 1
    if isinstance(obj, str):
        return len(obj) + 1
    if isinstance(obj, (bytes, bytearray)):
        return len(obj) + 1
    if isinstance(obj, bool):
        return 2
    if isinstance(obj, (int, float)):
        return 12
    size_fn = getattr(obj, "serialized_size", None)
    if callable(size_fn):
        return int(size_fn())
    if isinstance(obj, (tuple, list)):
        return sum(reference_estimate_size(x) for x in obj) + len(obj)
    if isinstance(obj, dict):
        return sum(
            reference_estimate_size(k) + reference_estimate_size(v)
            for k, v in obj.items()
        ) + 2
    if isinstance(obj, (set, frozenset)):
        return sum(reference_estimate_size(x) for x in obj) + 2
    return len(str(obj)) + 1


class Sized(NamedTuple):
    """A tuple subclass that sizes itself: the probe must win."""

    a: int
    b: str

    def serialized_size(self) -> int:
        return 99


coord = st.floats(-180, 180, allow_nan=False)
records = st.builds(
    SpatialRecord,
    st.integers(0, 10**6),
    st.one_of(
        st.builds(Point, coord, coord),
        st.lists(st.tuples(coord, coord), min_size=2, max_size=5).map(PolyLine),
    ),
)
blocks = st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=5).map(
    lambda rows: PairBlock(np.array(rows, dtype=np.int64).reshape(-1, 2))
)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.binary(max_size=6),
    records,
    blocks,
    st.builds(Sized, st.integers(), st.text(max_size=4)),
    st.just(np.float64(2.5)),
    st.just(np.int64(7)),
)
values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), children, max_size=3),
        st.frozensets(st.integers(0, 50), max_size=4),
    ),
    max_leaves=12,
)


@given(values)
@settings(max_examples=400, deadline=None)
def test_fast_paths_match_reference(obj):
    assert estimate_size(obj) == reference_estimate_size(obj)


def test_bool_is_not_sized_as_a_number():
    assert estimate_size(True) == estimate_size(False) == 2
    assert estimate_size((True, 1)) == 2 + 12 + 2


def test_tuple_subclass_keeps_its_own_size():
    assert estimate_size(Sized(1, "x")) == 99
    assert estimate_size([Sized(1, "x")]) == 100
