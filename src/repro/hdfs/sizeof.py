"""Serialized-size estimation for byte accounting.

Every record that crosses HDFS, a streaming pipe or a shuffle boundary is
charged its estimated on-the-wire size.  The estimator mirrors the text
formats the real systems use (WKT/TSV lines, tab-separated fields).
"""

from __future__ import annotations

from typing import Any

__all__ = ["estimate_size"]

_NUMERIC_SIZE = 12  # ~"123456.78901\t"


def estimate_size(obj: Any) -> int:
    """Approximate serialized size of *obj* in bytes.

    Strings and bytes are exact (+1 for the record separator); geometries
    use their WKT-like estimate; containers sum their elements plus field
    separators.  Unknown objects fall back to ``len(str(obj))``.
    """
    # Exact-type fast paths for the common records (text lines, numbers,
    # key/value tuples); subclasses such as bool fall through to the
    # general chain below.
    kind = type(obj)
    if kind is str:
        return len(obj) + 1
    if kind is int or kind is float:
        return _NUMERIC_SIZE
    if kind is tuple or kind is list:
        return sum(map(estimate_size, obj)) + len(obj)
    if obj is None:
        return 1
    if isinstance(obj, str):
        return len(obj) + 1
    if isinstance(obj, (bytes, bytearray)):
        return len(obj) + 1
    if isinstance(obj, bool):
        return 2
    if isinstance(obj, (int, float)):
        return _NUMERIC_SIZE
    size_fn = getattr(obj, "serialized_size", None)
    if callable(size_fn):
        return int(size_fn())
    if isinstance(obj, (tuple, list)):
        return sum(estimate_size(x) for x in obj) + len(obj)
    if isinstance(obj, dict):
        return sum(estimate_size(k) + estimate_size(v) for k, v in obj.items()) + 2
    if isinstance(obj, (set, frozenset)):
        return sum(estimate_size(x) for x in obj) + 2
    return len(str(obj)) + 1
