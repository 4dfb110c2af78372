"""A tiny shared counters type used by every substrate.

Substrates (geometry engines, the DFS, MapReduce, Spark) *count resources*
— bytes, records, geometry operations — and only the cluster cost model
converts counts into simulated seconds.  Keeping one counters type across
all of them makes per-phase accounting uniform and mergeable.
"""

from __future__ import annotations

import itertools
import threading
from typing import Iterable, Mapping

__all__ = ["Counters", "COUNTER_SCHEMA"]

#: Central registry of every counter key any substrate may charge.
#:
#: The ledger is the repo's unit of account: the cost model prices these
#: keys, the trace subsystem attributes deltas of them to spans, and the
#: golden tests compare them bit-for-bit.  A key that is charged but not
#: registered here is almost always a typo — it would silently open a
#: second ledger entry that the cost model prices at zero — so the
#: ``repro-lint`` CTR001 rule requires every literal key used with
#: ``Counters.add`` / ``[...]`` / ``.get`` to appear in this mapping, and
#: a runtime test asserts the observed key set of a full run of each
#: system is a subset of it.  Register new keys here (with a one-line
#: description) in the same change that first charges them.
COUNTER_SCHEMA: dict[str, str] = {
    # -- geometry engine (CPU, priced per-op by the engine profile) -------
    "geom.mbr_tests": "MBR overlap/containment tests",
    "geom.pip_tests": "point-in-polygon tests (crossing number)",
    "geom.seg_pair_tests": "segment-pair intersection tests",
    "geom.dist_tests": "point/segment distance evaluations",
    "geom.vertex_ops": "vertices touched by geometry predicates",
    # -- spatial indexes --------------------------------------------------
    "index.build_ops": "index construction steps (per item inserted)",
    "index.nodes_built": "tree nodes materialised at build time",
    "index.splits": "node splits during incremental builds",
    "index.node_visits": "nodes touched by queries/traversals",
    "index.leaf_pair_tests": "candidate pair tests at synchronized leaves",
    # -- join framework ---------------------------------------------------
    "join.candidates": "filter-phase candidate pairs produced",
    "join.sweep_ops": "plane-sweep comparison steps",
    # -- parsing / serialization (Streaming's text tax) -------------------
    "parse.records": "text records decoded into objects",
    "parse.bytes": "bytes of text decoded",
    "serialize.records": "objects encoded to text records",
    "serialize.bytes": "bytes of text encoded",
    "deser.records": "binary records deserialized (SpatialHadoop reads)",
    "sort.ops": "comparison ops, charged as n·log2(n) by substrates",
    "cpu.ops": "generic bookkeeping ops",
    # -- Hadoop Streaming's external processes ----------------------------
    "streaming.processes": "external mapper/reducer processes spawned",
    "streaming.refine_calls": "per-candidate refine invocations via pipes",
    "pipe.bytes": "bytes crossing the Streaming stdin/stdout pipes",
    "pipe.records": "records crossing the Streaming pipes",
    # -- distributed/local filesystem I/O ---------------------------------
    "hdfs.bytes_read": "bytes read from the simulated HDFS",
    "hdfs.bytes_written": "bytes written to the simulated HDFS",
    "hdfs.records_read": "records read from the simulated HDFS",
    "hdfs.records_written": "records written to the simulated HDFS",
    "localfs.bytes_read": "bytes read from a single node's local FS",
    "localfs.bytes_written": "bytes written to a single node's local FS",
    # -- shuffle / network ------------------------------------------------
    "shuffle.bytes_disk": "Hadoop-style shuffle bytes (spill+transfer+read)",
    "shuffle.bytes_mem": "Spark in-memory exchange bytes",
    "spark.shuffle_records": "records crossing a Spark shuffle boundary",
    "net.bytes_broadcast": "broadcast payload bytes, replicated per node",
    # -- skew-aware shuffle (repro.shuffle) -------------------------------
    "shuffle.records_pruned": "records dropped by the sFilter pre-shuffle",
    "shuffle.bytes_pruned": "serialized bytes the sFilter kept off the wire",
    "shuffle.sfilter_builds": "sFilter bitmaps built from one side's MBRs",
    "skew.cells_split": "hot partition cells re-gridded at finer granularity",
    "skew.cells_added": "net new cells produced by hot-cell splitting",
    # -- framework overheads (fixed costs per unit) -----------------------
    "mr.jobs": "MapReduce jobs launched",
    "mr.tasks": "map/reduce tasks launched",
    "mr.task_retries": "task attempts retried after failure",
    "mr.combine_in": "records entering a combiner",
    "mr.combine_out": "records leaving a combiner",
    "spark.stages": "Spark stages executed",
    "spark.tasks": "Spark tasks executed",
    "spark.recomputes": "partitions recomputed from lineage after loss",
    # -- query service (repro.service lifecycle ledger) -------------------
    "service.prepares": "datasets prepared (ingest+partition+index runs)",
    "service.queries": "queries served by the prepared path",
    "service.cache.hits": "queries answered from the result cache",
    "service.cache.misses": "queries that had to execute",
    "service.cache.evictions": "cached results evicted by the LRU policy",
    "service.unloads": "dataset handles unloaded from the registry",
    # -- query planner (repro.plan decision + feedback ledger) -------------
    "plan.candidates": "candidate plans priced by the planner",
    "plan.cached": "plans answered from the service's plan cache",
    "plan.observations": "measured phase spans ingested by the calibrator",
    # -- execution backends (repro.exec health ledger) ---------------------
    "exec.backend_fallback": (
        "requested process backend degraded to serial execution "
        "(fork unavailable on this platform)"
    ),
}

#: Thread-local charge redirection, keyed by the instance's redirect
#: :attr:`Counters.token`.  The executor backends install a per-task
#: scratch sink here so that task bodies running concurrently charge
#: their own ledger; the scratches are merged back in task-index order,
#: keeping parallel runs bit-identical to serial ones (see
#: :mod:`repro.exec`).  Tokens are allocated from a process-wide monotonic
#: counter and never reused — unlike ``id()``, which the allocator can
#: recycle, so a GC'd-and-reallocated Counters could otherwise silently
#: inherit a stale sink entry.
_REDIRECT = threading.local()
_NEXT_TOKEN = itertools.count(1)
_TOKEN_LOCK = threading.Lock()


class Counters(dict):
    """A ``dict[str, float]`` with merge/scale helpers; missing keys are 0."""

    def __missing__(self, key: str) -> float:
        return 0.0

    @property
    def token(self) -> int:
        """This instance's redirect key: unique for the process lifetime.

        Allocated lazily on first use so plain ledgers never pay for it;
        once allocated it sticks to the instance (and travels with pickles
        only as a stale int — forked workers resolve redirects against the
        token they inherited, which is exactly the instance they share).
        """
        tok = self.__dict__.get("_token")
        if tok is None:
            with _TOKEN_LOCK:  # two threads must not race to different tokens
                tok = self.__dict__.get("_token")
                if tok is None:
                    tok = self.__dict__["_token"] = next(_NEXT_TOKEN)
        return tok

    def add(self, key: str, amount: float = 1.0) -> None:
        """Increment *key* by *amount* (default 1)."""
        sinks = getattr(_REDIRECT, "sinks", None)
        if sinks:
            tok = self.__dict__.get("_token")
            if tok is not None:
                sink = sinks.get(tok)
                if sink is not None:
                    sink[key] = sink.get(key, 0.0) + amount
                    return
        self[key] = self.get(key, 0.0) + amount

    def merge(self, other: Mapping[str, float]) -> "Counters":
        """Add every counter of *other* into self; returns self."""
        for key, value in other.items():
            # Forwarding keys that were schema-checked where first charged.
            self.add(key, value)  # repro: noqa[CTR001]
        return self

    def scaled(self, factors: Mapping[str, float], default: float = 1.0) -> "Counters":
        """Return a copy with each counter multiplied by its factor."""
        out = Counters()
        for key, value in self.items():
            out[key] = value * factors.get(key, default)
        return out

    def snapshot(self) -> "Counters":
        """An independent copy (pair with :meth:`diff` for phase deltas)."""
        return Counters(self)

    def diff(self, earlier: Mapping[str, float]) -> "Counters":
        """Counters accumulated since an earlier snapshot.

        Keys are emitted sorted: the result's insertion order feeds
        per-phase exports, and raw set order varies with string-hash
        randomisation across processes.
        """
        out = Counters()
        for key in sorted(set(self) | set(earlier)):
            delta = self.get(key, 0.0) - earlier.get(key, 0.0)
            if delta:
                out[key] = delta
        return out

    @staticmethod
    def total(parts: Iterable[Mapping[str, float]]) -> "Counters":
        out = Counters()
        for part in parts:
            out.merge(part)
        return out
