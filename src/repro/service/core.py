"""The spatial query service: prepare once, query many times.

The one-shot :func:`repro.spatial_join` pays the full pipeline on every
call — ingest, partition, index, then join.  The service splits that
lifecycle the way serving systems do (Hecatoncheir's ``prepareDataset →
buildIndex → query* → unload``):

* :meth:`SpatialQueryService.prepare` runs a system's ingest +
  partition + index half **once** per dataset and returns an immutable
  :class:`DatasetHandle` holding the parsed columnar shards and every
  prepared HDFS artifact;
* :meth:`DatasetHandle.join` / :meth:`DatasetHandle.range` serve queries
  against the prepared artifacts without re-staging — each query gets a
  fresh private environment into which the prepared files are installed
  by reference, so any number of concurrent queries share one prepared
  copy;
* :meth:`SpatialQueryService.execute` fans a batch of queries over a
  thread pool with a deterministic merge: results return in submission
  order, per-query counters merge into the service ledger in submission
  order, and query spans graft under the service-session trace root in
  submission order — bit-identical at concurrency 1, 8 or 64;
* results are memoized in a fingerprinted LRU cache (see
  :mod:`repro.service.cache`); a hit returns the cached report with
  ``cache_hit=True`` and executes no stage at all;
* :meth:`DatasetHandle.unload` drops the prepared artifacts from the
  registry.

Handles are immutable by convention: nothing mutates a prepared batch or
file after :meth:`prepare` returns, which is what makes the lock-free
sharing across query threads sound.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from ..core.predicate import INTERSECTS, JoinPredicate, resolve_predicate
from ..geometry.engine import make_engine
from ..geometry.mbr import MBR
from ..geometry.primitives import Polygon
from ..metrics import Counters
from ..systems import make_system
from ..systems.base import ROLES, PreparedDataset, RunEnvironment, RunReport
from .cache import ResultCache, canonical_kwargs, compose_key, content_key

__all__ = [
    "SpatialQueryService",
    "DatasetHandle",
    "Query",
    "RangeResult",
    "one_shot_join",
]


@dataclass
class RangeResult:
    """Outcome of a :meth:`DatasetHandle.range` query."""

    #: record ids whose geometry intersects the query box, in row order.
    ids: tuple
    #: work performed by this query (empty on a cache hit).
    counters: Counters
    #: True when answered from the result cache without executing.
    cache_hit: bool = False


@dataclass(frozen=True)
class Query:
    """One query of a :meth:`SpatialQueryService.execute` batch.

    ``plan`` selects the execution layer's knobs for join queries:
    ``"auto"`` (the default) asks the cost-based planner
    (:mod:`repro.plan`) to choose; a frozen
    :class:`~repro.plan.planner.Plan` pins the choice; ``None`` keeps
    the legacy behaviour (whatever the handles' systems were configured
    with at prepare time).
    """

    kind: str  # "join" | "range"
    a: "DatasetHandle"
    b: Optional["DatasetHandle"] = None
    predicate: JoinPredicate = INTERSECTS
    box: Optional[tuple] = None
    plan: object = "auto"

    def __post_init__(self):
        if self.kind not in ("join", "range"):
            raise ValueError(f"unknown query kind {self.kind!r}")
        if self.kind == "join" and self.b is None:
            raise ValueError("join queries need a right-side handle")
        if not (
            self.plan is None
            or (isinstance(self.plan, str) and self.plan == "auto")
            or hasattr(self.plan, "fingerprint")
        ):
            raise ValueError(
                "plan must be 'auto', None, or a repro.plan Plan instance"
            )
        if self.kind == "range":
            if self.box is None:
                raise ValueError("range queries need a box")
            object.__setattr__(
                self, "box", tuple(float(v) for v in self.box)
            )
            if len(self.box) != 4:
                raise ValueError("box must be (xmin, ymin, xmax, ymax)")
        object.__setattr__(
            self, "predicate", resolve_predicate(self.predicate)
        )


class DatasetHandle:
    """An immutable prepared dataset registered with a service.

    Holds, per join side, the parsed columnar batch and every HDFS file
    the system's prepare half produced.  All query methods delegate to
    the owning service (and therefore share its cache and ledger).
    """

    def __init__(
        self,
        service: "SpatialQueryService",
        key: str,
        system_obj,
        system_kwargs: dict,
    ):
        self._service = service
        #: canonical fingerprint of (content, system, kwargs, env params).
        self.key = key
        self._system = system_obj
        self._system_kwargs = system_kwargs
        self.preps: dict[str, PreparedDataset] = {}
        self.alive = True
        #: serializes role preparation for this handle (queries never
        #: take it — prepared entries are immutable once present).
        self._prep_lock = threading.Lock()
        #: memoized per-role DatasetStats (planner input); describe() is
        #: deterministic, so racing fills compute identical values.
        self._stats: dict = {}

    # ------------------------------------------------------------- info
    @property
    def system(self) -> str:
        return self._system.name

    @property
    def roles(self) -> tuple:
        """Join sides this handle has been prepared for."""
        return tuple(r for r in ROLES if r in self.preps)

    def stats(self, role: str):
        """Dataset statistics of a prepared role (memoized planner input)."""
        if role not in self._stats:
            from ..data.stats import describe

            self._stats[role] = describe(self.preps[role].batch)
        return self._stats[role]

    def __len__(self) -> int:
        prep = next(iter(self.preps.values()))
        return len(prep.batch)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DatasetHandle({self.system}, roles={self.roles}, "
            f"records={len(self) if self.preps else 0}, "
            f"key={self.key[:12]}…)"
        )

    # ---------------------------------------------------------- queries
    def join(
        self,
        other: "DatasetHandle",
        predicate: Union[JoinPredicate, str] = INTERSECTS,
        *,
        plan: object = "auto",
    ) -> RunReport:
        """Join this handle (left) with *other* (right); costed report.

        *plan* follows :class:`Query` semantics: ``"auto"`` plans
        cost-based, a :class:`~repro.plan.planner.Plan` pins the choice,
        ``None`` keeps the prepare-time configuration.
        """
        return self._service.execute(
            [Query("join", self, other, predicate=predicate, plan=plan)]
        )[0]

    def range(self, box) -> RangeResult:
        """Ids of records intersecting *box* (an MBR or 4-tuple)."""
        if isinstance(box, MBR):
            box = (box.xmin, box.ymin, box.xmax, box.ymax)
        return self._service.execute([Query("range", self, box=box)])[0]

    def unload(self) -> None:
        """Drop this handle's prepared artifacts from the service."""
        self._service._unload(self)


class SpatialQueryService:
    """Registry + query front-end over prepared datasets.

    Parameters mirror :func:`repro.spatial_join` where they overlap;
    they are fixed per service because they are part of every cache
    fingerprint (a service answers queries for ONE simulated cluster
    configuration).  ``cache_entries=0`` disables the result cache —
    determinism tests use that to compare executed paths only.  With
    ``trace=True`` the service opens a long-lived tracing session; every
    prepare and query span grafts under its root, which :meth:`close`
    finalizes into :attr:`trace_root`.
    """

    def __init__(
        self,
        *,
        cluster="WS",
        block_size: int = 1 << 16,
        seed: Optional[int] = None,
        cache_entries: int = 128,
        cost_params=None,
        trace: bool = False,
        workers: int = 1,
        backend: Optional[str] = None,
    ):
        from ..experiments.runner import DEFAULT_SEED, resolve_cluster

        self.cluster = resolve_cluster(cluster)
        self.block_size = block_size
        self.seed = DEFAULT_SEED if seed is None else seed
        self.cost_params = cost_params
        #: intra-query parallelism: every prepare/query environment runs
        #: its stages on this many workers.
        self.workers = max(1, int(workers))
        self.backend = backend
        #: the service ledger: every prepare's and query's counters merge
        #: here (in submission order), plus the service.* lifecycle keys.
        self.counters = Counters()
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_entries) if cache_entries else None
        )
        self._synced_evictions = 0
        self._handles: dict[str, DatasetHandle] = {}
        #: resolved plans per (left key, right key, predicate); plans are
        #: pure functions of prepared statistics, so entries never expire.
        self._plan_cache: dict[tuple, object] = {}
        self._lock = threading.Lock()
        self._closed = False
        #: finished span tree after close() when tracing was on.
        self.trace_root = None
        self._tracer = None
        self._session = None
        self._root = None
        if trace:
            from ..trace import Tracer

            self._tracer = Tracer()
            self._session = self._tracer.session(
                "service", kind="service", counters=self.counters,
                cluster=self.cluster.name,
            )
            self._root = self._session.__enter__()

    # ------------------------------------------------------- lifecycle
    def __enter__(self) -> "SpatialQueryService":
        return self

    def __exit__(self, exc_type, exc_value, tb) -> None:
        self.close()

    def close(self) -> None:
        """End the service session (idempotent); finalize the trace."""
        if self._closed:
            return
        self._closed = True
        if self._session is not None:
            self._session.__exit__(None, None, None)
            self.trace_root = self._tracer.root
            self._session = None
            self._root = None

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("service is closed")

    # --------------------------------------------------------- prepare
    def prepare(
        self,
        data,
        *,
        system: str = "SpatialSpark",
        system_kwargs: Optional[dict] = None,
        roles: Sequence[str] = ROLES,
    ) -> DatasetHandle:
        """Ingest + partition + index *data* once; return its handle.

        Idempotent per content: preparing equal data under the same
        system/kwargs returns the already-registered handle without
        re-running anything.  *roles* selects the join sides to prepare
        (both by default, so the handle can be either side of a join);
        re-preparing an existing handle with an extra role fills in just
        the missing side.  Modelled prepare failures (broken streaming
        pipes) propagate as exceptions — nothing is registered then.
        """
        self._check_open()
        kwargs = dict(system_kwargs) if system_kwargs else {}
        sys_obj = make_system(system, **kwargs)
        batch = sys_obj._as_batch(data)
        for role in roles:
            if role not in ROLES:
                raise ValueError(f"role must be one of {ROLES}, got {role!r}")
        key = compose_key(
            "dataset",
            content_key(batch),
            system=sys_obj.name,
            kwargs=canonical_kwargs(kwargs),
            cluster=self.cluster.name,
            block_size=self.block_size,
            seed=self.seed,
        )
        with self._lock:
            handle = self._handles.get(key)
            if handle is None:
                handle = DatasetHandle(self, key, sys_obj, kwargs)
                self._handles[key] = handle
        with handle._prep_lock:
            for role in roles:
                if role in handle.preps:
                    continue
                env = self._fresh_env()
                span_handle = self._maybe_span(
                    f"prepare:{role}", counters=env.counters,
                    system=sys_obj.name, kind_="prepare",
                )
                with span_handle as sp:
                    prep = sys_obj.prepare_dataset(env, role, batch)
                handle.preps[role] = prep
                with self._lock:
                    self.counters.merge(env.counters)
                    self.counters.add("service.prepares", 1)
                    self._graft(sp)
        return handle

    # --------------------------------------------------------- queries
    def execute(self, queries: Sequence[Query], *, concurrency: int = 1):
        """Run *queries* (possibly concurrently); results in order.

        The deterministic merge discipline of :mod:`repro.exec` applies:
        regardless of *concurrency*, the returned list, the per-query
        reports/counters, the service-ledger totals and the grafted span
        order depend only on the submitted sequence.  (With the cache
        enabled and *identical* in-flight queries, which request reports
        the miss is unspecified — totals still are deterministic.)
        """
        from .dispatch import run_queries

        self._check_open()
        queries = list(queries)
        for q in queries:
            self._validate(q)
        # Plans resolve serially before dispatch: the per-pair plan cache
        # is filled exactly once per distinct key, so the plan.* ledger
        # charges are a function of the submitted sequence, not of
        # thread interleaving.
        plans = [self._resolve_plan(q) for q in queries]
        return run_queries(self, queries, concurrency, plans)

    def _validate(self, q: Query) -> None:
        if not isinstance(q, Query):
            raise TypeError(f"expected a Query, got {type(q).__name__}")
        handles = (q.a, q.b) if q.b is not None else (q.a,)
        for h in handles:
            if not h.alive:
                raise RuntimeError("handle has been unloaded")
            if h._service is not self:
                raise ValueError("handle belongs to a different service")
        if q.kind == "join":
            if q.a.system != q.b.system:
                raise ValueError(
                    "cannot join handles prepared by different systems "
                    f"({q.a.system} vs {q.b.system})"
                )
            if "a" not in q.a.preps:
                raise ValueError("left handle was not prepared for role 'a'")
            if "b" not in q.b.preps:
                raise ValueError("right handle was not prepared for role 'b'")
        elif not q.a.preps:
            raise ValueError("handle has no prepared role")

    # ---------------------------------------------------------- unload
    def _unload(self, handle: DatasetHandle) -> None:
        self._check_open()
        with self._lock:
            if not handle.alive:
                return
            handle.alive = False
            self._handles.pop(handle.key, None)
            handle.preps.clear()
            self.counters.add("service.unloads", 1)

    # ---------------------------------------------------------- innards
    def _fresh_env(
        self,
        prep_a: Optional[PreparedDataset] = None,
        prep_b: Optional[PreparedDataset] = None,
    ) -> RunEnvironment:
        """A private environment, optionally with prepared files
        installed by reference.  Each environment gets its own executor
        (profile rows must not interleave across concurrent queries)."""
        env = RunEnvironment.create(
            self.cluster, block_size=self.block_size, seed=self.seed,
            workers=self.workers, backend=self.backend,
        )
        preps = [p for p in (prep_a, prep_b) if p is not None]
        if preps:
            from ..systems.base import SpatialJoinSystem

            SpatialJoinSystem.install_prepared(env, *preps)
        if prep_a is not None:
            env.scale_a = prep_a.scale
        if prep_b is not None:
            env.scale_b = prep_b.scale
        return env

    def _maybe_span(self, name: str, *, counters=None, kind_="query", **attrs):
        """A detached trace span when the service session is on; no-op
        context otherwise.  Detached even at concurrency 1 so grafting
        is always explicit (and therefore always in submission order)."""
        if self._root is None:
            from contextlib import nullcontext

            return nullcontext(None)
        from ..trace.core import span as trace_span

        return trace_span(
            name, kind=kind_, counters=counters, detach=True, **attrs
        )

    def _graft(self, sp) -> None:
        """Attach a finished detached span under the service root."""
        if self._root is not None and sp is not None:
            self._root.children.append(sp)

    # ---------------------------------------------------------- planning
    def _resolve_plan(self, q: Query):
        """The plan a join query will execute under (None = legacy).

        ``"auto"`` ranks the candidate space against the prepared
        statistics and memoizes the winner per (left, right, predicate)
        key.  Candidates incompatible with what the handles *prepared*
        (SpatialHadoop bakes its partitioning and granularity into the
        indexed files; explicit ``system_kwargs`` always win over plan
        fields) are filtered out so the chosen plan describes the
        execution that actually runs.
        """
        if q.kind != "join" or q.plan is None:
            return None
        if not isinstance(q.plan, str):
            return q.plan
        key = (q.a.key, q.b.key, str(q.predicate))
        with self._lock:
            plan = self._plan_cache.get(key)
        if plan is not None:
            return plan
        from ..plan.planner import fixed_from_system, rank_plans

        ranked = rank_plans(
            q.a.stats("a"), q.b.stats("b"), q.predicate, self.cluster,
            system=q.a.system, block_size=self.block_size,
            params=self.cost_params,
            blocks_l=q.a.preps["a"].num_input_blocks,
            blocks_r=q.b.preps["b"].num_input_blocks,
        )
        fixed = fixed_from_system(q.a._system)
        admissible = [
            pair for pair in ranked if self._admissible(pair[1], q.a, fixed)
        ]
        plan = (admissible or ranked)[0][1]
        with self._lock:
            if key not in self._plan_cache:
                self._plan_cache[key] = plan
                self.counters.add("plan.candidates", len(ranked))
                self.counters.add("plan.cached", 1)
            else:  # lost a race with a concurrent execute() batch
                plan = self._plan_cache[key]
        return plan

    @staticmethod
    def _admissible(plan, handle: DatasetHandle, fixed) -> bool:
        """Can *plan* actually execute against *handle*'s prepared state?"""
        locked = set(handle._system_kwargs)
        if handle.system == "SpatialHadoop":
            # The partitioning and granularity are baked into the indexed
            # block files at prepare time; only the local stage is free.
            # Adaptive repartitioning splits hot cells at index time too,
            # so the shuffle mode is equally frozen into the blocks.
            locked |= {"partitioner", "n_partitions", "shuffle"}
        if "shuffle" in locked and plan.strategy == "partitioned" \
                and plan.shuffle != fixed.shuffle:
            return False
        partitioned = plan.strategy == "partitioned"
        if "partitioner" in locked and partitioned \
                and plan.partitioner != fixed.partitioner:
            return False
        if "n_partitions" in locked and partitioned \
                and plan.n_partitions != fixed.n_partitions:
            return False
        if "local_algorithm" in locked and partitioned \
                and plan.local_algorithm != fixed.local_algorithm:
            return False
        if "broadcast_join" in locked and plan.strategy != fixed.strategy:
            return False
        return True

    def _fingerprint(self, q: Query, plan=None) -> str:
        if q.kind == "join":
            parts = [q.a.key, q.b.key]
            if plan is not None:
                # The plan fingerprint composes into the cache key: a
                # cached result is never served across different plans
                # for the same dataset pair.
                parts.append(plan.fingerprint())
            return compose_key(
                "join", *parts, predicate=str(q.predicate)
            )
        return compose_key(
            "range", q.a.key, box=",".join(map(repr, q.box))
        )

    def _compute(self, q: Query, plan=None):
        """Execute one query in a fresh environment (the cache-miss
        path); returns (result, finished_span_or_None)."""
        if q.kind == "join":
            prep_a, prep_b = q.a.preps["a"], q.b.preps["b"]
            env = self._fresh_env(prep_a, prep_b)
            sys_obj = q.a._system
            attrs = {}
            if plan is not None:
                sys_obj = make_system(
                    q.a.system, plan=plan, **q.a._system_kwargs
                )
                attrs["plan"] = plan.describe()
            with self._maybe_span(
                "query:join", counters=env.counters,
                system=q.a.system, predicate=str(q.predicate), **attrs,
            ) as sp:
                report = sys_obj.join_prepared(
                    env, prep_a, prep_b, q.predicate
                )
            report = report.costed(self.cost_params, cluster=self.cluster)
            return report, sp, env.counters
        return self._compute_range(q)

    def _compute_range(self, q: Query):
        role = "a" if "a" in q.a.preps else q.a.roles[0]
        batch = q.a.preps[role].batch
        counters = Counters()
        with self._maybe_span(
            "query:range", counters=counters, system=q.a.system,
        ) as sp:
            engine = make_engine(q.a._system.engine_name, counters)
            xmin, ymin, xmax, ymax = q.box
            m = batch.mbrs.data
            counters.add("geom.mbr_tests", len(batch))
            cand = np.nonzero(
                (m[:, 0] <= xmax) & (m[:, 2] >= xmin)
                & (m[:, 1] <= ymax) & (m[:, 3] >= ymin)
            )[0]
            box_poly = Polygon(
                [(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)]
            )
            ids = tuple(
                int(batch.ids[i])
                for i in cand
                if engine.intersects(batch[int(i)], box_poly)
            )
        return RangeResult(ids=ids, counters=counters), sp, counters

    @staticmethod
    def _as_hit(result):
        """The cached payload re-labelled as a hit (shallow copy: pairs,
        counters and clock are the original computation's)."""
        return replace(result, cache_hit=True)


def one_shot_join(
    left,
    right,
    *,
    system: str = "SpatialSpark",
    predicate: Union[JoinPredicate, str] = INTERSECTS,
    cluster="WS",
    workers: int = 1,
    backend=None,
    block_size: int = 1 << 16,
    seed: Optional[int] = None,
    cost_params=None,
    system_kwargs: Optional[dict] = None,
    trace: bool = False,
    plan: object = "auto",
) -> RunReport:
    """The legacy single-call path: prepare both sides and join them in
    ONE shared environment, so the report carries the full pipeline's
    counters and the IA / IB / DJ breakdown.

    This is exactly ``prepare(a) + prepare(b) + join_prepared`` — the
    same halves the serving path runs — composed by each system's
    :meth:`~repro.systems.base.SpatialJoinSystem.run`.  *system_kwargs*
    is copied at this boundary; the caller's dict is never mutated.

    *plan*: ``"auto"`` (default) lets the cost-based planner choose the
    execution knobs within *system* from the inputs' statistics; a
    frozen :class:`~repro.plan.planner.Plan` pins them (and selects its
    own system); ``None`` keeps the legacy fixed defaults.  Explicit
    *system_kwargs* always override plan fields.  Planning never charges
    the run's ledger, and result pairs are plan-invariant by the local
    joins' shared refinement.
    """
    from ..experiments.runner import DEFAULT_SEED, resolve_cluster

    predicate = resolve_predicate(predicate)
    config = resolve_cluster(cluster)
    env = RunEnvironment.create(
        config,
        block_size=block_size,
        seed=DEFAULT_SEED if seed is None else seed,
        workers=workers,
        backend=backend,
    )
    kwargs = dict(system_kwargs or {})
    plan_obj = None
    if isinstance(plan, str) and plan == "auto":
        from ..data.stats import describe
        from ..plan.planner import plan_query
        from ..systems.base import SpatialJoinSystem

        plan_obj = plan_query(
            describe(SpatialJoinSystem._as_batch(left)),
            describe(SpatialJoinSystem._as_batch(right)),
            predicate,
            config,
            system=system,
            block_size=block_size,
            params=cost_params,
        )
    elif plan is not None:
        plan_obj = plan
        system = plan_obj.system
    if plan_obj is not None:
        kwargs["plan"] = plan_obj
    sys_obj = make_system(system, **kwargs)
    if trace:
        from ..trace import Tracer
        from ..trace.core import span as trace_span

        tracer = Tracer()
        attrs = {"plan": plan_obj.describe()} if plan_obj is not None else {}
        with tracer.session(
            "spatial_join", kind="experiment", counters=env.counters,
            system=sys_obj.name, cluster=config.name,
        ):
            with trace_span(
                sys_obj.name, kind="run", counters=env.counters, **attrs
            ):
                report = sys_obj.run(env, left, right, predicate)
        report.trace = tracer.root
    else:
        report = sys_obj.run(env, left, right, predicate)
    return report.costed(cost_params, cluster=config)
