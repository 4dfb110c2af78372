"""Common machinery of the three spatial-join systems.

Defines the run environment (shared substrates wired together), the
system interface, and the run report consumed by the experiment harness:
per-group simulated seconds (Table 3's IA / IB / DJ / TOT breakdown),
result pairs (verified identical across systems), and failure outcomes
(Table 2's "-" cells).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from ..cluster.costmodel import CostModel, CostParams
from ..cluster.simclock import SimClock
from ..cluster.specs import ClusterConfig, ws_config
from ..core.framework import StageTrace
from ..core.predicate import INTERSECTS, JoinPredicate
from ..data.loaders import SpatialRecord, encode_batch, encode_dataset, from_tsv_line
from ..exec.backend import ExecutorBackend, resolve_backend
from ..geometry.batch import GeometryBatch
from ..geometry.primitives import Geometry
from ..hdfs.filesystem import SimulatedHDFS
from ..mapreduce.streaming import StreamingPipeError, pipe_capacity_for
from ..metrics import Counters
from ..spark.memory import SparkOutOfMemoryError

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from ..experiments.extrapolate import ScaleInfo
    from ..trace.core import Span as TraceSpan

__all__ = [
    "RunEnvironment",
    "RunReport",
    "PreparedDataset",
    "SpatialJoinSystem",
    "GROUPS",
    "ROLES",
]

#: Reporting groups matching Table 3's columns.
GROUPS = ("index_a", "index_b", "join")

#: The two join sides.  Role names double as HDFS namespaces
#: (``/input/a``, ``/hgis/b/...``) and feed the sampling seeds
#: (``(env.seed, int.from_bytes(role) & 0xFFFF)``), so they are fixed: a dataset
#: prepared as ``"a"`` serves as the left side of joins, ``"b"`` as the
#: right.
ROLES = ("a", "b")


@dataclass
class RunEnvironment:
    """Everything a system run needs, sharing one counters instance.

    ``record_scale`` / ``byte_scale`` translate executed volumes into
    logical (paper-scale) volumes for the *failure models only* — pipe
    capacities and Spark memory.  Cost extrapolation happens later, in
    the experiment runner, from the measured counters.
    """

    cluster: ClusterConfig
    counters: Counters
    hdfs: SimulatedHDFS
    clock: SimClock
    #: (record_scale, byte_scale) of the left / right dataset: logical
    #: (paper-scale) units per executed unit.
    scale_a: tuple[float, float] = (1.0, 1.0)
    scale_b: tuple[float, float] = (1.0, 1.0)
    seed: int = 0
    block_size: int = field(default=0)  # informational; hdfs owns the real one
    #: optional per-input block sizes (path -> bytes) used when staging,
    #: so each dataset's block count matches its paper-scale structure.
    input_block_sizes: dict = field(default_factory=dict)
    #: task execution backend every substrate in this environment runs
    #: task attempts on; serial by default so behaviour is unchanged.
    executor: ExecutorBackend = field(default_factory=lambda: resolve_backend())
    #: per-run decode memo, TSV line text -> parsed record (see
    #: :meth:`decode_line`).  Forked workers fill their own copies.
    decoded: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def create(
        cls,
        cluster: Optional[ClusterConfig] = None,
        *,
        block_size: int = 1 << 16,
        scale_a: tuple[float, float] = (1.0, 1.0),
        scale_b: tuple[float, float] = (1.0, 1.0),
        seed: int = 0,
        workers: int = 1,
        backend: Union[str, ExecutorBackend, None] = None,
    ) -> "RunEnvironment":
        """Build an environment around one shared counters instance.

        *workers* / *backend* select the task execution backend: with the
        defaults everything runs serially; ``workers>1`` forks one process
        per worker slice of each stage (serial where ``fork`` is missing),
        and *backend* forces ``"serial"`` / ``"process"`` or accepts a
        ready :class:`~repro.exec.ExecutorBackend`.  Results are
        bit-identical across backends by construction.
        """
        cluster = cluster or ws_config()
        counters = Counters()
        hdfs = SimulatedHDFS(block_size=block_size, counters=counters)
        return cls(
            cluster=cluster,
            counters=counters,
            hdfs=hdfs,
            clock=SimClock(),
            scale_a=scale_a,
            scale_b=scale_b,
            seed=seed,
            block_size=block_size,
            executor=resolve_backend(backend, workers),
        )

    def load_input(
        self, path: str, geometries: "Sequence[Geometry] | GeometryBatch"
    ) -> None:
        """Stage a dataset in HDFS as TSV text, outside the timed run.

        The paper's end-to-end times start from data already resident in
        HDFS, so the initial upload is not charged to any phase.  A
        :class:`GeometryBatch` encodes straight from its arrays; the text
        is byte-identical to the object encoder's (ids are positional in
        both cases).
        """
        before = self.counters.snapshot()
        if isinstance(geometries, GeometryBatch):
            lines = list(encode_batch(geometries.with_positional_ids()))
        else:
            lines = list(encode_dataset(geometries))
        self.hdfs.write_file(
            path,
            lines,
            block_size=self.input_block_sizes.get(path),
        )
        # Roll back the upload charges: staging is not part of the run.
        for key, value in self.counters.diff(before).items():
            self.counters[key] -= value

    def decode_line(self, line: str) -> SpatialRecord:
        """``from_tsv_line(line)``, decoded at most once per run.

        HadoopGIS re-parses every record at each streaming hop; the
        modelled cost of that is charged by its explicit ``parse_charge``
        calls, so the wall clock need not pay it again.  The memo is exact
        because the decode is a pure function of the line's text; it only
        saves time and never changes a result or a counter.
        """
        rec = self.decoded.get(line)
        if rec is None:
            rec = self.decoded[line] = from_tsv_line(line)
        return rec

    @property
    def pipe_capacity(self) -> float:
        return pipe_capacity_for(self.cluster)


@dataclass
class RunReport:
    """Outcome of one system × experiment × cluster run."""

    system: str
    cluster: str
    status: str  # "ok" | "failed"
    clock: SimClock
    counters: Counters
    failure: Optional[str] = None
    failure_kind: Optional[str] = None  # "broken_pipe" | "oom" | None
    pairs: Optional[frozenset] = None  # {(left_rid, right_rid)}
    engine_profile: dict = field(default_factory=dict)
    #: peak live executor memory / budget (Spark systems only; drives the
    #: GC-pressure penalty in the cost model).
    memory_pressure: float = 0.0
    #: root of the recorded span tree when the run was traced (see
    #: :mod:`repro.trace`); None otherwise.  Filled in by the caller that
    #: owns the tracing session (``spatial_join`` / ``run_experiment``).
    trace: Optional["TraceSpan"] = None
    #: True when this report was answered from the service result cache
    #: without executing any stage (see :mod:`repro.service`); the payload
    #: (pairs, counters, clock) is the original computation's.
    cache_hit: bool = False
    #: Execution-environment degradation notices (e.g. the process
    #: backend running serially because ``fork`` is unavailable).
    #: Empty on a healthy run; never affects results, only wall-clock.
    warnings: tuple = ()

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def costed(
        self,
        cost_params: Optional[CostParams] = None,
        *,
        cluster: Optional[ClusterConfig] = None,
        scale: Optional["ScaleInfo"] = None,
    ) -> "RunReport":
        """Fill simulated seconds into the clock — the one costing path.

        Without arguments this looks the run's cluster up among the
        paper's named configurations.  *cluster* supplies an explicit
        :class:`ClusterConfig` instead (required for ad-hoc ``EC2-<n>``
        sweeps whose names the paper tables don't know).  *scale*, when
        given, extrapolates the measured per-phase counts to paper scale
        before costing — the experiment runner routes through here rather
        than re-implementing extrapolation + costing itself.
        """
        if cluster is None:
            from ..cluster.specs import PAPER_CONFIGS

            cluster = PAPER_CONFIGS().get(self.cluster)
            if cluster is None:
                raise ValueError(f"unknown cluster {self.cluster!r} for costing")
        if scale is not None:
            from ..experiments.extrapolate import extrapolate_clock

            self.clock = extrapolate_clock(self.clock, scale)
        CostModel(
            cluster,
            params=cost_params,
            engine_profile=self.engine_profile,
            memory_pressure=self.memory_pressure,
        ).cost_clock(self.clock)
        return self

    def breakdown_seconds(self) -> dict[str, float]:
        """IA / IB / DJ / TOT seconds (requires a costed clock)."""
        if not self.clock.costed:
            raise RuntimeError(
                "clock has not been costed; call RunReport.costed() (or "
                "run_experiment, which costs for you) before asking for a "
                "seconds breakdown"
            )
        out = {
            "IA": self.clock.group_seconds("index_a"),
            "IB": self.clock.group_seconds("index_b"),
            "DJ": self.clock.group_seconds("join"),
        }
        out["TOT"] = self.clock.total_seconds
        return out


@dataclass
class PreparedDataset:
    """One dataset after a system's prepare half: staged, partitioned,
    indexed — everything a query needs short of the join itself.

    The payload is immutable by convention: ``batch`` is the parsed
    columnar shard (positional ids matching the staged TSV rids) and
    ``files`` snapshots every HDFS file the prepare stage produced
    (staged text, partitioned/indexed data, ``_master`` partition
    metadata).  Queries install these files by reference into a fresh
    per-query filesystem, so any number of concurrent queries share one
    prepared copy without re-staging.
    """

    #: join side ("a" = left, "b" = right); fixed namespace, see ROLES.
    role: str
    #: system that prepared it (prepared artifacts are system-specific).
    system: str
    #: the parsed columnar dataset with positional ids.
    batch: GeometryBatch
    #: block count of the staged input (drives partition-count defaults).
    num_input_blocks: int
    #: every HDFS file written by ingest + preprocessing, by path.
    files: dict = field(default_factory=dict)
    #: (record_scale, byte_scale) the dataset was prepared under.
    scale: tuple[float, float] = (1.0, 1.0)


class SpatialJoinSystem(ABC):
    """Interface shared by HadoopGIS, SpatialHadoop and SpatialSpark.

    Every pipeline is split into two halves:

    * :meth:`prepare_dataset` — ingest, partition and index ONE dataset
      for one join side, returning a :class:`PreparedDataset`;
    * :meth:`join_prepared` — execute the join stages over two prepared
      datasets, returning a :class:`RunReport`.

    :meth:`run` is exactly the composition ``prepare(a) + prepare(b) +
    join_prepared`` in one environment — the one-shot path and the
    serving path (:mod:`repro.service`) share the same stage code.
    """

    #: the paper's system name
    name: str = "abstract"
    #: geometry library analogue this system links against
    engine_name: str = "jts"

    @abstractmethod
    def run(
        self,
        env: RunEnvironment,
        left: Sequence[SpatialRecord] | Sequence[Geometry] | GeometryBatch,
        right: Sequence[SpatialRecord] | Sequence[Geometry] | GeometryBatch,
        predicate: JoinPredicate = INTERSECTS,
    ) -> RunReport:
        """Execute the full distributed join; never raises for modelled
        failures — they come back as a failed :class:`RunReport`.

        *predicate* selects the join semantics: the paper's *intersects*
        (default) or an ε-distance join (``core.within_distance``)."""

    # ------------------------------------------------- prepare/query halves
    def prepare_dataset(
        self,
        env: RunEnvironment,
        role: str,
        data: Sequence[SpatialRecord] | Sequence[Geometry] | GeometryBatch,
    ) -> PreparedDataset:
        """The prepare half: stage *data* in HDFS and run this system's
        per-dataset preprocessing (sampling, partitioning, indexing) for
        one join side.

        Modelled failures (broken pipes) propagate as exceptions here —
        the caller decides whether that fails a run (:meth:`run`) or a
        service prepare.
        """
        if role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}, got {role!r}")
        batch = self._as_batch(data)
        env.load_input(f"/input/{role}", batch)
        self._prepare_role(env, role, batch)
        files: dict = {}
        for prefix in self._prepare_prefixes(role):
            files.update(env.hdfs.export_files(prefix))
        return PreparedDataset(
            role=role,
            system=self.name,
            batch=batch,
            num_input_blocks=env.hdfs.num_blocks(f"/input/{role}"),
            files=files,
            scale=env.scale_a if role == "a" else env.scale_b,
        )

    def _prepare_role(
        self, env: RunEnvironment, role: str, batch: GeometryBatch
    ) -> None:
        """System-specific preprocessing of one staged dataset (may be a
        no-op: SpatialSpark's prepare is ingest only)."""

    def _prepare_prefixes(self, role: str) -> tuple:
        """HDFS path prefixes holding this system's prepared artifacts."""
        return (f"/input/{role}",)

    @abstractmethod
    def join_prepared(
        self,
        env: RunEnvironment,
        prep_a: PreparedDataset,
        prep_b: PreparedDataset,
        predicate: JoinPredicate = INTERSECTS,
    ) -> RunReport:
        """The query half: join two prepared datasets in *env*.

        *env* must already hold the prepared files (the shared
        environment of a one-shot run, or a fresh per-query filesystem
        populated via :meth:`install_prepared`).  Like :meth:`run`,
        modelled failures come back as a failed report, never raise.
        """

    @staticmethod
    def install_prepared(env: RunEnvironment, *preps: PreparedDataset) -> None:
        """Link prepared datasets' files into a fresh query environment."""
        for prep in preps:
            env.hdfs.install_files(prep.files)

    @abstractmethod
    def stage_trace(self) -> StageTrace:
        """The system's pipeline in the Fig.-1 framework terms."""

    # ------------------------------------------------------------- helpers
    @staticmethod
    def _as_batch(items: "Sequence | GeometryBatch") -> GeometryBatch:
        """Coerce any accepted input into a batch with positional ids.

        Positional ids match the rids the pipelines parse out of the
        staged TSV text, so cached ``mbrs`` rows can be looked up by rid
        directly — the dedupe that replaces the per-stage
        ``MBRArray.from_geometries`` rebuilds.
        """
        return GeometryBatch.coerce(items).with_positional_ids()

    def _report(
        self,
        env: RunEnvironment,
        *,
        pairs: "Optional[set | frozenset | np.ndarray]" = None,
        error: Optional[Exception] = None,
        engine_profile: Optional[dict] = None,
        memory_pressure: float = 0.0,
    ) -> RunReport:
        failure_kind = None
        if isinstance(error, StreamingPipeError):
            failure_kind = "broken_pipe"
        elif isinstance(error, SparkOutOfMemoryError):
            failure_kind = "oom"
        profile = dict(engine_profile or {})
        # Per-stage wall-clock of the execution backend rides along for
        # benchmarking; the cost model ignores non-counter keys.
        profile["exec"] = env.executor.profile_summary()
        if isinstance(pairs, np.ndarray):
            # Columnar pair plane -> the documented tuple set, at the
            # API boundary only.
            pairs = frozenset(map(tuple, pairs.tolist()))
        return RunReport(
            system=self.name,
            cluster=env.cluster.name,
            status="ok" if error is None else "failed",
            clock=env.clock,
            counters=env.counters,
            failure=str(error) if error else None,
            failure_kind=failure_kind,
            pairs=frozenset(pairs) if pairs is not None else None,
            engine_profile=profile,
            memory_pressure=memory_pressure,
            warnings=tuple(getattr(env.executor, "warnings", ()) or ()),
        )
