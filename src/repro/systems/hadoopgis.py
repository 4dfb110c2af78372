"""HadoopGIS: Hadoop-Streaming-based spatial join (Aji et al., VLDB 2013).

Reproduces the design the paper analyzes (Section II, Fig. 1a):

* **Streaming data access** — every record crosses mapper/reducer
  boundaries as a line of text and is re-parsed at each hop.
* **Six-step preprocessing per dataset** — format conversion, sampling,
  extent computation, sample normalization, a *serial local program*
  generating partitions (with HDFS↔local copies), and a final MR job
  assigning partition ids, whose output is deduplicated by a pipelined
  ``cat | sort | uniq`` over the whole partitioned file.
* **Global join that cannot reuse preprocessing partitions** — samples of
  both datasets are concatenated by another serial local program into a
  *new* partitioning; every map task of the join job re-reads the
  partition file from HDFS and rebuilds a dynamic R-tree
  (libspatialindex analogue) before assigning partition ids again.
* **Local join in reducers** — indexed nested loop with GEOS-like
  (slow, scalar) refinement; duplicate result pairs from multi-assignment
  are removed at the end.
* **Failure mode** — any streaming process whose logical pipe volume
  exceeds capacity raises the broken-pipe error; with full datasets this
  happens even on the 128 GB workstation, exactly as in Table 2.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..cluster.simclock import PhaseRecord
from ..core.framework import (
    DataAccessModel,
    RunsOn,
    Stage,
    StageStep,
    StageTrace,
)
from ..core.localjoin import LOCAL_JOIN_ALGORITHMS, local_join, refine_candidates
from ..core.partitioning import GridPartitioner, SpatialPartitioning, make_partitioner
from ..core.predicate import INTERSECTS, JoinPredicate
from ..data.loaders import to_tsv_line
from ..geometry.engine import GEOS_COST_PROFILE, make_engine
from ..geometry.mbr import MBR, MBRArray
from ..index.rtree import RTree
from ..mapreduce.job import MapReduceJob
from ..mapreduce.streaming import (
    PipePolicy,
    StreamingPipeError,
    make_streaming_hook,
    parse_charge,
    serialize_charge,
)
from ..shuffle import SFilter, resolve_shuffle, split_hot_cells
from ..trace.core import annotate, span as trace_span
from .base import RunEnvironment, RunReport, SpatialJoinSystem

__all__ = ["HadoopGIS"]


class HadoopGIS(SpatialJoinSystem):
    """The HadoopGIS pipeline on the simulated substrates."""

    name = "HadoopGIS"
    engine_name = "geos"

    def __init__(
        self,
        *,
        n_partitions: Optional[int] = None,
        sample_fraction: float = 0.05,
        partitioner=None,
        local_algorithm: Optional[str] = None,
        plan=None,
        shuffle=None,
    ):
        # Resolution order: explicit kwargs > plan fields > legacy
        # defaults (grid tiles, dynamic-R-tree nested loop).
        if plan is not None:
            if plan.system != self.name:
                raise ValueError(
                    f"plan targets {plan.system}, not {self.name}"
                )
            if n_partitions is None and plan.n_partitions:
                n_partitions = plan.n_partitions
            if partitioner is None:
                partitioner = plan.partitioner
            if local_algorithm is None:
                local_algorithm = plan.local_algorithm
            if shuffle is None:
                shuffle = plan.shuffle == "skew"
        self.shuffle = resolve_shuffle(shuffle)
        self.n_partitions = n_partitions
        self.sample_fraction = sample_fraction
        if isinstance(partitioner, str):
            partitioner = make_partitioner(partitioner)
        self.partitioner = partitioner or GridPartitioner()
        if not self.partitioner.produces_tiles:
            raise ValueError(
                "HadoopGIS multi-assigns records to tiles, which requires "
                "a tiling partitioner (grid, bsp or quadtree)"
            )
        self.local_algorithm = local_algorithm or "indexed_nested_loop"
        if self.local_algorithm not in LOCAL_JOIN_ALGORITHMS:
            raise ValueError(
                f"unknown local join algorithm {self.local_algorithm!r}; "
                f"options: {sorted(LOCAL_JOIN_ALGORITHMS)}"
            )

    # ------------------------------------------------------------------ run
    def run(
        self, env: RunEnvironment, left, right, predicate: JoinPredicate = INTERSECTS
    ) -> RunReport:
        """Execute the full HadoopGIS pipeline (see the module docstring).

        Exactly the prepare-half composition plus the query half: charge
        totals, per-phase deltas and span structure are identical to the
        historical monolithic pipeline (phase *order* interleaves the two
        datasets' staging, which no accounting observes).
        """
        try:
            prep_a = self.prepare_dataset(env, "a", left)
            prep_b = self.prepare_dataset(env, "b", right)
        except StreamingPipeError as err:
            return self._report(env, error=err, engine_profile=GEOS_COST_PROFILE)
        return self.join_prepared(env, prep_a, prep_b, predicate)

    # ------------------------------------------------------- prepare half
    def _prepare_role(self, env: RunEnvironment, role: str, batch) -> None:
        # Pipe volumes are converted to paper scale with the byte scale of
        # the dataset flowing through the pipe.
        scale = env.scale_a if role == "a" else env.scale_b
        policy = PipePolicy(capacity_bytes=env.pipe_capacity, byte_scale=scale[1])
        group = "index_a" if role == "a" else "index_b"
        with trace_span(f"preprocess:{role}", kind="stage", counters=env.counters):
            self._preprocess(env, policy, role, group=group)

    def _prepare_prefixes(self, role: str) -> tuple:
        return (f"/input/{role}", f"/hgis/{role}")

    # --------------------------------------------------------- query half
    def join_prepared(
        self,
        env: RunEnvironment,
        prep_a,
        prep_b,
        predicate: JoinPredicate = INTERSECTS,
    ) -> RunReport:
        """The query half: global join (sample combination + joint
        partitioning) and the local join MR job over the prepared TSV
        datasets; broken streaming pipes come back as a failed report."""
        engine = make_engine("geos", env.counters)
        # The join job mixes records of both datasets in one task; its
        # tasks track their own logical volumes per side (byte_scale=1).
        policy_join = PipePolicy(capacity_bytes=env.pipe_capacity, byte_scale=1.0)
        # Both batches carry parse-time MBRs: the joint extent needs no
        # per-geometry rebuild.
        universe = MBRArray(
            np.vstack([prep_a.batch.mbrs.data, prep_b.batch.mbrs.data])
        ).extent()
        n_parts = self.n_partitions or max(
            4, prep_a.num_input_blocks + prep_b.num_input_blocks
        )
        try:
            with trace_span("global_join", kind="stage", counters=env.counters):
                partitioning = self._combine_samples(env, universe, n_parts)
                keep_masks = self._build_sfilters(env, prep_a, prep_b, predicate)
            with trace_span("local_join", kind="stage", counters=env.counters):
                pairs = self._distributed_join(
                    env, policy_join, engine, partitioning, predicate,
                    keep_masks=keep_masks,
                )
        except StreamingPipeError as err:
            return self._report(env, error=err, engine_profile=GEOS_COST_PROFILE)
        return self._report(env, pairs=pairs, engine_profile=GEOS_COST_PROFILE)

    # -------------------------------------------------------- preprocessing
    def _preprocess(
        self, env: RunEnvironment, policy: PipePolicy, d: str, *, group: str
    ) -> None:
        """Steps 1-6 of HadoopGIS preprocessing for one dataset."""
        counters, hdfs = env.counters, env.hdfs
        # Each hop still charges its parse; the wall clock decodes each
        # distinct line once per run (RunEnvironment.decode_line).
        decode = env.decode_line
        hook = lambda job: make_streaming_hook(counters, policy, job)  # noqa: E731

        # Step 1: map-only conversion to the internal TSV format.
        def convert_map(data):
            for line in data.records:
                rec = decode(line)
                parse_charge(counters, 1, len(line))
                out = to_tsv_line(rec)
                serialize_charge(counters, 1, len(out))
                yield out

        MapReduceJob(
            f"hgis.{d}.convert",
            hdfs=hdfs, counters=counters, clock=env.clock,
            inputs=[f"/input/{d}"], map_task=convert_map,
            output_path=f"/hgis/{d}/tsv", group=group, executor=env.executor,
            streaming_hook=hook(f"hgis.{d}.convert"),
        ).run()

        # Step 2: map-only sampling of MBRs.
        # int.from_bytes, not hash(): str hashing is PYTHONHASHSEED-salted,
        # which would make the sample (and any skew split derived from it)
        # differ across processes.
        seed = (env.seed, int.from_bytes(d.encode(), "big") & 0xFFFF)

        def sample_map(data):
            # Sample raw lines first; only sampled records are parsed.
            rng = np.random.default_rng((seed, data.split.parts[0][1]))
            keep = rng.random(len(data.records)) < self.sample_fraction
            for line, k in zip(data.records, keep):
                if k:
                    parse_charge(counters, 1, len(line))
                    m = decode(line).geometry.mbr
                    yield f"{m.xmin},{m.ymin},{m.xmax},{m.ymax}"

        MapReduceJob(
            f"hgis.{d}.sample",
            hdfs=hdfs, counters=counters, clock=env.clock,
            inputs=[f"/hgis/{d}/tsv"], map_task=sample_map,
            output_path=f"/hgis/{d}/samples", group=group, executor=env.executor,
            streaming_hook=hook(f"hgis.{d}.sample"),
        ).run()

        # Step 3: MR job computing the extent from samples (single reducer).
        def extent_map(data):
            for line in data.records:
                parse_charge(counters, 1, len(line))
                yield ("extent", line)

        def extent_reduce(_key, values):
            boxes = np.array([[float(v) for v in s.split(",")] for s in values])
            counters.add("cpu.ops", len(values))
            if len(boxes):
                yield f"{boxes[:,0].min()},{boxes[:,1].min()},{boxes[:,2].max()},{boxes[:,3].max()}"

        MapReduceJob(
            f"hgis.{d}.extent",
            hdfs=hdfs, counters=counters, clock=env.clock,
            inputs=[f"/hgis/{d}/samples"], map_task=extent_map,
            reduce_task=extent_reduce, output_path=f"/hgis/{d}/extent",
            num_reducers=1, group=group, executor=env.executor,
            streaming_hook=hook(f"hgis.{d}.extent"),
        ).run()

        # Step 4: map-only normalization of sample MBRs against the extent.
        extent_line = (hdfs.read_all(f"/hgis/{d}/extent") or ["0,0,1,1"])[0]
        ex = [float(v) for v in extent_line.split(",")]
        w = (ex[2] - ex[0]) or 1.0
        h = (ex[3] - ex[1]) or 1.0

        def normalize_map(data):
            for line in data.records:
                parse_charge(counters, 1, len(line))
                m = [float(v) for v in line.split(",")]
                out = (
                    f"{(m[0]-ex[0])/w},{(m[1]-ex[1])/h},"
                    f"{(m[2]-ex[0])/w},{(m[3]-ex[1])/h}"
                )
                serialize_charge(counters, 1, len(out))
                yield out

        MapReduceJob(
            f"hgis.{d}.normalize",
            hdfs=hdfs, counters=counters, clock=env.clock,
            inputs=[f"/hgis/{d}/samples"], map_task=normalize_map,
            output_path=f"/hgis/{d}/samples_norm", group=group, executor=env.executor,
            streaming_hook=hook(f"hgis.{d}.normalize"),
        ).run()

        # Step 5: serial local program generating partitions (HDFS↔local copies).
        with trace_span(
            f"hgis.{d}.gen_partitions", kind="phase", counters=counters,
            group=group,
        ):
            before = counters.snapshot()
            sample_lines = hdfs.copy_to_local(f"/hgis/{d}/samples")
            boxes = _parse_mbr_lines(sample_lines)
            counters.add("cpu.ops", max(len(boxes), 1))
            part = GridPartitioner().partition(
                boxes, max(4, hdfs.num_blocks(f"/hgis/{d}/tsv")), _extent_mbr(ex)
            )
            part_lines = [
                f"{b.xmin},{b.ymin},{b.xmax},{b.ymax}" for b in part.boxes
            ]
            annotate(partitions=len(part))
            hdfs.copy_from_local(f"/hgis/{d}/partitions", part_lines, overwrite=True)
            env.clock.record(
                PhaseRecord(
                    name=f"hgis.{d}.gen_partitions",
                    counters=counters.diff(before),
                    tasks=1,  # serial local program
                    group=group,
                )
            )

        # Step 6: MR job assigning partition ids (most expensive step).
        def assign_map(data):
            # Every map task re-reads the partition file and rebuilds an
            # R-tree from it (the paper's criticized per-task rebuild).
            part_lines_local = hdfs.read_all(f"/hgis/{d}/partitions")
            tree = RTree(counters=counters)
            for pid, line in enumerate(part_lines_local):
                vals = [float(v) for v in line.split(",")]
                tree.insert(MBR(*vals), pid)
            for line in data.records:
                parse_charge(counters, 1, len(line))
                rec = decode(line)
                hits = tree.query(rec.geometry.mbr)
                if hits.size == 0:
                    hits = [0]
                for pid in hits:
                    out = f"{int(pid)}\t{line}"
                    serialize_charge(counters, 1, len(out))
                    yield (int(pid), line)

        def assign_reduce(pid, lines):
            for line in lines:
                yield f"{pid}\t{line}"

        MapReduceJob(
            f"hgis.{d}.assign",
            hdfs=hdfs, counters=counters, clock=env.clock,
            inputs=[f"/hgis/{d}/tsv"], map_task=assign_map,
            reduce_task=assign_reduce, output_path=f"/hgis/{d}/partitioned",
            group=group, executor=env.executor, streaming_hook=hook(f"hgis.{d}.assign"),
        ).run()

        # Step 6b: pipelined cat|sort|uniq dedup over the whole partitioned
        # file — one serial streaming process; the paper's broken-pipe site.
        with trace_span(
            f"hgis.{d}.dedup", kind="phase", counters=counters, group=group,
        ):
            before = counters.snapshot()
            lines = hdfs.read_all(f"/hgis/{d}/partitioned")
            volume_in = sum(len(l) + 1 for l in lines)
            counters.add("sort.ops", len(lines) * max(np.log2(max(len(lines), 2)), 1.0))
            deduped = sorted(set(lines))
            volume_out = sum(len(l) + 1 for l in deduped)
            counters.add("streaming.processes")
            counters.add("pipe.bytes", volume_in + volume_out)
            annotate(bytes=volume_in + volume_out, records=len(lines))
            hdfs.write_file(f"/hgis/{d}/partitioned_dedup", deduped, overwrite=True)
            env.clock.record(
                PhaseRecord(
                    name=f"hgis.{d}.dedup",
                    counters=counters.diff(before),
                    tasks=1,
                    group=group,
                )
            )
        policy.check(f"hgis.{d}.dedup", "reduce", volume_in + volume_out)

    # ---------------------------------------------------------- global join
    def _combine_samples(
        self, env: RunEnvironment, universe: MBR, n_parts: int
    ) -> SpatialPartitioning:
        """Serial local step: concatenate both samples, build new partitions.

        The preprocessing partition ids cannot be reused (the two datasets
        were partitioned independently), so HadoopGIS pays this extra
        serial round trip — a design cost the paper highlights.
        """
        counters, hdfs = env.counters, env.hdfs
        with trace_span(
            "hgis.join.combine_samples", kind="phase", counters=counters,
            group="join",
        ):
            before = counters.snapshot()
            lines = hdfs.copy_to_local("/hgis/a/samples") + hdfs.copy_to_local(
                "/hgis/b/samples"
            )
            boxes = _parse_mbr_lines(lines)
            counters.add("cpu.ops", max(len(boxes), 1))
            part = self.partitioner.partition(boxes, n_parts, universe)
            if self.shuffle is not None and self.shuffle.repartition:
                # SATO-style quality stats over the combined sample: hot
                # cells are re-gridded before the partition file ships,
                # so the join job's reducers see the finer granularity.
                part, qstats, report = split_hot_cells(
                    part,
                    boxes,
                    hot_factor=self.shuffle.hot_factor,
                    max_splits=self.shuffle.max_splits,
                    leaves=self.shuffle.split_leaves,
                )
                if report.hot_cells:
                    counters.add("skew.cells_split", len(report.hot_cells))
                    counters.add("skew.cells_added", report.cells_added)
                annotate(
                    sampled_skew=round(qstats.skew, 4),
                    cells_split=len(report.hot_cells),
                    cells_added=report.cells_added,
                )
            part_lines = [f"{b.xmin},{b.ymin},{b.xmax},{b.ymax}" for b in part.boxes]
            annotate(samples=len(lines), partitions=len(part))
            hdfs.copy_from_local("/hgis/join/partitions", part_lines, overwrite=True)
            env.clock.record(
                PhaseRecord(
                    name="hgis.join.combine_samples",
                    counters=counters.diff(before),
                    tasks=1,
                    group="join",
                )
            )
        return part

    def _build_sfilters(
        self, env: RunEnvironment, prep_a, prep_b, predicate: JoinPredicate
    ) -> Optional[dict]:
        """Serial local step: one sFilter per side from the prepared MBRs.

        Returns ``{"A": keep_mask, "B": keep_mask}`` (rid-positional) or
        ``None`` when the feature is off.  A ``False`` entry means the
        record's MBR provably intersects nothing on the opposite side, so
        the join job's mappers drop it before it is serialized into the
        shuffle.
        """
        if self.shuffle is None or not self.shuffle.sfilter:
            return None
        counters = env.counters
        with trace_span(
            "hgis.join.build_sfilter", kind="phase", counters=counters,
            group="join",
        ):
            before = counters.snapshot()
            sf_a = SFilter(prep_a.batch.mbrs, resolution=self.shuffle.resolution)
            sf_b = SFilter(prep_b.batch.mbrs, resolution=self.shuffle.resolution)
            counters.add("shuffle.sfilter_builds", 2)
            counters.add("cpu.ops", len(prep_a.batch.mbrs) + len(prep_b.batch.mbrs))
            margin = predicate.filter_margin
            keep_masks = {
                "A": sf_b.contains(prep_a.batch.mbrs, margin=margin),
                "B": sf_a.contains(prep_b.batch.mbrs, margin=margin),
            }
            annotate(
                sfilter_keep_a=int(keep_masks["A"].sum()),
                sfilter_keep_b=int(keep_masks["B"].sum()),
            )
            env.clock.record(
                PhaseRecord(
                    name="hgis.join.build_sfilter",
                    counters=counters.diff(before),
                    tasks=1,  # serial local program, like gen_partitions
                    group="join",
                )
            )
        return keep_masks

    def _distributed_join(
        self,
        env: RunEnvironment,
        policy: PipePolicy,
        engine,
        partitioning: SpatialPartitioning,
        predicate: JoinPredicate = INTERSECTS,
        *,
        keep_masks: Optional[dict] = None,
    ) -> set[tuple[int, int]]:
        """The final MR job: map assigns new partition ids to *both*
        datasets, reducers perform the local join per partition.

        Pipe-capacity checks happen inside the tasks, which know which
        dataset each record belongs to and convert volumes to paper scale
        per side (*policy* carries byte_scale=1).
        """
        counters, hdfs = env.counters, env.hdfs
        decode = env.decode_line
        results: set[tuple[int, int]] = set()

        scale_of = {"A": env.scale_a[1], "B": env.scale_b[1]}

        def join_map(data):
            part_lines = hdfs.read_all("/hgis/join/partitions")
            tree = RTree(counters=counters)
            for pid, line in enumerate(part_lines):
                vals = [float(v) for v in line.split(",")]
                tree.insert(MBR(*vals), pid)
            path = data.split.parts[0][0]
            side = "A" if path == "/hgis/a/tsv" else "B"
            logical_volume = 0.0
            for line in data.records:
                parse_charge(counters, 1, len(line))
                logical_volume += (len(line) + 1) * scale_of[side]
                rec = decode(line)
                if keep_masks is not None and not keep_masks[side][rec.rid]:
                    # sFilter prune: never serialized, never shuffled —
                    # the record's would-be shuffle bytes are credited to
                    # shuffle.bytes_pruned instead of shuffle.bytes_disk.
                    counters.add("shuffle.records_pruned", 1)
                    counters.add(
                        "shuffle.bytes_pruned",
                        (len(line) + 1) * scale_of[side],
                    )
                    continue
                probe = (
                    predicate.expand(rec.geometry.mbr) if side == "A" else rec.geometry.mbr
                )
                hits = tree.query(probe)
                if hits.size == 0:
                    hits = [0]
                for pid in hits:
                    out = f"{int(pid)}\t{side}\t{line}"
                    serialize_charge(counters, 1, len(out))
                    logical_volume += (len(out) + 1) * scale_of[side]
                    yield (int(pid), f"{side}\t{line}")
            policy.check("hgis.join", "map", logical_volume)

        def join_reduce(_pid, values):
            a_recs, b_recs = [], []
            logical_volume = 0.0
            for value in values:
                side, _, line = value.partition("\t")
                parse_charge(counters, 1, len(value))
                logical_volume += (len(value) + 1) * scale_of[side]
                rec = decode(line)
                (a_recs if side == "A" else b_recs).append(rec)
            policy.check("hgis.join", "reduce", logical_volume)
            if not a_recs or not b_recs:
                return
            if self.local_algorithm == "indexed_nested_loop":
                # Local join: dynamic R-tree over the B side, probe with A
                # — HadoopGIS's historical in-reducer join, charge-exact.
                tree = RTree(counters=counters)
                for j, rec in enumerate(b_recs):
                    tree.insert(rec.geometry.mbr, j)
                candidates = []
                for i, rec in enumerate(a_recs):
                    for j in tree.query(predicate.expand(rec.geometry.mbr)):
                        candidates.append((i, int(j)))
                counters.add("join.candidates", len(candidates))
                n_candidates = len(candidates)
                # Each candidate refinement is a separate call from the
                # Python streaming layer into the C++ GEOS library — the
                # per-call overhead, not the geometry math, dominates
                # HadoopGIS's DJ.
                counters.add("streaming.refine_calls", n_candidates)
                refined = refine_candidates(
                    [r.geometry for r in a_recs],
                    [r.geometry for r in b_recs],
                    candidates,
                    engine,
                    predicate,
                )
            else:
                # Plan-selected alternative: same refined pairs, different
                # filter cost; the per-candidate streaming-call tax stays
                # (refinement still crosses the pipe either way).
                info: dict = {}
                refined = local_join(
                    self.local_algorithm,
                    [r.geometry for r in a_recs],
                    [r.geometry for r in b_recs],
                    engine,
                    counters=counters,
                    predicate=predicate,
                    info=info,
                )
                n_candidates = info.get("candidates", 0)
                counters.add("streaming.refine_calls", n_candidates)
            # Lands on the enclosing partition span (from MapReduceJob).
            annotate(
                a_records=len(a_recs), b_records=len(b_recs),
                candidates=n_candidates, refined=len(refined),
            )
            for i, j in refined:
                yield (a_recs[i].rid, b_recs[j].rid)

        job = MapReduceJob(
            "hgis.join",
            hdfs=hdfs, counters=counters, clock=env.clock,
            inputs=["/hgis/a/tsv", "/hgis/b/tsv"],
            map_task=join_map, reduce_task=join_reduce,
            output_path="/hgis/join/results",
            num_reducers=max(len(partitioning), 1),
            group="join", executor=env.executor,
            # Accounting-only hook: failure checks run inside the tasks
            # with per-side logical volumes.
            streaming_hook=make_streaming_hook(counters, PipePolicy(), "hgis.join"),
        )
        job.run()
        # Multi-assignment can emit the same result pair from two partitions;
        # a final dedup pass (sort-unique again) removes them.
        with trace_span(
            "hgis.join.dedup_results", kind="phase", counters=counters,
            group="join",
        ):
            before = counters.snapshot()
            out_pairs = hdfs.read_all("/hgis/join/results")
            counters.add(
                "sort.ops", len(out_pairs) * max(np.log2(max(len(out_pairs), 2)), 1.0)
            )
            results = set(out_pairs)
            annotate(pairs_in=len(out_pairs), pairs_out=len(results))
            env.clock.record(
                PhaseRecord(
                    name="hgis.join.dedup_results",
                    counters=counters.diff(before),
                    tasks=1,
                    group="join",
                )
            )
        return results

    # ------------------------------------------------------------ stage map
    def stage_trace(self) -> StageTrace:
        """HadoopGIS's pipeline in Fig.-1 framework terms."""
        P, G, L = Stage.PREPROCESSING, Stage.GLOBAL_JOIN, Stage.LOCAL_JOIN
        return StageTrace(
            system=self.name,
            access_model=DataAccessModel.STREAMING,
            geometry_library="geos",
            platform="hadoop",
            steps=[
                StageStep("convert to TSV (map-only MR ×2 datasets)", P, RunsOn.MAPPER, True, True),
                StageStep("sample MBRs (map-only MR)", P, RunsOn.MAPPER, True, True),
                StageStep("compute extent (MR, single reducer)", P, RunsOn.REDUCER, True, True),
                StageStep("normalize samples (map-only MR)", P, RunsOn.MAPPER, True, True),
                StageStep("generate partitions (serial, HDFS↔local copies)", P, RunsOn.LOCAL_PROGRAM, True, True),
                StageStep("assign partition ids (MR)", P, RunsOn.MAPPER, True, True),
                StageStep("dedup partitioned data (cat|sort|uniq)", P, RunsOn.LOCAL_PROGRAM, True, True),
                StageStep("combine samples, new partitions (serial)", G, RunsOn.LOCAL_PROGRAM, True, True),
                StageStep("rebuild R-tree per map task; re-assign both datasets", G, RunsOn.MAPPER, True, False,
                          "partition ids from preprocessing cannot be reused"),
                StageStep("shuffle (partition id as key)", G, RunsOn.REDUCER, False, False),
                StageStep("indexed nested loop + GEOS refinement", L, RunsOn.REDUCER, False, True),
            ],
        )


def _default_partitions(n_records: int) -> int:
    return int(np.clip(n_records // 400, 4, 256))


def _parse_mbr_lines(lines: Sequence[str]) -> MBRArray:
    if not lines:
        return MBRArray.empty()
    rows = np.array([[float(v) for v in line.split(",")] for line in lines])
    return MBRArray(rows)


def _extent_mbr(ex: Sequence[float]) -> MBR:
    return MBR(ex[0], ex[1], ex[2], ex[3])
