"""SpatialSpark: lightweight spatial join on Spark (You et al., CloudDM 2015).

Reproduces the partition-based spatial join the paper evaluates
(Section II, Fig. 1c):

* **Functional data access** — both datasets are parsed once into RDDs;
  HDFS is touched only to read the inputs.  Everything else happens in
  executor memory.
* **In-memory preprocessing** — only *one* side (the right) is sampled,
  with Spark's built-in ``sample``; the partitioning is built from the
  sample without writing anything to HDFS.
* **Broadcast global join** — an STR tree over the partition MBRs is
  broadcast to all executors; both sides flatMap against it to obtain
  partition ids (multi-assignment over tiling partitions), are grouped
  with ``groupByKey``, and the per-partition item lists are matched with
  the RDD ``join`` on partition id (a hash join on integers; the grouped
  RDDs are co-partitioned so the join itself is narrow).
* **Local join** — indexed nested loop with JTS-like refinement inside a
  ``flatMap``; duplicate pairs from multi-assignment are removed at the
  end.
* **Failure mode** — every materialized RDD and shuffle charges the
  executor-memory ledger; exceeding the cluster's usable memory raises
  the out-of-memory error Table 2 reports for EC2-8/EC2-6.

The earlier *broadcast-based* join of [6] (broadcast the full index of
the right side, no partitioning) is also provided for the ablation the
paper defers to future work (``broadcast_join=True``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.framework import (
    DataAccessModel,
    RunsOn,
    Stage,
    StageStep,
    StageTrace,
)
from ..core.localjoin import LOCAL_JOIN_ALGORITHMS, local_join, refine_candidates
from ..core.partitioning import BSPPartitioner, make_partitioner
from ..core.predicate import INTERSECTS, JoinPredicate
from ..data.loaders import SpatialRecord, from_tsv_line
from ..geometry.batch import GeometryBatch
from ..geometry.engine import JTS_COST_PROFILE, make_engine
from ..geometry.mbr import MBRArray
from ..hdfs.sizeof import estimate_size
from ..index.strtree import STRtree
from ..mapreduce.streaming import parse_charge
from ..pairs import PairBlock, unique_pairs
from ..shuffle import SFilter, resolve_shuffle, split_hot_cells
from ..spark.context import SparkContext
from ..spark.memory import MemoryLedger, SparkOutOfMemoryError
from ..trace.core import annotate, span as trace_span
from .base import RunEnvironment, RunReport, SpatialJoinSystem

__all__ = ["SpatialSpark"]

#: Left records per broadcast-probe slice.  Each slice is one
#: ``query_many`` traversal and one grouped refine; the traversal's
#: working set grows with slice rows x expanded tree entries, so the
#: slice is bounded instead of spanning a whole RDD partition.
_PROBE_ROWS = 64


class SpatialSpark(SpatialJoinSystem):
    """The SpatialSpark pipeline on the simulated substrates."""

    name = "SpatialSpark"
    engine_name = "jts"

    def __init__(
        self,
        *,
        n_partitions: Optional[int] = None,
        sample_fraction: float = 0.05,
        partitioner=None,
        broadcast_join: Optional[bool] = None,
        local_algorithm: Optional[str] = None,
        plan=None,
        shuffle=None,
    ):
        # Resolution order: explicit kwargs > plan fields > legacy
        # defaults — so a caller can take a planner decision and still
        # override one knob of it.
        if plan is not None:
            if plan.system != self.name:
                raise ValueError(
                    f"plan targets {plan.system}, not {self.name}"
                )
            if n_partitions is None and plan.n_partitions:
                n_partitions = plan.n_partitions
            if broadcast_join is None:
                broadcast_join = plan.strategy == "broadcast"
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
        self.partitioner = partitioner or BSPPartitioner()
        if not self.partitioner.produces_tiles:
            raise ValueError(
                "SpatialSpark multi-assigns both sides, which requires a "
                "tiling partitioner (grid or bsp)"
            )
        self.broadcast_join = bool(broadcast_join)
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
        """Execute the full SpatialSpark pipeline (see the module docstring).

        Composed from the prepare and query halves.  SpatialSpark's
        prepare half is ingest only (parse once into a columnar batch,
        stage the text in HDFS): the system keeps no persistent
        partitioning or index — it samples, partitions and joins in
        executor memory per query, exactly the design the paper analyzes.
        """
        prep_a = self.prepare_dataset(env, "a", left)
        prep_b = self.prepare_dataset(env, "b", right)
        return self.join_prepared(env, prep_a, prep_b, predicate)

    # --------------------------------------------------------- query half
    def join_prepared(
        self,
        env: RunEnvironment,
        prep_a,
        prep_b,
        predicate: JoinPredicate = INTERSECTS,
    ) -> RunReport:
        """The query half: everything after ingest — SpatialSpark builds
        its partitions and indexes inside the join job, so broadcast /
        partitioned join selection, index build and refinement all run
        here; OOM comes back as a failed report."""
        left = prep_a.batch
        right = prep_b.batch
        engine = make_engine("jts", env.counters)
        ledger = MemoryLedger(budget_bytes=env.cluster.usable_memory_bytes)

        def scale_for(label: str) -> tuple[float, float]:
            # RDD labels compose, so a lineage keeps its source path; the
            # two sides never mix before the (narrow) final join.
            return env.scale_a if "/input/a" in label else env.scale_b

        sc = SparkContext(
            counters=env.counters,
            clock=env.clock,
            hdfs=env.hdfs,
            ledger=ledger,
            default_parallelism=env.cluster.total_cores,
            num_nodes=env.cluster.num_nodes,
            scale_resolver=scale_for,
            executor=env.executor,
        )
        # Both batches carry parse-time MBRs: the joint extent needs no
        # per-geometry rebuild.
        universe = MBRArray(
            np.vstack([left.mbrs.data, right.mbrs.data])
        ).extent()
        n_parts = self.n_partitions or max(
            4, env.hdfs.num_blocks("/input/a") + env.hdfs.num_blocks("/input/b")
        )
        try:
            if self.broadcast_join:
                pairs = self._run_broadcast(
                    sc, env, engine, predicate, right_records=right, left_records=left
                )
            else:
                pairs = self._run_partition_based(
                    sc, env, engine, left, right, universe, n_parts, predicate
                )
        except SparkOutOfMemoryError as err:
            return self._report(
                env, error=err, engine_profile=JTS_COST_PROFILE, memory_pressure=1.0
            )
        pressure = (
            ledger.peak_bytes / ledger.budget_bytes
            if ledger.budget_bytes not in (0, float("inf"))
            else 0.0
        )
        return self._report(
            env,
            pairs=pairs,
            engine_profile=JTS_COST_PROFILE,
            memory_pressure=pressure,
        )

    # ------------------------------------------------- partition-based join
    def _run_partition_based(
        self,
        sc: SparkContext,
        env: RunEnvironment,
        engine,
        left: GeometryBatch,
        right: GeometryBatch,
        universe,
        n_parts: int,
        predicate: JoinPredicate = INTERSECTS,
    ) -> set:
        counters = env.counters

        def parse(line: str) -> SpatialRecord:
            parse_charge(counters, 1, len(line))
            return from_tsv_line(line)

        # End-to-end: SpatialSpark reports a single runtime (Table 3 shows
        # only TOT), but we still group phases for inspection.
        with sc.record_phase(
            "sspark.load", group="join", tasks=sc.default_parallelism
        ):
            left_rdd = sc.from_hdfs("/input/a").map(parse)
            right_rdd = sc.from_hdfs("/input/b").map(parse)
            right_rdd._partitions()  # force the one-and-only HDFS read
            left_rdd._partitions()

        with sc.record_phase("sspark.partition", group="join", tasks=1):
            # Sample only the right side, in memory, and build partitions.
            sample = right_rdd.sample(self.sample_fraction, seed=env.seed).collect()
            # Parsed rids are positional: sampled MBRs come straight out of
            # the batch's cache (the WKT round trip is float-exact).
            sample_boxes = right.mbrs.take(
                np.fromiter((r.rid for r in sample), dtype=np.int64, count=len(sample))
            )
            counters.add("cpu.ops", max(len(sample), 1))
            partitioning = self.partitioner.partition(sample_boxes, n_parts, universe)
            keep_left = keep_right = None
            if self.shuffle is not None and self.shuffle.repartition:
                # SpatialSpark samples only the right side, but the hot
                # cells usually live on the *left* (probe) side — sample
                # it too (LocationSpark-style) so skew on either input
                # drives the hot-cell detection.
                left_sample = left_rdd.sample(
                    self.sample_fraction, seed=env.seed
                ).collect()
                left_boxes = left.mbrs.take(
                    np.fromiter(
                        (r.rid for r in left_sample),
                        dtype=np.int64,
                        count=len(left_sample),
                    )
                )
                combined = MBRArray(
                    np.vstack([sample_boxes.data, left_boxes.data])
                )
                partitioning, qstats, report = split_hot_cells(
                    partitioning,
                    combined,
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
            if self.shuffle is not None and self.shuffle.sfilter:
                # One sFilter per side; each side's records are kept only
                # if the *opposite* filter says their MBR may match.  The
                # bitmaps ride the same broadcast as the partition index.
                sf_a = SFilter(left.mbrs, resolution=self.shuffle.resolution)
                sf_b = SFilter(right.mbrs, resolution=self.shuffle.resolution)
                counters.add("shuffle.sfilter_builds", 2)
                sc.broadcast((sf_a, sf_b), nbytes=sf_a.nbytes + sf_b.nbytes)
                margin = predicate.filter_margin
                keep_left = sf_b.contains(left.mbrs, margin=margin)
                keep_right = sf_a.contains(right.mbrs, margin=margin)
                annotate(
                    sfilter_keep_left=int(keep_left.sum()),
                    sfilter_keep_right=int(keep_right.sum()),
                )
            tree = STRtree(partitioning.boxes, counters=counters)
            index_bytes = 40 * len(partitioning.boxes) + 64
            bcast = sc.broadcast(tree, nbytes=index_bytes)

        with sc.record_phase(
            "sspark.global_join", group="join", tasks=sc.default_parallelism
        ):
            def assign_left(rec: SpatialRecord):
                # sFilter prune: a record whose MBR provably matches
                # nothing on the other side never enters the exchange —
                # it is dropped *before* the groupByKey charges
                # shuffle.bytes_mem / spark.shuffle_records for it.
                if keep_left is not None and not keep_left[rec.rid]:
                    counters.add("shuffle.records_pruned", 1)
                    counters.add("shuffle.bytes_pruned", estimate_size(rec))
                    return
                # Distance joins expand the left probe boxes so pairs
                # within the margin are co-partitioned.
                for pid in bcast.value.query(predicate.expand(rec.geometry.mbr)):
                    yield (int(pid), rec)

            def assign_right(rec: SpatialRecord):
                if keep_right is not None and not keep_right[rec.rid]:
                    counters.add("shuffle.records_pruned", 1)
                    counters.add("shuffle.bytes_pruned", estimate_size(rec))
                    return
                for pid in bcast.value.query(rec.geometry.mbr):
                    yield (int(pid), rec)

            n_buckets = max(len(partitioning), 1)
            left_grouped = left_rdd.flatMap(assign_left).groupByKey(n_buckets)
            right_grouped = right_rdd.flatMap(assign_right).groupByKey(n_buckets)
            joined = left_grouped.join(right_grouped, n_buckets)

            def match(kv):
                _pid, (a_recs, b_recs) = kv
                if not a_recs or not b_recs:
                    return
                # One task body matches several partitions; each gets its
                # own partition span under the enclosing task span.
                partition_span = trace_span(
                    "partition", kind="partition", counters=counters,
                    partition=int(_pid),
                )
                partition_span.__enter__()
                # Columnar local join: slice both sides out of the input
                # batches by rid (positional), index and probe with the
                # cached MBRs, and refine on the packed buffers.
                a_rows = np.fromiter(
                    (r.rid for r in a_recs), dtype=np.int64, count=len(a_recs)
                )
                b_rows = np.fromiter(
                    (r.rid for r in b_recs), dtype=np.int64, count=len(b_recs)
                )
                a_batch, b_batch = left.take(a_rows), right.take(b_rows)
                # Plan-selected local algorithm: all three produce the
                # identical refined pair plane; they differ in filter
                # cost, which the counters capture.
                info: dict = {}
                refined = local_join(
                    self.local_algorithm, a_batch, b_batch, engine,
                    counters=counters, predicate=predicate, info=info,
                )
                annotate(
                    a_records=len(a_recs), b_records=len(b_recs),
                    candidates=info.get("candidates", 0),
                    refined=len(refined),
                )
                partition_span.__exit__(None, None, None)
                # Survivors stay columnar: one PairBlock per partition
                # pair, ids gathered in one vectorized step.
                if len(refined):
                    a_ids, b_ids = a_batch.ids, b_batch.ids
                    yield PairBlock(
                        np.stack(
                            [a_ids[refined[:, 0]], b_ids[refined[:, 1]]], axis=1
                        )
                    )

            result = joined.flatMap(match).collect()
            # Multi-assignment duplicates are removed in memory; the sort
            # is charged on the logical pair count, as before.
            n_result = sum(len(block) for block in result)
            counters.add(
                "sort.ops", n_result * max(np.log2(max(n_result, 2)), 1.0)
            )
            pairs = unique_pairs(result)
        return pairs

    # ------------------------------------------------- broadcast-based join
    def _run_broadcast(
        self,
        sc: SparkContext,
        env: RunEnvironment,
        engine,
        predicate: JoinPredicate = INTERSECTS,
        *,
        left_records,
        right_records,
    ) -> set:
        """The early SpatialSpark design of [6]: broadcast the full right
        side (data + index) and join the left items directly against it,
        a bounded slice of ``_PROBE_ROWS`` records at a time.

        Scales only while the right side fits in every executor — the
        trade-off the paper defers to future work and our ablation bench
        measures.
        """
        counters = env.counters

        def parse(line: str) -> SpatialRecord:
            parse_charge(counters, 1, len(line))
            return from_tsv_line(line)

        with sc.record_phase("sspark.bcast_join", group="join",
                             tasks=sc.default_parallelism):
            left_rdd = sc.from_hdfs("/input/a").map(parse)
            right = sc.from_hdfs("/input/b").map(parse).collect()
            right_bytes = sum(estimate_size(r) for r in right)
            # Collected parse order is file order, so the cached batch MBRs
            # line up row-for-row with the collected records.
            tree = STRtree(right_records.mbrs, counters=counters)
            # The broadcast payload is the whole right side; its *logical*
            # volume (paper scale) is what lands on every executor, which
            # is exactly this design's memory wall.
            rb, bb = env.scale_b
            logical_payload = int(right_bytes * bb + 40 * len(right) * rb)
            bcast = sc.broadcast((tree, right), nbytes=logical_payload)
            right_geoms = [r.geometry for r in right]
            left_boxes = left_records.mbrs.data
            margin = np.array([-1.0, -1.0, 1.0, 1.0]) * predicate.filter_margin

            def probe(part):
                # Slice by slice: one batched tree traversal and one grouped
                # refine per slice.  Parsed rids are positional, so the probe
                # boxes come straight out of the batch's cached MBRs.
                btree, brecs = bcast.value
                n_candidates = n_refined = 0
                for start in range(0, len(part), _PROBE_ROWS):
                    recs = part[start:start + _PROBE_ROWS]
                    rids = np.fromiter(
                        (r.rid for r in recs), dtype=np.int64, count=len(recs)
                    )
                    hits = btree.query_many(MBRArray(left_boxes[rids] + margin))
                    candidates = [
                        (i, j) for i, h in enumerate(hits) for j in h.tolist()
                    ]
                    refined = refine_candidates(
                        [r.geometry for r in recs], right_geoms, candidates,
                        engine, predicate,
                    )
                    n_candidates += len(candidates)
                    n_refined += len(refined)
                    for i, j in refined:
                        yield (recs[i].rid, brecs[j].rid)
                annotate(candidates=n_candidates, refined=n_refined)

            pairs = set(left_rdd.mapPartitions(probe).collect())
        return pairs

    # ------------------------------------------------------------ stage map
    def stage_trace(self) -> StageTrace:
        """SpatialSpark's pipeline in Fig.-1 framework terms."""
        P, G, L = Stage.PREPROCESSING, Stage.GLOBAL_JOIN, Stage.LOCAL_JOIN
        return StageTrace(
            system=self.name,
            access_model=DataAccessModel.FUNCTIONAL,
            geometry_library="jts",
            platform="spark",
            steps=[
                StageStep("load both datasets into RDDs (parse once)", P, RunsOn.EXECUTOR, True, False,
                          "the only HDFS interaction in the whole pipeline"),
                StageStep("sample right side in memory (built-in sample)", P, RunsOn.EXECUTOR, False, False),
                StageStep("build partitions + STR tree over partition MBRs", P, RunsOn.MASTER, False, False),
                StageStep("broadcast partition index (no HDFS)", G, RunsOn.MASTER, False, False),
                StageStep("flatMap both sides to partition ids", G, RunsOn.EXECUTOR, False, False),
                StageStep("groupByKey both sides + hash join on partition id", G, RunsOn.EXECUTOR, False, False,
                          "in-memory shuffle; grouped RDDs are co-partitioned"),
                StageStep("indexed nested loop + JTS refinement (flatMap)", L, RunsOn.EXECUTOR, False, False),
            ],
        )


def _default_partitions(n_records: int) -> int:
    return int(np.clip(n_records // 400, 4, 256))
