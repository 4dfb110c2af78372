"""The program's layers as the benchmark sees them from outside.

``ENTRIES`` names the public entry points wrapped per layer; ``MUST_FIRE``
says on which workload each one has to be called, so a rename that
silently un-wraps a layer fails the traced run instead of reporting 0.
``per_layer_metrics`` turns one traced round into the named per-layer
metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

from harness import Entry
from stats import median

SYSTEMS = ("HadoopGIS", "SpatialHadoop", "SpatialSpark")

LAYERS = (
    "wkt", "hdfs", "mapreduce", "spark", "partitioning", "globaljoin",
    "localjoin", "kernels", "index", "exec", "plan", "service",
    "systems", "cluster",
)


_G = "repro.geometry"
_T, _E, _S = "taxi-nycb", "edges-water", "taxi-roads-served"
_ALL = (_T, _E, _S)

# (target, layer, workloads on which the traced run must see it fire).
_TABLE = [
    # wkt: geometry text codec and the TSV record codec built on it
    (f"{_G}.wkt:to_wkt", "wkt", (_T, _E)),
    (f"{_G}.wkt:from_wkt", "wkt", _ALL),
    (f"{_G}.wkt:wkt_of_parts", "wkt", _ALL),
    ("repro.data.loaders:to_tsv_line", "wkt", (_T, _E)),
    ("repro.data.loaders:from_tsv_line", "wkt", _ALL),
    ("repro.data.loaders:encode_batch", "wkt", _ALL),
    # hdfs: byte accounting and the simulated filesystem
    ("repro.hdfs.sizeof:estimate_size", "hdfs", _ALL),
    ("repro.hdfs.filesystem:SimulatedHDFS.write_file", "hdfs", _ALL),
    ("repro.hdfs.filesystem:SimulatedHDFS.write_blocks", "hdfs", _ALL),
    ("repro.hdfs.filesystem:SimulatedHDFS.read_file", "hdfs", _ALL),
    ("repro.hdfs.filesystem:SimulatedHDFS.read_all", "hdfs", _ALL),
    ("repro.hdfs.filesystem:SimulatedHDFS.read_block", "hdfs", _ALL),
    ("repro.hdfs.filesystem:SimulatedHDFS.install_files", "hdfs", (_S,)),
    # mapreduce: the Hadoop job runner (HadoopGIS, SpatialHadoop)
    ("repro.mapreduce.job:MapReduceJob.run", "mapreduce", _ALL),
    # spark: the RDD substrate (SpatialSpark)
    ("repro.spark.context:SparkContext.from_hdfs", "spark", _ALL),
    ("repro.spark.context:SparkContext.broadcast", "spark", _ALL),
    ("repro.spark.context:SparkContext.run_stage_tasks", "spark", _ALL),
    ("repro.spark.rdd:RDD.collect", "spark", _ALL),
    # partitioning
    ("repro.core.partitioning:SpatialPartitioning.assign_best", "partitioning", _ALL),
    ("repro.core.partitioning:GridPartitioner.partition", "partitioning", (_T, _E)),
    ("repro.core.partitioning:BSPPartitioner.partition", "partitioning", _ALL),
    ("repro.core.partitioning:STRPartitioner.partition", "partitioning", (_S,)),
    # globaljoin: partition pairing
    ("repro.core.globaljoin:pair_partitions_sweep", "globaljoin", _ALL),
    # localjoin: filter + refine inside one partition pair
    ("repro.core.localjoin:local_join", "localjoin", _ALL),
    ("repro.core.localjoin:refine_candidates", "localjoin", _ALL),
    # kernels: exact predicates (CSR kernels and the engines around them)
    (f"{_G}.kernels:points_in_polygons_csr", "kernels", (_T,)),
    (f"{_G}.kernels:points_within_polylines_csr", "kernels", (_S,)),
    (f"{_G}.engine:JtsLikeEngine.intersects", "kernels", (_E, _S)),
    (f"{_G}.engine:JtsLikeEngine.points_in_polygon", "kernels", (_T,)),
    (f"{_G}.engine:JtsLikeEngine.points_in_polygons", "kernels", (_T,)),
    (f"{_G}.engine:JtsLikeEngine.points_within_distances", "kernels", (_S,)),
    (f"{_G}.engine:GeometryEngine.points_within_distance", "kernels", (_S,)),
    (f"{_G}.engine:GeosLikeEngine.points_in_polygon", "kernels", (_T,)),
    (f"{_G}.engine:GeosLikeEngine.intersects", "kernels", (_E,)),
    (f"{_G}.vectorized:polylines_intersect", "kernels", (_E,)),
    # index
    ("repro.index.strtree:STRtree.__init__", "index", _ALL),
    ("repro.index.strtree:STRtree.query", "index", _ALL),
    ("repro.index.rtree:RTree.query", "index", _ALL),
    # exec: the driver blocked while task bodies run
    ("repro.exec.backend:ExecutorBackend.run_tasks", "exec", _ALL),
    # plan: statistics and cost-based plan ranking
    ("repro.data.stats:describe", "plan", _ALL),
    ("repro.plan.planner:rank_plans", "plan", _ALL),
    # service: registry, dispatch and result cache
    ("repro.service.core:SpatialQueryService.prepare", "service", (_S,)),
    ("repro.service.core:SpatialQueryService.execute", "service", (_S,)),
    ("repro.service.core:DatasetHandle.unload", "service", (_S,)),
    ("repro.service.cache:ResultCache.get_or_compute", "service", (_S,)),
    # systems: pipeline orchestration of the three systems
    ("repro.service.core:one_shot_join", "systems", (_T, _E)),
    ("repro.systems.base:SpatialJoinSystem.prepare_dataset", "systems", _ALL),
    ("repro.systems.hadoopgis:HadoopGIS.run", "systems", (_T, _E)),
    ("repro.systems.hadoopgis:HadoopGIS.join_prepared", "systems", _ALL),
    ("repro.systems.spatialhadoop:SpatialHadoop.run", "systems", (_T, _E)),
    ("repro.systems.spatialhadoop:SpatialHadoop.join_prepared", "systems", _ALL),
    ("repro.systems.spatialspark:SpatialSpark.run", "systems", (_T, _E)),
    ("repro.systems.spatialspark:SpatialSpark.join_prepared", "systems", _ALL),
    # cluster: costing the simulated clock
    ("repro.systems.base:RunReport.costed", "cluster", _ALL),
    ("repro.cluster.costmodel:CostModel.cost_clock", "cluster", _ALL),
]

_RUN_TASKS = "repro.exec.backend:ExecutorBackend.run_tasks"
#: quantities measured at an entry: (name, measure(args, result))
_MEASURES = {
    _RUN_TASKS: ("exec.tasks", lambda args, result: len(args[2])),
    "repro.plan.planner:rank_plans": ("plan.candidates", lambda args, result: len(result)),
}
ENTRIES = [Entry(t, layer, *_MEASURES.get(t, ())) for t, layer, _ in _TABLE]
#: Workloads on which each entry point must fire in the traced run.
MUST_FIRE = {t: on for t, _, on in _TABLE}

#: Entry points that count toward a layer's call metrics.
CALL_GROUPS = {
    "wkt.calls": [e.target for e in ENTRIES if e.layer == "wkt"],
    "hdfs.sizeof_calls": ["repro.hdfs.sizeof:estimate_size"],
    "partitioning.assign_calls": [
        "repro.core.partitioning:SpatialPartitioning.assign_best",
    ],
    "localjoin.refine_calls": ["repro.core.localjoin:refine_candidates"],
    "kernels.calls": [e.target for e in ENTRIES if e.layer == "kernels"],
    "index.query_calls": [
        "repro.index.strtree:STRtree.query",
        "repro.index.rtree:RTree.query",
    ],
    "plan.calls": ["repro.plan.planner:rank_plans"],
}


def _sys_metrics(system: str):
    """(quantity, unit) pairs that can occur on *system*."""
    out = [
        ("wkt.self_s", "s"), ("wkt.calls", "count"),
        ("hdfs.self_s", "s"), ("hdfs.sizeof_calls", "count"),
        ("hdfs.bytes_read", "bytes"), ("hdfs.bytes_written", "bytes"),
    ]
    if system in ("HadoopGIS", "SpatialHadoop"):
        out += [("mapreduce.self_s", "s"), ("mapreduce.tasks", "count")]
    if system == "HadoopGIS":
        out += [("mapreduce.pipe_bytes", "bytes")]
    if system == "SpatialSpark":
        out += [
            ("spark.self_s", "s"), ("spark.tasks", "count"),
            ("spark.shuffle_bytes", "bytes"), ("spark.broadcast_bytes", "bytes"),
        ]
    out += [
        ("partitioning.self_s", "s"), ("partitioning.assign_calls", "count"),
        ("globaljoin.self_s", "s"),
        ("localjoin.self_s", "s"), ("localjoin.refine_calls", "count"),
        ("localjoin.candidates", "count"), ("localjoin.precision", "ratio"),
        ("kernels.self_s", "s"), ("kernels.calls", "count"),
        ("kernels.tests", "count"),
        ("index.self_s", "s"), ("index.query_calls", "count"),
        ("index.node_visits", "count"),
        ("exec.self_s", "s"), ("exec.tasks", "count"),
        ("exec.driver_share", "ratio"),
        ("plan.self_s", "s"), ("plan.calls", "count"),
        ("plan.candidates", "count"),
        ("service.self_s", "s"), ("service.cache.hit_ratio", "ratio"),
        ("service.cache.hit_s", "s"),
        ("systems.self_s", "s"),
        ("cluster.self_s", "s"), ("cluster.sim_s", "s"),
    ]
    return out


#: Per-layer quantities for which a larger value is better.
HIGHER_IS_BETTER = ("localjoin.precision", "service.cache.hit_ratio")


def metric_names() -> list:
    """Every per-layer metric as ``(name, unit)``, in report order."""
    names = [
        (f"{q}.{system}", unit)
        for system in SYSTEMS
        for q, unit in _sys_metrics(system)
    ]
    names.append(("trace.overhead", "ratio"))
    return names


#: counter-ledger keys behind the counted metrics
_LEDGER = {
    "hdfs.bytes_read": ("hdfs.bytes_read",),
    "hdfs.bytes_written": ("hdfs.bytes_written",),
    "mapreduce.tasks": ("mr.tasks",),
    "mapreduce.pipe_bytes": ("pipe.bytes",),
    "spark.tasks": ("spark.tasks",),
    "spark.shuffle_bytes": ("shuffle.bytes_mem",),
    "spark.broadcast_bytes": ("net.bytes_broadcast",),
    "localjoin.candidates": ("join.candidates",),
    "kernels.tests": ("geom.pip_tests", "geom.seg_pair_tests", "geom.dist_tests"),
    "index.node_visits": ("index.node_visits",),
}


class RoundLedger:
    """What the benchmark saw of one traced round, per system.

    ``counters`` sums the counter ledgers of the executed (cache-miss)
    joins, ``pairs`` their result sizes, ``sim_s`` their simulated
    seconds; ``hits``/``lookups``/``hit_s`` describe cache use by the
    served client.
    """

    def __init__(self):
        self.counters = {s: {} for s in SYSTEMS}
        self.pairs = dict.fromkeys(SYSTEMS, 0)
        self.sim_s = dict.fromkeys(SYSTEMS, 0.0)
        self.hits = dict.fromkeys(SYSTEMS, 0)
        self.lookups = dict.fromkeys(SYSTEMS, 0)
        self.hit_s = {s: [] for s in SYSTEMS}

    def add_counters(self, system: str, counters) -> None:
        ledger = self.counters[system]
        for key, value in counters.items():
            ledger[key] = ledger.get(key, 0) + value

    def add_report(self, system: str, report) -> None:
        self.add_counters(system, report.counters)
        self.pairs[system] += len(report.pairs or ())
        self.sim_s[system] += report.clock.total_seconds

    def add_lookup(self, system: str, hit: bool, seconds: float) -> None:
        self.lookups[system] += 1
        if hit:
            self.hits[system] += 1
            self.hit_s[system].append(seconds)


def per_layer_metrics(first, ledger: RoundLedger, overhead: float, self_s: dict) -> dict:
    """Named per-layer metrics of a traced run.

    *self_s* maps ``(system, layer)`` to the median self time over traced
    rounds; every other figure comes from the first traced round, held by
    *first* and *ledger*, so counts repeat exactly between runs with the
    same seed.
    """
    values = {}
    for system in SYSTEMS:
        counters = ledger.counters[system]
        run_tasks = first.incl_s.get((system, _RUN_TASKS), 0.0)
        wall = first.op_wall.get(system, 0.0)
        for q, _unit in _sys_metrics(system):
            layer, _, quantity = q.partition(".")
            if quantity == "self_s":
                v = self_s.get((system, layer), 0.0)
            elif q in CALL_GROUPS:
                v = first.entry_calls(system, CALL_GROUPS[q])
            elif q in _LEDGER:
                v = sum(counters.get(k, 0) for k in _LEDGER[q])
            elif q in ("exec.tasks", "plan.candidates"):
                v = first.quantities.get((system, q), 0)
            elif q == "localjoin.precision":
                cand = counters.get("join.candidates", 0)
                v = ledger.pairs[system] / cand if cand else 0.0
            elif q == "exec.driver_share":
                v = 1.0 - run_tasks / wall if wall else 0.0
            elif q == "service.cache.hit_ratio":
                n = ledger.lookups[system]
                v = ledger.hits[system] / n if n else 0.0
            elif q == "service.cache.hit_s":
                v = median(ledger.hit_s[system]) if ledger.hit_s[system] else 0.0
            elif q == "cluster.sim_s":
                v = ledger.sim_s[system]
            else:  # pragma: no cover - table/metric mismatch
                raise KeyError(q)
            values[f"{q}.{system}"] = v
    values["trace.overhead"] = overhead
    return values
