"""Cost-model calibration against the paper's reported runtimes.

The per-operation CPU costs and framework overheads in
:mod:`repro.cluster.costmodel` were *fitted*, not guessed: this module
re-runs every successful (experiment × system × configuration) cell,
extracts per-constant "seconds per unit cost" features from the
extrapolated paper-scale counters, and solves a non-negative least
squares problem against the paper's Table 2 / Table 3 numbers (totals,
per-stage breakdowns, and the DJ figures quoted in the running text).

Run ``python -m repro.experiments.calibration`` to reproduce the fit.
The resulting constants are baked into ``DEFAULT_CPU_COSTS`` /
``CostParams`` as defaults; this module is the audit trail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from ..cluster.costmodel import CostModel, CostParams
from ..cluster.lsq import bounded_lstsq
from ..cluster.simclock import SimClock
from ..cluster.specs import PAPER_CONFIGS, ClusterConfig
from .runner import DEFAULT_SEED, run_experiment

__all__ = [
    "PAPER_TIMINGS",
    "Observation",
    "collect_observations",
    "fit_cost_constants",
    "evaluate_fit",
]

#: Every timing the paper reports for a *successful* run, in seconds.
#: Keys: (experiment, system, config, metric) where metric is one of
#: "TOT", "IA", "IB", "DJ".  Sources: Table 2, Table 3 and Section III
#: running text (the DJ figures for the full datasets).
PAPER_TIMINGS: dict[tuple[str, str, str, str], float] = {
    # ---- Table 2: full datasets, end-to-end.
    ("taxi-nycb", "SpatialHadoop", "WS", "TOT"): 3327,
    ("taxi-nycb", "SpatialHadoop", "EC2-10", "TOT"): 2361,
    ("taxi-nycb", "SpatialHadoop", "EC2-8", "TOT"): 2472,
    ("taxi-nycb", "SpatialHadoop", "EC2-6", "TOT"): 3349,
    ("taxi-nycb", "SpatialSpark", "WS", "TOT"): 3098,
    ("taxi-nycb", "SpatialSpark", "EC2-10", "TOT"): 813,
    ("edges-linearwater", "SpatialHadoop", "WS", "TOT"): 14135,
    ("edges-linearwater", "SpatialHadoop", "EC2-10", "TOT"): 5695,
    ("edges-linearwater", "SpatialHadoop", "EC2-8", "TOT"): 8043,
    ("edges-linearwater", "SpatialHadoop", "EC2-6", "TOT"): 9678,
    ("edges-linearwater", "SpatialSpark", "WS", "TOT"): 4481,
    ("edges-linearwater", "SpatialSpark", "EC2-10", "TOT"): 1119,
    # ---- Section III.C text: DJ components of the full-dataset runs.
    ("taxi-nycb", "SpatialHadoop", "WS", "DJ"): 1950,
    ("taxi-nycb", "SpatialHadoop", "EC2-10", "DJ"): 1282,
    ("edges-linearwater", "SpatialHadoop", "WS", "DJ"): 9887,
    ("edges-linearwater", "SpatialHadoop", "EC2-10", "DJ"): 3886,
    ("taxi-nycb", "SpatialSpark", "EC2-10", "DJ"): 712,
    # ---- Table 3: sample datasets, breakdowns.
    ("taxi1m-nycb", "HadoopGIS", "WS", "IA"): 206,
    ("taxi1m-nycb", "HadoopGIS", "WS", "IB"): 54,
    ("taxi1m-nycb", "HadoopGIS", "WS", "DJ"): 3273,
    ("taxi1m-nycb", "SpatialHadoop", "WS", "IA"): 227,
    ("taxi1m-nycb", "SpatialHadoop", "WS", "IB"): 52,
    ("taxi1m-nycb", "SpatialHadoop", "WS", "DJ"): 230,
    ("taxi1m-nycb", "SpatialHadoop", "EC2-10", "IA"): 647,
    ("taxi1m-nycb", "SpatialHadoop", "EC2-10", "IB"): 187,
    ("taxi1m-nycb", "SpatialHadoop", "EC2-10", "DJ"): 183,
    ("taxi1m-nycb", "SpatialSpark", "WS", "TOT"): 216,
    ("taxi1m-nycb", "SpatialSpark", "EC2-10", "TOT"): 67,
    ("edges0.1-linearwater0.1", "HadoopGIS", "WS", "IA"): 1550,
    ("edges0.1-linearwater0.1", "HadoopGIS", "WS", "IB"): 488,
    ("edges0.1-linearwater0.1", "HadoopGIS", "WS", "DJ"): 1249,
    ("edges0.1-linearwater0.1", "SpatialHadoop", "WS", "IA"): 1013,
    ("edges0.1-linearwater0.1", "SpatialHadoop", "WS", "IB"): 307,
    ("edges0.1-linearwater0.1", "SpatialHadoop", "WS", "DJ"): 220,
    ("edges0.1-linearwater0.1", "SpatialHadoop", "EC2-10", "IA"): 756,
    ("edges0.1-linearwater0.1", "SpatialHadoop", "EC2-10", "IB"): 596,
    ("edges0.1-linearwater0.1", "SpatialHadoop", "EC2-10", "DJ"): 106,
    ("edges0.1-linearwater0.1", "SpatialSpark", "WS", "TOT"): 765,
    ("edges0.1-linearwater0.1", "SpatialSpark", "EC2-10", "TOT"): 48,
}

#: CPU per-op constants being fitted (µs/op, JTS basis; the GEOS engine
#: pays a fixed 4× on the geom.* entries, per the paper's observation).
CPU_FIT_KEYS = [
    "parse.records",
    "parse.bytes",
    "serialize.records",
    "serialize.bytes",
    "sort.ops",
    "cpu.ops",
    "deser.records",
    "join.sweep_ops",
    "pipe.records",
    "spark.shuffle_records",
    "streaming.refine_calls",
    "geom.pip_tests",
    "geom.seg_pair_tests",
    "geom.vertex_ops",
]

#: Fixed-overhead constants being fitted (seconds per job / task wave).
OVERHEAD_FIT_KEYS = [
    "mr.jobs",
    "mr.job_node",
    "mr.task_waves",
    "spark.stages",
    "spark.task_waves",
    "streaming.process_waves",
]

#: Physically-plausible upper bounds (same units as the constants): the
#: fit is a bounded least squares, so no constant can absorb another's
#: role by drifting to an implausible magnitude.
FIT_UPPER_BOUNDS = {
    "parse.records": 60.0,
    "parse.bytes": 3.0,
    "serialize.records": 30.0,
    "serialize.bytes": 3.0,
    "sort.ops": 5.0,
    "cpu.ops": 2.0,
    "deser.records": 60.0,
    "join.sweep_ops": 2.0,
    "pipe.records": 1200.0,
    "spark.shuffle_records": 250.0,
    "streaming.refine_calls": 4000.0,
    "geom.pip_tests": 25.0,
    "geom.seg_pair_tests": 2.0,
    "geom.vertex_ops": 1.0,
    "mr.jobs": 60.0,
    "mr.job_node": 30.0,
    "mr.task_waves": 15.0,
    "spark.stages": 5.0,
    "spark.task_waves": 2.0,
    "streaming.process_waves": 5.0,
}

GEOS_FACTOR = 4.0

#: Cells excluded from the fit (kept in PAPER_TIMINGS for reporting).
#: The edges0.1 SpatialSpark workstation run is ~6x off any per-record /
#: per-byte model consistent with the other eleven SpatialSpark cells;
#: the paper itself remarks on it without an explanation.
FIT_OUTLIERS = {
    ("edges0.1-linearwater0.1", "SpatialSpark", "WS", "TOT"),
}

#: Per-experiment execution scale: the polyline joins need more records
#: for a statistically stable candidate count.
EXEC_RECORDS = {
    "taxi-nycb": 3000,
    "taxi1m-nycb": 3000,
    "edges-linearwater": 9000,
    "edges0.1-linearwater0.1": 9000,
}


@dataclass
class Observation:
    """One paper timing with its feature decomposition.

    ``seconds ≈ offset + features · x`` where x is the vector of fitted
    constants and *offset* is the bandwidth-based (I/O + shuffle) time.
    """

    key: tuple[str, str, str, str]
    target: float
    offset: float
    features: np.ndarray


def _phase_groups(metric: str) -> Optional[set[str]]:
    if metric == "TOT":
        return None
    return {"IA": {"index_a"}, "IB": {"index_b"}, "DJ": {"join"}}[metric]


def _waves(tasks: float, cluster: ClusterConfig) -> float:
    return math.ceil(tasks / cluster.total_cores) if tasks else 0.0


def observation_features(
    clock: SimClock,
    cluster: ClusterConfig,
    metric: str,
    *,
    geos: bool,
    memory_pressure: float = 0.0,
) -> tuple[float, np.ndarray]:
    """(offset_seconds, feature_vector) for one cell/metric."""
    groups = _phase_groups(metric)
    zero_model = CostModel(cluster, memory_pressure=memory_pressure)
    gc = zero_model.gc_penalty()
    offset = 0.0
    features = np.zeros(len(CPU_FIT_KEYS) + len(OVERHEAD_FIT_KEYS))
    for phase in clock.phases:
        if groups is not None and phase.group not in groups:
            continue
        offset += zero_model._io_seconds(phase.counters)
        offset += zero_model._shuffle_seconds(phase.counters)
        parallel = cluster.effective_parallelism(phase.tasks)
        cpu_div = 1e6 * cluster.machine.cpu_speed * parallel / gc
        for i, key in enumerate(CPU_FIT_KEYS):
            count = phase.counters.get(key, 0.0)
            if not count:
                continue
            factor = GEOS_FACTOR if (geos and key.startswith("geom.")) else 1.0
            features[i] += count * factor / cpu_div
        base = len(CPU_FIT_KEYS)
        features[base + 0] += phase.counters.get("mr.jobs", 0.0)
        features[base + 1] += phase.counters.get("mr.jobs", 0.0) * cluster.num_nodes
        features[base + 2] += _waves(phase.counters.get("mr.tasks", 0.0), cluster)
        features[base + 3] += phase.counters.get("spark.stages", 0.0)
        features[base + 4] += _waves(phase.counters.get("spark.tasks", 0.0), cluster)
        features[base + 5] += _waves(
            phase.counters.get("streaming.processes", 0.0), cluster
        )
    return offset, features


def collect_observations(seed: int = DEFAULT_SEED) -> list[Observation]:
    """Execute each successful (experiment, system, config) cell once and
    decompose its paper timing(s) into cost features."""
    configs = PAPER_CONFIGS()
    cells = sorted({(k[0], k[1], k[2]) for k in PAPER_TIMINGS})
    reports: dict[tuple[str, str, str], object] = {}
    for exp, system, config in cells:
        report = run_experiment(
            exp, system, config, exec_records=EXEC_RECORDS[exp], seed=seed
        )
        if not report.ok:
            raise RuntimeError(
                f"calibration run unexpectedly failed: {exp} × {system} × "
                f"{config}: {report.failure}"
            )
        reports[(exp, system, config)] = report

    out = []
    for key, target in sorted(PAPER_TIMINGS.items()):
        exp, system, config, metric = key
        report = reports[(exp, system, config)]
        offset, features = observation_features(
            report.clock,
            configs[config],
            metric,
            geos=(system == "HadoopGIS"),
            memory_pressure=report.memory_pressure,
        )
        out.append(Observation(key=key, target=target, offset=offset, features=features))
    return out


def fit_cost_constants(
    observations: Iterable[Observation], *, exclude_outliers: bool = True
) -> dict[str, float]:
    """Bounded non-negative least squares over the cost constants.

    Observations are weighted by 1/target so the fit minimizes *relative*
    error — a 10% miss on a 100 s cell matters as much as on a 10,000 s
    cell.  Upper bounds keep every constant physically plausible.
    """
    obs = list(observations)
    if exclude_outliers:
        obs = [o for o in obs if o.key not in FIT_OUTLIERS]
    # End-to-end totals (the paper's headline numbers) weigh more than the
    # per-stage breakdowns derived from Table 3 / the running text.
    weights = np.array([1.5 if o.key[3] == "TOT" else 1.0 for o in obs])
    A = np.array([o.features / o.target for o in obs]) * weights[:, None]
    b = np.array([(o.target - o.offset) / o.target for o in obs]) * weights
    names = CPU_FIT_KEYS + OVERHEAD_FIT_KEYS
    upper = np.array([FIT_UPPER_BOUNDS[n] for n in names])
    return dict(zip(names, bounded_lstsq(A, b, upper)))


def constants_to_params(fit: dict[str, float]) -> tuple[dict[str, float], CostParams]:
    """Split a fit result into (cpu_costs, CostParams overheads)."""
    cpu = {k: v for k, v in fit.items() if k in CPU_FIT_KEYS}
    params = CostParams(
        cpu_costs=cpu,
        mr_job_overhead_s=fit["mr.jobs"],
        mr_job_pernode_s=fit["mr.job_node"],
        mr_task_overhead_s=fit["mr.task_waves"],
        spark_stage_overhead_s=fit["spark.stages"],
        spark_task_overhead_s=fit["spark.task_waves"],
        streaming_process_overhead_s=fit["streaming.process_waves"],
    )
    return cpu, params


def evaluate_fit(
    observations: Iterable[Observation], fit: dict[str, float]
) -> list[tuple[tuple, float, float, float]]:
    """(key, paper, model, ratio) per observation under fitted constants."""
    names = CPU_FIT_KEYS + OVERHEAD_FIT_KEYS
    x = np.array([fit[n] for n in names])
    rows = []
    for o in observations:
        model = o.offset + float(o.features @ x)
        rows.append((o.key, o.target, model, model / o.target))
    return rows


def main() -> None:  # pragma: no cover - audit entry point
    obs = collect_observations()
    fit = fit_cost_constants(obs)
    print("fitted constants:")
    for k, v in fit.items():
        print(f"  {k:28s} {v:12.5f}")
    rows = evaluate_fit(obs, fit)
    print("\nfit quality (paper vs model):")
    for key, target, model, ratio in rows:
        print(f"  {'/'.join(key):55s} paper={target:8.0f}  model={model:9.0f}  x{ratio:5.2f}")
    logratios = [abs(math.log(r)) for *_xs, r in rows]
    print(f"\ngeometric-mean |log ratio|: {math.exp(float(np.mean(logratios))):.3f}")


if __name__ == "__main__":  # pragma: no cover
    main()
