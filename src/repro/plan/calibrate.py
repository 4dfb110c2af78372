"""The feedback layer: refit cost constants from measured phase spans.

``explain_report`` puts a *measured* wall-clock column next to the
modelled one; this module closes the loop.  A :class:`Calibrator`
ingests the phase spans recorded in ``RunReport.trace``, pairs each with
its :class:`~repro.cluster.simclock.PhaseRecord` counters (the same
pairing rule as :mod:`repro.experiments.explain`), and refits the three
constants that dominate the model — the global CPU scale and the two
per-task-wave overheads — by deterministic non-negative least squares
over the recorded observations.

No hidden global state: the result is an explicit
:class:`CalibrationProfile` (JSON round-trippable) that the caller
passes back in as :class:`~repro.cluster.costmodel.CostParams` wherever
costing happens.  Fitting is *keep-if-better*: ``fit(base=profile)``
returns the base profile unchanged whenever the fresh fit does not
strictly reduce the mean relative error on the recorded observations,
so calibration error is monotonically non-increasing — the property
the drift tests pin down.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from ..cluster.costmodel import DEFAULT_CPU_COSTS, CostModel, CostParams
from ..cluster.lsq import bounded_lstsq
from ..metrics import Counters

__all__ = ["CalibrationObservation", "CalibrationProfile", "Calibrator"]

#: Floor for relative-error denominators (seconds); phases faster than
#: this are effectively free and would otherwise dominate the metric.
_EPS_SECONDS = 1e-6


@dataclass(frozen=True)
class CalibrationObservation:
    """One measured phase, decomposed into the model's fit features.

    The features are computed once at ingestion under the calibrator's
    *base* params: ``cpu_seconds`` is the CPU component priced at scale
    1.0, the wave counts are the ceil-divided task waves the overhead
    term charges per constant, and ``fixed_seconds`` collects everything
    the fit does not touch (I/O, shuffle, per-job and per-process
    overheads), entering the regression as a constant offset.
    """

    name: str
    cluster: str
    measured_seconds: float
    cpu_seconds: float
    mr_waves: float
    spark_waves: float
    fixed_seconds: float


@dataclass(frozen=True)
class CalibrationProfile:
    """Fitted constants, explicit and serializable — no global state.

    ``cpu_scale`` multiplies every per-op CPU cost; the two overheads
    replace their :class:`CostParams` fields outright.  Defaults
    reproduce the uncalibrated model exactly.
    """

    cpu_scale: float = 1.0
    mr_task_overhead_s: float = CostParams().mr_task_overhead_s
    spark_task_overhead_s: float = CostParams().spark_task_overhead_s
    observations: int = 0
    training_error: Optional[float] = None

    # ----------------------------------------------------------- evaluation
    def predict(self, obs: CalibrationObservation) -> float:
        """Modelled seconds for one observation under this profile."""
        return (
            self.cpu_scale * obs.cpu_seconds
            + self.mr_task_overhead_s * obs.mr_waves
            + self.spark_task_overhead_s * obs.spark_waves
            + obs.fixed_seconds
        )

    # -------------------------------------------------------- serialization
    def to_json(self) -> str:
        """Serialize to a stable (sort_keys) JSON string."""
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CalibrationProfile":
        data = json.loads(text)
        return cls(**{k: data[k] for k in cls.__dataclass_fields__ if k in data})

    def cost_params(self, base: Optional[CostParams] = None) -> CostParams:
        """Materialize the profile as :class:`CostParams`.

        Every per-op CPU cost (defaults merged with *base* overrides) is
        scaled by ``cpu_scale`` and written as explicit overrides, so the
        returned params are self-contained.
        """
        base = base or CostParams()
        merged = dict(DEFAULT_CPU_COSTS)
        merged.update(base.cpu_costs)
        return replace(
            base,
            cpu_costs={k: v * self.cpu_scale for k, v in merged.items()},
            mr_task_overhead_s=self.mr_task_overhead_s,
            spark_task_overhead_s=self.spark_task_overhead_s,
        )


class Calibrator:
    """Accumulates measured phase observations and refits the constants.

    ``observe_report`` walks a traced report; ``fit`` solves a bounded
    (non-negative) least-squares problem over everything observed so far.
    The calibrator keeps its own :class:`~repro.metrics.Counters` ledger
    (``plan.observations``) — it never charges a run's ledger, so
    calibrating cannot perturb result determinism.
    """

    def __init__(self, *, params: Optional[CostParams] = None):
        self.base = params or CostParams()
        self.observations: list[CalibrationObservation] = []
        self.counters = Counters()

    # ------------------------------------------------------------ ingestion
    def observe_report(self, report) -> int:
        """Ingest every measured phase span of a traced report.

        Returns the number of observations added (0 for untraced
        reports).  Pairing follows :func:`repro.experiments.explain.
        explain_report`: phase spans match clock phases by name, in
        record order.
        """
        if report.trace is None:
            return 0
        from ..experiments.runner import resolve_cluster

        cluster = resolve_cluster(report.cluster)
        model = CostModel(
            cluster,
            params=self.base,
            engine_profile=report.engine_profile,
            memory_pressure=report.memory_pressure,
        )
        measured: dict[str, list] = {}
        for sp in report.trace.walk():
            if sp.kind == "phase":
                measured.setdefault(sp.name, []).append(sp.seconds)
        p = self.base
        added = 0
        for phase in report.clock.phases:
            spans = measured.get(phase.name)
            if not spans:
                continue
            seconds = spans.pop(0)
            comp = model.component_seconds(phase.counters, phase.tasks)
            c = Counters(phase.counters)

            def waves(n: float) -> float:
                return math.ceil(n / cluster.total_cores) if n else 0.0

            fixed = (
                comp["io"]
                + comp["shuffle"]
                + c["mr.jobs"]
                * (p.mr_job_overhead_s + p.mr_job_pernode_s * cluster.num_nodes)
                + c["spark.stages"] * p.spark_stage_overhead_s
                + waves(c["streaming.processes"]) * p.streaming_process_overhead_s
            )
            self.observations.append(
                CalibrationObservation(
                    name=phase.name,
                    cluster=report.cluster,
                    measured_seconds=float(seconds),
                    cpu_seconds=comp["cpu"],
                    mr_waves=waves(c["mr.tasks"]),
                    spark_waves=waves(c["spark.tasks"]),
                    fixed_seconds=fixed,
                )
            )
            self.counters.add("plan.observations", 1)
            added += 1
        return added

    # -------------------------------------------------------------- fitting
    def error(self, profile: CalibrationProfile) -> float:
        """Mean relative error of *profile* on the recorded observations."""
        if not self.observations:
            return 0.0
        total = 0.0
        for obs in self.observations:
            denom = max(abs(obs.measured_seconds), _EPS_SECONDS)
            total += abs(profile.predict(obs) - obs.measured_seconds) / denom
        return total / len(self.observations)

    def fit(
        self, base: Optional[CalibrationProfile] = None
    ) -> CalibrationProfile:
        """Refit the constants; keep *base* unless the fit improves it.

        Deterministic: non-negative least squares on a fixed design
        matrix (:func:`~repro.cluster.lsq.bounded_lstsq`), then
        keep-if-better against *base* on the mean relative error — so
        repeated calibration never regresses.
        """
        if base is None:
            base = CalibrationProfile(
                mr_task_overhead_s=self.base.mr_task_overhead_s,
                spark_task_overhead_s=self.base.spark_task_overhead_s,
            )
        if not self.observations:
            return replace(base, observations=0, training_error=None)

        features = np.array(
            [
                (o.cpu_seconds, o.mr_waves, o.spark_waves)
                for o in self.observations
            ],
            dtype=np.float64,
        )
        target = np.array(
            [o.measured_seconds - o.fixed_seconds for o in self.observations],
            dtype=np.float64,
        )
        # Weight rows by 1/measured so the solve optimizes relative error
        # (the metric keep-if-better judges on), not absolute seconds.
        weights = 1.0 / np.maximum(
            np.abs([o.measured_seconds for o in self.observations]),
            _EPS_SECONDS,
        )
        a_mat = features * weights[:, None]
        b_vec = target * weights
        # Columns with no signal are unidentifiable: keep base values.
        active = [i for i in range(3) if np.any(features[:, i] != 0.0)]
        fitted = [base.cpu_scale, base.mr_task_overhead_s,
                  base.spark_task_overhead_s]
        if active:
            solution = bounded_lstsq(a_mat[:, active], b_vec)
            for col, value in zip(active, solution):
                fitted[col] = float(value)
        candidate = CalibrationProfile(
            cpu_scale=fitted[0],
            mr_task_overhead_s=fitted[1],
            spark_task_overhead_s=fitted[2],
        )
        candidate_err = self.error(candidate)
        base_err = self.error(base)
        best, best_err = (
            (candidate, candidate_err)
            if candidate_err < base_err
            else (base, base_err)
        )
        return replace(
            best,
            observations=len(self.observations),
            training_error=best_err,
        )
