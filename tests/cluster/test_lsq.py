"""The one bounded least-squares fitter behind both calibration paths.

:func:`bounded_lstsq` must return the optimum of
``min ||a x - b||, 0 <= x <= upper``.  Without SciPy that is checked
through the optimality (KKT) conditions; where SciPy is installed it is
also checked against ``scipy.optimize.lsq_linear`` on the systems the
two calibrations really build, plus rank-deficient and active-bound
cases.
"""

import numpy as np
import pytest

from repro import spatial_join
from repro.cluster.lsq import bounded_lstsq
from repro.data import census_blocks, taxi_points
from repro.experiments import calibration
from repro.experiments.calibration import (
    CPU_FIT_KEYS,
    FIT_OUTLIERS,
    OVERHEAD_FIT_KEYS,
    Observation,
    fit_cost_constants,
)
from repro.plan import Calibrator
from repro.plan import calibrate as plan_calibrate

RTOL = 1e-6


def rank_deficient():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(8, 4))
    a[:, 3] = 2.0 * a[:, 0] - a[:, 1]
    return a, rng.normal(size=8) * 3.0, None


def duplicate_columns_bounded():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(6, 3))
    a[:, 2] = a[:, 1]
    return a, a @ np.array([1.0, 4.0, 4.0]), np.array([np.inf, 1.5, 2.0])


def active_upper_bound():
    # Columns of very different scale; the optimum has one variable at
    # its upper bound, one inside and one at zero.
    rng = np.random.default_rng(8)
    a = rng.normal(size=(7, 3)) * np.array([1.0, 1e3, 1e-2])
    b = a @ np.array([5.0, 0.5e-3, -400.0])
    return a, b, np.array([1.0, np.inf, 2.0])


SYNTHETIC = [rank_deficient, duplicate_columns_bounded, active_upper_bound]


def assert_kkt(a, b, upper, x):
    """First-order optimality of *x* for the box-constrained problem."""
    upper = np.full(a.shape[1], np.inf) if upper is None else upper
    assert np.all(x >= 0.0) and np.all(x <= upper)
    grad = a.T @ (a @ x - b)  # gradient of 0.5 * ||a x - b||^2
    tol = 1e-9 * max(1.0, np.abs(a).max() * np.abs(b).max())
    at_lo = x <= 0.0
    at_hi = x >= upper
    inside = ~(at_lo | at_hi)
    assert np.all(np.abs(grad[inside]) <= tol)
    assert np.all(grad[at_lo & ~at_hi] >= -tol)
    assert np.all(grad[at_hi & ~at_lo] <= tol)


def assert_matches_lsq_linear(a, b, upper):
    optimize = pytest.importorskip("scipy.optimize")
    ours = bounded_lstsq(a, b, upper)
    bounds = (0.0, np.inf if upper is None else upper)
    ref = optimize.lsq_linear(a, b, bounds=bounds, method="bvls", tol=1e-14).x
    cost, ref_cost = np.linalg.norm(a @ ours - b), np.linalg.norm(a @ ref - b)
    assert cost <= ref_cost * (1.0 + RTOL) + 1e-12 * np.linalg.norm(b)
    # Where the optimum is unique the solutions themselves must agree.
    # Columns that are zero everywhere carry no signal; ours holds them
    # at zero and they are left out of the comparison.
    signal = np.any(a != 0.0, axis=0)
    if np.linalg.matrix_rank(a[:, signal]) == signal.sum():
        np.testing.assert_allclose(
            ours[signal], ref[signal], rtol=RTOL,
            atol=1e-12 * max(1.0, np.abs(ref).max()),
        )


@pytest.fixture()
def captured(monkeypatch):
    """Every ``(a, b, upper)`` system the calibration call sites solve."""
    calls = []

    def spy(a, b, upper=None):
        calls.append((np.array(a), np.array(b), upper))
        return bounded_lstsq(a, b, upper)

    monkeypatch.setattr(calibration, "bounded_lstsq", spy)
    monkeypatch.setattr(plan_calibrate, "bounded_lstsq", spy)
    return calls


def make_obs(key, target, features):
    names = CPU_FIT_KEYS + OVERHEAD_FIT_KEYS
    vec = np.zeros(len(names))
    for name, value in features.items():
        vec[names.index(name)] = value
    return Observation(key=key, target=target, offset=0.0, features=vec)


def fit_fixture_systems(captured):
    outlier = next(iter(FIT_OUTLIERS))
    for obs, exclude in (
        ([make_obs(("e", "s", "WS", "TOT"), 100.0, {"parse.records": 10.0}),
          make_obs(("e", "s", "EC2-10", "TOT"), 50.0, {"parse.records": 5.0})],
         False),
        ([make_obs(("e", "s", "WS", "TOT"), 1e9, {"parse.records": 1.0})], False),
        ([make_obs(("e", "s", "WS", "TOT"), 100.0, {"parse.records": 10.0}),
          make_obs(outlier, 1e6, {"parse.records": 10.0})], True),
        ([make_obs(("e", "s", "WS", "TOT"), 300.0,
                   {"parse.records": 10.0, "mr.jobs": 2.0}),
          make_obs(("e", "s", "EC2-10", "DJ"), 120.0,
                   {"parse.records": 4.0, "spark.stages": 3.0}),
          make_obs(("e", "t", "WS", "TOT"), 90.0,
                   {"mr.jobs": 1.0, "spark.stages": 5.0})], False),
    ):
        fit_cost_constants(obs, exclude_outliers=exclude)
    return list(captured)


def calibrator_systems(captured):
    cal = Calibrator()
    for i, system in enumerate(("SpatialSpark", "SpatialHadoop", "HadoopGIS")):
        cal.observe_report(spatial_join(
            taxi_points(300, seed=3 + i), census_blocks(60, seed=4 + i),
            system=system, cluster="WS", seed=7, trace=True,
        ))
    cal.fit()
    return list(captured)


class TestOptimality:
    @pytest.mark.parametrize("case", SYNTHETIC, ids=lambda f: f.__name__)
    def test_kkt_on_synthetic_cases(self, case):
        a, b, upper = case()
        assert_kkt(a, b, upper, bounded_lstsq(a, b, upper))

    def test_kkt_on_fit_fixtures(self, captured):
        systems = fit_fixture_systems(captured)
        assert systems
        for a, b, upper in systems:
            assert_kkt(a, b, upper, bounded_lstsq(a, b, upper))

    def test_exact_interior_solution(self):
        a = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        x = np.array([3.0, 0.25])
        np.testing.assert_allclose(bounded_lstsq(a, a @ x), x, rtol=1e-12)

    def test_zero_column_stays_at_zero(self):
        a = np.array([[1.0, 0.0], [2.0, 0.0]])
        assert bounded_lstsq(a, np.array([1.0, 2.0]))[1] == 0.0

    def test_active_bounds_are_exact(self):
        a, b, upper = active_upper_bound()
        x = bounded_lstsq(a, b, upper)
        assert x[0] == upper[0]
        assert 0.0 < x[1] < upper[1]
        assert x[2] == 0.0


class TestAgreesWithScipy:
    @pytest.mark.parametrize("case", SYNTHETIC, ids=lambda f: f.__name__)
    def test_synthetic_cases(self, case):
        assert_matches_lsq_linear(*case())

    def test_fit_cost_constants_fixtures(self, captured):
        for a, b, upper in fit_fixture_systems(captured):
            assert_matches_lsq_linear(a, b, upper)

    def test_calibrator_fixtures(self, captured):
        systems = calibrator_systems(captured)
        assert systems
        for a, b, upper in systems:
            assert_matches_lsq_linear(a, b, upper)
