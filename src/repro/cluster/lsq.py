"""Bounded least squares for fitting cost-model constants.

Both calibration paths — the paper-timing fit in
:mod:`repro.experiments.calibration` and the measured-span
:class:`~repro.plan.calibrate.Calibrator` — solve the same problem:
minimise ``||A x - b||`` subject to ``0 <= x <= upper``.
:func:`bounded_lstsq` is the one solver for it: a deterministic
active-set method (bounded-variable least squares, Stark & Parker 1995)
in plain NumPy.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["bounded_lstsq"]


def bounded_lstsq(
    a: np.ndarray, b: np.ndarray, upper: Optional[np.ndarray] = None
) -> np.ndarray:
    """Minimise ``||a @ x - b||`` over ``0 <= x <= upper``.

    *upper* may hold ``inf`` entries (or be None: no upper bound at
    all).  Every variable starts at zero; each outer step frees the bound
    variable whose gradient most wants to leave its bound, and the inner
    loop solves the free subproblem, stepping back to the nearest bound
    whenever that solution leaves the box.  Columns are scaled to unit
    norm first, so constants of very different magnitude are resolved
    alike.  A column that is zero in every row stays at zero.  Where the
    free subproblem is rank-deficient the minimum-norm solution is taken,
    so the result is a deterministic function of the inputs.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, n = a.shape
    upper = (
        np.full(n, np.inf) if upper is None
        else np.asarray(upper, dtype=np.float64)
    )
    norms = np.linalg.norm(a, axis=0)
    scale = np.where(norms > 0.0, norms, 1.0)
    a = a / scale
    bound = upper * scale

    x = np.zeros(n)
    free = np.zeros(n, dtype=bool)
    at_upper = np.zeros(n, dtype=bool)
    # A variable whose free solution would cross straight back over the
    # bound it left (rounding at a degenerate vertex) is skipped until
    # some other variable has moved; this keeps the method from cycling.
    blocked = np.zeros(n, dtype=bool)
    tol = 10.0 * max(m, n) * np.finfo(np.float64).eps * max(
        float(np.abs(b).max(initial=0.0)), 1.0
    )
    for _ in range(10 * n + 10):
        grad = a.T @ (b - a @ x)  # descent direction of 0.5 * ||r||^2
        wants = np.where(at_upper, -grad, grad)
        wants[free | blocked | (norms == 0.0)] = 0.0
        j = int(np.argmax(wants))
        if wants[j] <= tol:
            break
        free[j] = True
        z = _free_solve(a, b, x, free)
        zj = z[np.count_nonzero(free[:j])]
        if (zj >= bound[j]) if at_upper[j] else (zj <= 0.0):
            free[j] = False
            blocked[j] = True
            continue
        at_upper[j] = False
        blocked[:] = False
        while True:
            xf = x[free]
            ub = bound[free]
            lo_hit = z < 0.0
            hi_hit = z > ub
            if not (lo_hit.any() or hi_hit.any()):
                x[free] = z
                break
            # Largest step towards z that keeps every free variable in
            # the box; the variables that reach a bound leave the free set.
            step = np.ones_like(z)
            step[lo_hit] = xf[lo_hit] / (xf[lo_hit] - z[lo_hit])
            step[hi_hit] = (ub[hi_hit] - xf[hi_hit]) / (z[hi_hit] - xf[hi_hit])
            alpha = float(np.clip(step.min(), 0.0, 1.0))
            xf = xf + alpha * (z - xf)
            hit_lo = (lo_hit & (step <= alpha)) | (xf <= 0.0)
            hit_hi = (hi_hit & (step <= alpha)) | (xf >= ub)
            xf[hit_lo] = 0.0
            xf[hit_hi] = ub[hit_hi]
            idx = np.flatnonzero(free)
            x[idx] = xf
            free[idx[hit_lo | hit_hi]] = False
            at_upper[idx[hit_hi]] = True
            if not free.any():
                break
            z = _free_solve(a, b, x, free)
    # Unscaling must not round a variable off its bound.
    x = np.clip(x / scale, 0.0, upper)
    x[at_upper] = upper[at_upper]
    return x


def _free_solve(a, b, x, free) -> np.ndarray:
    """Minimum-norm least-squares values of the free variables, the
    bound ones held where they are."""
    rhs = b - a[:, ~free] @ x[~free]
    return np.linalg.lstsq(a[:, free], rhs, rcond=None)[0]
