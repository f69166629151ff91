"""Rate fits and Richardson extrapolation for convergence studies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from .errors import FitDomainError


@dataclass
class FitResult:
    slope: float
    intercept: float
    stderr: float
    ci95: float
    npoints: int

    def __str__(self):
        return f"slope {self.slope:.3f} +/- {self.ci95:.3f} (95%, n={self.npoints})"


def fit_order(eps, values) -> FitResult:
    """Least-squares slope of log(value) vs log(eps) with a studentized 95%
    confidence half-width."""
    eps = np.asarray(eps, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(eps) < 3:
        raise FitDomainError("rate fit needs at least 3 points")
    if np.any(values <= 0.0) or np.any(eps <= 0.0):
        raise FitDomainError("rate fit needs positive eps and values")
    x = np.log(eps)
    y = np.log(values)
    n = len(x)
    A = np.column_stack([x, np.ones(n)])
    coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    slope, intercept = coef
    if n > 2:
        resid = y - A @ coef
        s2 = float(resid @ resid) / (n - 2)
        sxx = float(np.sum((x - x.mean()) ** 2))
        stderr = np.sqrt(s2 / sxx) if sxx > 0 else np.inf
        tq = stats.t.ppf(0.975, n - 2)
        ci95 = tq * stderr
    else:
        stderr = np.inf
        ci95 = np.inf
    return FitResult(float(slope), float(intercept), float(stderr),
                     float(ci95), n)


def richardson(value_h, value_h2, order: float = 2.0) -> float:
    """Eliminate the leading O(h^order) error from values at h and h/2."""
    fac = 2.0**order
    return (fac * value_h2 - value_h) / (fac - 1.0)

