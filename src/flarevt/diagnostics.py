"""Threshold-selection and goodness-of-fit diagnostics.

The mean-residual-life curve supports threshold choice: above a valid
threshold the empirical mean excess is linear in the threshold, with
slope shape/(1-shape).  The probability plot compares the fitted
distribution function against empirical plotting positions i/(k+1);
points near the unit diagonal indicate a sound fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._table import TableRecord
from .errors import DomainError, InsufficientDataError
from .gpd import GpdFit, gpd_cdf
from .returns import normal_quantile

__all__ = [
    "MrlCurve",
    "ProbabilityPlot",
    "default_threshold_grid",
    "mean_excess_curve",
    "probability_plot",
]

@dataclass(frozen=True, eq=False)
class MrlCurve(TableRecord):
    """Mean excess over a threshold grid, with normal confidence halfwidths."""

    HEADER = "u0,mean_excess,ci_halfwidth,n_exceed"
    COLUMNS = dict(u0=np.float64, mean_excess=np.float64, ci_halfwidth=np.float64,
                   n_exceed=np.int64)

    u0: np.ndarray
    mean_excess: np.ndarray
    ci_halfwidth: np.ndarray
    n_exceed: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        if np.any(np.diff(self.u0) <= 0):
            raise DomainError("u0 grid must be strictly increasing")


@dataclass(frozen=True, eq=False)
class ProbabilityPlot(TableRecord):
    """Empirical plotting positions against fitted model probabilities."""

    HEADER = "empirical,model"
    COLUMNS = dict(empirical=np.float64, model=np.float64)

    empirical: np.ndarray
    model: np.ndarray
    max_abs_deviation_from_diagonal: float


def default_threshold_grid(lo: float, peaks, count: int = 200) -> np.ndarray:
    """Evenly spaced thresholds from ``lo`` up to the 3rd-largest peak.

    The top two peaks are excluded as grid endpoints because mean-excess
    estimates from one or two points are noise.
    """
    arr = np.sort(np.asarray(peaks, dtype=np.float64))
    if arr.size < 3:
        raise InsufficientDataError("need at least 3 peaks for a threshold grid")
    hi = arr[-3]
    if not hi > lo:
        raise InsufficientDataError(
            "3rd-largest peak does not exceed the grid start")
    return np.linspace(lo, hi, count)


def mean_excess_curve(peaks, u_grid=None, ci_level: float = 0.95) -> MrlCurve:
    """Empirical mean excess over each grid threshold.

    For each ``u0`` with at least two strict exceedances the curve
    records mean(x - u0 | x > u0), a normal-approximation confidence
    halfwidth z * s / sqrt(n), and the exceedance count; grid points
    with fewer exceedances are omitted.

    Parameters
    ----------
    peaks : array-like
        Event peak values.
    u_grid : array-like, optional
        Strictly increasing thresholds; defaults to
        :func:`default_threshold_grid` from min(peaks).
    ci_level : float
        Two-sided confidence level in (0, 1).
    """
    x = np.asarray(peaks, dtype=np.float64).ravel()
    if x.size == 0:
        raise InsufficientDataError("peaks are empty")
    z = normal_quantile(ci_level)
    if u_grid is None:
        u_grid = default_threshold_grid(float(x.min()), x)
    grid = np.asarray(u_grid, dtype=np.float64).ravel()
    if grid.size == 0 or (grid.size > 1 and np.any(np.diff(grid) <= 0)):
        raise DomainError("u_grid must be non-empty and strictly increasing")

    u0_out, mean_out, half_out, n_out = [], [], [], []
    x_sorted = np.sort(x)
    for u0 in grid:
        lo = int(np.searchsorted(x_sorted, u0, side="right"))
        n = x_sorted.size - lo
        if n < 2:
            continue
        exc = x_sorted[lo:] - u0
        u0_out.append(float(u0))
        mean_out.append(float(exc.mean()))
        half_out.append(z * float(exc.std(ddof=1)) / np.sqrt(n))
        n_out.append(n)
    return MrlCurve(u0_out, mean_out, half_out, n_out)


def probability_plot(fit: GpdFit, excesses) -> ProbabilityPlot:
    """Fitted-vs-empirical probabilities for the ordered excesses.

    Emits (i/(k+1), H(y_(i))) for the ascending excesses y_(1..k), where
    H is the fitted distribution function, and records the largest
    absolute deviation from the diagonal.
    """
    y = np.sort(np.asarray(excesses, dtype=np.float64).ravel(), kind="stable")
    if y.size == 0:
        raise InsufficientDataError("excesses are empty")
    k = y.size
    empirical = np.arange(1, k + 1, dtype=np.float64) / (k + 1)
    model = np.atleast_1d(gpd_cdf(y, fit.params))
    return ProbabilityPlot(empirical, model, float(np.max(np.abs(model - empirical))))
