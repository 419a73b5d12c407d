"""Return levels and return periods from a fitted excess model.

The m-year return level is the flux exceeded on average once per m years:

    x_m = u + (scale / shape) * ((m * d * zeta) ** shape - 1),

with u the fit threshold, d the observations per year, zeta the
exceedance rate n_excesses/n_total, and the exponential limit
u + scale * log(m * d * zeta) as the shape vanishes.  Uncertainty comes
from the delta method over (zeta, scale, shape), where the rate variance
zeta * (1 - zeta) / n_total is binomial and independent of the fit
covariance (Coles, 2001, ch. 4).  Because the sampling distribution of a
far-extrapolated level is strongly right-skewed, the same delta interval
is also emitted on a log(x_m - u) scale; that asymmetric variant is the
better-calibrated of the two and is the one quoted by the pipeline.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.stats import norm

from .errors import CiUnavailableError, DomainError, InfiniteReturnError
from .gpd import SHAPE_SWITCH_TOL, GpdFit

__all__ = [
    "ObservationCalendar",
    "ReturnLevelInterval",
    "ReturnLevelCurve",
    "SubThresholdReturnWarning",
    "return_level",
    "return_period",
    "return_level_ci",
    "return_curve",
    "return_period_band",
    "default_m_grid",
]


class SubThresholdReturnWarning(UserWarning):
    """The requested period is shorter than the mean inter-exceedance time."""


@dataclass(frozen=True)
class ObservationCalendar:
    """Observation cadence: samples per (Julian) year."""

    obs_per_year: float = 525_600.0

    def __post_init__(self):
        if not self.obs_per_year > 0.0:
            raise DomainError("obs_per_year must be > 0")


_DEFAULT_CAL = ObservationCalendar()


def _rate_factor(fit: GpdFit, cal: ObservationCalendar) -> float:
    """Expected exceedances per year: d * zeta."""
    return cal.obs_per_year * fit.exceedance_rate


def return_level(fit: GpdFit, m: float,
                 cal: ObservationCalendar = _DEFAULT_CAL) -> float:
    """Level exceeded on average once per ``m`` years.

    For m below the mean time between exceedances the result falls below
    the fit threshold; it is still returned, with a
    :class:`SubThresholdReturnWarning`.
    """
    if not m > 0.0:
        raise DomainError("m must be > 0 years")
    r = m * _rate_factor(fit, cal)
    # tolerance keeps the exact-threshold period from warning on rounding
    if r < 1.0 - 1e-9:
        warnings.warn(
            f"return level for m={m} years lies below the fit threshold",
            SubThresholdReturnWarning, stacklevel=2)
    scale, shape = fit.scale, fit.shape
    if abs(shape) < SHAPE_SWITCH_TOL:
        return fit.threshold + scale * math.log(r)
    return fit.threshold + (scale / shape) * (r ** shape - 1.0)


def return_period(fit: GpdFit, level: float,
                  cal: ObservationCalendar = _DEFAULT_CAL) -> float:
    """Mean years between exceedances of ``level``; inverse of return_level.

    Raises
    ------
    DomainError
        ``level`` at or below the fit threshold.
    InfiniteReturnError
        ``level`` at or beyond a finite upper endpoint (shape < 0).
    """
    if not level > fit.threshold:
        raise DomainError("level must exceed the fit threshold")
    scale, shape = fit.scale, fit.shape
    excess = level - fit.threshold
    if shape < 0.0 and excess >= -scale / shape:
        raise InfiniteReturnError(
            "level lies beyond the fitted upper endpoint; it is never exceeded")
    if abs(shape) < SHAPE_SWITCH_TOL:
        log_r = excess / scale
    else:
        log_r = math.log1p(shape * excess / scale) / shape
    return math.exp(log_r) / _rate_factor(fit, cal)


def _gradient(fit: GpdFit, m: float, cal: ObservationCalendar) -> np.ndarray:
    """d(return level)/d(zeta, scale, shape) at the fitted values."""
    zeta = fit.exceedance_rate
    scale, shape = fit.scale, fit.shape
    r = m * cal.obs_per_year * zeta
    log_r = math.log(r)
    if abs(shape) < SHAPE_SWITCH_TOL:
        return np.array([scale / zeta, log_r, scale * log_r * log_r / 2.0])
    rx = r ** shape
    return np.array([
        scale * rx / zeta,
        (rx - 1.0) / shape,
        scale * (-(rx - 1.0) / shape**2 + rx * log_r / shape),
    ])


@dataclass(frozen=True)
class ReturnLevelInterval:
    """Delta-method interval for one return level.

    ``low``/``high`` is the plain symmetric interval; ``asym_low``/
    ``asym_high`` the interval propagated on a log(level - threshold)
    scale, which respects the skewness of the extrapolation and is the
    preferred variant.
    """

    m: float
    level: float
    std_error: float
    low: float
    high: float
    asym_low: float
    asym_high: float
    ci_level: float


def return_level_ci(fit: GpdFit, m: float,
                    cal: ObservationCalendar = _DEFAULT_CAL,
                    ci_level: float = 0.95,
                    zeta_variance: float | None = None) -> ReturnLevelInterval:
    """Confidence interval for the ``m``-year return level.

    The variance is g' V g with g the analytic gradient over
    (zeta, scale, shape) and V the fit covariance extended by the
    exceedance-rate variance (binomial by default, overridable via
    ``zeta_variance`` for sensitivity checks).

    Raises
    ------
    CiUnavailableError
        The fit carries no usable covariance (level itself is still
        computable via :func:`return_level`).
    """
    if fit.covariance is None:
        raise CiUnavailableError("fit covariance is unavailable")
    if not 0.0 < ci_level < 1.0:
        raise DomainError("ci_level must lie in (0, 1)")
    zeta = fit.exceedance_rate
    if not 0.0 < zeta < 1.0:
        raise DomainError("exceedance rate must lie strictly in (0, 1)")

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SubThresholdReturnWarning)
        level = return_level(fit, m, cal)
    g = _gradient(fit, m, cal)
    var_zeta = zeta * (1.0 - zeta) / fit.n_total if zeta_variance is None else float(zeta_variance)
    cov = np.zeros((3, 3))
    cov[0, 0] = var_zeta
    cov[1:, 1:] = fit.covariance
    variance = float(g @ cov @ g)
    se = math.sqrt(max(variance, 0.0))
    z = float(norm.ppf(0.5 + ci_level / 2.0))

    excess = level - fit.threshold
    if se == 0.0 or excess <= 0.0:
        asym_low, asym_high = level - z * se, level + z * se
    else:
        # degenerate as the level approaches the threshold: spread -> inf
        spread = z * se / excess
        asym_low = fit.threshold + excess * math.exp(-spread)
        asym_high = (fit.threshold + excess * math.exp(spread)
                     if spread < 700.0 else math.inf)
    return ReturnLevelInterval(
        m=float(m), level=level, std_error=se,
        low=level - z * se, high=level + z * se,
        asym_low=asym_low, asym_high=asym_high,
        ci_level=ci_level,
    )


def default_m_grid(lo: float = 1.0, hi: float = 1e5, count: int = 101) -> np.ndarray:
    """Log-spaced return periods in years."""
    return np.geomspace(lo, hi, count)


@dataclass(frozen=True)
class ReturnLevelCurve:
    """Return level against return period with confidence bands.

    ``ci_low``/``ci_high`` hold the symmetric delta interval;
    ``asym_low``/``asym_high`` the preferred asymmetric variant.
    """

    m: np.ndarray
    level: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    asym_low: np.ndarray
    asym_high: np.ndarray
    ci_level: float

    def to_csv_text(self) -> str:
        lines = ["m_years,level,ci_low,ci_high"]
        for m, lv, lo, hi in zip(self.m, self.level, self.ci_low, self.ci_high):
            lines.append(f"{float(m)!r},{float(lv)!r},{float(lo)!r},{float(hi)!r}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self, fit: GpdFit | None = None) -> dict:
        from .gpd import fit_to_json_dict
        doc = {
            "ci_level": float(self.ci_level),
            "ci_method": "delta",
            "asymmetric_ci_method": "delta-log-excess",
            "points": [
                {"m_years": float(m), "level": float(lv),
                 "ci_low": float(lo), "ci_high": float(hi),
                 "asym_ci_low": float(alo), "asym_ci_high": float(ahi)}
                for m, lv, lo, hi, alo, ahi in zip(
                    self.m, self.level, self.ci_low, self.ci_high,
                    self.asym_low, self.asym_high)
            ],
        }
        if fit is not None:
            doc["fit"] = fit_to_json_dict(fit)
        return doc


def return_curve(fit: GpdFit, m_grid=None,
                 cal: ObservationCalendar = _DEFAULT_CAL,
                 ci_level: float = 0.95) -> ReturnLevelCurve:
    """Evaluate level and interval over a grid of return periods.

    Every grid period must exceed the mean inter-exceedance time
    n_total / (d * n_excesses), so the whole curve sits above the fit
    threshold.
    """
    grid = default_m_grid() if m_grid is None else np.asarray(m_grid, dtype=np.float64)
    if grid.size == 0 or (grid.size > 1 and np.any(np.diff(grid) <= 0)):
        raise DomainError("m_grid must be non-empty and strictly increasing")
    m_min = 1.0 / _rate_factor(fit, cal)
    if grid[0] <= m_min:
        raise DomainError(
            f"m_grid must start above the mean inter-exceedance time {m_min:.4g} years")

    n = grid.size
    level = np.empty(n)
    lo = np.empty(n)
    hi = np.empty(n)
    alo = np.empty(n)
    ahi = np.empty(n)
    for i, m in enumerate(grid):
        ci = return_level_ci(fit, float(m), cal, ci_level)
        level[i], lo[i], hi[i] = ci.level, ci.low, ci.high
        alo[i], ahi[i] = ci.asym_low, ci.asym_high
    return ReturnLevelCurve(grid, level, lo, hi, alo, ahi, ci_level)


def return_period_band(fit: GpdFit, level: float,
                       cal: ObservationCalendar = _DEFAULT_CAL,
                       ci_level: float = 0.95,
                       m_max: float = 1e7) -> tuple[float, float, float]:
    """Return period of ``level`` with a band read off the level intervals.

    The band endpoints are the periods at which the symmetric delta band
    (the ci_low/ci_high columns of the serialized curve) crosses the
    level: the lower endpoint is where the upper band first reaches it,
    the upper endpoint where the lower band does.  Reading the band
    horizontally this way yields strongly asymmetric period intervals
    even though the level band itself is symmetric.  An upper endpoint
    beyond ``m_max`` years is reported as inf.
    """
    m_hat = return_period(fit, level, cal)
    m_min = 1.0001 / _rate_factor(fit, cal)

    def hi_gap(log_m):
        return return_level_ci(fit, 10.0 ** log_m, cal, ci_level).high - level

    def lo_gap(log_m):
        return return_level_ci(fit, 10.0 ** log_m, cal, ci_level).low - level

    lo_bracket = (math.log10(m_min), math.log10(max(m_hat, m_min * 1.01)))
    if hi_gap(lo_bracket[0]) >= 0.0:
        m_lo = m_min
    else:
        m_lo = 10.0 ** brentq(hi_gap, *lo_bracket, xtol=1e-12)

    hi_bracket = (math.log10(max(m_hat, m_min * 1.01)), math.log10(m_max))
    if lo_gap(hi_bracket[1]) < 0.0:
        m_hi = math.inf
    else:
        m_hi = 10.0 ** brentq(lo_gap, *hi_bracket, xtol=1e-12)
    return m_hat, m_lo, m_hi
