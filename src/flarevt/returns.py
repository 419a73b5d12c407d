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

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.stats import norm

from ._table import table_points, table_text
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
    "normal_quantile",
]


class SubThresholdReturnWarning(UserWarning):
    """The requested period is shorter than the mean inter-exceedance time."""


@dataclass(frozen=True)
class ObservationCalendar:
    """Observation cadence: samples per (Julian) year."""

    obs_per_year: float = 525_600.0

    def __post_init__(self):
        if not 0.0 < self.obs_per_year < math.inf:
            raise DomainError("obs_per_year must be > 0 and finite")


_DEFAULT_CAL = ObservationCalendar()
_M_MAX = 1e7  # years; a period band's upper end beyond it is reported as inf
_BAD_PERIOD = "m must be > 0 years and finite"


def _rate_factor(fit: GpdFit, cal: ObservationCalendar) -> float:
    """Expected exceedances per year: d * zeta."""
    return cal.obs_per_year * fit.exceedance_rate


def _level(threshold: float, scale: float, shape: float, r: float) -> float:
    """Level exceeded on average once per ``r`` expected exceedances."""
    if abs(shape) < SHAPE_SWITCH_TOL:
        return threshold + scale * math.log(r)
    return threshold + (scale / shape) * (r ** shape - 1.0)


def return_level(fit: GpdFit, m: float,
                 cal: ObservationCalendar = _DEFAULT_CAL) -> float:
    """Level exceeded on average once per ``m`` years.

    For m below the mean time between exceedances the result falls below
    the fit threshold; it is still returned, with a
    :class:`SubThresholdReturnWarning`.
    """
    if not 0.0 < m < math.inf:
        raise DomainError(_BAD_PERIOD)
    r = m * _rate_factor(fit, cal)
    # tolerance keeps the exact-threshold period from warning on rounding
    if r < 1.0 - 1e-9:
        warnings.warn(
            f"return level for m={m} years lies below the fit threshold",
            SubThresholdReturnWarning, stacklevel=2)
    return _level(fit.threshold, fit.scale, fit.shape, r)


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


@functools.lru_cache(maxsize=8)
def normal_quantile(ci_level: float) -> float:
    """Two-sided standard normal quantile z for ``ci_level`` in (0, 1).

    Cached: ``norm.ppf`` costs ~0.1 ms, more than a whole interval, and a
    Monte Carlo study asks for the same level thousands of times.
    """
    if not 0.0 < ci_level < 1.0:
        raise DomainError("ci_level must lie in (0, 1)")
    return float(norm.ppf(0.5 + ci_level / 2.0))


def _delta_inputs(fit: GpdFit, cal: ObservationCalendar, ci_level: float):
    """What every delta-method interval of one fit shares.

    The per-fit constants (threshold, zeta, scale, shape, d, d * zeta) that
    :func:`_delta` takes, the (zeta, scale, shape) covariance, and the
    normal quantile for ``ci_level``.
    """
    if fit.covariance is None:
        raise CiUnavailableError("fit covariance is unavailable")
    z = normal_quantile(ci_level)
    zeta = fit.exceedance_rate
    if not 0.0 < zeta < 1.0:
        raise DomainError("exceedance rate must lie strictly in (0, 1)")
    cov = np.zeros((3, 3))
    cov[0, 0] = zeta * (1.0 - zeta) / fit.n_total
    cov[1:, 1:] = fit.covariance
    d = cal.obs_per_year
    fixed = (fit.threshold, zeta, fit.scale, fit.shape, d, d * zeta)
    return fixed, cov, z


def _delta(m: float, fixed: tuple, cov: np.ndarray) -> tuple[float, float]:
    """The ``m``-year level and its delta-method standard error sqrt(g' cov g),
    from the per-fit constants and covariance of :func:`_delta_inputs`."""
    if not 0.0 < m < math.inf:
        raise DomainError(_BAD_PERIOD)
    threshold, zeta, scale, shape, d, rate = fixed
    level = _level(threshold, scale, shape, m * rate)
    # (m * d) * zeta here, m * (d * zeta) in the level: one shared r would
    # move the last bit of most curve intervals, so each keeps its rounding
    r = m * d * zeta
    log_r = math.log(r)
    if abs(shape) < SHAPE_SWITCH_TOL:
        g = np.array([scale / zeta, log_r, scale * log_r * log_r / 2.0])
    else:
        rx = r ** shape
        g = np.array([scale * rx / zeta, (rx - 1.0) / shape,
                      scale * (-(rx - 1.0) / shape**2 + rx * log_r / shape)])
    return level, math.sqrt(max(float(g @ cov @ g), 0.0))


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


def _interval(m: float, fixed: tuple, cov: np.ndarray, z: float,
              ci_level: float) -> ReturnLevelInterval:
    level, se = _delta(m, fixed, cov)
    low, high = level - z * se, level + z * se
    threshold = fixed[0]
    excess = level - threshold
    if se == 0.0 or excess <= 0.0:
        asym_low, asym_high = low, high
    else:
        # degenerate as the level approaches the threshold: spread -> inf
        spread = z * se / excess
        asym_low = threshold + excess * math.exp(-spread)
        asym_high = (threshold + excess * math.exp(spread)
                     if spread < 700.0 else math.inf)
    return ReturnLevelInterval(float(m), level, se, low, high, asym_low, asym_high,
                               ci_level)


def return_level_ci(fit: GpdFit, m: float,
                    cal: ObservationCalendar = _DEFAULT_CAL,
                    ci_level: float = 0.95) -> ReturnLevelInterval:
    """Confidence interval for the ``m``-year return level.

    The variance is g' V g, with V the fit covariance extended by the
    binomial exceedance-rate variance.  Below the mean inter-exceedance
    time the level falls under the fit threshold, with no warning.

    Raises
    ------
    CiUnavailableError
        The fit carries no usable covariance (level itself is still
        computable via :func:`return_level`).
    """
    return _interval(m, *_delta_inputs(fit, cal, ci_level), ci_level)


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
        return table_text("m_years,level,ci_low,ci_high",
                          self.m, self.level, self.ci_low, self.ci_high)

    def to_json_dict(self) -> dict:
        return {
            "ci_level": float(self.ci_level),
            "ci_method": "delta",
            "asymmetric_ci_method": "delta-log-excess",
            "points": table_points(
                ("m_years", "level", "ci_low", "ci_high", "asym_ci_low", "asym_ci_high"),
                self.m, self.level, self.ci_low, self.ci_high, self.asym_low, self.asym_high),
        }


def return_curve(fit: GpdFit, m_grid,
                 cal: ObservationCalendar = _DEFAULT_CAL,
                 ci_level: float = 0.95) -> ReturnLevelCurve:
    """Evaluate level and interval over a grid of return periods.

    Every grid period must exceed the mean inter-exceedance time
    n_total / (d * n_excesses), so the whole curve sits above the fit
    threshold.
    """
    grid = np.asarray(m_grid, dtype=np.float64)
    if grid.size == 0 or (grid.size > 1 and np.any(np.diff(grid) <= 0)):
        raise DomainError("m_grid must be non-empty and strictly increasing")
    m_min = 1.0 / _rate_factor(fit, cal)
    if grid[0] <= m_min:
        raise DomainError(
            f"m_grid must start above the mean inter-exceedance time {m_min:.4g} years")
    fixed, cov, z = _delta_inputs(fit, cal, ci_level)
    cis = [_interval(m, fixed, cov, z, ci_level) for m in grid.tolist()]
    columns = (np.array([getattr(ci, name) for ci in cis])
               for name in ("level", "low", "high", "asym_low", "asym_high"))
    return ReturnLevelCurve(grid, *columns, ci_level)


def return_period_band(fit: GpdFit, level: float,
                       cal: ObservationCalendar = _DEFAULT_CAL,
                       ci_level: float = 0.95) -> tuple[float, float, float]:
    """Return period of ``level`` with a band read off the level intervals.

    The band endpoints are the periods at which the symmetric delta band
    (the ci_low/ci_high columns of the serialized curve) crosses the
    level: the lower endpoint is where the upper band first reaches it,
    the upper endpoint where the lower band does.  Reading the band
    horizontally this way yields strongly asymmetric period intervals
    even though the level band itself is symmetric.  An upper endpoint
    beyond ``_M_MAX`` (1e7) years is reported as inf.
    """
    m_hat = return_period(fit, level, cal)
    fixed, cov, z = _delta_inputs(fit, cal, ci_level)
    m_min = 1.0001 / _rate_factor(fit, cal)

    def gap(log_m, side):
        """Upper (side +1) or lower (side -1) band at 10**log_m, less the level."""
        at, se = _delta(10.0 ** log_m, fixed, cov)
        return at + side * z * se - level

    lo, mid, hi = (math.log10(m) for m in (m_min, max(m_hat, m_min * 1.01), _M_MAX))
    m_lo = (m_min if gap(lo, 1.0) >= 0.0
            else 10.0 ** brentq(gap, lo, mid, args=(1.0,), xtol=1e-12))
    m_hi = (math.inf if gap(hi, -1.0) < 0.0
            else 10.0 ** brentq(gap, mid, hi, args=(-1.0,), xtol=1e-12))
    return m_hat, m_lo, m_hi
