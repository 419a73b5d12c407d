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

from ._table import table_text
from .errors import CiUnavailableError, ConvergenceError, DomainError, InfiniteReturnError
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
_LN10 = math.log(10.0)


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
        ``level`` not finite, at or below the fit threshold, or with a
        period beyond the largest double.
    InfiniteReturnError
        ``level`` at or beyond a finite upper endpoint (shape < 0).
    """
    if not math.isfinite(level):
        raise DomainError(f"level must be finite, got {level}")
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
    try:
        period = math.exp(log_r) / _rate_factor(fit, cal)
    except OverflowError:
        period = math.inf
    if not period < math.inf:
        raise DomainError(f"level {level} has a return period beyond the largest double")
    return period


@functools.lru_cache(maxsize=8)
def normal_quantile(ci_level: float) -> float:
    """Two-sided standard normal quantile z for ``ci_level`` in (0, 1).

    ``ndtri`` is the function ``scipy.stats.norm.ppf`` evaluates, bit for
    bit, without loading ``scipy.stats``; it is imported here, so a process
    that never asks for an interval loads no scipy.  Cached: a Monte Carlo
    study asks for the same level thousands of times.
    """
    if not 0.0 < ci_level < 1.0:
        raise DomainError("ci_level must lie in (0, 1)")
    from scipy.special import ndtri
    return float(ndtri(0.5 + ci_level / 2.0))


def _delta_inputs(fit: GpdFit, cal: ObservationCalendar, ci_level: float):
    """What every delta-method interval of one fit shares.

    The per-fit constants (threshold, zeta, scale, shape, d * zeta) that
    :func:`_delta` takes, the covariance of (zeta, scale, shape) as the four
    floats (var zeta, var scale, cov(scale, shape), var shape) of its
    block-diagonal form, and the normal quantile for ``ci_level``.
    """
    if fit.covariance is None:
        raise CiUnavailableError("fit covariance is unavailable")
    z = normal_quantile(ci_level)
    zeta = fit.exceedance_rate
    if not 0.0 < zeta < 1.0:
        raise DomainError("exceedance rate must lie strictly in (0, 1)")
    (var_scale, cov_scale_shape), (_, var_shape) = fit.covariance.tolist()
    cov = (zeta * (1.0 - zeta) / fit.n_total, var_scale, cov_scale_shape, var_shape)
    fixed = (fit.threshold, zeta, fit.scale, fit.shape, cal.obs_per_year * zeta)
    return fixed, cov, z


# Where |s| = |shape * log r| is below _DELTA_SERIES_TOL, dx_m/dscale and
# dx_m/dshape come from power series in s: their closed forms lose ~eps/|s|
# and ~eps/s**2 of relative accuracy to cancellation there.  Fifteen terms
# leave a truncation error below 1e-17 at the switch, where the closed forms
# lose up to ~2e-15.
_DELTA_SERIES_TOL = 0.5
# Horner coefficients, highest power first: sum_k s**k / (k+1)! is
# (exp(s) - 1) / s, and sum_k (k+1) s**k / (k+2)! is ((s - 1) exp(s) + 1) / s**2
_PSI_PHI_COEF = tuple((1.0 / math.factorial(k + 1), (k + 1.0) / math.factorial(k + 2))
                      for k in reversed(range(15)))


def _delta(m: float, fixed: tuple, cov: tuple, slope: bool = False):
    """The ``m``-year level and its delta-method standard error sqrt(g' V g),
    from the per-fit constants and covariance of :func:`_delta_inputs`.

    g is the gradient of the level in (zeta, scale, shape), and g' V g is
    summed in closed form over the block-diagonal V.  With ``slope`` the
    result also carries r * d/dr of the level and of the standard error,
    for r = m * d * zeta.
    """
    if not 0.0 < m < math.inf:
        raise DomainError(_BAD_PERIOD)
    threshold, zeta, scale, shape, rate = fixed
    r = m * rate
    level = _level(threshold, scale, shape, r)
    log_r = math.log(r)
    exponential = abs(shape) < SHAPE_SWITCH_TOL
    if exponential:
        rx, g_scale, g_shape = 1.0, log_r, scale * log_r * log_r / 2.0
    else:
        rx = r ** shape
        s = shape * log_r
        if abs(s) < _DELTA_SERIES_TOL:
            psi = phi = 0.0
            for a, b in _PSI_PHI_COEF:
                psi, phi = psi * s + a, phi * s + b
            g_scale, g_shape = log_r * psi, scale * log_r * log_r * phi
        else:
            g_scale = (rx - 1.0) / shape
            g_shape = scale * (-(rx - 1.0) / shape**2 + rx * log_r / shape)
    g_zeta = scale * rx / zeta
    var_zeta, var_scale, cov_scale_shape, var_shape = cov
    var = (var_zeta * g_zeta * g_zeta + var_scale * g_scale * g_scale
           + 2.0 * cov_scale_shape * g_scale * g_shape + var_shape * g_shape * g_shape)
    se = math.sqrt(max(var, 0.0))
    if not slope:
        return level, se
    # r * d/dr of g: (shape * g_zeta, r**shape, scale * r**shape * log r), with
    # shape 0 in the exponential limit; none of the three cancels near shape 0
    dg_zeta = 0.0 if exponential else shape * g_zeta
    dg_scale, dg_shape = rx, scale * rx * log_r
    dvar = (var_zeta * g_zeta * dg_zeta + var_scale * g_scale * dg_scale
            + cov_scale_shape * (g_scale * dg_shape + g_shape * dg_scale)
            + var_shape * g_shape * dg_shape)
    return level, se, scale * rx, dvar / se if se > 0.0 else 0.0


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


def _interval(m: float, fixed: tuple, cov: tuple, z: float,
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
        return table_text("m_years,level,ci_low,ci_high,asym_ci_low,asym_ci_high",
                          self.m, self.level, self.ci_low, self.ci_high,
                          self.asym_low, self.asym_high)


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


# even bisection alone narrows the band's widest bracket, 8 decades of m,
# below 1e-12 in 43 evaluations
_NEWTON_MAX_EVALS = 100


def _bracketed_newton(fn, a: float, b: float, f_a: float, xtol: float) -> float:
    """A root of ``fn`` between ``a`` and ``b``, by Newton steps kept in a bracket.

    ``fn(x)`` returns its value and slope at x.  ``f_a`` is the value at
    ``a``; the iteration starts at ``b``, where the value must have the
    other sign (either end may be the larger).  Each value narrows the
    bracket to the side of the sign change, a NaN value narrows nothing,
    and a step that would leave the bracket is a bisection instead.
    Converged when a step from a value that is not NaN moves x by at most
    ``xtol``.

    Raises
    ------
    ConvergenceError
        The value at ``b`` does not have the other sign, or no step met
        ``xtol`` in _NEWTON_MAX_EVALS evaluations (as when the values
        between the ends are NaN).
    """
    if f_a == 0.0:
        return a
    x = b
    for evals in range(_NEWTON_MAX_EVALS):
        f, slope = fn(x)
        if f == 0.0:
            return x
        if f < 0.0 < f_a or f_a < 0.0 < f:
            b = x
        elif evals == 0:
            raise ConvergenceError(
                f"no sign change between {a!r} and {b!r}: values {f_a!r} and {f!r}")
        elif not math.isnan(f):
            a = x
        new = x - f / slope if slope != 0.0 else math.nan
        if not (a < new < b or b < new < a):
            new = 0.5 * (a + b)
        if abs(new - x) <= xtol and not math.isnan(f):
            return new
        x = new
    raise ConvergenceError(
        f"no root to {xtol!r} in {_NEWTON_MAX_EVALS} evaluations; last x={x!r}")


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
    beyond ``_M_MAX`` (1e7) years is reported as inf.  Each endpoint is
    found on log10 m by :func:`_bracketed_newton`, from the band's slope
    that :func:`_delta` returns.

    Raises
    ------
    ConvergenceError
        An endpoint's root was not found, as when the band is NaN.
    """
    m_hat = return_period(fit, level, cal)
    fixed, cov, z = _delta_inputs(fit, cal, ci_level)
    m_min = 1.0001 / _rate_factor(fit, cal)

    def gap(log_m, side):
        """Upper (side +1) or lower (side -1) band at 10**log_m, less the level,
        and its slope in log_m."""
        at, se, at_slope, se_slope = _delta(10.0 ** log_m, fixed, cov, slope=True)
        return at + side * z * se - level, _LN10 * (at_slope + side * z * se_slope)

    upper, lower = functools.partial(gap, side=1.0), functools.partial(gap, side=-1.0)
    lo, mid, hi = (math.log10(m) for m in (m_min, max(m_hat, m_min * 1.01), _M_MAX))
    f_lo, f_hi = upper(lo)[0], lower(hi)[0]
    m_lo = m_min if f_lo >= 0.0 else 10.0 ** _bracketed_newton(upper, lo, mid, f_lo, 1e-12)
    m_hi = math.inf if f_hi < 0.0 else 10.0 ** _bracketed_newton(lower, hi, mid, f_hi, 1e-12)
    return m_hat, m_lo, m_hi
