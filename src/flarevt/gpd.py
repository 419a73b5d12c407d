"""Generalized Pareto distribution over threshold excesses.

Evaluation, simulation, and maximum-likelihood fitting.  The fit is a
Newton iteration on the analytic score and observed information, and the
standard errors come from the same information matrix (Coles, 2001,
ch. 4).  The distribution function used throughout is

    H(y) = 1 - (1 + shape * y / scale) ** (-1 / shape),    y >= 0,

with the exponential limit 1 - exp(-y / scale) as shape -> 0.  ``scale``
is the effective scale at the analysis threshold; a location parameter is
not identifiable from excess data and has no field here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import ConvergenceError, DomainError, InsufficientDataError, ParseError

__all__ = [
    "GpdParams",
    "GpdFit",
    "FitConvergence",
    "gpd_cdf",
    "gpd_quantile",
    "gpd_loglik",
    "gpd_sample",
    "gpd_mean_excess",
    "checked_threshold",
    "fit_gpd",
    "fit_to_json_dict",
    "fit_from_json_dict",
]

SHAPE_SWITCH_TOL = 1e-6  # |shape| below this uses the exponential limit
MIN_EXCESSES = 20        # fewer and standard-error asymptotics are meaningless


@dataclass(frozen=True)
class GpdParams:
    """Scale and shape of a generalized Pareto excess distribution.

    The support is ``y >= 0`` and additionally ``y < -scale/shape`` when
    ``shape < 0``.
    """

    scale: float
    shape: float

    def __post_init__(self):
        if not (np.isfinite(self.scale) and self.scale > 0.0):
            raise DomainError(f"scale must be finite and > 0, got {self.scale}")
        if not np.isfinite(self.shape):
            raise DomainError(f"shape must be finite, got {self.shape}")

    @property
    def upper_endpoint(self) -> float:
        """Upper support endpoint: -scale/shape for shape < 0, else inf."""
        if self.shape < 0.0:
            return -self.scale / self.shape
        return math.inf


@dataclass(frozen=True)
class FitConvergence:
    """Optimizer diagnostics attached to a fit.

    ``iterations`` counts Newton steps, ``function_evals`` likelihood
    evaluations (each with its score and information), and ``restarts``
    the step halvings of the line search: the fit has a single start
    point, and a halving is its retreat from a trial point outside the
    support or with too little gain.
    """

    converged: bool
    iterations: int
    function_evals: int
    restarts: int
    message: str


@dataclass(frozen=True)
class GpdFit:
    """A fitted excess model: threshold, parameters, and uncertainty.

    ``covariance`` is the 2x2 inverse observed information over
    (scale, shape), or None when that information at the optimum was not
    positive definite.  ``n_excesses``/``n_total`` give the exceedance
    rate used for return-level calculations.
    """

    threshold: float
    params: GpdParams
    covariance: np.ndarray | None
    std_errors: tuple[float, float] | None
    n_excesses: int
    n_total: int
    log_likelihood: float
    convergence: FitConvergence = field(repr=False)

    def __post_init__(self):
        if self.n_excesses > self.n_total:
            raise DomainError("n_excesses cannot exceed n_total")
        if self.covariance is not None:
            cov = np.asarray(self.covariance, dtype=float)
            cov.setflags(write=False)
            object.__setattr__(self, "covariance", cov)

    @property
    def scale(self) -> float:
        return self.params.scale

    @property
    def shape(self) -> float:
        return self.params.shape

    @property
    def exceedance_rate(self) -> float:
        """Fraction of observations exceeding the threshold."""
        return self.n_excesses / self.n_total


def _as_excess_array(y) -> np.ndarray:
    return np.ascontiguousarray(y, dtype=np.float64).ravel()


def gpd_cdf(y, params: GpdParams):
    """Distribution function H(y) of the excess model.

    Accepts a scalar or array of excesses.  Values below 0 map to 0;
    values at or above a finite upper endpoint map to 1.
    """
    arr = np.asarray(y, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    scale, shape = params.scale, params.shape

    if abs(shape) < SHAPE_SWITCH_TOL:
        out = -np.expm1(-arr / scale)
    else:  # past an infinite endpoint only +inf, which maps to 1 either way
        hi = arr >= params.upper_endpoint
        z = np.where((arr > 0.0) & ~hi, shape * arr / scale, 0.0)
        out = -np.expm1(-np.log1p(z) / shape)
        out[hi] = 1.0
    out[arr <= 0.0] = 0.0
    return float(out[0]) if scalar else out


def gpd_quantile(p, params: GpdParams):
    """Inverse of :func:`gpd_cdf`: the excess with cumulative probability p.

    Requires ``0 <= p < 1``; the lower endpoint p = 0 maps to 0.
    """
    arr = np.asarray(p, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr < 0.0) or np.any(arr >= 1.0):
        raise DomainError("quantile probability must lie in [0, 1)")
    scale, shape = params.scale, params.shape
    if abs(shape) < SHAPE_SWITCH_TOL:
        out = -scale * np.log1p(-arr)
    else:
        out = (scale / shape) * np.expm1(-shape * np.log1p(-arr))
    return float(out[0]) if scalar else out


def gpd_loglik(excesses, params: GpdParams) -> float:
    """Log-likelihood of a sample of nonnegative excesses.

    Returns -inf when any excess falls outside the support (possible only
    for shape < 0).
    """
    y = _as_excess_array(excesses)
    if y.size == 0:
        raise InsufficientDataError("need at least one excess")
    y_max = float(y.max())
    if not (0.0 <= float(y.min()) and y_max < math.inf):  # NaN fails both
        raise DomainError("excesses must be finite and >= 0")
    return float(_loglik_derivatives(y, params.scale, params.shape, y_max)[0])


def gpd_sample(params: GpdParams, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` excesses by inverse-transform sampling.

    Deterministic for a fixed seed.
    """
    if count < 0:
        raise DomainError("count must be >= 0")
    rng = np.random.default_rng(seed)
    if count == 0:
        return np.empty(0, dtype=np.float64)
    return gpd_quantile(rng.random(count), params)


def gpd_mean_excess(params: GpdParams, delta_u: float = 0.0) -> float:
    """Model mean excess above a threshold ``delta_u`` higher than the fit's.

    Equals (scale + shape * delta_u) / (1 - shape) and is linear in
    ``delta_u``, which is what threshold-selection diagnostics exploit.
    Only defined for shape < 1.
    """
    if params.shape >= 1.0:
        raise DomainError("mean excess is finite only for shape < 1")
    if delta_u < 0.0:
        raise DomainError("delta_u must be >= 0")
    return (params.scale + params.shape * delta_u) / (1.0 - params.shape)


# ---------------------------------------------------------------------------
# maximum-likelihood fitting
# ---------------------------------------------------------------------------

# Where every |shape * y / scale| is below _SERIES_TOL, the shape terms of
# the score and information come from power series: their closed forms
# cancel there (log1p(a) - a/(1+a) ~ a**2/2), and the series stays exact
# and continuous through shape = 0.  Twelve terms leave a relative
# truncation error below 1e-14 at the switch.
_SERIES_TOL = 0.05
_J = np.arange(12, dtype=np.float64)
# sum_j _P_COEF[j] a**j = (log1p(a) - a/(1+a)) / a**2
_P_COEF = (-1.0) ** _J * (_J + 1.0) / (_J + 2.0)
# sum_j _Q_COEF[j] a**j = (2 log1p(a) - 2a/(1+a) - (a/(1+a))**2) / a**3
_Q_COEF = (-1.0) ** _J * (_J + 1.0) * (_J + 2.0) / (_J + 3.0)

# converged when the Newton decrement score' info^-1 score, twice the
# log-likelihood gain the next step predicts, falls below this
_DECREMENT_TOL = 1e-20
_MAX_ITER = 100
_MAX_HALVINGS = 60
_SHAPE_FLOOR = 1e-6   # an iterate this close to shape -1 has reached the support edge
_ARMIJO = 1e-4        # sufficient-increase fraction of the predicted gain
_QUADRATIC = 1e-4     # below this decrement a full Newton step is taken


def _loglik_derivatives(y: np.ndarray, scale: float, shape: float,
                        y_max: float | None = None):
    """Log-likelihood, score and observed information at (scale, shape).

    The score and information are over (log scale, shape), from the
    closed forms (Coles, 2001, sec. 4.3; Smith, 1985).  With
    z = y / scale and a = shape * z:

        loglik          = -n log(scale) - (1 + 1/shape) sum log1p(a)
        d/dlog(scale)   = (1 + shape) sum z/(1+a) - n
        d/dshape        = sum (log1p(a) - a/(1+a)) / shape**2 - sum z/(1+a)

    and the information is minus the matrix of second derivatives.
    Inside the SHAPE_SWITCH_TOL band the log-likelihood is the
    exponential limit -n log(scale) - sum y / scale.  ``y_max`` is
    ``y.max()`` where the caller holds it.  Outside the support the
    result is ``(-inf, None, None)``.
    """
    a = shape * y / scale      # one rounding for the support test and log1p
    exponential = abs(shape) < SHAPE_SWITCH_TOL
    # y >= 0, so only a negative shape can leave the support
    if not exponential and shape < 0.0 and np.minimum.reduce(a, initial=np.inf) <= -1.0:
        return -math.inf, None, None
    # the six summed terms go into the rows of one buffer, reduced in one
    # call: a row-wise add.reduce is the same pairwise sum as each row's .sum()
    t = np.empty((6, y.size))
    zu, zuu, zuzu, h_terms, q_terms, ll_terms = t
    if exponential:
        np.copyto(ll_terms, y)                      # the exponential limit sums y
    else:
        np.log1p(a, out=ll_terms)
    z = y / scale
    u = np.add(a, 1.0)
    np.divide(1.0, u, out=u)                        # 1/(1+a)
    np.multiply(z, u, out=zu)                       # z/(1+a)
    np.multiply(zu, u, out=zuu)                     # z/(1+a)**2
    np.multiply(zu, zu, out=zuzu)                   # z**2/(1+a)**2
    # max(y / scale) is max(y) / scale: rounding is monotone
    y_max = float(y.max()) if y_max is None else y_max
    series = abs(shape) * (y_max / scale) < _SERIES_TOL
    if series:
        zz = z * z
        np.multiply(zz, polyval(a, _P_COEF), out=h_terms)
        np.multiply(np.multiply(zz, z, out=zz), polyval(a, _Q_COEF), out=q_terms)
    else:
        au = np.multiply(a, u, out=u)
        r = np.subtract(np.log1p(a) if exponential else ll_terms, au, out=h_terms)
        np.multiply(2.0, r, out=q_terms)
        q_terms -= np.multiply(au, au, out=au)
    s1, s2, s3, h, q, s_ll = np.add.reduce(t, axis=1).tolist()
    tail = s_ll / scale if exponential else (1.0 + 1.0 / shape) * s_ll
    ll = -(y.size * np.log(scale) + tail)
    if not series:
        h, q = h / shape**2, q / shape**3
    w = 1.0 + shape
    score = np.array([w * s1 - y.size, h - s1])
    info = np.array([[w * s2, w * s3 - s1],
                     [w * s3 - s1, q - s3]])
    return ll, score, info


def _ascent_step(score: np.ndarray, info: np.ndarray, fixed_shape: bool):
    """Newton step as a pair of floats, and whether the information was
    positive definite.

    An indefinite information matrix gets its eigenvalues replaced by
    their magnitudes, which keeps the step an ascent direction.
    """
    (i_tt, i_tx), (_, i_xx) = info.tolist()
    g_t, g_x = score.tolist()
    if fixed_shape:  # concave in log scale for shape > -1: info[0, 0] > 0
        return (g_t / i_tt, 0.0), True
    det = i_tt * i_xx - i_tx * i_tx
    if i_tt > 0.0 and det > 0.0:
        return ((i_xx * g_t - i_tx * g_x) / det, (i_tt * g_x - i_tx * g_t) / det), True
    lam, vec = np.linalg.eigh(info)
    lam = np.maximum(np.abs(lam), 1e-12 * np.abs(lam).max())
    return tuple((vec @ ((vec.T @ score) / lam)).tolist()), False


def _maximize(y: np.ndarray, y_max: float, scale: float, shape: float, fixed_shape: bool):
    """Safeguarded Newton ascent of the log-likelihood over (log scale, shape).

    A step is halved until the trial point lies in the support with
    shape > -1 and gains a fraction of the predicted increase.  Converged
    when the information is positive definite and the Newton decrement
    is below _DECREMENT_TOL.  Where the supremum lies on the support edge
    (shape -> -1, scale -> max(y)) the decrement stays away from 0, so
    such samples fail as soon as an iterate's shape comes within
    _SHAPE_FLOOR of -1, as does a shape pinned there.  ``y_max`` is
    ``y.max()``.  Returns the last iterate (log scale, shape) as floats,
    its log-likelihood, score and information, and the diagnostics.

    The iterate, the step and the decrement are Python floats, at a
    fraction of numpy's cost on two elements.  Every state, the start
    included, is evaluated at ``exp(log scale)``, the scale the fit reports.
    """
    log_scale = math.log(scale)
    ll, score, info = _loglik_derivatives(y, math.exp(log_scale), shape, y_max)
    evals, halvings = 1, 0
    for it in range(1, _MAX_ITER + 1):
        if shape < -1.0 + _SHAPE_FLOOR:
            return (log_scale, shape), ll, score, info, FitConvergence(
                False, it - 1, evals, halvings,
                _failure_message(y, log_scale, shape, "shape reached the -1 corner"))
        (step_t, step_x), regular = _ascent_step(score, info, fixed_shape)
        g_t, g_x = score.tolist()
        decrement = g_t * step_t + g_x * step_x
        if regular and decrement < _DECREMENT_TOL:
            return (log_scale, shape), ll, score, info, FitConvergence(
                True, it, evals, halvings, "Newton decrement below tolerance")
        # a step of at most 1% of a standard error (decrement 1e-4) lies
        # where the quadratic model holds; its gain can drown in rounding
        quadratic = regular and decrement < _QUADRATIC
        gain = -math.inf if quadratic else _ARMIJO * decrement
        alpha = 1.0
        for _ in range(_MAX_HALVINGS):
            trial_t, trial_x = log_scale + alpha * step_t, shape + alpha * step_x
            if trial_x > -1.0:
                ll_t, score_t, info_t = _loglik_derivatives(y, math.exp(trial_t), trial_x, y_max)
                evals += 1
                if score_t is not None and ll_t >= ll + alpha * gain:
                    break
            alpha *= 0.5
            halvings += 1
        else:
            return (log_scale, shape), ll, score, info, FitConvergence(
                False, it, evals, halvings,
                _failure_message(y, log_scale, shape, "no step raised the likelihood"))
        log_scale, shape, ll, score, info = trial_t, trial_x, ll_t, score_t, info_t
    return (log_scale, shape), ll, score, info, FitConvergence(
        False, _MAX_ITER, evals, halvings,
        _failure_message(y, log_scale, shape, f"no convergence in {_MAX_ITER} iterations"))


def _failure_message(y: np.ndarray, log_scale: float, shape: float, reason: str) -> str:
    scale = math.exp(log_scale)
    return (f"{reason}; last iterate scale={scale!r}, shape={shape!r}, "
            f"1 + shape*max(y)/scale={1.0 + shape * float(y.max()) / scale:.3g}")


def _covariance(score: np.ndarray, info: np.ndarray, scale: float, fixed_shape: bool):
    """Inverse observed information over (scale, shape) and standard errors.

    ``score`` and ``info`` are over (log scale, shape) at the optimum; a
    pinned shape has no variance.  (None, None) where the information is
    not positive definite.
    """
    (i_tt, i_tx), (_, i_xx) = info.tolist()
    # chain rule from log scale; the score term vanishes at the optimum
    i_ss, i_sx = (i_tt + score.tolist()[0]) / scale**2, i_tx / scale
    det = i_ss if fixed_shape else i_ss * i_xx - i_sx * i_sx  # of the 1x1 or 2x2 block
    if not (i_ss > 0.0 and det > 0.0):
        return None, None
    if fixed_shape:
        cov = np.array([[1.0 / i_ss, 0.0], [0.0, 0.0]])
    else:
        cov = np.array([[i_xx, -i_sx], [-i_sx, i_ss]]) / det
    return cov, (math.sqrt(cov[0, 0]), math.sqrt(cov[1, 1]))


def checked_threshold(threshold: float) -> float:
    """The analysis threshold as a float; DomainError unless finite and >= 0."""
    threshold = float(threshold)
    if not 0.0 <= threshold < math.inf:
        raise DomainError(f"threshold must be finite and >= 0, got {threshold}")
    return threshold


def fit_gpd(excesses, *, threshold: float = 0.0, n_total: int | None = None,
            fixed_shape: float | None = None) -> GpdFit:
    """Fit the excess model by maximum likelihood.

    The likelihood is maximized by safeguarded Newton iteration over
    (log scale, shape) on the analytic score and observed information,
    so scale positivity is structural; steps are halved to stay in the
    support and to raise the likelihood.  The start point is the
    exponential fit (scale = mean excess) with shape = 0.1.  Standard
    errors come from the information at the iterate the Newton
    iteration stopped at, inverted over (scale, shape).

    Parameters
    ----------
    excesses : array-like
        Nonnegative excesses over the analysis threshold.
    threshold : float, optional
        The analysis threshold, recorded in the fit for downstream
        return-level work.
    n_total : int, optional
        Total number of observations the excesses were drawn from
        (defaults to the number of excesses, i.e. exceedance rate 1).
    fixed_shape : float, optional
        Pin the shape parameter and fit only the scale.  With
        ``fixed_shape=0.0`` this is the exponential sub-model, whose MLE
        scale is the sample mean.

    Raises
    ------
    DomainError
        A threshold or an excess that is not finite and >= 0, or a
        ``fixed_shape`` that is not finite.
    InsufficientDataError
        Fewer than ``MIN_EXCESSES`` values.
    ConvergenceError
        The iteration did not converge, as when the likelihood's supremum
        lies on the support edge at shape -1; diagnostics attached.
    """
    threshold = checked_threshold(threshold)
    if fixed_shape is not None and not math.isfinite(fixed_shape):
        raise DomainError(f"fixed_shape must be finite, got {fixed_shape}")
    y = _as_excess_array(excesses)
    if y.size < MIN_EXCESSES:
        raise InsufficientDataError(
            f"need at least {MIN_EXCESSES} excesses, got {y.size}")
    y_max = float(y.max())
    if not (0.0 <= float(y.min()) and y_max < math.inf):  # NaN fails both
        raise DomainError("excesses must be finite and >= 0")
    mean = float(np.add.reduce(y)) / y.size   # as y.mean() rounds it
    if mean <= 0.0:
        raise DomainError("excesses must contain positive values")
    if n_total is None:
        n_total = y.size

    if fixed_shape is None:
        state = _maximize(y, y_max, mean, 0.1, False)
    else:
        # start inside the support, which ends at -scale/shape
        scale0 = max(mean, -2.0 * fixed_shape * y_max)
        state = _maximize(y, y_max, scale0, float(fixed_shape), True)
    (log_scale, shape), ll, score, info, convergence = state
    if not convergence.converged:
        raise ConvergenceError("likelihood maximization did not converge",
                               diagnostics=convergence)
    scale_hat = math.exp(log_scale)
    cov, std = _covariance(score, info, scale_hat, fixed_shape is not None)
    return GpdFit(
        threshold=threshold,
        params=GpdParams(scale_hat, shape),
        covariance=cov,
        std_errors=std,
        n_excesses=int(y.size),
        n_total=int(n_total),
        log_likelihood=float(ll),
        convergence=convergence,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def fit_to_json_dict(fit: GpdFit) -> dict:
    """JSON-ready dict: covariance row-major, diagnostics inlined."""
    return {
        "threshold": float(fit.threshold),
        "scale": float(fit.scale),
        "shape": float(fit.shape),
        "covariance": None if fit.covariance is None
        else [float(v) for v in np.asarray(fit.covariance).ravel()],
        "std_errors": None if fit.std_errors is None
        else [float(v) for v in fit.std_errors],
        "n_excesses": int(fit.n_excesses),
        "n_total": int(fit.n_total),
        "log_likelihood": float(fit.log_likelihood),
        "convergence": {
            "converged": fit.convergence.converged,
            "iterations": fit.convergence.iterations,
            "function_evals": fit.convergence.function_evals,
            "restarts": fit.convergence.restarts,
            "message": fit.convergence.message,
        },
    }


def _std_errors(values) -> tuple[float, float]:
    pair = np.array(values, dtype=float)
    if pair.shape != (2,):
        raise ValueError(f"std_errors must be two numbers, got {values!r}")
    return tuple(pair.tolist())


def fit_from_json_dict(doc: dict) -> GpdFit:
    """The fit a ``fit_to_json_dict`` document describes; ParseError for a bad document."""
    try:
        conv = doc["convergence"]
        cov = doc["covariance"]
        return GpdFit(
            threshold=float(doc["threshold"]),
            params=GpdParams(float(doc["scale"]), float(doc["shape"])),
            covariance=None if cov is None else np.array(cov, float).reshape(2, 2),
            std_errors=None if doc["std_errors"] is None else _std_errors(doc["std_errors"]),
            n_excesses=int(doc["n_excesses"]),
            n_total=int(doc["n_total"]),
            log_likelihood=float(doc["log_likelihood"]),
            convergence=FitConvergence(
                converged=bool(conv["converged"]),
                iterations=int(conv["iterations"]),
                function_evals=int(conv["function_evals"]),
                restarts=int(conv["restarts"]),
                message=str(conv["message"]),
            ),
        )
    except KeyError as exc:
        raise ParseError(f"fit document has no key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad fit document: {exc}") from None
