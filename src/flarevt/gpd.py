"""Generalized Pareto distribution over threshold excesses.

Evaluation, simulation, and maximum-likelihood fitting with standard
errors from the observed information matrix (Coles, 2001, ch. 4).  The
distribution function used throughout is

    H(y) = 1 - (1 + shape * y / scale) ** (-1 / shape),    y >= 0,

with the exponential limit 1 - exp(-y / scale) as shape -> 0.  ``scale``
is the effective scale at the analysis threshold; a location parameter is
not identifiable from excess data and has no field here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .errors import ConvergenceError, DomainError, InsufficientDataError

__all__ = [
    "GpdParams",
    "GpdFit",
    "FitConvergence",
    "gpd_cdf",
    "gpd_quantile",
    "gpd_loglik",
    "gpd_sample",
    "gpd_mean_excess",
    "fit_gpd",
    "fit_to_json_dict",
    "fit_from_json_dict",
]

SHAPE_SWITCH_TOL = 1e-6  # |shape| below this uses the exponential limit
_FD_REL_STEP = 1e-5     # relative step for the finite-difference Hessian
_XATOL = 1e-9           # simplex displacement tolerance
_RETRY_SCALE_FACTORS = (0.5, 1.0, 2.0)
_RETRY_SHAPES = (-0.2, 0.1, 0.5)


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
    """Optimizer diagnostics attached to a fit."""

    converged: bool
    iterations: int
    function_evals: int
    restarts: int
    message: str


@dataclass(frozen=True)
class GpdFit:
    """A fitted excess model: threshold, parameters, and uncertainty.

    ``covariance`` is the 2x2 inverse observed information over
    (scale, shape), or None when the Hessian at the optimum was not
    negative definite.  ``n_excesses``/``n_total`` give the exceedance
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
    arr = np.ascontiguousarray(y, dtype=np.float64)
    if arr.ndim != 1:
        arr = arr.ravel()
    return arr


def _gpd_nll(excesses: np.ndarray, scale: float, shape: float) -> float:
    """Negative log-likelihood of nonnegative excesses under GPD(scale, shape).

    Returns +inf when any excess lies outside the support (only possible
    for shape < 0), which lets the optimizer treat the support boundary as
    a hard wall.
    """
    k = excesses.size
    if abs(shape) < SHAPE_SWITCH_TOL:
        return k * np.log(scale) + float(excesses.sum()) / scale
    z = shape * excesses / scale
    if z.min(initial=np.inf) <= -1.0:
        return np.inf
    return k * np.log(scale) + (1.0 + 1.0 / shape) * float(np.log1p(z).sum())


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
    elif shape > 0.0:
        z = np.where(arr > 0.0, shape * arr / scale, 0.0)
        out = -np.expm1(-np.log1p(z) / shape)
    else:
        hi = arr >= params.upper_endpoint
        z = np.where(arr > 0.0, shape * arr / scale, 0.0)
        z = np.where(hi, 0.0, z)
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
    if np.any(~np.isfinite(y)) or np.any(y < 0.0):
        raise DomainError("excesses must be finite and >= 0")
    return -float(_gpd_nll(y, params.scale, params.shape))


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

# support violations become a finite wall: +inf would poison the
# simplex convergence test with NaN differences
_PENALTY = 1e300

# the binding convergence criterion is the simplex displacement (xatol);
# fatol only needs to be reachable once the simplex has collapsed
_NM_OPTIONS = {"xatol": _XATOL, "fatol": 1e-8, "maxiter": 2000, "maxfev": 4000}


def _minimize_nll_2d(y: np.ndarray, start: np.ndarray):
    def objective(theta):
        value = _gpd_nll(y, math.exp(theta[0]), theta[1])
        return value if value < _PENALTY else _PENALTY

    return minimize(objective, start, method="Nelder-Mead", options=_NM_OPTIONS)


def _minimize_nll_1d(y: np.ndarray, start: float, shape: float):
    def objective(theta):
        value = _gpd_nll(y, math.exp(theta[0]), shape)
        return value if value < _PENALTY else _PENALTY

    return minimize(objective, np.array([start]), method="Nelder-Mead",
                    options=_NM_OPTIONS)


def _hessian_2d(y: np.ndarray, scale: float, shape: float) -> np.ndarray:
    """Central finite-difference Hessian of the log-likelihood at the MLE."""
    def ll(s, x):
        if s <= 0.0:
            return -np.inf
        return -_gpd_nll(y, s, x)

    hs = _FD_REL_STEP * scale
    hx = _FD_REL_STEP * max(abs(shape), 1e-2)
    l0 = ll(scale, shape)
    d_ss = (ll(scale + hs, shape) - 2.0 * l0 + ll(scale - hs, shape)) / hs**2
    d_xx = (ll(scale, shape + hx) - 2.0 * l0 + ll(scale, shape - hx)) / hx**2
    d_sx = (ll(scale + hs, shape + hx) - ll(scale + hs, shape - hx)
            - ll(scale - hs, shape + hx) + ll(scale - hs, shape - hx)) / (4.0 * hs * hx)
    return np.array([[d_ss, d_sx], [d_sx, d_xx]])


def _covariance_2d(y, scale, shape):
    hess = _hessian_2d(y, scale, shape)
    if not np.all(np.isfinite(hess)):
        return None, None
    info = -hess
    det = info[0, 0] * info[1, 1] - info[0, 1] * info[1, 0]
    if info[0, 0] <= 0.0 or det <= 0.0:  # not positive definite
        return None, None
    cov = np.array([[info[1, 1], -info[0, 1]],
                    [-info[1, 0], info[0, 0]]]) / det
    std = (math.sqrt(cov[0, 0]), math.sqrt(cov[1, 1]))
    return cov, std


def _covariance_fixed_shape(y, scale, shape):
    def ll(s):
        return -_gpd_nll(y, s, shape)

    h = _FD_REL_STEP * scale
    d2 = (ll(scale + h) - 2.0 * ll(scale) + ll(scale - h)) / h**2
    if not np.isfinite(d2) or d2 >= 0.0:
        return None, None
    var = -1.0 / d2
    cov = np.array([[var, 0.0], [0.0, 0.0]])
    return cov, (math.sqrt(var), 0.0)


def fit_gpd(excesses, *, threshold: float = 0.0, n_total: int | None = None,
            fixed_shape: float | None = None, min_excesses: int = 20) -> GpdFit:
    """Fit the excess model by maximum likelihood.

    The likelihood is maximized by a Nelder-Mead simplex over
    (log scale, shape), so scale positivity is structural and support
    violations act as an infinite penalty.  The start point is the
    exponential fit (scale = mean excess, shape = 0.1); on
    non-convergence a 3x3 grid of perturbed starts is tried and the best
    converged optimum kept.

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
    min_excesses : int, optional
        Guardrail below which standard-error asymptotics are meaningless.

    Raises
    ------
    InsufficientDataError
        Fewer than ``min_excesses`` values.
    ConvergenceError
        No start point converged; diagnostics attached.
    """
    y = _as_excess_array(excesses)
    if y.size < min_excesses:
        raise InsufficientDataError(
            f"need at least {min_excesses} excesses, got {y.size}")
    if np.any(~np.isfinite(y)) or np.any(y < 0.0):
        raise DomainError("excesses must be finite and >= 0")
    mean = float(y.mean())
    if mean <= 0.0:
        raise DomainError("excesses must contain positive values")
    if n_total is None:
        n_total = y.size

    restarts = 0
    if fixed_shape is not None:
        result = _minimize_nll_1d(y, math.log(mean), fixed_shape)
        if not result.success:
            raise ConvergenceError(
                "scale optimization did not converge",
                diagnostics=FitConvergence(False, result.nit, result.nfev,
                                           restarts, str(result.message)))
        scale_hat, shape_hat = math.exp(result.x[0]), fixed_shape
        cov, std = _covariance_fixed_shape(y, scale_hat, shape_hat)
    else:
        result = _minimize_nll_2d(y, np.array([math.log(mean), 0.1]))
        if not result.success:
            best = None
            for factor in _RETRY_SCALE_FACTORS:
                for shape0 in _RETRY_SHAPES:
                    restarts += 1
                    r = _minimize_nll_2d(y, np.array([math.log(mean * factor), shape0]))
                    if r.success and (best is None or r.fun < best.fun):
                        best = r
            if best is None:
                raise ConvergenceError(
                    "likelihood maximization did not converge from any start",
                    diagnostics=FitConvergence(False, result.nit, result.nfev,
                                               restarts, str(result.message)))
            result = best
        scale_hat, shape_hat = math.exp(result.x[0]), float(result.x[1])
        cov, std = _covariance_2d(y, scale_hat, shape_hat)

    convergence = FitConvergence(
        converged=bool(result.success),
        iterations=int(result.nit),
        function_evals=int(result.nfev),
        restarts=restarts,
        message=str(result.message),
    )
    return GpdFit(
        threshold=float(threshold),
        params=GpdParams(scale_hat, shape_hat),
        covariance=cov,
        std_errors=std,
        n_excesses=int(y.size),
        n_total=int(n_total),
        log_likelihood=-float(result.fun),
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


def fit_from_json_dict(doc: dict) -> GpdFit:
    conv = doc["convergence"]
    cov = doc["covariance"]
    return GpdFit(
        threshold=float(doc["threshold"]),
        params=GpdParams(float(doc["scale"]), float(doc["shape"])),
        covariance=None if cov is None else np.asarray(cov, dtype=float).reshape(2, 2),
        std_errors=None if doc["std_errors"] is None else tuple(doc["std_errors"]),
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
