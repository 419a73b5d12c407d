import dataclasses
import json
import math
import time
import warnings

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval
from scipy import stats
from scipy.optimize import minimize

import flarevt as fv
from flarevt import (ConvergenceError, DomainError, FitConvergence, GpdParams,
                     InsufficientDataError, ParseError, gpd)
from flarevt.gpd import (_P_COEF, _Q_COEF, _SERIES_TOL, MIN_EXCESSES, SHAPE_SWITCH_TOL,
                         _covariance, _loglik_derivatives, fit_from_json_dict,
                         fit_to_json_dict)

# frozen with 40-digit arithmetic from the closed forms
CDF_AT_REFERENCE_PARAMS = 0.997224165602     # y=41.5e-4, scale=2.98e-4, shape=0.26
QUANTILE_AT_0997223 = 0.004149421936
LOGLIK_ONE_TWO = -3.583518938                # {1, 2}, scale=1, shape=1
LOGLIK_EXP_TWO = -1.693147181                # {2}, scale=2, shape=0

REFERENCE = GpdParams(2.98e-4, 0.26)


class TestCdf:
    def test_zero_is_zero(self):
        for params in (REFERENCE, GpdParams(1.0, 0.0), GpdParams(2.0, -0.5)):
            assert fv.gpd_cdf(0.0, params) == 0.0

    def test_negative_is_zero(self):
        assert fv.gpd_cdf(-1.0, GpdParams(1.0, 0.3)) == 0.0

    def test_exponential_point(self):
        assert fv.gpd_cdf(1.0, GpdParams(1.0, 0.0)) == pytest.approx(0.6321206, abs=5e-8)

    def test_reference_point(self):
        assert fv.gpd_cdf(41.5e-4, REFERENCE) == pytest.approx(
            CDF_AT_REFERENCE_PARAMS, rel=1e-9)

    def test_beyond_finite_endpoint_is_one(self):
        params = GpdParams(1.0, -0.5)  # endpoint at 2
        assert fv.gpd_cdf(2.0, params) == 1.0
        assert fv.gpd_cdf(5.0, params) == 1.0

    def test_monotone_nondecreasing(self):
        for shape in (-0.4, -0.1, 0.0, 0.26, 1.0):
            params = GpdParams(1.3, shape)
            hi = params.upper_endpoint if shape < 0 else 50.0
            y = np.linspace(-1.0, hi * 1.2 if np.isfinite(hi) else 50.0, 400)
            h = fv.gpd_cdf(y, params)
            assert np.all(np.diff(h) >= 0.0)
            assert np.all((h >= 0.0) & (h <= 1.0))

    def test_shape_continuity_at_switch(self):
        y = np.linspace(0.0, 20.0, 200)
        base = fv.gpd_cdf(y, GpdParams(1.0, 0.0))
        for shape in (1e-8, -1e-8):
            near = fv.gpd_cdf(y, GpdParams(1.0, shape))
            assert np.max(np.abs(near - base)) < 1e-6

    def test_bad_scale_rejected(self):
        with pytest.raises(DomainError):
            GpdParams(0.0, 0.2)
        with pytest.raises(DomainError):
            GpdParams(-1.0, 0.2)


class TestQuantile:
    def test_zero(self):
        assert fv.gpd_quantile(0.0, REFERENCE) == 0.0

    def test_exponential_median(self):
        assert fv.gpd_quantile(0.5, GpdParams(1.0, 0.0)) == pytest.approx(
            0.6931472, abs=5e-8)

    def test_reference_inverse(self):
        assert fv.gpd_quantile(0.997223, REFERENCE) == pytest.approx(
            QUANTILE_AT_0997223, rel=1e-9)

    @pytest.mark.parametrize("p", [-0.1, 1.0, 1.5])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            fv.gpd_quantile(p, REFERENCE)

    @pytest.mark.parametrize("shape", [-0.4, -0.1, 0.0, 0.26, 1.0])
    def test_round_trip(self, shape):
        params = GpdParams(1.7, shape)
        p_grid = np.concatenate([np.array([1e-3, 1e-2]),
                                 np.linspace(0.05, 0.999, 60)])
        y = fv.gpd_quantile(p_grid, params)
        back = fv.gpd_quantile(fv.gpd_cdf(y, params), params)
        np.testing.assert_allclose(back[1:], y[1:], rtol=1e-10)
        assert back[0] == pytest.approx(y[0], rel=1e-10)


class TestLoglik:
    def test_unit_exponential(self):
        assert fv.gpd_loglik([1.0], GpdParams(1.0, 0.0)) == pytest.approx(-1.0)

    def test_exponential_scale_two(self):
        assert fv.gpd_loglik([2.0], GpdParams(2.0, 0.0)) == pytest.approx(
            LOGLIK_EXP_TWO, rel=1e-9)

    def test_two_points_unit_shape(self):
        assert fv.gpd_loglik([1.0, 2.0], GpdParams(1.0, 1.0)) == pytest.approx(
            LOGLIK_ONE_TWO, rel=1e-9)

    @pytest.mark.parametrize("shape", [-0.4, -0.1, 0.0, 1e-9, 0.26, 1.0])
    def test_matches_scipy_reference(self, shape):
        y = np.random.default_rng(42).uniform(0.0, 3.0, 5000)
        got = fv.gpd_loglik(y, GpdParams(1.3, shape))
        if abs(shape) < SHAPE_SWITCH_TOL:
            # inside the switch band the likelihood is the exponential limit
            expected = stats.expon.logpdf(y, scale=1.3).sum()
        else:
            expected = stats.genpareto.logpdf(y, shape, scale=1.3).sum()
        assert got == pytest.approx(expected, rel=1e-11)

    def test_support_violation_is_minus_inf(self):
        for excesses in ([3.0], [1.0, 9.0]):
            assert fv.gpd_loglik(excesses, GpdParams(1.0, -0.5)) == -np.inf

    @pytest.mark.parametrize("shape", [0.26, -0.3, 1e-7])
    def test_equals_the_derivative_routine_value(self, shape):
        y = fv.gpd_sample(GpdParams(1.0, shape), 171, seed=1)
        for scale in (1.0, 1.3):
            assert (fv.gpd_loglik(y, GpdParams(scale, shape))
                    == _loglik_derivatives(y, scale, shape)[0])

    def test_derivative_routine_outside_the_support(self):
        y = np.array([1.0, 9.0])
        assert _loglik_derivatives(y, 1.0, -0.5) == (-np.inf, None, None)
        assert fv.gpd_loglik(y, GpdParams(1.0, -0.5)) == -np.inf

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            fv.gpd_loglik([], REFERENCE)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            fv.gpd_loglik([-1.0], REFERENCE)


class TestSample:
    def test_count_zero(self):
        assert fv.gpd_sample(REFERENCE, 0, seed=1).size == 0

    def test_deterministic(self):
        a = fv.gpd_sample(REFERENCE, 1000, seed=9)
        b = fv.gpd_sample(REFERENCE, 1000, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_negative_count(self):
        with pytest.raises(DomainError):
            fv.gpd_sample(REFERENCE, -1, seed=1)

    def test_empirical_cdf_matches(self):
        params = GpdParams(1.0, 0.3)
        y = np.sort(fv.gpd_sample(params, 100_000, seed=13))
        n = y.size
        model = fv.gpd_cdf(y, params)
        d_plus = np.max(np.arange(1, n + 1) / n - model)
        d_minus = np.max(model - np.arange(0, n) / n)
        assert max(d_plus, d_minus) < 0.01


class TestFit:
    def test_recovers_known_parameters(self):
        for seed in (0, 1, 2, 3, 4):
            y = fv.gpd_sample(GpdParams(3e-4, 0.25), 10_000, seed=seed)
            fit = fv.fit_gpd(y)
            se = fit.std_errors
            assert abs(fit.scale - 3e-4) <= 3 * se[0]
            assert abs(fit.shape - 0.25) <= 3 * se[1]
            assert fit.convergence.converged

    def test_fit_is_fast(self):
        y = fv.gpd_sample(GpdParams(3e-4, 0.25), 10_000, seed=5)
        fv.fit_gpd(y)  # warm
        t0 = time.perf_counter()
        fv.fit_gpd(y)
        assert time.perf_counter() - t0 < 1.0

    def test_pinned_exponential_matches_mean(self):
        y = fv.gpd_sample(GpdParams(2.0, 0.0), 500, seed=21)
        fit = fv.fit_gpd(y, fixed_shape=0.0)
        assert fit.shape == 0.0
        assert fit.scale == pytest.approx(float(y.mean()), rel=1e-8)
        assert fit.std_errors[1] == 0.0

    def test_pinned_exponential_reports_one_state(self):
        # such a fit stops at its start point, the sample mean; its
        # log-likelihood is the reported scale's, bit for bit
        for i in range(400):
            rng = np.random.default_rng(i)
            y = rng.exponential(1.0, int(rng.integers(20, 500))) * 10.0 ** rng.uniform(-4.0, 1.0)
            fit = fv.fit_gpd(y, fixed_shape=0.0)
            assert fit.log_likelihood == fv.gpd_loglik(y, fit.params), i

    def test_scale_equivariance(self):
        y = fv.gpd_sample(GpdParams(1.0, 0.2), 2000, seed=8)
        base = fv.fit_gpd(y)
        scaled = fv.fit_gpd(1e-4 * y)
        assert scaled.scale == pytest.approx(1e-4 * base.scale, rel=1e-6)
        assert scaled.shape == pytest.approx(base.shape, abs=1e-6)

    def test_fitted_point_is_local_maximum(self):
        y = fv.gpd_sample(GpdParams(1.5, 0.15), 3000, seed=30)
        fit = fv.fit_gpd(y)
        best = fv.gpd_loglik(y, fit.params)
        rng = np.random.default_rng(31)
        for _ in range(100):
            params = GpdParams(fit.scale * (1.0 + rng.uniform(-0.05, 0.05)),
                               fit.shape + rng.uniform(-0.05, 0.05))
            assert fv.gpd_loglik(y, params) <= best + 1e-9

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fv.fit_gpd(np.ones(19))

    def test_all_zero_excesses_rejected(self):
        with pytest.raises(DomainError):
            fv.fit_gpd(np.zeros(50))

    def test_covariance_is_positive_definite(self):
        y = fv.gpd_sample(GpdParams(1.0, 0.1), 5000, seed=77)
        fit = fv.fit_gpd(y)
        cov = fit.covariance
        assert cov[0, 1] == cov[1, 0]
        eigvals = np.linalg.eigvalsh(cov)
        assert np.all(eigvals > 0.0)
        assert fit.std_errors[0] == pytest.approx(np.sqrt(cov[0, 0]))

    def test_indefinite_information_marks_covariance_unavailable(self):
        # away from the optimum the log-likelihood curves upward in the
        # scale direction, so the observed information is not positive
        # definite and no covariance should be reported
        y = fv.gpd_sample(GpdParams(1.0, 0.1), 500, seed=12)
        scale = 3.0 * float(y.mean())
        cov, std = _covariance(*_loglik_derivatives(y, scale, 0.1)[1:], scale, False)
        assert cov is None and std is None

    def test_counts_recorded(self):
        y = fv.gpd_sample(GpdParams(1.0, 0.1), 100, seed=2)
        fit = fv.fit_gpd(y, threshold=3.5e-4, n_total=10_000)
        assert fit.n_excesses == 100
        assert fit.n_total == 10_000
        assert fit.threshold == 3.5e-4
        assert fit.exceedance_rate == pytest.approx(0.01)
        with pytest.raises(DomainError):
            fv.fit_gpd(y, n_total=50)

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf, -1.0, -1e-300])
    def test_threshold_not_finite_or_negative_rejected(self, threshold):
        y = fv.gpd_sample(GpdParams(1.0, 0.1), 100, seed=2)
        with pytest.raises(DomainError, match="threshold must be finite and >= 0"):
            fv.fit_gpd(y, threshold=threshold, n_total=10_000)
        assert fv.fit_gpd(y, threshold=0.0).threshold == 0.0

    def test_negative_shape_sample_fits(self):
        y = fv.gpd_sample(GpdParams(1.0, -0.3), 5000, seed=44)
        fit = fv.fit_gpd(y)
        assert fit.shape == pytest.approx(-0.3, abs=0.05)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_supremum_on_support_edge_raises(self, seed):
        # uniform excesses: the likelihood grows without bound along the
        # support edge as the shape passes -1, so there is no regular MLE
        y = fv.gpd_sample(GpdParams(1.0, -1.0), 200, seed=seed)
        with pytest.raises(ConvergenceError) as caught:
            fv.fit_gpd(y)
        diagnostics = caught.value.diagnostics
        assert isinstance(diagnostics, FitConvergence)
        assert not diagnostics.converged
        assert diagnostics.function_evals >= diagnostics.iterations > 0
        assert diagnostics.iterations <= 30

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shape_minus_half_fits_with_covariance(self, seed):
        y = fv.gpd_sample(GpdParams(1.0, -0.5), 200, seed=seed)
        fit = fv.fit_gpd(y)
        assert fit.convergence.converged
        assert -1.0 < fit.shape < 0.0
        assert fit.covariance is not None
        assert all(np.isfinite(fit.std_errors)) and min(fit.std_errors) > 0.0

    @pytest.mark.parametrize("limit,value,reason", [
        ("_MAX_HALVINGS", 0, "no step raised the likelihood"),
        ("_MAX_ITER", 1, "no convergence in 1 iterations"),
    ])
    def test_exhausted_search_raises_with_its_reason(self, limit, value, reason, monkeypatch):
        monkeypatch.setattr(gpd, limit, value)
        y = fv.gpd_sample(GpdParams(1.0, 0.2), 200, seed=6)
        with pytest.raises(ConvergenceError, match="did not converge") as caught:
            fv.fit_gpd(y)
        diagnostics = caught.value.diagnostics
        assert not diagnostics.converged
        assert diagnostics.message.startswith(f"{reason}; last iterate scale=")
        assert diagnostics.iterations == 1

    def test_pinned_shape_at_or_below_minus_one_raises(self):
        y = fv.gpd_sample(GpdParams(1.0, -0.3), 200, seed=3)
        for shape in (-1.0, -1.5):
            with pytest.raises(ConvergenceError):
                fv.fit_gpd(y, fixed_shape=shape)

    def test_pinned_negative_shape_starts_inside_support(self):
        # the mean excess lies beyond the support edge -scale/shape = 0.5 * mean
        y = np.concatenate([np.full(50, 0.01), [2.0]])
        fit = fv.fit_gpd(y, fixed_shape=-0.9)
        assert fit.shape == -0.9
        assert fit.scale > 0.9 * y.max()
        assert fit.std_errors[1] == 0.0

    def test_covariance_is_copied_not_frozen_in_the_callers_array(self):
        c = np.eye(2)
        fit = fv.GpdFit(threshold=0.0, params=GpdParams(1.0, 0.1), covariance=c,
                        std_errors=(1.0, 1.0), n_excesses=20, n_total=100,
                        log_likelihood=-1.0,
                        convergence=FitConvergence(True, 1, 1, 0, "Newton decrement below tolerance"))
        assert c.flags.writeable and np.array_equal(c, np.eye(2))
        assert not fit.covariance.flags.writeable and np.array_equal(fit.covariance, c)
        c[0, 0] = 5.0
        assert fit.covariance[0, 0] == 1.0

    def test_callers_excesses_untouched_and_fit_as_a_contiguous_copy(self):
        # the fit's term buffer is its own: a read-only sample and a strided
        # view fit as their contiguous copies do, and are left as they were
        sample = fv.gpd_sample(GpdParams(1.0, 0.2), 400, seed=9)
        frozen = sample.copy()
        frozen.setflags(write=False)
        for y in (frozen, sample[::2]):
            before = y.copy()
            fit, want = fv.fit_gpd(y), fv.fit_gpd(np.array(y))
            assert np.array_equal(y, before)
            values = [fit.scale, fit.shape, fit.log_likelihood, *fit.covariance.ravel()]
            wanted = [want.scale, want.shape, want.log_likelihood, *want.covariance.ravel()]
            assert [float(v).hex() for v in values] == [float(v).hex() for v in wanted]
        assert not frozen.flags.writeable and sample[::2].base is sample

    @pytest.mark.parametrize("shape", [math.nan, math.inf, -math.inf])
    def test_non_finite_pinned_shape_rejected_before_any_likelihood(self, shape, monkeypatch):
        def no_likelihood(*args):
            raise AssertionError("likelihood evaluated")
        monkeypatch.setattr(gpd, "_loglik_derivatives", no_likelihood)
        y = fv.gpd_sample(GpdParams(1.0, 0.2), 200, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="fixed_shape must be finite"):
                fv.fit_gpd(y, fixed_shape=shape)


def _exponential_limit_information(y, scale):
    """Observed information over (scale, shape) of the shape -> 0 limit.

    From the expansion of the log-likelihood to second order in shape,
    with z = y / scale:
    -n log(scale) - sum z + shape sum(z**2/2 - z) + shape**2 sum(z**2/2 - z**3/3).
    """
    z = y / scale
    s1, s2, s3 = z.sum(), (z**2).sum(), (z**3).sum()
    return np.array([[(2.0 * s1 - y.size) / scale**2, (s2 - s1) / scale],
                     [(s2 - s1) / scale, 2.0 * s3 / 3.0 - s2]])


class TestShapeNearZero:
    SHAPES = (-1.05e-6, -5e-7, 0.0, 5e-7, 1.05e-6, 1e-5)

    def _standard_errors(self):
        y = np.random.default_rng(17).exponential(1.0, 500)
        scale = float(y.mean())
        return y, scale, [_covariance(*_loglik_derivatives(y, scale, shape)[1:], scale, False)[1]
                          for shape in self.SHAPES]

    def test_standard_errors_continuous_across_switch(self):
        _, _, ses = self._standard_errors()
        assert all(se is not None and np.all(np.isfinite(se)) for se in ses)
        for (a, se_a), (b, se_b) in zip(zip(self.SHAPES, ses),
                                        zip(self.SHAPES[1:], ses[1:])):
            # smooth in shape: relative change bounded by 10x the shape step
            rel = np.abs(np.subtract(se_b, se_a)) / np.asarray(se_a)
            assert np.all(rel <= 10.0 * (b - a)), (a, b, se_a, se_b)

    def test_standard_errors_match_exponential_limit(self):
        y, scale, ses = self._standard_errors()
        info = _exponential_limit_information(y, scale)
        expected = np.sqrt(np.diag(np.linalg.inv(info)))
        for shape, se in zip(self.SHAPES, ses):
            np.testing.assert_allclose(se, expected, rtol=1e-12 + 10.0 * abs(shape))

    @pytest.mark.parametrize("shape", [-0.12, -1e-7, 0.0, 4e-3, 0.35])
    def test_derivatives_match_finite_differences(self, shape):
        # shape 4e-3 takes the series branch (4e-3 * max(z) < 0.05), the
        # others the closed forms; |shape| < SHAPE_SWITCH_TOL is skipped
        # by central differences of the loglik, which is flat there
        y = np.random.default_rng(5).exponential(1.0, 400)
        scale = 1.1 * float(y.mean())
        ll, score, info = _loglik_derivatives(y, scale, shape)
        assert ll == fv.gpd_loglik(y, GpdParams(scale, shape))

        def loglik(t, x):
            return fv.gpd_loglik(y, GpdParams(math.exp(t), x))

        t, h = math.log(scale), 1e-4
        fd_t = (loglik(t + h, shape) - loglik(t - h, shape)) / (2 * h)
        fd_tt = (loglik(t + h, shape) - 2 * ll + loglik(t - h, shape)) / h**2
        np.testing.assert_allclose(score[0], fd_t, rtol=1e-5)
        np.testing.assert_allclose(info[0][0], -fd_tt, rtol=1e-5)
        if abs(shape) > 2 * h:
            fd_x = (loglik(t, shape + h) - loglik(t, shape - h)) / (2 * h)
            fd_xx = (loglik(t, shape + h) - 2 * ll + loglik(t, shape - h)) / h**2
            fd_tx = (loglik(t + h, shape + h) - loglik(t + h, shape - h)
                     - loglik(t - h, shape + h) + loglik(t - h, shape - h)) / (4 * h * h)
            np.testing.assert_allclose(score[1], fd_x, rtol=1e-5)
            np.testing.assert_allclose(info[1][1], -fd_xx, rtol=1e-5)
            np.testing.assert_allclose(info[0][1], -fd_tx, rtol=1e-5)
        assert info[0][1] == info[1][0]


def _derivatives_by_row_sums(y, scale, shape):
    """Score and information with each term summed by its own .sum(), the
    reference for the one row-wise reduction of _loglik_derivatives."""
    a = shape * y / scale
    z = y / scale
    u = 1.0 / (1.0 + a)
    zu = z * u
    s1, s2, s3 = float(zu.sum()), float((zu * u).sum()), float((zu * zu).sum())
    if abs(shape) * float(z.max()) < _SERIES_TOL:
        zz = z * z
        h = float((zz * polyval(a, _P_COEF)).sum())
        q = float((zz * z * polyval(a, _Q_COEF)).sum())
    else:
        au = a * u
        r = np.log1p(a) - au
        h = float(r.sum()) / shape**2
        q = float((2.0 * r - au * au).sum()) / shape**3
    w = 1.0 + shape
    return [w * s1 - y.size, h - s1], [[w * s2, w * s3 - s1], [w * s3 - s1, q - s3]]


@pytest.mark.parametrize("shape", [-0.3, 1e-7, 4e-3, 0.26, 0.8])
def test_derivatives_equal_per_term_sums(shape):
    # every sample size from MIN_EXCESSES to 400 and a few past numpy's
    # 8,192-element buffer, bit for bit
    rng = np.random.default_rng(31)
    for n in [*range(MIN_EXCESSES, 401), 8191, 8192, 8193, 20_000]:
        y = rng.exponential(1.0, n)
        scale = max(1.1 * float(y.mean()), -2.0 * shape * float(y.max()))  # in the support
        _, score, info = _loglik_derivatives(y, scale, shape)
        assert (score, info) == _derivatives_by_row_sums(y, scale, shape), n


def _loglik_by_sum(y, scale, shape):
    """The log-likelihood as its formula reads, one .sum() of log1p terms, or
    of y in the exponential limit inside SHAPE_SWITCH_TOL."""
    if abs(shape) < SHAPE_SWITCH_TOL:
        return -(y.size * np.log(scale) + float(y.sum()) / scale)
    return -(y.size * np.log(scale)
             + (1.0 + 1.0 / shape) * float(np.log1p(shape * y / scale).sum()))


@pytest.mark.parametrize("shape", [-0.3, -5e-7, 0.0, 1e-7, 4e-3, 0.26, 0.8])
def test_loglik_equals_its_formula(shape):
    # the sample sizes of test_derivatives_equal_per_term_sums, bit for bit;
    # a spike of 1e6 scales puts the exponential band on the closed-form branch
    rng = np.random.default_rng(37)
    for n in [*range(MIN_EXCESSES, 401), 8191, 8192, 8193, 20_000]:
        y = rng.exponential(1.0, n)
        scale = max(1.1 * float(y.mean()), -2.0 * shape * float(y.max()))  # in the support
        samples = [y]
        if abs(shape) < SHAPE_SWITCH_TOL:
            samples.append(np.append(y, 1e6 * scale))
        for sample in samples:
            ll, score, info = _loglik_derivatives(sample, scale, shape)
            assert ll == _loglik_by_sum(sample, scale, shape), n
            assert (score, info) == _derivatives_by_row_sums(
                sample, scale, shape), n


def _at_series_switch(shape, scale, ulps):
    """A sample whose largest |shape| * y / scale lies ``ulps`` ulps of y_max
    from _SERIES_TOL."""
    y_max = _SERIES_TOL * scale / abs(shape)
    for _ in range(abs(ulps)):
        y_max = math.nextafter(y_max, math.inf if ulps > 0 else 0.0)
    y = np.random.default_rng(3).uniform(0.0, y_max, 200)
    y[17] = y_max
    return y


@pytest.mark.parametrize("shape", [-0.011, 0.013, 0.3])
@pytest.mark.parametrize("scale", [1.0, 1.3, 2.9e-4])
def test_series_test_from_the_sample_maximum(shape, scale):
    # max(y) / scale is max(y / scale) bit for bit, so the branch and every
    # output are those of the per-element maximum, down to the ulp at the switch
    sides = set()
    for ulps in range(-3, 4):
        y = _at_series_switch(shape, scale, ulps)
        y_max = float(y.max())
        assert y_max / scale == float((y / scale).max())
        sides.add(abs(shape) * (y_max / scale) < _SERIES_TOL)
        ll, score, info = _loglik_derivatives(y, scale, shape, y_max)
        ll_0, score_0, info_0 = _loglik_derivatives(y, scale, shape)
        assert (ll, score, info) == (ll_0, score_0, info_0)
        assert (score, info) == _derivatives_by_row_sums(y, scale, shape)
    assert sides == {True, False}
    at_switch = _at_series_switch(shape, scale, 0)
    for y in (0.2 * at_switch, 5.0 * at_switch):  # well inside the series band, well past it
        got = _loglik_derivatives(y, scale, shape, float(y.max()))
        assert got == (
            _loglik_by_sum(y, scale, shape), *_derivatives_by_row_sums(y, scale, shape))


def test_decrement_dot_rounds_as_matmul():
    # _maximize's Newton decrement is score.dot(step), which must reach the
    # same BLAS ddot as score @ step
    rng = np.random.default_rng(47)
    for _ in range(10_000):
        score, step = rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-8.0, 8.0, (2, 2))
        assert score.dot(step) == score @ step


def test_maximum_of_quotients_is_quotient_of_maximum():
    rng = np.random.default_rng(41)
    for _ in range(2000):
        y = rng.exponential(10.0 ** rng.uniform(-6, 2), int(rng.integers(1, 300)))
        scale = 10.0 ** rng.uniform(-6, 2)
        assert float(y.max()) / scale == float((y / scale).max())


def _reference_nll(theta, y, shape=None):
    """Per-excess GPD negative log-likelihood at (log scale, shape)."""
    log_scale = theta[0]
    shape = theta[1] if shape is None else shape
    scale = math.exp(log_scale)
    if shape == 0.0:
        return log_scale + float(y.mean()) / scale
    z = shape * y / scale
    if z.min() <= -1.0:
        return 1e300
    return log_scale + (1.0 + 1.0 / shape) * float(np.log1p(z).mean())


def _reference_fit(y, shape=None):
    """Nelder-Mead from fit_gpd's start, restarted once from its optimum."""
    x = [math.log(y.mean()), 0.1] if shape is None else [math.log(y.mean())]
    for _ in range(2):
        x = minimize(_reference_nll, x, args=(y, shape), method="Nelder-Mead",
                     options={"xatol": 1e-10, "fatol": 1e-15}).x
    return math.exp(x[0]), float(x[1]) if shape is None else shape


class TestDifferentialFit:
    def test_matches_nelder_mead_reference(self):
        rng = np.random.default_rng(2024)
        mismatches = []
        for i in range(200):
            shape = rng.uniform(-0.4, 1.0)
            n = int(round(math.exp(rng.uniform(math.log(20), math.log(10_000)))))
            scale = 10.0 ** rng.uniform(-4.0, 1.0)
            y = fv.gpd_sample(GpdParams(scale, shape), n, seed=i)
            ref_scale, ref_shape = _reference_fit(y)
            try:
                fit = fv.fit_gpd(y)
            except ConvergenceError:
                # only where the reference, too, ran off to the support
                # edge, which has no regular maximum
                if ref_shape > -1.0:
                    mismatches.append((i, n, "ConvergenceError", ref_shape))
                continue
            ref_ll = fv.gpd_loglik(y, GpdParams(ref_scale, ref_shape))
            # the shape has an absolute floor: near 0 the log-likelihood's
            # rounding hides shape differences of ~1e-8 from any optimizer
            # that compares likelihood values
            if not (fit.log_likelihood >= ref_ll - 1e-9
                    and fit.scale == pytest.approx(ref_scale, rel=1e-6)
                    and fit.shape == pytest.approx(ref_shape, rel=1e-6, abs=1e-6)):
                mismatches.append((i, n, fit.scale, fit.shape, fit.log_likelihood,
                                   ref_scale, ref_shape, ref_ll))

            pinned = fv.fit_gpd(y, fixed_shape=0.0)
            if not (pinned.scale == pytest.approx(float(y.mean()), rel=1e-8)
                    and pinned.std_errors[1] == 0.0):
                mismatches.append((i, n, "fixed_shape=0", pinned.scale, y.mean()))
            if i % 10 == 0:
                pinned = fv.fit_gpd(y, fixed_shape=shape)
                ref_scale, _ = _reference_fit(y, shape)
                if pinned.scale != pytest.approx(ref_scale, rel=1e-6):
                    mismatches.append((i, n, "fixed_shape", pinned.scale, ref_scale))
        assert not mismatches


# float.hex of scale, shape, log-likelihood, the four covariance entries and
# the two standard errors, then (iterations, function_evals, restarts); the
# tolerance tests above cannot see a change in the last bit
BIT_EXACT_FITS = [
    pytest.param(lambda: fv.gpd_sample(GpdParams(1.0, 0.25), 200, seed=1), None,
                 ["0x1.04a5fe8538265p+0", "0x1.01581b0f2a836p-2", "-0x1.fbb91a512ce17p+7",
                  "0x1.882e06d48ed7fp-7", "-0x1.60e5580fe7f95p-8",
                  "-0x1.60e5580fe7f95p-8", "0x1.c1a5e86bfbe49p-8",
                  "0x1.c01a4c46270f8p-4", "0x1.53474c7c06227p-4"],
                 (6, 6, 0), id="free 0.25"),
    pytest.param(lambda: fv.gpd_sample(GpdParams(1.0, -0.3), 200, seed=2), None,
                 ["0x1.20f5c91083ff3p+0", "-0x1.b6d1f43afc4fep-2", "-0x1.1507c53b67174p+7",
                  "0x1.95bbd9653ad1dp-7", "-0x1.fb8a75d27ebe2p-8",
                  "-0x1.fb8a75d27ebe2p-8", "0x1.7166e7fc6911dp-8",
                  "0x1.c7c7c2edf24b4p-4", "0x1.33846f8517dd3p-4"],
                 (6, 7, 3), id="free -0.3"),
    # generated in the exponential band; the fit ends just outside it
    pytest.param(lambda: fv.gpd_sample(GpdParams(1.0, 1e-7), 200, seed=3), None,
                 ["0x1.f35154f06bc11p-1", "-0x1.22e526914bedap-7", "-0x1.826a8ce926ef3p+7",
                  "0x1.d742d9bc0e940p-8", "-0x1.4d023e871fc14p-9",
                  "-0x1.4d023e871fc14p-9", "0x1.4fb36034c1f76p-9",
                  "0x1.5b5638536d3c8p-4", "0x1.9e9526ce52345p-5"],
                 (6, 7, 1), id="free 1e-7"),
    # the fit ends where |shape| * max(y) / scale < 0.05, the series branch
    pytest.param(lambda: np.random.default_rng(26).exponential(1.0, 400), None,
                 ["0x1.0967768e7a5a1p+0", "0x1.15a925b8c3ab2p-9", "-0x1.9f472359360e4p+8",
                  "0x1.4cbfc6dd1ebb8p-8", "-0x1.2d7b001acf730p-9",
                  "-0x1.2d7b001acf730p-9", "0x1.237e5eeafcaf0p-9",
                  "0x1.23dcd34d17acbp-4", "0x1.825273291e3fep-5"],
                 (6, 7, 1), id="series"),
    pytest.param(lambda: fv.gpd_sample(GpdParams(1.0, 0.1), 200, seed=4), 0.0,
                 ["0x1.42099f759c66cp+0", "0x0.0p+0", "-0x1.ebcbdc7452728p+7",
                  "0x1.034540f60ebf4p-7", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
                  "0x1.6c580c88433c3p-4", "0x0.0p+0"],
                 (1, 1, 0), id="pinned 0.0"),
    pytest.param(lambda: fv.gpd_sample(GpdParams(1.0, -0.3), 200, seed=5), -0.5,
                 ["0x1.7bbd8285c8272p+0", "-0x1.0000000000000p-1", "-0x1.2bc7eae7e8792p+7",
                  "0x1.bbcbb71553f5ap-13", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
                  "0x1.dcadf98761ceap-7", "0x0.0p+0"],
                 (10, 21, 11), id="pinned -0.5"),
    # one Newton step on an indefinite information matrix (the eigh branch)
    pytest.param(lambda: fv.gpd_sample(GpdParams(1.0, -0.3), 200, seed=6), None,
                 ["0x1.261b5a3a121cbp+0", "-0x1.8748fcb968bfap-2", "-0x1.2ea9183d90138p+7",
                  "0x1.54f4b7b95ccd4p-7", "-0x1.68f35dec0073ep-8",
                  "-0x1.68f35dec0073ep-8", "0x1.d9a22eb53318fp-9",
                  "0x1.a1d0a8a226fd8p-4", "0x1.ec717986bc3e3p-5"],
                 (9, 13, 6), id="indefinite step"),
    # a positive pinned shape
    pytest.param(lambda: fv.gpd_sample(GpdParams(1.0, 0.25), 200, seed=6), 0.25,
                 ["0x1.1e403567062a5p+0", "0x1.0000000000000p-2", "-0x1.0f7e829a1748cp+8",
                  "0x1.337b688137496p-7", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
                  "0x1.8cc688bd9dcf1p-4", "0x0.0p+0"],
                 (5, 5, 0), id="pinned 0.25"),
]


class TestBitExactFits:
    @pytest.mark.parametrize("sample,fixed_shape,want_hex,want_counts", BIT_EXACT_FITS)
    def test_fit_bits_pinned(self, sample, fixed_shape, want_hex, want_counts):
        fit = fv.fit_gpd(sample(), fixed_shape=fixed_shape)
        values = [fit.scale, fit.shape, fit.log_likelihood, *np.ravel(fit.covariance),
                  *fit.std_errors]
        conv = fit.convergence
        assert [float(v).hex() for v in values] == want_hex
        assert (conv.iterations, conv.function_evals, conv.restarts) == want_counts


class TestMeanExcess:
    def test_linear_in_threshold_offset(self):
        params = GpdParams(2.0, 0.25)
        assert fv.gpd_mean_excess(params) == pytest.approx(2.0 / 0.75)
        assert fv.gpd_mean_excess(params, 3.0) == pytest.approx(
            (2.0 + 0.25 * 3.0) / 0.75)

    def test_undefined_for_heavy_shape(self):
        with pytest.raises(DomainError):
            fv.gpd_mean_excess(GpdParams(1.0, 1.0))


class TestSerialization:
    def test_fit_json_round_trip(self):
        y = fv.gpd_sample(GpdParams(1.0, 0.2), 200, seed=6)
        fit = fv.fit_gpd(y, threshold=0.5, n_total=1000)
        doc = fit_to_json_dict(fit)
        assert len(doc["covariance"]) == 4
        back = fit_from_json_dict(doc)
        assert back.params == fit.params
        assert back.n_excesses == fit.n_excesses
        np.testing.assert_array_equal(back.covariance, fit.covariance)
        assert back.convergence == fit.convergence

    def test_fit_without_covariance_reads_back_equal(self):
        y = fv.gpd_sample(GpdParams(1.0, 0.2), 200, seed=6)
        fit = dataclasses.replace(fv.fit_gpd(y, threshold=0.5, n_total=1000),
                                  covariance=None, std_errors=None)
        doc = json.loads(json.dumps(fit_to_json_dict(fit)))
        assert doc["covariance"] is None and doc["std_errors"] is None
        back = fit_from_json_dict(doc)
        assert back.covariance is None and back.std_errors is None
        assert fit_to_json_dict(back) == doc

    @pytest.mark.parametrize("key,value,message", [
        ("n_total", True, "fit.n_total must be of type int, got True"),
        ("covariance", [1.0, 0.0, 0.0, [1.0]], r"fit.covariance\[3\] must be of type float"),
        ("std_errors", [1.0], r"fit.std_errors must be a list of length 2, got \[1.0\]"),
        ("convergence", {"converged": 1}, "fit.convergence.converged must be of type bool"),
        ("convergence", {"iterations": 3.5}, "fit.convergence.iterations must be of type int"),
        ("convergence", {"message": None}, "fit.convergence.message must be of type str"),
    ])
    def test_ill_typed_value_names_its_key(self, key, value, message):
        doc = fit_to_json_dict(fv.fit_gpd(fv.gpd_sample(GpdParams(1.0, 0.2), 200, seed=6)))
        if key == "convergence":
            value = {**doc["convergence"], **value}
        with pytest.raises(ParseError, match=message):
            fit_from_json_dict({**doc, key: value})

    def test_integral_float_count_reads_as_int(self):
        doc = fit_to_json_dict(fv.fit_gpd(fv.gpd_sample(GpdParams(1.0, 0.2), 200, seed=6)))
        back = fit_from_json_dict({**doc, "n_total": 200.0})
        assert type(back.n_total) is int and back.n_total == 200
