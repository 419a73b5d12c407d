import time

import numpy as np
import pytest
from scipy import stats

import flarevt as fv
from flarevt import DomainError, GpdParams, InsufficientDataError
from flarevt.gpd import SHAPE_SWITCH_TOL, fit_from_json_dict, fit_to_json_dict

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
        from flarevt.gpd import _covariance_2d
        y = fv.gpd_sample(GpdParams(1.0, 0.1), 500, seed=12)
        cov, std = _covariance_2d(y, 3.0 * float(y.mean()), 0.1)
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

    def test_negative_shape_sample_fits(self):
        y = fv.gpd_sample(GpdParams(1.0, -0.3), 5000, seed=44)
        fit = fv.fit_gpd(y)
        assert fit.shape == pytest.approx(-0.3, abs=0.05)


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
