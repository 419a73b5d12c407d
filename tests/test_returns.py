import numpy as np
import pytest

import flarevt as fv
from flarevt import (CiUnavailableError, DomainError, GpdParams,
                     InfiniteReturnError, ObservationCalendar,
                     SubThresholdReturnWarning)
from flarevt.pipeline import PipelineConfig, return_period_grid

# Frozen against 40-digit evaluation of the closed forms with the
# reference analysis numbers: threshold 3.5e-4, scale 2.98e-4,
# shape 0.26, 171 exceedances in 15,768,000 minute observations.
LEVEL_150YR = 0.00583446564501
LEVEL_100YR = 0.00517104319201
LEVEL_10YR = 0.00248306482868
PERIOD_X45 = 63.202112
PERIOD_X200 = 12173.99846
MEAN_INTEREXCEEDANCE_YEARS = 0.1754385965
# delta-method interval at m=100 with diagonal covariance diag(0.02e-4^2,
# 0.09^2) and binomial rate variance
CI_SE_100YR = 0.00174342957365
CI_SYM_100YR = (0.00175398401808, 0.00858810236594)
CI_ASYM_100YR = (0.00272313127721, 0.0101440041002)


def reference_fit(covariance=None):
    std = None
    if covariance is not None:
        covariance = np.asarray(covariance, dtype=float)
        std = (float(np.sqrt(covariance[0, 0])), float(np.sqrt(covariance[1, 1])))
    return fv.GpdFit(threshold=3.5e-4, params=GpdParams(2.98e-4, 0.26),
                     covariance=covariance, std_errors=std,
                     n_excesses=171, n_total=15_768_000, log_likelihood=0.0,
                     convergence=fv.FitConvergence(True, 0, 0, 0, "frozen"))


PAPER_COV = np.diag([(0.02e-4) ** 2, 0.09 ** 2])


class TestReturnLevel:
    def test_threshold_identity(self):
        fit = reference_fit()
        m_star = fit.n_total / (525_600.0 * fit.n_excesses)
        assert m_star == pytest.approx(MEAN_INTEREXCEEDANCE_YEARS, rel=1e-9)
        level = fv.return_level(fit, m_star)
        assert level == pytest.approx(fit.threshold, rel=1e-12)

    @pytest.mark.parametrize("m,expected", [
        (150.0, LEVEL_150YR), (100.0, LEVEL_100YR), (10.0, LEVEL_10YR)])
    def test_reference_levels(self, m, expected):
        assert fv.return_level(reference_fit(), m) == pytest.approx(expected, rel=1e-9)

    def test_sub_threshold_flagged(self):
        fit = reference_fit()
        with pytest.warns(SubThresholdReturnWarning):
            level = fv.return_level(fit, 0.01)
        assert level < fit.threshold

    def test_domain(self):
        with pytest.raises(DomainError):
            fv.return_level(reference_fit(), 0.0)

    def test_strictly_increasing(self):
        fit = reference_fit()
        grid = np.geomspace(1.0, 1e5, 200)
        levels = [fv.return_level(fit, m) for m in grid]
        assert np.all(np.diff(levels) > 0.0)

    def test_exponential_limit_consistency(self):
        base = fv.GpdFit(threshold=1e-4, params=GpdParams(3e-4, 0.0),
                         covariance=None, std_errors=None,
                         n_excesses=171, n_total=15_768_000, log_likelihood=0.0,
                         convergence=fv.FitConvergence(True, 0, 0, 0, "frozen"))
        near = fv.GpdFit(threshold=1e-4, params=GpdParams(3e-4, 1e-8),
                         covariance=None, std_errors=None,
                         n_excesses=171, n_total=15_768_000, log_likelihood=0.0,
                         convergence=fv.FitConvergence(True, 0, 0, 0, "frozen"))
        for m in (1.0, 10.0, 100.0):
            a = fv.return_level(base, m)
            b = fv.return_level(near, m)
            assert b == pytest.approx(a, rel=1e-8)


class TestReturnPeriod:
    def test_reference_periods(self):
        fit = reference_fit()
        assert fv.return_period(fit, 45e-4) == pytest.approx(PERIOD_X45, rel=1e-7)
        assert fv.return_period(fit, 200e-4) == pytest.approx(PERIOD_X200, rel=1e-7)

    def test_at_threshold_rejected(self):
        fit = reference_fit()
        with pytest.raises(DomainError):
            fv.return_period(fit, fit.threshold)
        # just above the threshold the period approaches the
        # mean inter-exceedance time
        period = fv.return_period(fit, fit.threshold * (1.0 + 1e-12))
        assert period == pytest.approx(MEAN_INTEREXCEEDANCE_YEARS, rel=1e-6)

    def test_beyond_finite_endpoint(self):
        fit = fv.GpdFit(threshold=1.0, params=GpdParams(1.0, -0.5),
                        covariance=None, std_errors=None,
                        n_excesses=100, n_total=10_000, log_likelihood=0.0,
                        convergence=fv.FitConvergence(True, 0, 0, 0, "frozen"))
        assert np.isfinite(fv.return_period(fit, 2.9))  # endpoint at 3
        with pytest.raises(InfiniteReturnError):
            fv.return_period(fit, 3.0)

    @pytest.mark.parametrize("shape", [-0.2, 0.0, 0.26])
    @pytest.mark.parametrize("m", [1.0, 10.0, 100.0, 1e4])
    def test_round_trip(self, shape, m):
        fit = fv.GpdFit(threshold=3.5e-4, params=GpdParams(2.98e-4, shape),
                        covariance=None, std_errors=None,
                        n_excesses=171, n_total=15_768_000, log_likelihood=0.0,
                        convergence=fv.FitConvergence(True, 0, 0, 0, "frozen"))
        level = fv.return_level(fit, m)
        assert fv.return_period(fit, level) == pytest.approx(m, rel=1e-8)

    def test_strictly_increasing_in_level(self):
        fit = reference_fit()
        levels = np.linspace(4e-4, 100e-4, 200)
        periods = [fv.return_period(fit, lv) for lv in levels]
        assert np.all(np.diff(periods) > 0.0)


class TestReturnLevelCi:
    def test_zero_covariance_zero_width(self):
        fit = reference_fit(covariance=np.zeros((2, 2)))
        ci = fv.return_level_ci(fit, 100.0, zeta_variance=0.0)
        assert ci.std_error == 0.0
        assert ci.low == ci.high == ci.level
        assert ci.asym_low == ci.asym_high == ci.level

    def test_reference_interval_regression(self):
        ci = fv.return_level_ci(reference_fit(PAPER_COV), 100.0)
        assert ci.level == pytest.approx(LEVEL_100YR, rel=1e-9)
        assert ci.std_error == pytest.approx(CI_SE_100YR, rel=1e-9)
        assert ci.low == pytest.approx(CI_SYM_100YR[0], rel=1e-9)
        assert ci.high == pytest.approx(CI_SYM_100YR[1], rel=1e-9)
        assert ci.asym_low == pytest.approx(CI_ASYM_100YR[0], rel=1e-9)
        assert ci.asym_high == pytest.approx(CI_ASYM_100YR[1], rel=1e-9)
        assert ci.low < ci.level < ci.high
        assert ci.asym_low < ci.level < ci.asym_high

    def test_missing_covariance(self):
        with pytest.raises(CiUnavailableError):
            fv.return_level_ci(reference_fit(), 100.0)

    def test_asymmetric_interval_is_right_skewed(self):
        ci = fv.return_level_ci(reference_fit(PAPER_COV), 100.0)
        assert ci.asym_high - ci.level > ci.level - ci.asym_low


class TestReturnCurve:
    def test_single_point_matches_scalar_ops(self):
        fit = reference_fit(PAPER_COV)
        curve = fv.return_curve(fit, [100.0])
        ci = fv.return_level_ci(fit, 100.0)
        assert curve.level[0] == ci.level
        assert curve.ci_low[0] == ci.low
        assert curve.ci_high[0] == ci.high
        assert curve.asym_low[0] == ci.asym_low
        assert curve.asym_high[0] == ci.asym_high

    def test_levels_strictly_increasing_default_grid(self):
        fit = reference_fit(PAPER_COV)
        curve = fv.return_curve(fit, return_period_grid(fit, PipelineConfig()))
        assert np.all(np.diff(curve.level) > 0.0)
        assert np.all(curve.ci_low <= curve.level)
        assert np.all(curve.level <= curve.ci_high)

    def test_width_non_decreasing(self):
        fit = reference_fit(PAPER_COV)
        curve = fv.return_curve(fit, return_period_grid(fit, PipelineConfig()))
        assert np.all(np.diff(curve.ci_high - curve.ci_low) >= -1e-15)
        assert np.all(np.diff(curve.asym_high - curve.asym_low) >= -1e-15)

    def test_grid_validation(self):
        fit = reference_fit(PAPER_COV)
        with pytest.raises(DomainError):
            fv.return_curve(fit, [])
        with pytest.raises(DomainError):
            fv.return_curve(fit, [10.0, 5.0])
        with pytest.raises(DomainError):
            fv.return_curve(fit, [0.01, 1.0])  # starts below the exceedance time

    def test_csv_columns(self):
        curve = fv.return_curve(reference_fit(PAPER_COV), [10.0, 100.0])
        lines = curve.to_csv_text().splitlines()
        assert lines[0] == "m_years,level,ci_low,ci_high"
        assert len(lines) == 3


class TestReturnPeriodBand:
    def test_point_estimate_matches_inverse(self):
        m_hat, m_lo, m_hi = fv.return_period_band(reference_fit(PAPER_COV), 45e-4)
        assert m_hat == pytest.approx(PERIOD_X45, rel=1e-7)
        assert m_lo < m_hat
        assert m_hi > m_hat

    def test_band_endpoints_invert_the_level_band(self):
        fit = reference_fit(PAPER_COV)
        _, m_lo, m_hi = fv.return_period_band(fit, 45e-4)
        at_lo = fv.return_level_ci(fit, m_lo)
        assert at_lo.high == pytest.approx(45e-4, rel=1e-6)
        if np.isfinite(m_hi):
            at_hi = fv.return_level_ci(fit, m_hi)
            assert at_hi.low == pytest.approx(45e-4, rel=1e-6)

    def test_band_clamps_to_the_shortest_and_an_unbounded_period(self):
        # just above the threshold the upper band already exceeds the level at
        # the shortest period, and the lower band stays below it up to _M_MAX (1e7 years)
        m_hat, m_lo, m_hi = fv.return_period_band(reference_fit(PAPER_COV), 3.6e-4)
        assert m_lo == pytest.approx(1.0001 * MEAN_INTEREXCEEDANCE_YEARS, rel=1e-9)
        assert m_lo < m_hat
        assert m_hi == np.inf

    def test_band_upper_endpoint_finite_for_a_tight_fit(self):
        fit = reference_fit(PAPER_COV / 100.0)
        m_hat, m_lo, m_hi = fv.return_period_band(fit, 45e-4)
        assert m_lo < m_hat < m_hi < np.inf
        assert fv.return_level_ci(fit, m_hi).low == pytest.approx(45e-4, rel=1e-6)


class TestCalendar:
    def test_default_minutes(self):
        assert ObservationCalendar().obs_per_year == 525_600.0

    def test_validation(self):
        with pytest.raises(DomainError):
            ObservationCalendar(0.0)

    def test_alternate_cadence_shifts_periods(self):
        fit = reference_fit()
        hourly = ObservationCalendar(8760.0)
        assert (fv.return_period(fit, 45e-4, hourly)
                == pytest.approx(PERIOD_X45 * 60.0, rel=1e-7))
