import dataclasses
import hashlib
import math
import re
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import norm

import flarevt as fv
from flarevt import returns
from flarevt import (CiUnavailableError, ConvergenceError, DomainError, GpdParams,
                     InfiniteReturnError, ObservationCalendar,
                     SubThresholdReturnWarning)
from flarevt._table import read_table
from flarevt.gpd import SHAPE_SWITCH_TOL
from flarevt.pipeline import PipelineConfig, return_period_grid
from flarevt.returns import normal_quantile

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


def reference_fit(covariance=None, shape=0.26):
    std = None
    if covariance is not None:
        covariance = np.asarray(covariance, dtype=float)
        std = (float(np.sqrt(covariance[0, 0])), float(np.sqrt(covariance[1, 1])))
    return fv.GpdFit(threshold=3.5e-4, params=GpdParams(2.98e-4, shape),
                     covariance=covariance, std_errors=std,
                     n_excesses=171, n_total=15_768_000, log_likelihood=0.0,
                     convergence=fv.FitConvergence(True, 0, 0, 0, "frozen"))


PAPER_COV = np.diag([(0.02e-4) ** 2, 0.09 ** 2])

# float.hex pins, recorded from the implementation they guard, so that a
# change in the last bit fails.  Per fit: (level, std_error, low, high,
# asym_low, asym_high) of return_level_ci at 10, 150 and 1e4 years; the
# return_period_band triple at X45 and X200 (None: InfiniteReturnError, the
# level lies past the fitted endpoint); and the sha256 of the float.hex of
# the five curve columns on the pipeline's default return-period grid.
BIT_FITS = {"paper": (PAPER_COV, 0.26), "tight": (PAPER_COV / 100.0, 0.26),
            "exponential": (PAPER_COV, 1e-7), "bounded": (PAPER_COV, -0.2)}
BIT_PINS = {
    "paper": (
        {
            10.0: ('0x1.4575d4774df9cp-9', '0x1.e20f43edba3d6p-12', '0x1.9eb73604fcf58p-10',
                   '0x1.bb900dec1d78cp-9', '0x1.ca435ffe487a7p-10', '0x1.d86c921f60ecbp-9'),
            150.0: ('0x1.7e5e17228b352p-8', '0x1.17cc0f66163a7p-9', '0x1.b0af866e922e8p-10',
                    '0x1.48482654b8ef5p-7', '0x1.7d19b3ed05612p-9', '0x1.8cd9e629f2899p-7'),
            1e4: ('0x1.36b0f9aa9990ep-6', '0x1.ab3821bf86d3ep-7', '-0x1.afe74c3f7e49cp-8',
                  '0x1.6cade332895a2p-5', '0x1.4c03d427d6759p-8', '0x1.2e5332da7b690p-4'),
        },
        {
            45e-4: ('0x1.f99dece58678cp+5', '0x1.3a4ab87758c1dp+4', 'inf'),
            200e-4: ('0x1.7c6ffcd7768bcp+13', '0x1.f0aa4e9e46c27p+9', 'inf'),
        },
        "9dbbae08e7dc77ed247635c69c5ea02d46f688bde5ee5ba4c94d74bf7d22a910"),
    "tight": (
        {
            10.0: ('0x1.4575d4774df9cp-9', '0x1.4d7de9f08d5dbp-14', '0x1.3108c61871197p-9',
                   '0x1.59e2e2d62ada1p-9', '0x1.31c337ff67b6ep-9', '0x1.5aa6a30a2f5cap-9'),
            150.0: ('0x1.7e5e17228b352p-8', '0x1.06b86086fcf0cp-12', '0x1.5e2f55e81a5f6p-8',
                    '0x1.9e8cd85cfc0aep-8', '0x1.5f9568f680047p-8', '0x1.a008f1fdb3ee4p-8'),
            1e4: ('0x1.36b0f9aa9990ep-6', '0x1.64ce6946a43b8p-10', '0x1.0afbbc493270ap-6',
                  '0x1.6266370c00b12p-6', '0x1.0df89c4ee390bp-6', '0x1.65afc91b54ad0p-6'),
        },
        {
            45e-4: ('0x1.f99dece58678cp+5', '0x1.91f2a0d0ac611p+5', '0x1.49fbc8223c0ffp+6'),
            200e-4: ('0x1.7c6ffcd7768bcp+13', '0x1.da798c3c1a315p+12', '0x1.60537c74dfaafp+14'),
        },
        "95d9482139ae655f2e1ab6deecfaa001874895e1e89e60c4ae7d5e18d11a42dd"),
    "exponential": (
        {
            10.0: ('0x1.9796d398a7c02p-10', '0x1.ce7dc88656178p-13', '0x1.2647e7149ff18p-10',
                   '0x1.0472e00e57c76p-9', '0x1.3860e1f98e9d6p-10', '0x1.0ff199a866b84p-9'),
            150.0: ('0x1.3591ce146aa5fp-9', '0x1.40bde089e18bep-11', '0x1.30d168b76b11ep-10',
                    '0x1.d2bae7cd1fc2fp-9', '0x1.7e595405de790p-10', '0x1.0637f6922cee8p-8'),
            1e4: ('0x1.d99b9545f76c1p-9', '0x1.a5a4946914355p-10', '0x1.e33e11e0f5930p-12',
                  '0x1.bb67b427e812ep-8', '0x1.a1552dda5c9b7p-10', '0x1.246f4f25dbccfp-7'),
        },
        {
            45e-4: ('0x1.7ec029b1f64b3p+17', '0x1.255e9996a7f1fp+9', 'inf'),
            200e-4: ('0x1.8960770ed142fp+92', '0x1.8302467eea808p+29', 'inf'),
        },
        "f67ec807902855885ab30d93a87b5947225f9f4b34d6d52a1ebdf8c037ee0ccf"),
    "bounded": (
        {
            10.0: ('0x1.34581b8c1d23ep-10', '0x1.124bf10d59d75p-13', '0x1.e2491379adcfap-11',
                   '0x1.778bad5b635ffp-10', '0x1.f52300d6c18a2p-11', '0x1.8323557459b2ep-10'),
            150.0: ('0x1.7d1c038125253p-10', '0x1.12fbb8de1b468p-12', '0x1.ecbd7cc2f0c3ep-11',
                    '0x1.01eca45068f44p-9', '0x1.1163a8f8f66f7p-10', '0x1.145b332fcb3f4p-9'),
            1e4: ('0x1.b6a34fe338b44p-10', '0x1.c43212f5eb996p-12', '0x1.b221e04b62635p-11',
                  '0x1.4a1ad7d0601b7p-9', '0x1.12e4498952238p-10', '0x1.7665033d55a40p-9'),
        },
        {
            45e-4: None,
            200e-4: None,
        },
        "cdce743d368e2c64c5d1ed7a13cb83b54165313874f159d5baa5ff7cde1c5832"),
}


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

    @pytest.mark.parametrize("level", [math.inf, -math.inf, math.nan])
    def test_non_finite_level_rejected(self, level):
        for shape in (0.26, -0.2):  # past the bounded fit's endpoint too
            with pytest.raises(DomainError, match=f"level must be finite, got {level}"):
                fv.return_period(reference_fit(shape=shape), level)
        with pytest.raises(DomainError, match=f"level must be finite, got {level}"):
            fv.return_period_band(reference_fit(PAPER_COV), level)

    @pytest.mark.parametrize("shape, level, cal", [
        (0.26, 1e300, ObservationCalendar()),     # exp of the log period overflows
        (1e-7, 1.0, ObservationCalendar()),       # the exponential limit's does
        # a finite exp(695), divided by 1e-14 exceedances a year
        (1e-7, 3.5e-4 + 695.0 * 2.98e-4, ObservationCalendar(1e-9)),
    ])
    def test_period_beyond_the_largest_double_rejected(self, shape, level, cal):
        message = re.escape(f"level {level} has a return period beyond the largest double")
        with pytest.raises(DomainError, match=message):
            fv.return_period(reference_fit(shape=shape), level, cal)
        with pytest.raises(DomainError, match=message):
            fv.return_period_band(reference_fit(PAPER_COV, shape), level, cal)


class TestReturnLevelCi:
    def test_zero_fit_covariance_leaves_the_rate_term(self):
        fit = reference_fit(covariance=np.zeros((2, 2)))
        ci = fv.return_level_ci(fit, 100.0)
        zeta = fit.exceedance_rate
        g_zeta = fit.scale * (100.0 * 525_600.0 * zeta) ** fit.shape / zeta
        assert ci.std_error == pytest.approx(
            g_zeta * math.sqrt(zeta * (1.0 - zeta) / fit.n_total), rel=1e-12)

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

    def test_no_warning_below_the_mean_interexceedance_time(self):
        fit = reference_fit(PAPER_COV)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ci = fv.return_level_ci(fit, 0.01)
        assert ci.level < fit.threshold

    def test_error_order(self):
        # missing covariance, then ci_level, then the exceedance rate, then m
        with pytest.raises(CiUnavailableError):
            fv.return_level_ci(reference_fit(), 0.0, ci_level=2.0)
        with pytest.raises(DomainError, match="ci_level"):
            fv.return_level_ci(reference_fit(PAPER_COV), 0.0, ci_level=2.0)
        every_minute = dataclasses.replace(reference_fit(PAPER_COV), n_total=171)
        with pytest.raises(DomainError, match="exceedance rate"):
            fv.return_level_ci(every_minute, 0.0)
        with pytest.raises(DomainError, match="m must be > 0"):
            fv.return_level_ci(reference_fit(PAPER_COV), 0.0)


def test_normal_quantile_is_the_scipy_stats_quantile():
    # ndtri is what norm.ppf evaluates: equal by float.hex over a seeded sweep,
    # both tails, the level whose 0.5 + c / 2 rounds to 1 and subnormal levels
    rng = np.random.default_rng(53)
    levels = [0.95, 0.5, 0.68, 0.9, 0.99, 1.0 - 2.0**-53, 2.0**-60, 1e-300, 5e-324,
              *rng.random(2000).tolist(),
              *(1.0 - 10.0 ** -rng.uniform(0.01, 16.0, 500)).tolist(),
              *(10.0 ** -rng.uniform(0.0, 320.0, 500)).tolist()]
    for c in levels:
        assert normal_quantile(c).hex() == float(norm.ppf(0.5 + c / 2.0)).hex(), c


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
        # the CSV is the curve's one artifact: every column, the asymmetric
        # interval included, reads back bit for bit under the six-name header
        fit = reference_fit(PAPER_COV)
        curve = fv.return_curve(fit, return_period_grid(fit, PipelineConfig()))
        header = "m_years,level,ci_low,ci_high,asym_ci_low,asym_ci_high"
        table = read_table(curve.to_csv_text(), header,
                           dict.fromkeys(header.split(","), np.float64))
        assert not table.empty.any()
        for got, want in zip(table.columns, (curve.m, curve.level, curve.ci_low,
                                             curve.ci_high, curve.asym_low, curve.asym_high),
                             strict=True):
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]


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


@pytest.mark.parametrize("name", list(BIT_FITS))
class TestBitExact:
    def test_intervals(self, name):
        fit = reference_fit(*BIT_FITS[name])
        for m, pins in BIT_PINS[name][0].items():
            ci = fv.return_level_ci(fit, m)
            got = tuple(float(v).hex() for v in (ci.level, ci.std_error, ci.low, ci.high,
                                                 ci.asym_low, ci.asym_high))
            assert got == pins, m

    def test_bands(self, name):
        fit = reference_fit(*BIT_FITS[name])
        for level, pins in BIT_PINS[name][1].items():
            if pins is None:
                with pytest.raises(InfiniteReturnError):
                    fv.return_period_band(fit, level)
            else:
                assert tuple(float(v).hex() for v in fv.return_period_band(fit, level)) == pins

    def test_curve(self, name):
        fit = reference_fit(*BIT_FITS[name])
        curve = fv.return_curve(fit, return_period_grid(fit, PipelineConfig()))
        columns = np.concatenate([curve.level, curve.ci_low, curve.ci_high,
                                  curve.asym_low, curve.asym_high])
        text = ",".join(float(v).hex() for v in columns)
        assert hashlib.sha256(text.encode()).hexdigest() == BIT_PINS[name][2]


# Criterion 09's Monte Carlo path end to end, as the mc_fit_study benchmark
# runs it: 200 seeded replicates of ~Binomial(15,768,000, 171/15,768,000)
# excesses from GPD(2.98e-4, 0.26) over 3.5e-4, each through fit_gpd, the
# 150-year return_level_ci and the X45 return_period_band (every replicate
# at this seed has a covariance and a band).  The sha256 is over the
# float.hex of every output and the fit's convergence counts.
MONTE_CARLO_SHA256 = "dec9ca6adf5d79f4e4600f51fd67175678fe32ce25359e967d7e33c709667cda"


def _monte_carlo_path_text(replicates=200, seed=9):
    rng = np.random.default_rng(seed)
    params = GpdParams(2.98e-4, 0.26)
    n_total = 15_768_000
    cal = ObservationCalendar(525_600.0)
    lines = []
    for _ in range(replicates):
        y = fv.gpd_quantile(rng.random(int(rng.binomial(n_total, 171 / n_total))), params)
        fit = fv.fit_gpd(y, threshold=3.5e-4, n_total=n_total)
        ci = fv.return_level_ci(fit, 150.0, cal)
        band = fv.return_period_band(fit, 45e-4, cal)
        c = fit.convergence
        values = [fit.scale, fit.shape, fit.log_likelihood, *np.ravel(fit.covariance),
                  *fit.std_errors, ci.level, ci.std_error, ci.low, ci.high, ci.asym_low,
                  ci.asym_high, *band]
        lines.append(" ".join([float(v).hex() for v in values]
                              + [str(c.iterations), str(c.function_evals), str(c.restarts)]))
    return "\n".join(lines)


def test_monte_carlo_path_bits_pinned():
    text = _monte_carlo_path_text()
    assert hashlib.sha256(text.encode()).hexdigest() == MONTE_CARLO_SHA256


# The delta layer's branches: a negative shape, the exponential limit inside
# SHAPE_SWITCH_TOL, shapes in (1e-6, 1e-3) where dx_m/dshape comes from its
# power series, one whose |shape * log r| crosses the series' switch at 0.5
# between 10 and 1e4 years, and a positive shape; a correlated covariance
# adds the cross term of g' V g
DELTA_SHAPES = [-0.2, 1e-7, 1e-5, 3.3e-4, 0.06, 0.26]
DELTA_PERIODS = [0.5, 10.0, 150.0, 1e4, 1e7]
CORRELATED_COV = np.array([[(0.3e-4) ** 2, -0.5 * 0.3e-4 * 0.09],
                           [-0.5 * 0.3e-4 * 0.09, 0.09 ** 2]])


def _decimal_std_error(fit, m, cal=ObservationCalendar()):
    """sqrt(g' V g) at 40 digits from the exact values of the fit's floats."""
    with localcontext() as ctx:
        ctx.prec = 40
        zeta, scale, shape = (Decimal(v) for v in (fit.exceedance_rate, fit.scale, fit.shape))
        log_r = (Decimal(m) * Decimal(cal.obs_per_year) * zeta).ln()
        if abs(fit.shape) < SHAPE_SWITCH_TOL:
            g = (scale / zeta, log_r, scale * log_r * log_r / 2)
        else:
            rx = (shape * log_r).exp()
            g = (scale * rx / zeta, (rx - 1) / shape,
                 scale * (-(rx - 1) / shape ** 2 + rx * log_r / shape))
        v = [[Decimal(x) for x in row] for row in fit.covariance.tolist()]
        var = (zeta * (1 - zeta) / fit.n_total * g[0] ** 2
               + sum(v[i][j] * g[i + 1] * g[j + 1] for i in range(2) for j in range(2)))
        return float(var.sqrt())


def _brentq_band(fit, level, cal=ObservationCalendar()):
    """The period band's ends by scipy's brentq on the same gap and brackets."""
    fixed, cov, z = returns._delta_inputs(fit, cal, 0.95)

    def gap(log_m, side):
        at, se = returns._delta(10.0 ** log_m, fixed, cov)
        return at + side * z * se - level

    m_hat = fv.return_period(fit, level, cal)
    m_min = 1.0001 / (cal.obs_per_year * fit.exceedance_rate)
    lo, mid, hi = (math.log10(m) for m in (m_min, max(m_hat, m_min * 1.01), 1e7))
    m_lo = (m_min if gap(lo, 1.0) >= 0.0
            else 10.0 ** brentq(gap, lo, mid, args=(1.0,), xtol=1e-12))
    m_hi = (math.inf if gap(hi, -1.0) < 0.0
            else 10.0 ** brentq(gap, mid, hi, args=(-1.0,), xtol=1e-12))
    return m_hat, m_lo, m_hi


class TestDeltaLayer:
    @pytest.mark.parametrize("cov", [PAPER_COV, CORRELATED_COV], ids=["diagonal", "correlated"])
    @pytest.mark.parametrize("shape", DELTA_SHAPES)
    def test_std_error_matches_a_40_digit_reference(self, shape, cov):
        fit = reference_fit(cov, shape)
        for m in DELTA_PERIODS:
            got, want = fv.return_level_ci(fit, m).std_error, _decimal_std_error(fit, m)
            assert abs(got / want - 1.0) <= 1e-14, (m, got, want)

    @pytest.mark.parametrize("cov", [PAPER_COV, CORRELATED_COV], ids=["diagonal", "correlated"])
    @pytest.mark.parametrize("shape", DELTA_SHAPES)
    def test_slopes_match_a_central_difference(self, shape, cov):
        # r * d/dr is d/dlog(m): difference the level and standard error over
        # log m +- 1e-5
        fixed, v, _ = returns._delta_inputs(reference_fit(cov, shape), ObservationCalendar(), 0.95)
        h = 1e-5
        for m in DELTA_PERIODS:
            _, _, level_slope, se_slope = returns._delta(m, fixed, v, slope=True)
            up = returns._delta(m * math.exp(h), fixed, v)
            down = returns._delta(m * math.exp(-h), fixed, v)
            for got, plus, minus in ((level_slope, up[0], down[0]), (se_slope, up[1], down[1])):
                want = (plus - minus) / (2.0 * h)
                assert abs(got / want - 1.0) <= 1e-6, (m, got, want)

    # the tight fit's bands end at finite upper roots, which mc_fit_study never reaches
    @pytest.mark.parametrize("cov, shape, level", [
        (PAPER_COV, 0.26, 45e-4), (PAPER_COV, 0.26, 200e-4), (PAPER_COV, 0.26, 3.6e-4),
        (PAPER_COV / 100.0, 0.26, 45e-4), (PAPER_COV / 100.0, 0.26, 200e-4),
        (CORRELATED_COV, 0.26, 45e-4), (PAPER_COV, 0.06, 45e-4), (PAPER_COV, 3.3e-4, 45e-4),
        (PAPER_COV, 1e-5, 45e-4), (PAPER_COV, 1e-7, 45e-4), (PAPER_COV, -0.2, 1.5e-3),
        (PAPER_COV / 100.0, -0.2, 1.5e-3)])
    def test_band_ends_match_brentq(self, cov, shape, level):
        fit = reference_fit(cov, shape)
        got, want = fv.return_period_band(fit, level), _brentq_band(fit, level)
        assert got[0] == want[0]
        for g, w in zip(got[1:], want[1:]):
            assert g == w == math.inf or abs(g / w - 1.0) <= 1e-10, (got, want)

    def test_nan_band_raises_convergence_error(self):
        fit = reference_fit(np.full((2, 2), math.nan))
        with pytest.raises(ConvergenceError, match="no sign change"):
            fv.return_period_band(fit, 45e-4)

    def test_newton_gives_up_at_its_cap(self):
        # finite values of opposite sign at the ends, NaN between them
        calls = []

        def fn(x):
            calls.append(x)
            return (1.0, 1.0) if x == 1.0 else (math.nan, math.nan)

        with pytest.raises(ConvergenceError, match="evaluations"):
            returns._bracketed_newton(fn, 0.0, 1.0, -1.0, 1e-12)
        assert len(calls) == returns._NEWTON_MAX_EVALS

    def test_newton_finds_a_root_from_either_end(self):
        def fn(x):
            return x ** 3 - 2.0, 3.0 * x * x

        for a, b in ((0.0, 2.0), (2.0, 0.0)):
            root = returns._bracketed_newton(fn, a, b, fn(a)[0], 1e-12)
            assert abs(root - 2.0 ** (1.0 / 3.0)) <= 1e-15


class TestNonFinitePeriod:
    @pytest.mark.parametrize("m", [math.inf, math.nan])
    def test_return_level_refuses(self, m):
        with pytest.raises(DomainError, match="m must be > 0 years and finite"):
            fv.return_level(reference_fit(), m)

    @pytest.mark.parametrize("m", [math.inf, math.nan])
    def test_interval_refuses_without_a_warning(self, m):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="m must be > 0 years and finite"):
                fv.return_level_ci(reference_fit(PAPER_COV), m)

    def test_curve_refuses_an_infinite_grid_point(self):
        with pytest.raises(DomainError, match="m must be > 0 years and finite"):
            fv.return_curve(reference_fit(PAPER_COV), [10.0, 100.0, math.inf])

    @pytest.mark.parametrize("key", ["return_table_years", "scenario_years",
                                     "scenario_levels"])
    def test_config_refuses_an_infinite_value(self, key):
        with pytest.raises(DomainError, match=f"every value of {key} must be > 0 and finite"):
            PipelineConfig(**{key: (1.0, math.inf)})

    def test_config_refuses_an_infinite_grid_end(self):
        with pytest.raises(DomainError, match="0 < lo < hi < inf"):
            PipelineConfig(m_grid_hi=math.inf)


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
