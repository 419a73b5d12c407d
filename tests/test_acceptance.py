"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criterion 10 needs the multi-decade GOES archive and is skipped unless
FLAREVT_GOES_ARCHIVE points at a directory of flux CSV files.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

import flarevt as fv
from flarevt import GpdParams, ObservationCalendar
from flarevt.pipeline import PipelineConfig, run_pipeline

from helpers import assert_catalog_matches_oracle, random_gappy_series

THRESHOLD = 3.5e-4
REFERENCE_PARAMS = GpdParams(2.98e-4, 0.26)
N_EXCESSES = 171
N_TOTAL = 15_768_000
CAL = ObservationCalendar(525_600.0)


def reference_fit(covariance=None):
    std = None
    if covariance is not None:
        std = (float(np.sqrt(covariance[0, 0])), float(np.sqrt(covariance[1, 1])))
    return fv.GpdFit(threshold=THRESHOLD, params=REFERENCE_PARAMS,
                     covariance=covariance, std_errors=std,
                     n_excesses=N_EXCESSES, n_total=N_TOTAL,
                     log_likelihood=0.0,
                     convergence=fv.FitConvergence(True, 0, 0, 0, "frozen"))


def report(num, ok, detail):
    marker = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:02d}] {marker}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def best_time(fn, repeats=5):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def test_criterion_01_150yr_return_level():
    fit = reference_fit()
    level = fv.return_level(fit, 150.0, CAL)
    elapsed = best_time(lambda: fv.return_level(fit, 150.0, CAL))
    ok = 55e-4 <= level <= 62e-4 and elapsed < 1e-3
    report(1, ok, f"return_level(150 yr) = {level:.6g} W/m^2 "
                  f"(X{level / 1e-4:.1f}), window [55e-4, 62e-4], "
                  f"runtime {elapsed * 1e6:.1f} us")


def test_criterion_02_x45_return_period():
    fit = reference_fit()
    period = fv.return_period(fit, 45e-4, CAL)
    elapsed = best_time(lambda: fv.return_period(fit, 45e-4, CAL))
    ok = 40.0 <= period <= 130.0 and elapsed < 1e-3
    report(2, ok, f"return_period(X45) = {period:.1f} yr, window [40, 130], "
                  f"runtime {elapsed * 1e6:.1f} us")


def test_criterion_03_x200_return_period():
    fit = reference_fit()
    period = fv.return_period(fit, 200e-4, CAL)
    elapsed = best_time(lambda: fv.return_period(fit, 200e-4, CAL))
    ok = 8_000.0 <= period <= 25_000.0 and elapsed < 1e-3
    report(3, ok, f"return_period(X200) = {period:.0f} yr, "
                  f"window [8000, 25000], runtime {elapsed * 1e6:.1f} us")


def test_criterion_04_threshold_identity():
    fit = reference_fit()
    m_star = fit.n_total / (CAL.obs_per_year * fit.n_excesses)
    level = fv.return_level(fit, m_star, CAL)
    rel = abs(level - fit.threshold) / fit.threshold
    ok = rel < 1e-12
    report(4, ok, f"return_level at m = n/(d*n_c) = {m_star:.6f} yr differs "
                  f"from the threshold by {rel:.2e} relative (< 1e-12)")


def test_criterion_05_fit_recovery():
    true = GpdParams(3e-4, 0.25)
    hits = 0
    worst = 0.0
    for seed in range(50):
        y = fv.gpd_sample(true, 10_000, seed=1000 + seed)
        t0 = time.perf_counter()
        fit = fv.fit_gpd(y)
        worst = max(worst, time.perf_counter() - t0)
        se = fit.std_errors
        if (abs(fit.scale - true.scale) <= 3 * se[0]
                and abs(fit.shape - true.shape) <= 3 * se[1]):
            hits += 1
    ok = hits >= 47 and worst < 1.0
    report(5, ok, f"{hits}/50 fits within 3 standard errors on both "
                  f"parameters (need >= 47), slowest fit {worst * 1e3:.0f} ms "
                  f"(< 1 s)")


def test_criterion_06_decluster_oracle():
    rng = np.random.default_rng(20240820)
    t0 = time.perf_counter()
    for _ in range(1000):
        series = random_gappy_series(rng, max_len=200)
        threshold = float(rng.uniform(0.5, 9.5))
        gap = int(rng.integers(1, 8))
        catalog = fv.decluster(series, threshold, gap)
        assert_catalog_matches_oracle(catalog, series, threshold, gap)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    report(6, ok, f"1000 randomized series match the brute-force scan oracle "
                  f"in count, peaks, and times ({elapsed:.2f} s < 5 s)")


def test_criterion_07_round_trips_and_limits():
    t0 = time.perf_counter()
    # distribution round trip at 1e-10 relative
    for shape in (-0.4, -0.1, 0.0, 0.26, 1.0):
        params = GpdParams(1.7, shape)
        p = np.linspace(1e-3, 0.999, 50)
        y = fv.gpd_quantile(p, params)
        np.testing.assert_allclose(fv.gpd_quantile(fv.gpd_cdf(y, params), params),
                                   y, rtol=1e-10)
    # shape -> 0 continuity at 1e-6
    y = np.linspace(0.0, 20.0, 200)
    base = fv.gpd_cdf(y, GpdParams(1.0, 0.0))
    for shape in (1e-8, -1e-8):
        assert np.max(np.abs(fv.gpd_cdf(y, GpdParams(1.0, shape)) - base)) < 1e-6
    # return level/period round trip at 1e-8 relative
    for shape in (-0.2, 0.0, 0.26):
        fit = fv.GpdFit(threshold=THRESHOLD, params=GpdParams(2.98e-4, shape),
                        covariance=None, std_errors=None,
                        n_excesses=N_EXCESSES, n_total=N_TOTAL,
                        log_likelihood=0.0,
                        convergence=fv.FitConvergence(True, 0, 0, 0, "frozen"))
        for m in (1.0, 10.0, 100.0, 1e4):
            level = fv.return_level(fit, m, CAL)
            assert fv.return_period(fit, level, CAL) == pytest.approx(m, rel=1e-8)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 1.0
    report(7, ok, f"cdf/quantile round trip (1e-10), shape->0 continuity "
                  f"(1e-6), and level/period round trip (1e-8) all hold "
                  f"({elapsed:.2f} s < 1 s)")


def test_criterion_08_probability_plot_soundness():
    t0 = time.perf_counter()
    deviations = []
    for seed in range(25):
        y = fv.gpd_sample(GpdParams(3e-4, 0.26), 500, seed=7000 + seed)
        fit = fv.fit_gpd(y)
        plot = fv.probability_plot(fit, y)
        deviations.append(plot.max_abs_deviation_from_diagonal)
    median = float(np.median(deviations))
    elapsed = time.perf_counter() - t0
    ok = median < 0.05 and elapsed < 5.0
    report(8, ok, f"median max diagonal deviation over 25 seeds = "
                  f"{median:.4f} (< 0.05), {elapsed:.2f} s < 5 s")


def test_criterion_09_ci_coverage():
    # 500 synthetic 30-year exceedance records at the reference rate;
    # the preferred asymmetric delta interval must cover the true
    # 100-year level in at least 88% of runs (the plain symmetric delta
    # interval is known to undershoot here and is reported alongside)
    n_total = 30 * 525_600
    zeta = N_EXCESSES / N_TOTAL
    truth_fit = fv.GpdFit(threshold=THRESHOLD, params=REFERENCE_PARAMS,
                          covariance=None, std_errors=None,
                          n_excesses=N_EXCESSES, n_total=N_TOTAL,
                          log_likelihood=0.0,
                          convergence=fv.FitConvergence(True, 0, 0, 0, "frozen"))
    truth = fv.return_level(truth_fit, 100.0, CAL)

    rng = np.random.default_rng(20240601)
    covered_asym = covered_sym = usable = 0
    t0 = time.perf_counter()
    for _ in range(500):
        n_exc = int(rng.binomial(n_total, zeta))
        y = fv.gpd_quantile(rng.random(n_exc), REFERENCE_PARAMS)
        fit = fv.fit_gpd(y, threshold=THRESHOLD, n_total=n_total)
        if fit.covariance is None:
            continue
        usable += 1
        ci = fv.return_level_ci(fit, 100.0, CAL)
        if ci.asym_low <= truth <= ci.asym_high:
            covered_asym += 1
        if ci.low <= truth <= ci.high:
            covered_sym += 1
    elapsed = time.perf_counter() - t0
    coverage_asym = covered_asym / 500
    coverage_sym = covered_sym / 500
    ok = coverage_asym >= 0.88 and elapsed < 120.0
    report(9, ok, f"asymmetric delta interval covers the true 100-year level "
                  f"in {coverage_asym:.1%} of 500 runs (need >= 88%; "
                  f"symmetric variant: {coverage_sym:.1%}, usable fits "
                  f"{usable}), {elapsed:.1f} s < 120 s")


@pytest.mark.skipif("FLAREVT_GOES_ARCHIVE" not in os.environ,
                    reason="set FLAREVT_GOES_ARCHIVE to a directory of GOES "
                           "flux CSVs to run the full-archive reproduction")
def test_criterion_10_full_archive_reproduction(tmp_path):
    archive = Path(os.environ["FLAREVT_GOES_ARCHIVE"])
    inputs = sorted(archive.glob("*.csv"))
    assert inputs, f"no CSV files under {archive}"
    config = PipelineConfig()  # reference defaults, 2003-10-28 retained
    report_doc = run_pipeline(config, inputs, out_dir=tmp_path / "archive",
                              fixed_clock=True)

    fit = report_doc["fit"]
    n_exc = fit["n_excesses"]
    scale, shape = fit["scale"], fit["shape"]
    sweep = report_doc["gap_sweep"]
    raw_series = fv.read_flux_csv(tmp_path / "archive" / "series.csv")
    flux = raw_series.flux
    raw_r1 = fv.lag1_autocorrelation(flux[~np.isnan(flux)])
    declustered_r1 = sweep.get("lag1_at_configured_gap")

    ok = (abs(n_exc - 171) <= 0.1 * 171
          and abs(scale - 2.98e-4) <= 0.1 * 2.98e-4
          and abs(shape - 0.26) <= 0.1 * 0.26
          and abs(raw_r1 - 0.98) <= 0.1
          and declustered_r1 is not None
          and abs(declustered_r1 - 0.23) <= 0.1)
    report(10, ok, f"archive reproduction: n_excesses={n_exc} (171 +- 10%), "
                   f"scale={scale:.3g} (2.98e-4 +- 10%), shape={shape:.3g} "
                   f"(0.26 +- 10%), raw r1={raw_r1:.3f} (0.98 +- 0.1), "
                   f"declustered r1={declustered_r1} (0.23 +- 0.1)")
