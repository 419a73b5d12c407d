import dataclasses
import json
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flarevt as fv
from flarevt import (DomainError, InsufficientDataError, ZeroVarianceError)
from flarevt.decluster import DEFAULT_THRESHOLD, MAX_SWEEP_GAPS, catalog_from_files, checked_gaps

from helpers import assert_catalog_matches_oracle, make_series, random_gappy_series


class TestDecluster:
    def test_two_clusters(self):
        series = make_series([0.5, 1.2, 1.5, 0.8, 0.9, 0.7, 2.0, 0.5])
        catalog = fv.decluster(series, threshold=1.0, gap_minutes=2)
        assert catalog.peak_fluxes.tolist() == [1.5, 2.0]
        assert catalog.cluster_sample_counts.tolist() == [2, 1]

    def test_single_quiet_minute_does_not_close(self):
        series = make_series([1.2, 0.8, 1.3])
        catalog = fv.decluster(series, threshold=1.0, gap_minutes=2)
        assert catalog.peak_fluxes.tolist() == [1.3]
        assert catalog.cluster_starts[0] == series.timestamps[0]
        assert catalog.cluster_ends[0] == series.timestamps[2]

    def test_no_exceedances(self):
        series = make_series([0.1, 0.2, 0.3])
        assert len(fv.decluster(series, 1.0, 2)) == 0

    def test_empty_series(self):
        series = fv.FluxSeries(np.empty(0, dtype="datetime64[m]"), np.empty(0))
        catalog = fv.decluster(series, 1.0, 15)
        assert len(catalog) == 0
        assert catalog.span_years == 0.0

    def test_bad_arguments(self):
        series = make_series([1.0])
        with pytest.raises(DomainError):
            fv.decluster(series, 1.0, 0)
        with pytest.raises(DomainError):
            fv.decluster(series, 0.0, 15)

    def test_missing_minutes_count_as_quiet(self):
        # exceedances 3 grid-minutes apart with the middle minutes absent
        series = make_series([2.0, 2.0], offsets=[0, 3])
        assert len(fv.decluster(series, 1.0, 2)) == 2
        assert len(fv.decluster(series, 1.0, 3)) == 1

    def test_nan_minutes_count_as_quiet(self):
        series = make_series([2.0, np.nan, np.nan, 2.0])
        assert len(fv.decluster(series, 1.0, 2)) == 2
        assert len(fv.decluster(series, 1.0, 5)) == 1

    def test_trailing_open_cluster_is_counted(self):
        series = make_series([0.1, 2.0])
        catalog = fv.decluster(series, 1.0, 15)
        assert len(catalog) == 1
        assert catalog.peak_times[0] == series.timestamps[1]

    def test_peak_tie_keeps_first(self):
        series = make_series([2.0, 2.0, 1.5])
        catalog = fv.decluster(series, 1.0, 2)
        assert catalog.peak_times[0] == series.timestamps[0]

    def test_metadata_carried(self):
        series = make_series([2.0, 0.1, 0.1])
        catalog = fv.decluster(series, 1.0, 2)
        assert catalog.n_total_observations == 3
        assert catalog.gap_minutes == 2
        assert catalog.decluster_threshold == 1.0
        assert "quiet" in catalog.missing_minutes_policy

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_oracle(self, data):
        n = data.draw(st.integers(1, 60))
        gaps = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        raw = data.draw(st.lists(
            st.one_of(st.none(), st.floats(0.0, 10.0, allow_nan=False)),
            min_size=n, max_size=n))
        flux = np.array([np.nan if v is None else v for v in raw])
        series = make_series(flux, offsets=np.cumsum(gaps))
        threshold = data.draw(st.floats(0.5, 9.5))
        gap = data.draw(st.integers(1, 6))
        catalog = fv.decluster(series, threshold, gap)
        assert_catalog_matches_oracle(catalog, series, threshold, gap)

    def test_event_count_monotone_in_gap(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            series = random_gappy_series(rng, max_len=150)
            counts = [len(fv.decluster(series, 4.0, g)) for g in (1, 2, 4, 8, 16)]
            assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_every_exceedance_inside_exactly_one_cluster(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            series = random_gappy_series(rng)
            threshold = 4.0
            catalog = fv.decluster(series, threshold, 3)
            with np.errstate(invalid="ignore"):
                exc_times = series.timestamps[series.flux >= threshold]
            for t in exc_times:
                containing = (catalog.cluster_starts <= t) & (t <= catalog.cluster_ends)
                assert np.count_nonzero(containing) == 1

    def test_catalog_round_trip_through_files(self):
        series = make_series([0.5, 1.2, 1.5, 0.8, 0.9, 0.7, 2.0, 0.5])
        catalogs = [fv.decluster(series, 1.0, 2), fv.decluster(series, 5.0, 2)]
        assert len(catalogs[1]) == 0
        assert catalogs[1].to_csv_text().count("\n") == 1  # header only
        for catalog in catalogs:
            reloaded = catalog_from_files(catalog.to_csv_text(),
                                          json.loads(json.dumps(catalog.to_json_dict())))
            assert reloaded == catalog
        assert catalogs[0] != catalogs[1]

    def test_catalog_columns_are_frozen_and_stored(self):
        series = fv.synth_clustered_series(3e-4, 0.25, 50.0, 10.0, 0.5, seed=3)
        catalog = fv.decluster(series, 1e-4, 15)
        assert len(catalog) > 0
        columns = (catalog.peak_times, catalog.peak_fluxes, catalog.cluster_starts,
                   catalog.cluster_ends, catalog.cluster_sample_counts)
        for column in columns:
            assert column.shape == (len(catalog),)
            assert not column.flags.writeable
        assert catalog.peak_fluxes is catalog.peak_fluxes
        assert catalog.peak_times is catalog.peak_times
        assert [column.dtype for column in columns] == [
            np.dtype("datetime64[m]"), np.float64, np.dtype("datetime64[m]"),
            np.dtype("datetime64[m]"), np.int64]


class TestLag1:
    def test_hand_values(self):
        assert fv.lag1_autocorrelation([1, 2, 3, 4, 5]) == pytest.approx(0.4)
        assert fv.lag1_autocorrelation([1, -1, 1, -1]) == pytest.approx(-0.75)

    def test_constant_series(self):
        with pytest.raises(ZeroVarianceError):
            fv.lag1_autocorrelation([2, 2, 2])

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            fv.lag1_autocorrelation([1, 2])

    def test_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.standard_normal(rng.integers(3, 50))
            assert -1.0 <= fv.lag1_autocorrelation(x) <= 1.0

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        values=st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=40),
        a=st.floats(0.5, 2.0),
        b=st.floats(-2.0, 2.0),
    )
    def test_affine_invariance(self, values, a, b):
        # well-scaled inputs: a huge offset b would drown the deviations
        # in rounding noise long before the 1e-12 tolerance
        x = np.asarray(values)
        if np.ptp(x) < 1.0:
            return
        r1 = fv.lag1_autocorrelation(x)
        r2 = fv.lag1_autocorrelation(a * x + b)
        assert r2 == pytest.approx(r1, abs=1e-12)


class TestGapSweep:
    def test_isolated_exceedances_single_gap(self):
        # isolated spikes: declustering is a no-op at gap 1
        flux = [0.1, 5.0, 0.1, 0.1, 7.0, 0.1, 0.1, 6.0, 0.1]
        series = make_series(flux)
        curve = fv.gap_sweep(series, 1.0, [1])
        assert curve.event_counts[0] == 3
        expected = fv.lag1_autocorrelation([5.0, 7.0, 6.0])
        assert curve.lag1[0] == pytest.approx(expected)

    def test_synthetic_sweep_decorrelates(self):
        series = fv.synth_clustered_series(3e-4, 0.25, 50.0, 10.0, 2.0, seed=7)
        curve = fv.gap_sweep(series, 1e-4, [1, 15])
        assert curve.lag1[1] < curve.lag1[0]
        assert curve.event_counts[1] <= curve.event_counts[0]

    def test_too_few_events_marked_unavailable(self):
        series = make_series([0.1, 5.0, 0.1])
        curve = fv.gap_sweep(series, 1.0, [1, 2])
        assert np.isnan(curve.lag1).all()
        assert list(curve.event_counts) == [1, 1]

    def test_gap_validation(self):
        series = make_series([0.1, 5.0, 0.1])
        with pytest.raises(DomainError):
            fv.gap_sweep(series, 1.0, [])
        with pytest.raises(DomainError):
            fv.gap_sweep(series, 1.0, [0, 1])
        with pytest.raises(DomainError):
            fv.gap_sweep(series, 1.0, [3, 2])
        for gaps in ([2**63], [1, 10**20], [-10**20, 1], range(1, 10**20)):
            with pytest.raises(DomainError, match=r"^every gap must be >= 1 and < 2\*\*63$"):
                fv.gap_sweep(series, 1.0, gaps)

    def test_sweep_length_is_bounded_without_listing_a_range(self):
        assert checked_gaps(range(1, MAX_SWEEP_GAPS + 1)).size == MAX_SWEEP_GAPS == 7 * 1440
        message = rf"^at most {MAX_SWEEP_GAPS} gaps can be swept, got {MAX_SWEEP_GAPS + 1}$"
        with pytest.raises(DomainError, match=message):
            checked_gaps(list(range(2, MAX_SWEEP_GAPS + 3)))
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=message):
                checked_gaps(range(5, MAX_SWEEP_GAPS + 6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20_000  # a list of its 10,081 ints would take ~80 KB

    @pytest.mark.parametrize("gaps", [[], [0, 1], [3, 2], [2, 2]])
    def test_curve_follows_the_sweep_gap_rule(self, gaps):
        with pytest.raises(DomainError):
            fv.GapSweepCurve(gaps, np.full(len(gaps), np.nan), np.zeros(len(gaps)))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_decluster_at_every_gap(self, data):
        n = data.draw(st.integers(1, 80))
        offsets = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        raw = data.draw(st.lists(
            st.one_of(st.none(), st.floats(0.0, 10.0, allow_nan=False)),
            min_size=n, max_size=n))
        flux = np.array([np.nan if v is None else v for v in raw])
        series = make_series(flux, offsets=np.cumsum(offsets))
        threshold = data.draw(st.floats(0.5, 9.5))
        gaps = sorted(data.draw(st.sets(st.integers(1, 8), min_size=1, max_size=6)))
        curve = fv.gap_sweep(series, threshold, gaps)
        for i, gap in enumerate(gaps):
            catalog = fv.decluster(series, threshold, gap)
            assert curve.event_counts[i] == len(catalog)
            try:
                expected = fv.lag1_autocorrelation(catalog.peak_fluxes)
            except (InsufficientDataError, ZeroVarianceError):
                expected = np.nan
            # bit for bit, NaN where the statistic is unavailable
            assert np.array_equal(curve.lag1[i], expected, equal_nan=True)

    def test_csv_has_empty_field_for_unavailable(self):
        series = make_series([0.1, 5.0, 0.1])
        text = fv.gap_sweep(series, 1.0, [1]).to_csv_text()
        assert text.splitlines()[1] == "1,,1"


class TestExceedanceMemo:
    """decluster, gap_sweep and filter_saturation share a series' last exceedance scan."""

    @staticmethod
    def _series():
        return fv.synth_clustered_series(3e-4, 0.25, 200.0, 8.0, 0.2, seed=11)

    @pytest.fixture
    def scans(self, monkeypatch):
        """The thresholds the exceedance scan runs at, in order."""
        calls, scan = [], fv.ingest._exceedances

        def counted(flux, threshold):
            calls.append(threshold)
            return scan(flux, threshold)

        monkeypatch.setattr(fv.ingest, "_exceedances", counted)
        return calls

    def test_decluster_and_sweep_scan_once(self, scans):
        series = self._series()
        fv.decluster(series, 1e-4, 15)
        fv.gap_sweep(series, 1e-4, range(1, 31))
        fv.decluster(series, 1e-4, 30)
        assert scans == [1e-4]
        config = fv.IngestConfig(saturation_level=5e-4, retained_saturation_events=())
        fv.filter_saturation(series, config)
        fv.filter_saturation(series, config)
        assert scans == [1e-4, 5e-4]

    def test_another_threshold_replaces_the_entry(self, scans):
        series = self._series()
        for threshold in (1e-4, 2e-4, 1e-4):
            (catalog, curve), (want_catalog, want_curve) = (
                (fv.decluster(s, threshold, 15), fv.gap_sweep(s, threshold, [1, 15, 30]))
                for s in (series, self._series()))
            assert catalog == want_catalog
            for name in ("gaps", "lag1", "event_counts"):
                np.testing.assert_array_equal(getattr(curve, name), getattr(want_curve, name))
            assert vars(series)["_exceedance_memo"][0] == threshold
        assert scans == [1e-4, 1e-4, 2e-4, 2e-4, 1e-4, 1e-4]  # each on its series

    def test_memo_is_read_only_and_no_field(self):
        series = self._series()
        fv.decluster(series)
        threshold, index = vars(series)["_exceedance_memo"]
        assert threshold == DEFAULT_THRESHOLD and not index.flags.writeable
        np.testing.assert_array_equal(index, np.flatnonzero(series.flux >= threshold))
        with pytest.raises(ValueError):
            index[0] = 0
        assert [f.name for f in dataclasses.fields(series)] == ["timestamps", "flux"]
        assert "_exceedance_memo" not in repr(series)

    def test_threads_sharing_a_series_get_equal_catalogs(self):
        series = self._series()
        thresholds = [1e-4, 2e-4] * 4
        want = [fv.decluster(self._series(), threshold, 15) for threshold in thresholds]
        got = [[None] * len(thresholds) for _ in range(3)]  # more threads than two CPUs

        def run(out):
            for i, threshold in enumerate(thresholds):
                out[i] = fv.decluster(series, threshold, 15)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads take turns often, so a torn entry would show
        try:
            threads = [threading.Thread(target=run, args=(out,)) for out in got]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got[0] == got[1] == got[2] == want
