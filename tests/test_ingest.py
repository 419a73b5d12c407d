import io
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flarevt as fv
from flarevt import DomainError, EmptyInputError, OrderingError, ParseError

from helpers import FLOAT_TEXTS, make_series

CSV_TWO_ROWS = """timestamp,flux_wm2
2003-10-28T11:00:00Z,1.0e-4
2003-10-28T11:01:00Z,2.0e-4
"""


class TestParse:
    def test_two_rows(self):
        series = fv.parse_flux_csv(CSV_TWO_ROWS)
        assert len(series) == 2
        assert series.n_observations == 2
        assert series.flux[0] == 1.0e-4
        assert series.timestamps[1] == np.datetime64("2003-10-28T11:01", "m")
        assert series.span_start == np.datetime64("2003-10-28T11:00", "m")
        assert series.span_end == np.datetime64("2003-10-28T11:01", "m")

    def test_sentinel_maps_to_missing(self):
        text = "timestamp,flux_wm2\n2000-01-01T00:00:00Z,-99999\n2000-01-01T00:01:00Z,1e-5\n"
        series = fv.parse_flux_csv(text)
        assert np.isnan(series.flux[0])
        assert series.n_observations == 1

    def test_empty_flux_field_is_missing(self):
        text = "timestamp,flux_wm2\n2000-01-01T00:00:00Z,\n"
        series = fv.parse_flux_csv(text)
        assert series.n_observations == 0

    def test_out_of_order_names_line(self):
        text = ("timestamp,flux_wm2\n"
                "2000-01-01T00:05:00Z,1e-5\n"
                "2000-01-01T00:04:00Z,1e-5\n")
        with pytest.raises(OrderingError, match="line 3"):
            fv.parse_flux_csv(text)

    def test_duplicate_timestamp_rejected(self):
        text = ("timestamp,flux_wm2\n"
                "2000-01-01T00:05:00Z,1e-5\n"
                "2000-01-01T00:05:00Z,2e-5\n")
        with pytest.raises(OrderingError, match="line 3"):
            fv.parse_flux_csv(text)

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            fv.parse_flux_csv("")
        with pytest.raises(EmptyInputError):
            fv.parse_flux_csv("timestamp,flux_wm2\n")

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            fv.parse_flux_csv("time,flux\n2000-01-01T00:00:00Z,1e-5\n")

    def test_bad_timestamp_names_line(self):
        text = "timestamp,flux_wm2\n2000-01-01T00:00:00Z,1e-5\nnot-a-time,1e-5\n"
        with pytest.raises(ParseError, match="line 3"):
            fv.parse_flux_csv(text)

    def test_bad_flux_names_line(self):
        text = "timestamp,flux_wm2\n2000-01-01T00:00:00Z,banana\n"
        with pytest.raises(ParseError, match="line 2"):
            fv.parse_flux_csv(text)

    def test_wrong_field_count_names_line(self):
        text = "timestamp,flux_wm2\n2000-01-01T00:00:00Z,1e-5,extra\n"
        with pytest.raises(ParseError, match="line 2"):
            fv.parse_flux_csv(text)

    def test_second_resolution_rejected(self):
        text = "timestamp,flux_wm2\n2000-01-01T00:00:30Z,1e-5\n"
        with pytest.raises(ParseError, match="minute grid"):
            fv.parse_flux_csv(text)

    def test_negative_flux_rejected(self):
        text = "timestamp,flux_wm2\n2000-01-01T00:00:00Z,-1e-5\n"
        with pytest.raises(ParseError, match="line 2"):
            fv.parse_flux_csv(text)

    def test_crlf_accepted(self):
        series = fv.parse_flux_csv(CSV_TWO_ROWS.replace("\n", "\r\n"))
        assert len(series) == 2

    def test_bytes_accepted(self):
        series = fv.parse_flux_csv(CSV_TWO_ROWS.encode("utf-8"))
        assert len(series) == 2

    def test_write_parse_round_trip(self):
        rng = np.random.default_rng(5)
        flux = rng.uniform(0.0, 1e-3, 50)
        flux[rng.random(50) < 0.2] = np.nan
        series = make_series(flux, offsets=np.cumsum(rng.integers(1, 9, 50)))
        back = fv.parse_flux_csv(fv.write_flux_csv(series))
        np.testing.assert_array_equal(back.timestamps, series.timestamps)
        np.testing.assert_array_equal(back.flux, series.flux)


def _flux_csv(rows, newline="\n"):
    """The interchange CSV of ``(timestamp, flux text)`` rows."""
    return newline.join(["timestamp,flux_wm2", *(f"{t}Z,{v}" for t, v in rows)]) + newline


class TestInputLayouts:
    """Canonical input takes the columnar scan, everything else the per-line one."""

    @pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
    def test_non_finite_flux_names_line(self, value):
        text = _flux_csv([("2000-01-01T00:00:00", "1e-5"), ("2000-01-01T00:01:00", value)])
        with pytest.raises(ParseError, match="line 3"):
            fv.parse_flux_csv(text)

    @pytest.mark.parametrize("last", ["2e-5", ""])
    def test_missing_trailing_newline(self, last):
        text = _flux_csv([("2000-01-01T00:00:00", "1e-5"), ("2000-01-01T00:01:00", last)])
        series = fv.parse_flux_csv(text.rstrip("\n"))
        assert len(series) == 2
        np.testing.assert_array_equal(series.flux, [1e-5, float(last or "nan")])

    @pytest.mark.parametrize("tail", ["2000-01-01T00:0", "2000-01-01T00:01:0Z,1e-5",
                                      "2000-01-01T00:01:00"])
    def test_row_truncated_mid_timestamp_names_line(self, tail):
        text = _flux_csv([("2000-01-01T00:00:00", "1e-5")]) + tail
        with pytest.raises(ParseError, match="line 3"):
            fv.parse_flux_csv(text)

    @pytest.mark.parametrize("sentinel", ["-9.9999e4", "-99999.0", "-9.9999E+04"])
    def test_sentinel_spellings_map_to_missing(self, sentinel):
        text = _flux_csv([("2000-01-01T00:00:00", sentinel), ("2000-01-01T00:01:00", "1e-5")])
        series = fv.parse_flux_csv(text)
        assert np.isnan(series.flux[0])
        assert series.n_observations == 1

    @pytest.mark.parametrize("layout", [
        lambda t: "\ufeff" + t,                                       # BOM
        lambda t: t.replace("\n", "\n\n"),                            # blank lines
        lambda t: t.replace("Z,", "Z , ").replace("\n2", "\n  2"),    # padded fields
        lambda t: t.replace("2003-10-28T00:00:00Z", "2003-10-28"),    # date-only stamp
    ])
    def test_other_layouts_parse_alike(self, layout):
        text = _flux_csv([("2003-10-28T00:00:00", "1.0e-4"), ("2003-10-28T00:01:00", "")])
        want = fv.parse_flux_csv(text)
        got = fv.parse_flux_csv(layout(text))
        np.testing.assert_array_equal(got.timestamps, want.timestamps)
        np.testing.assert_array_equal(got.flux, want.flux)

    @pytest.mark.parametrize("crlf", [False, True])
    def test_non_utf8_bytes_name_line(self, crlf, tmp_path):
        text = _flux_csv([("2000-01-01T00:00:00", "1e-5"), ("2000-01-01T00:01:00", "2e-5"),
                          ("2000-01-01T00:02:00", "3e-5")], "\r\n" if crlf else "\n")
        data = text.encode("ascii").replace(b"2e-5", b"2e-5\xff")
        with pytest.raises(ParseError, match="line 3"):
            fv.parse_flux_csv(data)
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        with pytest.raises(ParseError, match="line 3"):
            fv.read_flux_csv(path)

    @pytest.mark.parametrize("small_chunks", [False, True])
    def test_columnar_and_per_line_scans_agree(self, small_chunks, monkeypatch):
        if small_chunks:
            monkeypatch.setattr(fv.ingest, "_SCAN_CHUNK_BYTES", 1000)
            monkeypatch.setattr(fv.ingest, "_WRITE_CHUNK_ROWS", 97)
        rng = np.random.default_rng(17)
        n = 3000
        minutes = (np.datetime64("1969-12-30T22:00", "m")
                   + np.cumsum(rng.integers(1, 6, n)) * np.timedelta64(1, "m"))
        stamps = np.datetime_as_string(minutes, unit="s").tolist()
        values = 1e-4 * rng.pareto(2.0, n)
        kind = rng.integers(0, 5, n)
        texts = [["", "-99999", repr(v), f"{v:.6e}", f"{v:.9f}"][k]
                 for k, v in zip(kind, values.tolist())]
        want = np.array([np.nan if k < 2 else float(t) for k, t in zip(kind, texts)])
        text = _flux_csv(zip(stamps, texts))
        assert fv.ingest._scan_canonical(text) is not None
        assert fv.ingest._scan_canonical(text.replace("\n", "\r\n")) is None

        parsed = [fv.parse_flux_csv(text), fv.parse_flux_csv(text.encode("ascii")),
                  fv.parse_flux_csv(io.BytesIO(text.encode("ascii"))),
                  fv.parse_flux_csv(io.StringIO(text)),
                  fv.parse_flux_csv(text.replace("\n", "\r\n"))]  # per-line scan
        for series in parsed:
            np.testing.assert_array_equal(series.timestamps, minutes)
            np.testing.assert_array_equal(series.flux.view(np.uint64), want.view(np.uint64))

        written = fv.write_flux_csv(parsed[0])
        reference = _flux_csv((t, "" if np.isnan(v) else repr(v))
                              for t, v in zip(stamps, want.tolist()))
        assert written == reference
        back = fv.parse_flux_csv(written)
        np.testing.assert_array_equal(back.timestamps, minutes)
        np.testing.assert_array_equal(back.flux.view(np.uint64), want.view(np.uint64))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(FLOAT_TEXTS, min_size=1, max_size=30))
    def test_flux_texts_read_as_float_and_per_line(self, texts):
        stamps = np.datetime_as_string(np.datetime64("2000-01-01T00:00", "m")
                                       + np.arange(len(texts)), unit="s").tolist()
        text = _flux_csv(zip(stamps, texts))
        assert fv.ingest._scan_canonical(text) is not None
        want = np.array([float(t) for t in texts]).view(np.uint64)
        for layout in (text, text.replace("\n", "\r\n")):  # columnar, then per-line
            assert fv.parse_flux_csv(layout).flux.view(np.uint64).tobytes() == want.tobytes()

    @pytest.mark.parametrize("stamp", [
        "2000-02-29T00:00:00", "1600-02-29T12:34:00", "1969-12-31T23:59:00",
        "1901-12-13T20:45:00", "2038-01-19T03:15:00", "2100-03-01T00:00:00",
        "9999-12-31T23:59:00",
    ])
    def test_stamps_before_1970_and_after_2038_read(self, stamp):
        text = _flux_csv([("0001-01-01T00:00:00", "1e-5"), (stamp, "2e-5")])
        assert fv.ingest._scan_canonical(text) is not None
        for layout in (text, text.replace("\n", "\r\n")):
            assert fv.parse_flux_csv(layout).timestamps[1] == np.datetime64(stamp, "m")

    @pytest.mark.parametrize("stamp,error", [
        ("1900-02-29T00:00:00", "line 3: bad timestamp value '1900-02-29T00:00:00'"),
        ("2100-02-29T00:00:00", "line 3: bad timestamp value '2100-02-29T00:00:00'"),
        ("2001-00-01T00:00:00", "line 3: bad timestamp value"),
        ("2001-13-01T00:00:00", "line 3: bad timestamp value"),
        ("2001-01-00T00:00:00", "line 3: bad timestamp value"),
        ("2001-01-32T00:00:00", "line 3: bad timestamp value"),
        ("2001-04-31T00:00:00", "line 3: bad timestamp value"),
        ("2001-01-01T24:00:00", "line 3: bad timestamp value"),
        ("2001-01-01T00:60:00", "line 3: bad timestamp value"),
        ("2001-01-01T00:00:60", "line 3: bad timestamp value"),
        ("2001-01-01T00:00:30", "line 3: timestamp '2001-01-01T00:00:30' not on the minute grid"),
    ])
    def test_bad_stamps_fail_as_per_line(self, stamp, error):
        text = _flux_csv([("2000-01-01T00:00:00", "1e-5"), (stamp, "2e-5")])
        assert fv.ingest._scan_canonical(text) is None
        for layout in (text, text.replace("\n", "\r\n")):
            with pytest.raises(ParseError) as exc:
                fv.parse_flux_csv(layout)
            assert str(exc.value).startswith(error)

    def test_scan_keeps_no_whole_input_row_arrays(self):
        n = 200_000
        rng = np.random.default_rng(23)
        flux = 1e-4 * rng.pareto(2.0, n) / 0.7
        flux[rng.random(n) < 0.1] = np.nan
        data = fv.write_flux_csv(make_series(flux)).encode("ascii")
        tracemalloc.start()
        try:
            back = fv.parse_flux_csv(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the stamp and flux arrays (16 B a row, 32 while they are joined) and
        # one chunk's working arrays (~10 B a byte of the chunk); a row index
        # over the whole input (16 B a row) would add more
        assert peak < 16 * n + 12 * fv.ingest._SCAN_CHUNK_BYTES
        np.testing.assert_array_equal(back.flux.view(np.uint64), flux.view(np.uint64))

    @pytest.mark.skipif(not os.environ.get("FLAREVT_SLOW_TESTS"),
                        reason="set FLAREVT_SLOW_TESTS=1 to round-trip 30 years "
                               "(15.8M rows, ~680 MB) through CSV")
    def test_thirty_year_csv_round_trip(self, tmp_path):
        series = fv.synth_clustered_series(3e-4, 0.25, 60.0, 10.0, 30.0, seed=7)
        path = tmp_path / "flux.csv"
        fv.write_flux_csv(series, path)
        back = fv.read_flux_csv(path)
        np.testing.assert_array_equal(back.timestamps, series.timestamps)
        np.testing.assert_array_equal(back.flux.view(np.uint64),
                                      series.flux.view(np.uint64))


class TestScaling:
    def test_standard_divisor(self):
        series = make_series([7.0e-4])
        scaled = fv.apply_scaling(series, 0.7)
        assert scaled.flux[0] == pytest.approx(1.0e-3, rel=1e-15)

    def test_identity(self):
        series = make_series([1.0e-4, 5.0e-4])
        scaled = fv.apply_scaling(series, 1.0)
        np.testing.assert_array_equal(scaled.flux, series.flux)
        np.testing.assert_array_equal(scaled.timestamps, series.timestamps)

    def test_missing_preserved(self):
        series = make_series([np.nan, 1.0e-4])
        scaled = fv.apply_scaling(series, 0.7)
        assert np.isnan(scaled.flux[0])
        assert series.n_observations == scaled.n_observations == 1

    @pytest.mark.parametrize("divisor", [0.0, -0.7])
    def test_bad_divisor(self, divisor):
        with pytest.raises(DomainError):
            fv.apply_scaling(make_series([1e-4]), divisor)

    def test_overflow_to_inf_rejected(self):
        series = make_series([np.nan, 1e-4, 1e308])
        with pytest.raises(DomainError, match="overflows to inf"):
            fv.apply_scaling(series, 1e-10)

    def test_composition_is_tight(self):
        # double rounding allows up to 2 ulp between (x/a)/b and x/(a*b);
        # almost all samples land within 1 ulp
        rng = np.random.default_rng(20240817)
        series = make_series(rng.uniform(1e-9, 1e-2, 100_000))
        for a, b in [(0.7, 3.1), (0.07, 0.9), (5.5, 0.31)]:
            lhs = fv.apply_scaling(fv.apply_scaling(series, a), b).flux
            rhs = fv.apply_scaling(series, a * b).flux
            ulp = np.spacing(np.maximum(np.abs(lhs), np.abs(rhs)))
            dist = np.abs(lhs - rhs) / ulp
            assert dist.max() <= 2.0
            assert np.mean(dist <= 1.0) > 0.9


class TestSaturationFilter:
    def _series_with_runs(self, n_dates, retained_date_index=None):
        # one 3-minute saturated run per day, plus quiet minutes between
        level = 17e-4
        offsets, flux = [], []
        for day in range(n_dates):
            base = day * 1440
            offsets.extend([base, base + 1, base + 2, base + 3, base + 4])
            flux.extend([1e-4, level, level + 1e-4, level, 1e-4])
        series = make_series(flux, start="2003-10-25T00:00", offsets=offsets)
        dates = []
        if retained_date_index is not None:
            day = series.timestamps[retained_date_index * 5 + 1]
            dates.append(str(day.astype("datetime64[D]")))
        return series, tuple(dates)

    def test_eleven_runs_one_retained(self):
        series, retained = self._series_with_runs(11, retained_date_index=3)
        config = fv.IngestConfig(retained_saturation_events=retained)
        filtered, removed = fv.filter_saturation(series, config)
        assert removed == 10
        assert filtered.n_observations == series.n_observations - 10 * 3
        # the retained run is untouched
        kept = slice(3 * 5 + 1, 3 * 5 + 4)
        np.testing.assert_array_equal(filtered.flux[kept], series.flux[kept])

    def test_no_saturation_is_identity(self):
        series = make_series([1e-4, 5e-4, 16e-4])
        filtered, removed = fv.filter_saturation(series, fv.IngestConfig())
        assert removed == 0
        np.testing.assert_array_equal(filtered.flux, series.flux)

    def test_single_retained_run(self):
        series, retained = self._series_with_runs(1, retained_date_index=0)
        config = fv.IngestConfig(retained_saturation_events=retained)
        filtered, removed = fv.filter_saturation(series, config)
        assert removed == 0
        np.testing.assert_array_equal(filtered.flux, series.flux)

    def test_run_spanning_midnight_kept_by_either_date(self):
        level = 17e-4
        series = make_series([level, level], start="2003-10-28T23:59")
        config = fv.IngestConfig(retained_saturation_events=("2003-10-29",))
        _, removed = fv.filter_saturation(series, config)
        assert removed == 0

    def test_never_increases_observations(self):
        series, _ = self._series_with_runs(4)
        filtered, _ = fv.filter_saturation(series, fv.IngestConfig())
        assert filtered.n_observations <= series.n_observations
        np.testing.assert_array_equal(filtered.timestamps, series.timestamps)


class TestFluxSeries:
    def test_arrays_are_read_only(self):
        series = make_series([1e-4, 2e-4])
        with pytest.raises(ValueError):
            series.flux[0] = 0.0
        with pytest.raises(ValueError):
            series.timestamps[0] = np.datetime64("1999-01-01T00:00", "m")

    def test_caller_array_not_frozen(self):
        flux = np.array([1e-4, 2e-4])
        ts = np.datetime64("2000-01-01T00:00", "m") + np.arange(2) * np.timedelta64(1, "m")
        fv.FluxSeries(ts, flux)
        flux[0] = 9.0  # still writable

    def test_caller_arrays_never_frozen_or_aliased(self):
        flux = np.array([1e-4, 2e-4, np.nan])
        ts = np.datetime64("2000-01-01T00:00", "m") + np.arange(3) * np.timedelta64(1, "m")
        series = fv.FluxSeries(ts, flux)
        assert flux.flags.writeable and ts.flags.writeable
        assert not np.shares_memory(series.flux, flux)
        assert not np.shares_memory(series.timestamps, ts)
        flux[0] = 9.0
        ts[0] = np.datetime64("1999-01-01T00:00", "m")
        assert series.flux[0] == 1e-4
        assert series.timestamps[0] == np.datetime64("2000-01-01T00:00", "m")
        # the constructor copies even the frozen arrays of another series
        again = fv.FluxSeries(series.timestamps, series.flux)
        assert not np.shares_memory(again.timestamps, series.timestamps)
        assert not np.shares_memory(again.flux, series.flux)

    def test_conditioning_freezes_its_own_arrays_in_place(self):
        n = 1_000_000
        flux = np.full(n, 1e-4)
        flux[10:20] = 20e-4  # one saturated run, not retained
        series = make_series(flux)
        tracemalloc.start()
        try:
            scaled = fv.apply_scaling(series, 0.7)
            scale_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the divided flux (8 B a row) and the 1 B a row overflow mask;
        # a re-check of the invariants or a copy of either array would add more
        assert scale_peak < 10 * n
        assert np.shares_memory(scaled.timestamps, series.timestamps)
        tracemalloc.start()
        try:
            filtered, removed = fv.filter_saturation(scaled, fv.IngestConfig())
            filter_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the blanked flux (8 B a row) and the saturation mask (1 B a row);
        # a re-check of the invariants or a day stamp per row would add more
        assert filter_peak < 12 * n
        assert removed == 1
        assert np.shares_memory(filtered.timestamps, series.timestamps)
        for arr in (scaled.flux, filtered.flux, filtered.timestamps):
            assert not arr.flags.writeable
        assert series.flux[10] == 20e-4 and scaled.flux[10] == 20e-4 / 0.7

    def test_off_grid_timestamps_rejected(self):
        ts = np.array(["2000-01-01T00:00:30", "2000-01-01T00:01:30"],
                      dtype="datetime64[s]")
        with pytest.raises(DomainError):
            fv.FluxSeries(ts, np.array([1e-4, 2e-4]))

    def test_span_runs_from_first_to_last_stamp(self):
        series = make_series([1e-4, np.nan, 2e-4], offsets=[0, 5, 1440])
        assert series.span_start == np.datetime64("2000-01-01T00:00", "m")
        assert series.span_end == np.datetime64("2000-01-02T00:00", "m")
        assert series.span_minutes == 1441
        empty = fv.FluxSeries(np.empty(0, dtype="datetime64[m]"), np.empty(0))
        assert np.isnat(empty.span_start) and np.isnat(empty.span_end)
        assert empty.span_minutes == 0 and empty.span_years == 0.0

    @pytest.mark.parametrize("offsets,flux,error", [
        ([0, 1], [1e-4, -1e-9], DomainError),
        ([0, 1], [1e-4, np.inf], DomainError),
        ([0, 1], [-np.inf, 1e-4], DomainError),
        ([0, 1, 2], [1e-4, 2e-4], DomainError),
        ([1, 0], [1e-4, 2e-4], OrderingError),
        ([0, 0], [1e-4, 2e-4], OrderingError),
    ])
    def test_constructor_checks_invariants(self, offsets, flux, error):
        ts = np.datetime64("2000-01-01T00:00", "m") + np.array(offsets)
        with pytest.raises(error):
            fv.FluxSeries(ts, np.array(flux))


class TestSynth:
    def test_deterministic(self):
        a = fv.synth_clustered_series(3e-4, 0.25, 10.0, 8.0, 0.1, seed=99)
        b = fv.synth_clustered_series(3e-4, 0.25, 10.0, 8.0, 0.1, seed=99)
        np.testing.assert_array_equal(a.flux, b.flux)
        np.testing.assert_array_equal(a.timestamps, b.timestamps)

    def test_zero_event_rate_stays_quiet(self):
        series = fv.synth_clustered_series(3e-4, 0.25, 0.0, 8.0, 0.05, seed=1)
        assert np.all(series.flux < 1e-4)

    @pytest.mark.parametrize("kwargs", [
        {"scale": -1.0}, {"duration": 0.0}, {"event_rate": -2.0},
        {"cluster_length_mean": 0.5}, {"base_threshold": 0.0},
        {"dip_fraction": 1.0},
    ])
    def test_invalid_parameters(self, kwargs):
        base = dict(scale=3e-4, shape=0.25, event_rate=5.0,
                    cluster_length_mean=8.0, duration=0.2, seed=0)
        base.update(kwargs)
        with pytest.raises(DomainError):
            fv.synth_clustered_series(**base)

    def test_peak_excesses_follow_requested_distribution(self):
        # KS distance of declustered peak excesses against the target law
        series = fv.synth_clustered_series(1.0, 0.3, 100.0, 10.0, 10.0,
                                           seed=3, base_threshold=1.0)
        catalog = fv.decluster(series, 1.0, 15)
        exc = np.sort(catalog.peak_fluxes - 1.0)
        n = exc.size
        assert n >= 1000
        model = fv.gpd_cdf(exc, fv.GpdParams(1.0, 0.3))
        d_plus = np.max(np.arange(1, n + 1) / n - model)
        d_minus = np.max(model - np.arange(0, n) / n)
        assert max(d_plus, d_minus) < 0.05

    def test_thirty_year_pipeline_recovers_parameters(self):
        series = fv.synth_clustered_series(3e-4, 0.25, 6.0, 10.0, 30.0, seed=11)
        catalog = fv.decluster(series)  # defaults: X1 threshold, gap 15
        fit = fv.fit_gpd(catalog.excesses_over(1e-4), threshold=1e-4,
                         n_total=series.n_observations)
        se = fit.std_errors
        assert abs(fit.scale - 3e-4) <= 3 * se[0]
        assert abs(fit.shape - 0.25) <= 3 * se[1]
