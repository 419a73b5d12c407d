import hashlib
import io
import json
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flarevt as fv
from flarevt import DomainError, EmptyInputError, OrderingError, ParseError
from flarevt.cli import STAGE_EXIT_CODES, main

from helpers import EPOCH, FLOAT_TEXTS, MINUTE, make_series

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


def _scan(data):
    """The columnar scan of in-memory CSV text or bytes; None where it refuses."""
    if isinstance(data, str):
        data = data.encode("ascii")
    return fv.ingest._scan_canonical(io.BytesIO(data))


class TestInputLayouts:
    """Canonical input takes the columnar scan, everything else the per-line one."""

    @pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
    def test_non_finite_flux_names_line(self, value):
        text = _flux_csv([("2000-01-01T00:00:00", "1e-5"), ("2000-01-01T00:01:00", value)])
        with pytest.raises(ParseError, match="line 3"):
            fv.parse_flux_csv(text)

    @pytest.mark.parametrize("last", ["2e-5", ""])
    def test_missing_trailing_newline(self, last, tmp_path):
        # the input may be truncated, so its last row is refused by its line
        text = _flux_csv([("2000-01-01T00:00:00", "1e-5"), ("2000-01-01T00:01:00", last)])
        data = text.rstrip("\n")
        assert _scan(data) is None
        path = tmp_path / "flux.csv"
        path.write_text(data)
        message = "^line 3: no newline at the end of the input: it may be truncated$"
        for read in (lambda: fv.parse_flux_csv(data), lambda: fv.read_flux_csv(path),
                     lambda: fv.parse_flux_csv(data.replace("\n", "\r\n"))):  # per-line
            with pytest.raises(ParseError, match=message):
                read()

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

    @pytest.mark.parametrize("small_blocks", [False, True])
    def test_columnar_and_per_line_scans_agree(self, small_blocks, monkeypatch):
        if small_blocks:
            monkeypatch.setattr(fv.ingest, "_READ_BLOCK_BYTES", 1000)
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
        assert _scan(text) is not None
        assert _scan(text.replace("\n", "\r\n")) is None

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
        assert written == reference.encode("ascii")
        back = fv.parse_flux_csv(written)
        np.testing.assert_array_equal(back.timestamps, minutes)
        np.testing.assert_array_equal(back.flux.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("crlf", [False, True], ids=["canonical", "CRLF"])
    def test_bytes_like_input_reads_as_bytes(self, crlf, tmp_path):
        series = make_series([1e-4, np.nan, 2.5e-4], offsets=[0, 1, 1440])
        view = fv.write_flux_csv(series, tmp_path / "flux.csv")  # a memoryview of the file
        data = bytes(view).replace(b"\n", b"\r\n") if crlf else bytes(view)
        want = fv.parse_flux_csv(data)
        np.testing.assert_array_equal(want.flux, series.flux)
        for source in (memoryview(data) if crlf else view, bytearray(data)):
            got = fv.parse_flux_csv(source)
            np.testing.assert_array_equal(got.timestamps, want.timestamps)
            np.testing.assert_array_equal(got.flux.view(np.uint64), want.flux.view(np.uint64))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(FLOAT_TEXTS, min_size=1, max_size=30))
    def test_flux_texts_read_as_float_and_per_line(self, texts):
        stamps = np.datetime_as_string(np.datetime64("2000-01-01T00:00", "m")
                                       + np.arange(len(texts)), unit="s").tolist()
        text = _flux_csv(zip(stamps, texts))
        assert _scan(text) is not None
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
        assert _scan(text) is not None
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
        assert _scan(text) is None
        for layout in (text, text.replace("\n", "\r\n")):
            with pytest.raises(ParseError) as exc:
                fv.parse_flux_csv(layout)
            assert str(exc.value).startswith(error)

    def test_scan_keeps_no_whole_input_row_arrays(self):
        n = 600_000
        # the stamp and flux arrays (16 B a row) and one block's working
        # arrays (~10 B a byte of the block); a row index over the whole
        # input (16 B a row, 9.6 MB) would be well over the block's arrays
        assert _scan_peak(n) < 16 * n + 12 * fv.ingest._READ_BLOCK_BYTES

    @pytest.mark.parametrize("divisor,digest", [
        (None, "94eb87540a6c7a36704862c0f14202425f4dc2b81fdc37deb96b8407fefc510a"),
        (0.7, "af06f76ec1e521aae428ce121ed8eefe64d6ee6f7778c47ffe13bd98623d5976"),
    ])
    def test_written_bytes_are_pinned(self, divisor, digest):
        # a year of the benchmark's synthetic archive; the digests are of repr's text
        series = fv.synth_clustered_series(3e-4, 0.25, 60.0, 10.0, 1.0, seed=7)
        if divisor is not None:
            series = fv.apply_scaling(series, divisor)
        assert hashlib.sha256(fv.write_flux_csv(series)).hexdigest() == digest

    @pytest.mark.parametrize("divisor", [None, 0.7])
    def test_kernels_decide_every_written_row(self, divisor, monkeypatch):
        # a year of the benchmark's synthetic archive, as written and scaled:
        # the kernels decide every flux, and none is left to float()
        series = fv.synth_clustered_series(3e-4, 0.25, 60.0, 10.0, 1.0, seed=7)
        if divisor is not None:
            series = fv.apply_scaling(series, divisor)
        data = fv.write_flux_csv(series)

        def refused(field):
            raise AssertionError(f"{field!r} was left to float()")

        monkeypatch.setattr(fv._table, "_float_text", refused)
        scanned = _scan(data)
        assert scanned is not None
        np.testing.assert_array_equal(scanned[0], series.timestamps)
        np.testing.assert_array_equal(scanned[1].view(np.uint64), series.flux.view(np.uint64))

    @pytest.mark.parametrize("divisor", [None, 0.7])
    def test_kernels_format_every_written_row(self, divisor, monkeypatch):
        # the writer's twin of the test above: the kernels format every flux
        # of the same year, and none is left to repr
        series = fv.synth_clustered_series(3e-4, 0.25, 60.0, 10.0, 1.0, seed=7)
        if divisor is not None:
            series = fv.apply_scaling(series, divisor)

        def refused(value):
            raise AssertionError(f"{value!r} was left to repr")

        monkeypatch.setattr(fv._table, "_repr_text", refused)
        back = fv.parse_flux_csv(fv.write_flux_csv(series))
        np.testing.assert_array_equal(back.timestamps, series.timestamps)
        np.testing.assert_array_equal(back.flux.view(np.uint64), series.flux.view(np.uint64))

    def test_failed_write_leaves_no_file(self, monkeypatch, tmp_path):
        calls = []

        def failing_table_bytes(*columns):
            calls.append(len(columns[0]))
            if len(calls) == 2:
                raise RuntimeError("the second chunk fails")
            return table_bytes(*columns)

        table_bytes = fv.ingest.table_bytes
        monkeypatch.setattr(fv.ingest, "table_bytes", failing_table_bytes)
        monkeypatch.setattr(fv.ingest, "_WRITE_CHUNK_ROWS", 4)
        series = make_series(np.geomspace(1e-7, 1e-4, 10))
        path = tmp_path / "series.csv"
        with pytest.raises(RuntimeError, match="second chunk"):
            fv.write_flux_csv(series, path)
        assert list(tmp_path.iterdir()) == []
        path.write_bytes(b"kept")
        calls.clear()
        with pytest.raises(RuntimeError, match="second chunk"):
            fv.write_flux_csv(series, path)
        assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == b"kept"

    @pytest.mark.skipif(not os.environ.get("FLAREVT_SLOW_TESTS"),
                        reason="set FLAREVT_SLOW_TESTS=1 to round-trip 30 years "
                               "(15.8M rows, ~680 MB) through CSV")
    def test_thirty_year_csv_round_trip(self, tmp_path):
        series = fv.synth_clustered_series(3e-4, 0.25, 60.0, 10.0, 30.0, seed=7)
        path = tmp_path / "flux.csv"
        fv.write_flux_csv(series, path)
        assert _sha256(path) == "69258eba8583cca5ab6c3b9e228a1b0f318ed397c72834d3d8669c04d633c038"
        back = fv.read_flux_csv(path)
        np.testing.assert_array_equal(back.timestamps, series.timestamps)
        np.testing.assert_array_equal(back.flux.view(np.uint64),
                                      series.flux.view(np.uint64))
        fv.write_flux_csv(fv.apply_scaling(series, 0.7), path)
        assert _sha256(path) == "3777846725a263dc08d14c49aab14381d1e3403554d7153305ef05d5383e5c2d"

    @pytest.mark.skipif(not os.environ.get("FLAREVT_SLOW_TESTS"),
                        reason="set FLAREVT_SLOW_TESTS=1 to run 30 years (15.8M rows, "
                               "~680 MB of CSV) through run_pipeline")
    def test_thirty_year_run_pipeline_peak(self, tmp_path):
        path, out = tmp_path / "flux.csv", tmp_path / "out"
        fv.write_flux_csv(fv.synth_clustered_series(3e-4, 0.25, 60.0, 10.0, 30.0, seed=7), path)
        # a saturation level no flux reaches, so that series.csv is the input
        config = {"ingest": {"scaling_divisor": 1.0, "saturation_level": 1.0},
                  "gpd_threshold": 1e-4}
        # a process's ru_maxrss starts at the peak of the process it was
        # started from, so the run is started from a small Python process
        run = [sys.executable, "-c", _PEAK_RUN, json.dumps(config), str(path), str(out)]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fv.__file__)))
        done = subprocess.run([sys.executable, "-c", _SPAWN, *run], env=env, check=True,
                              stdout=subprocess.PIPE, text=True)
        digest = "69258eba8583cca5ab6c3b9e228a1b0f318ed397c72834d3d8669c04d633c038"
        assert _sha256(out / "series.csv") == digest
        assert json.loads((out / "ingest.json").read_text())["files"][0]["sha256"] == digest
        assert int(done.stdout) * 1024 < 700 * 2 ** 20  # ru_maxrss is in KiB


_SPAWN = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"
_PEAK_RUN = """
import json, resource, sys
from flarevt.pipeline import PipelineConfig, run_pipeline
config = PipelineConfig.from_dict(json.loads(sys.argv[1]))
run_pipeline(config, [sys.argv[2]], sys.argv[3], fixed_clock=True)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


class TestTruncatedInput:
    """A file cut anywhere in its last row is refused by the row's line, in every reader."""

    @staticmethod
    def _cut(data: bytes, where: str) -> bytes:
        comma = data.rindex(b",")
        return {"exponent": data[:-2],  # "...e-0", which would read 10**5 times too large
                "mantissa": data[:comma + 8],
                "comma": data[:comma + 1]}[where]

    @pytest.mark.parametrize("where", ["exponent", "mantissa", "comma"])
    @pytest.mark.parametrize("block", [1 << 12, None])  # many blocks, then one
    def test_cut_last_row_is_refused(self, where, block, monkeypatch, tmp_path):
        if block:
            monkeypatch.setattr(fv.ingest, "_READ_BLOCK_BYTES", block)
        series = fv.synth_clustered_series(3e-4, 0.25, 60.0, 10.0, 0.002, seed=7)
        data = self._cut(bytes(fv.write_flux_csv(series)), where)
        tail = data[data.rindex(b",") + 1:]
        assert {"exponent": tail.endswith(b"e-0"), "comma": tail == b"",
                "mantissa": b"." in tail and b"e" not in tail}[where]
        path = tmp_path / "cut.csv"
        path.write_bytes(data)
        message = (f"^line {len(series) + 1}: no newline at the end of the input: "
                   "it may be truncated$")
        assert _scan(data) is None
        for read in (lambda: fv.parse_flux_csv(data), lambda: fv.read_flux_csv(path)):
            with pytest.raises(ParseError, match=message):
                read()
        out = tmp_path / "series.csv"
        assert main(["ingest", "--input", str(path), "--divisor", "1",
                     "--out", str(out)]) == STAGE_EXIT_CODES["ingest"] == 3
        assert not out.exists()


class TestChunkPool:
    """The writer's chunk loop gives the same bytes and errors on any number of threads."""

    @pytest.fixture(params=[1, 2, 3])
    def workers(self, request, monkeypatch):
        monkeypatch.setattr(fv.ingest, "_WORKERS", request.param)
        monkeypatch.setattr(fv.ingest, "_WRITE_CHUNK_ROWS", 5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads take turns often, so a lost chunk would show
        try:
            yield request.param
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def _series(n: int = 400) -> fv.FluxSeries:
        flux = np.geomspace(1e-9, 2e-3, n) / 0.7
        flux[0::5] = flux[4::5] = np.nan  # the first and last row of every write chunk
        return make_series(flux, start=np.datetime64("1969-12-31T23:00", "m"))

    def test_same_series_and_bytes(self, workers, tmp_path):
        series = self._series()
        stamps = np.datetime_as_string(series.timestamps, unit="s").tolist()
        want = _flux_csv((t, "" if v != v else repr(v))
                         for t, v in zip(stamps, series.flux.tolist())).encode("ascii")
        path = tmp_path / "series.csv"
        assert fv.write_flux_csv(series) == want
        assert fv.write_flux_csv(series, path) == want and path.read_bytes() == want
        back = fv.parse_flux_csv(want)
        np.testing.assert_array_equal(back.timestamps, series.timestamps)
        np.testing.assert_array_equal(back.flux.view(np.uint64), series.flux.view(np.uint64))
        data = want[:-1]  # the last line without its newline
        assert _scan(data) is None
        with pytest.raises(ParseError, match=f"^line {len(series) + 1}: no newline at the end"):
            fv.parse_flux_csv(data)

    def test_edge_values_across_chunk_seams(self, workers, tmp_path):
        # five-row chunks, each with a different mix: NaN, negative and repr's
        # rows, 3-digit exponents (a negative one takes a fourth word), both
        # sides of each notation switch, and a power of ten reached by rounding up
        flux = np.array([
            1e-05, 9.999999999999999e-05, 0.0001, 1.2345678901234567e-04, 1e16,
            np.nan, -1.2345678901234567e-100, 2.5e-300, -0.0001, 9999999999999998.0,
            0.0, 5e-324, 2.0 ** -20, 1e300, np.inf,
            -1e-07, 1e23, 123456789.0, -0.0, 1.5e-308,
            np.nan, np.nan, np.nan, np.nan, np.nan,
            -3.0, -2.5e-05, -1.7976931348623157e308, -1e-100, -1.2345678901234567e+100,
            3.3e-05, 1.2e-06, 0.00012, 7e-05, 4.4e-05,
        ])
        series = fv.FluxSeries._adopt(EPOCH + np.arange(flux.size) * MINUTE, flux)
        stamps = np.datetime_as_string(series.timestamps, unit="s").tolist()
        want = _flux_csv((t, "" if v != v else repr(v))
                         for t, v in zip(stamps, flux.tolist())).encode("ascii")
        path = tmp_path / "series.csv"
        assert fv.write_flux_csv(series) == want
        assert fv.write_flux_csv(series, path) == want and path.read_bytes() == want

    def test_failed_chunk_leaves_no_file_and_no_thread(self, workers, monkeypatch, tmp_path):
        def failing_table_bytes(stamps, flux):
            chunk = int((stamps[0] - start) // MINUTE) // fv.ingest._WRITE_CHUNK_ROWS
            if chunk == 4:  # fails after chunk 6 has failed on another thread
                time.sleep(0.05)
                raise RuntimeError("chunk 4 fails")
            if chunk == 6:
                raise RuntimeError("chunk 6 fails")
            if chunk == 7:  # still running when chunk 4 fails
                time.sleep(0.2)
            return table_bytes(stamps, flux)

        series = self._series()
        start, table_bytes = series.timestamps[0], fv.ingest.table_bytes
        monkeypatch.setattr(fv.ingest, "table_bytes", failing_table_bytes)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="chunk 4"):
            fv.write_flux_csv(series, tmp_path / "series.csv")
        assert list(tmp_path.iterdir()) == []
        assert threading.active_count() == threads

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_path_write_keeps_no_copy_of_its_text(self, n_workers, monkeypatch, tmp_path):
        monkeypatch.setattr(fv.ingest, "_WORKERS", n_workers)
        rng = np.random.default_rng(29)
        flux = 1e-4 * rng.pareto(2.0, 600_000) / 0.7
        flux[rng.random(flux.size) < 0.1] = np.nan
        series, path = make_series(flux), tmp_path / "series.csv"
        tracemalloc.start()
        try:
            text = fv.write_flux_csv(series, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # only the chunks in flight, two a worker, each with test_table's 320 B
        # a row of working arrays; the ~25 MB text is over that bound even at
        # two workers, so a copy of it would show
        assert peak < n_workers * 2 * 320 * fv.ingest._WRITE_CHUNK_ROWS < len(text)
        assert isinstance(text, memoryview) and text.readonly
        assert len(text) == path.stat().st_size
        assert text == path.read_bytes()
        assert hashlib.sha256(text).hexdigest() == _sha256(path)


class TestBlockReader:
    """Every source, a file or in-memory input, is decoded in blocks of one reused
    buffer, each block whole on the calling thread."""

    @pytest.fixture(params=[64, 100, 256])
    def blocks(self, request, monkeypatch):
        """Blocks of one to a few rows, so their ends cut rows at different places."""
        monkeypatch.setattr(fv.ingest, "_READ_BLOCK_BYTES", request.param)

    @staticmethod
    def _rows(n: int) -> tuple[list, np.ndarray, np.ndarray]:
        """n rows of flux texts of every width from empty to 24 bytes."""
        minutes = EPOCH + np.cumsum(np.arange(n) % 3 + 1) * MINUTE
        texts = ["", "0.5", "2e-5", "1e-05", "-99999", "0.000125", "1.5e-4",
                 "3.0000000000000004e-05", "2.2250738585072014e-308", "7"]
        rows = [(t, texts[i % len(texts)]) for i, t in
                enumerate(np.datetime_as_string(minutes, unit="s").tolist())]
        flux = np.array([np.nan if v in ("", "-99999") else float(v) for _, v in rows])
        return rows, minutes, flux

    @staticmethod
    def _read_both(data: bytes, path) -> list:
        """The columnar scan of ``data`` in memory and on disk; None where it refused."""
        path.write_bytes(data)
        with open(path, "rb") as fh:
            return [_scan(data), fv.ingest._scan_canonical(fh)]

    @pytest.mark.parametrize("newline", [True, False])
    def test_every_block_edge_reads_alike(self, newline, monkeypatch, tmp_path):
        rows, minutes, flux = self._rows(7)
        data = _flux_csv(rows).encode("ascii")[:None if newline else -1]
        body = len(data) - len(fv.ingest._CANONICAL_HEADER)
        early_ends = []

        def checked_stamps(buf, starts):
            # read_stamps reads 3 bytes before each stamp, and they are the buffer's
            assert starts.min() >= fv.ingest._LEAD
            return read_stamps(buf, starts)

        def checked_floats(buf, ends, widths):
            # a field ending before byte _FIELD_WIDTH + _EXP_WIDTH is float()'s
            early_ends.extend((ends[widths > 0] < fv._table._FIELD_WIDTH + fv._table._EXP_WIDTH)
                              .tolist())
            return read_floats(buf, ends, widths)

        read_stamps, read_floats = fv.ingest.read_stamps, fv.ingest.read_floats
        monkeypatch.setattr(fv.ingest, "read_stamps", checked_stamps)
        monkeypatch.setattr(fv.ingest, "read_floats", checked_floats)
        # every edge: mid-row, after a newline, right after the header, at the
        # end of the input, and one block for all of it
        for size in range(47, body + 2):
            monkeypatch.setattr(fv.ingest, "_READ_BLOCK_BYTES", size)
            for scanned in self._read_both(data, tmp_path / "flux.csv"):
                if not newline:  # a last row without its newline is the per-line scan's to refuse
                    assert scanned is None
                    continue
                np.testing.assert_array_equal(scanned[0], minutes)
                np.testing.assert_array_equal(scanned[1].view(np.uint64), flux.view(np.uint64))
        assert not newline or (any(early_ends) and not all(early_ends))
        if not newline:
            with pytest.raises(ParseError, match="^line 8: no newline at the end"):
                fv.read_flux_csv(tmp_path / "flux.csv")

    def test_row_longer_than_a_block_goes_to_the_per_line_scan(self, blocks, tmp_path):
        rows, minutes, flux = self._rows(30)
        rows[20] = (rows[20][0], "0." + "0" * 300 + "1")
        data = _flux_csv(rows).encode("ascii")
        assert self._read_both(data, tmp_path / "flux.csv") == [None, None]
        flux[20] = 1e-301
        series = fv.read_flux_csv(tmp_path / "flux.csv")
        np.testing.assert_array_equal(series.timestamps, minutes)
        np.testing.assert_array_equal(series.flux.view(np.uint64), flux.view(np.uint64))

    @pytest.mark.parametrize("row,error,message", [
        (1, ParseError, "line 3: bad flux value '1e-5x'"),
        (110, ParseError, "line 112: bad flux value '1e-5x'"),
        (110, ParseError, "line 112: bad timestamp value '2000-01-01T01:61:00'"),
        (110, ParseError, "line 112: flux value '-1e-05' is not a finite value >= 0"),
        (110, ParseError, "line 112: flux value '1e999' is not a finite value >= 0"),
        (110, OrderingError, "line 112: timestamp '2000-01-01T01:49:00' does not increase"),
        (119, OrderingError, "line 121: timestamp '2000-01-01T01:58:00' does not increase"),
    ])
    def test_error_in_a_late_block_names_its_line(self, blocks, row, error, message, tmp_path):
        rows = [[t, "1e-5"] for t in np.datetime_as_string(
            EPOCH + np.arange(120) * MINUTE, unit="s").tolist()]
        if error is OrderingError:
            rows[row][0] = rows[row - 1][0]
        else:
            rows[row][1 if "flux" in message else 0] = re.search(r"value '(.*)'", message).group(1)
        data = _flux_csv(rows).encode("ascii")
        assert self._read_both(data, tmp_path / "flux.csv") == [None, None]
        for read in (lambda: fv.parse_flux_csv(data),
                     lambda: fv.read_flux_csv(tmp_path / "flux.csv")):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                read()

    def test_stamp_order_is_checked_across_every_seam(self, blocks, tmp_path):
        # a repeated stamp on every row in turn, so on each block's first
        stamps = np.datetime_as_string(EPOCH + np.arange(40) * MINUTE, unit="s").tolist()
        for row in range(1, len(stamps)):
            data = _flux_csv(zip(stamps[:row] + stamps[row - 1:-1], ["1e-5"] * 40))
            path = tmp_path / "flux.csv"
            path.write_text(data)
            for read in (lambda: fv.parse_flux_csv(data), lambda: fv.read_flux_csv(path)):
                with pytest.raises(OrderingError, match=f"^line {row + 2}: "):
                    read()

    def test_crlf_row_in_a_late_block_reads_as_per_line(self, blocks, tmp_path):
        rows, minutes, flux = self._rows(300)
        data = _flux_csv(rows).encode("ascii")
        at = data.index(b"\n", len(data) - 200)
        crlf = data[:at] + b"\r" + data[at:]
        assert self._read_both(crlf, tmp_path / "flux.csv") == [None, None]
        series = fv.read_flux_csv(tmp_path / "flux.csv")
        np.testing.assert_array_equal(series.timestamps, minutes)
        np.testing.assert_array_equal(series.flux.view(np.uint64), flux.view(np.uint64))

    @pytest.mark.parametrize("data,message", [
        (b"", "input is empty"),
        (b"timestamp,flux_wm2\n", "no data rows"),
        (b"timestamp,flux_wm2", "no data rows"),
    ])
    def test_header_only_and_empty_files(self, blocks, data, message, tmp_path):
        assert self._read_both(data, tmp_path / "flux.csv") == [None, None]
        with pytest.raises(EmptyInputError, match=f"^{message}$"):
            fv.read_flux_csv(tmp_path / "flux.csv")

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])  # the columnar, then the per-line scan
    def test_pipe_and_positioned_file_read_as_their_bytes(self, blocks, newline, tmp_path):
        rows, minutes, flux = self._rows(30)
        data = _flux_csv(rows, newline).encode("ascii")
        read, write = os.pipe()
        with open(read, "rb") as pipe:
            with open(write, "wb") as fh:
                fh.write(data)  # well under a pipe's 64 KB, so the write does not block
            assert not pipe.seekable()
            piped = fv.parse_flux_csv(pipe)
        lead = b"lead bytes,\n\n"  # no header; read from the start, the parse would fail
        (tmp_path / "flux.csv").write_bytes(lead + data)
        with open(tmp_path / "flux.csv", "rb") as fh:
            fh.seek(len(lead))
            assert (fv.ingest._scan_canonical(fh) is None) == (newline == "\r\n")
            fh.seek(len(lead))
            positioned = fv.parse_flux_csv(fh)
        for series in (fv.parse_flux_csv(data), piped, positioned):
            np.testing.assert_array_equal(series.timestamps, minutes)
            np.testing.assert_array_equal(series.flux.view(np.uint64), flux.view(np.uint64))

    @pytest.mark.parametrize("stream", [False, True])
    def test_file_read_keeps_no_copy_of_its_text(self, stream, monkeypatch, tmp_path):
        monkeypatch.setattr(fv.ingest, "_READ_BLOCK_BYTES", 1 << 13)
        monkeypatch.setattr(fv.ingest, "_WRITE_CHUNK_ROWS", 1 << 14)
        rng = np.random.default_rng(31)
        n = 40_000
        flux = 1e-4 * rng.pareto(2.0, n) / 0.7
        flux[rng.random(n) < 0.1] = np.nan
        path = tmp_path / "flux.csv"
        fv.write_flux_csv(make_series(flux), path)
        tracemalloc.start()
        try:
            if stream:  # parse_flux_csv of an open file reads it as read_flux_csv does
                with open(path, "rb") as fh:
                    back = fv.parse_flux_csv(fh)
            else:
                back = fv.read_flux_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(back.flux.view(np.uint64), flux.view(np.uint64))
        # the stamp and flux arrays (16 B a row), the block buffer, and one
        # block's working arrays (~10 B a byte of the block); no term in the
        # file's ~1.6 MB
        constant = 13 * fv.ingest._READ_BLOCK_BYTES + 64 * 1024
        assert peak < 16 * n + constant < 16 * n + path.stat().st_size // 2

    @pytest.mark.parametrize("kind", [memoryview, bytearray])
    def test_buffer_read_keeps_no_copy_of_its_text(self, kind, monkeypatch, tmp_path):
        monkeypatch.setattr(fv.ingest, "_READ_BLOCK_BYTES", 1 << 13)
        monkeypatch.setattr(fv.ingest, "_WRITE_CHUNK_ROWS", 1 << 14)
        rng = np.random.default_rng(31)
        n = 40_000
        flux = 1e-4 * rng.pareto(2.0, n) / 0.7
        flux[rng.random(n) < 0.1] = np.nan
        view = fv.write_flux_csv(make_series(flux), tmp_path / "flux.csv")  # a map of the file
        source = view if kind is memoryview else bytearray(view)
        tracemalloc.start()
        try:
            back = fv.parse_flux_csv(source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(back.flux.view(np.uint64), flux.view(np.uint64))
        # the bound of a file's read: the buffer is read in blocks, not copied whole
        constant = 13 * fv.ingest._READ_BLOCK_BYTES + 64 * 1024
        assert peak < 16 * n + constant < 16 * n + len(source) // 2

    def test_decodes_on_the_calling_thread(self, monkeypatch, tmp_path):
        # several blocks of the default size, with threads to spare
        monkeypatch.setattr(fv.ingest, "_WORKERS", 2)
        n = 3 * fv.ingest._READ_BLOCK_BYTES // 27  # 27 B a row
        series = make_series(np.full(n, 1e-5))
        data = bytes(fv.write_flux_csv(series))
        threads = []

        def recorded_floats(buf, ends, widths):
            threads.append(threading.current_thread())
            return read_floats(buf, ends, widths)

        read_floats = fv.ingest.read_floats
        monkeypatch.setattr(fv.ingest, "read_floats", recorded_floats)
        for scanned in self._read_both(data, tmp_path / "flux.csv"):
            np.testing.assert_array_equal(scanned[0], series.timestamps)
        assert len(threads) >= 6 and set(threads) == {threading.main_thread()}


class TestWholeSeriesPasses:
    """The series build and the exceedance scan give the same result and the same
    error on any number of threads, wherever a fault sits against the task seams."""

    TASK, N = 8, 100  # tasks of rows [0, 8), [8, 16), ..., [96, 100)

    @pytest.fixture(params=[1, 2, 3])
    def workers(self, request, monkeypatch):
        monkeypatch.setattr(fv.ingest, "_WORKERS", request.param)
        monkeypatch.setattr(fv.ingest, "_TASK_ROWS", self.TASK)
        monkeypatch.setattr(fv.ingest, "_BUILD_BLOCK_ROWS", 3)  # blocks of 3, 3, 2 a task
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads take turns often, so a lost task would show
        threads = threading.active_count()
        try:
            yield request.param
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads  # none left running, errors or not

    def _arrays(self):
        ts = np.datetime64("2000-01-01T00:00", "m") + np.arange(self.N)
        flux = np.linspace(1e-6, 1e-3, self.N)
        flux[::5] = np.nan
        return ts, flux

    def test_same_series_on_any_worker_count(self, workers):
        ts, flux = self._arrays()
        for given in (ts, ts.astype("datetime64[s]")):
            series = fv.FluxSeries(given, flux)
            np.testing.assert_array_equal(series.timestamps, ts)
            np.testing.assert_array_equal(series.flux.view(np.uint64), flux.view(np.uint64))
            assert series.n_observations == np.count_nonzero(~np.isnan(flux)) == 80
            assert not series.timestamps.flags.writeable and not series.flux.flags.writeable

    @pytest.mark.parametrize("row", [16, 96, 11, 13],
                             ids=["task seam", "last seam", "block start", "inside a block"])
    def test_repeated_stamp_is_ordering_error(self, workers, row):
        ts, flux = self._arrays()
        ts[row] = ts[row - 1]
        with pytest.raises(OrderingError) as exc:
            fv.FluxSeries(ts, flux)
        assert str(exc.value) == "timestamps must be strictly increasing"

    @pytest.mark.parametrize("row", [0, 16, 13], ids=["first stamp", "task seam", "inside"])
    def test_nat_stamp_is_domain_error(self, workers, row):
        ts, flux = self._arrays()
        ts[row] = np.datetime64("NaT")
        with pytest.raises(DomainError) as exc:
            fv.FluxSeries(ts, flux)
        assert type(exc.value) is DomainError and str(exc.value) == "timestamps must not be NaT"

    @pytest.mark.parametrize("value", [-1e-12, np.inf])
    def test_bad_flux_in_the_last_task(self, workers, value):
        ts, flux = self._arrays()
        flux[98] = value
        with pytest.raises(DomainError) as exc:
            fv.FluxSeries(ts, flux)
        assert str(exc.value) == "flux values must be NaN or finite and >= 0"

    def test_errors_leave_caller_arrays_alone(self, workers):
        ts, flux = self._arrays()
        ts[40] = ts[39]
        before = ts.copy(), flux.copy()
        with pytest.raises(OrderingError):
            fv.FluxSeries(ts, flux)
        np.testing.assert_array_equal(ts, before[0])
        np.testing.assert_array_equal(flux, before[1])

    @pytest.mark.parametrize("n", [N, 0])
    def test_exceedance_scan_matches_one_thread_and_plain_scan(self, workers, monkeypatch, n):
        ts, flux = self._arrays()
        flux[~np.isnan(flux)] = 1e-5
        flux[6:11], flux[14:18], flux[94:97] = 5e-3, 6e-3, 7e-3  # across the seams at 8, 16, 96
        flux[50] = 2e-3
        flux[[7, 15, 23, 95]] = np.nan  # and gaps at the last row of a task
        series = fv.FluxSeries(ts[:n], flux[:n])
        np.testing.assert_array_equal(fv.ingest._exceedances(series.flux, 4e-4),
                                      np.flatnonzero(series.flux >= 4e-4))

        def passes():
            series = fv.FluxSeries(ts[:n], flux[:n])  # a series of its own, so that each pass scans
            return (fv.decluster(series, 4e-4, 2),
                    fv.gap_sweep(series, 4e-4, [1, 2, 3, 5, 40]))

        catalog, curve = passes()
        monkeypatch.setattr(fv.ingest, "_WORKERS", 1)
        one_thread = passes()
        monkeypatch.setattr(fv.ingest, "_exceedances",
                            lambda values, threshold: np.flatnonzero(values >= threshold))
        plain = passes()
        for want_catalog, want_curve in (one_thread, plain):
            assert catalog == want_catalog
            for name in ("gaps", "lag1", "event_counts"):
                np.testing.assert_array_equal(getattr(curve, name), getattr(want_curve, name))
        assert len(catalog) == (4 if n else 0)

    def test_saturation_runs_match_a_per_sample_loop(self, workers):
        # rows 0-15 fall on 2003-10-28, 16-19 on 10-29 and the rest on 10-31
        ts = np.datetime64("2003-10-28T23:44", "m") + np.arange(self.N)
        ts[20:] += 2 * 1440
        flux = np.full(self.N, 1e-4)
        flux[[3, 40]] = np.nan
        flux[6:11] = 17e-4  # across the seam at 8
        flux[14:18] = 20e-4  # across the seam at 16 and midnight, kept by 10-29
        flux[30:35], flux[32] = 18e-4, np.nan  # one stretch that a NaN splits in two
        flux[94:97] = 30e-4  # across the seam at 96
        flux[98:] = 17e-4  # a run that ends on the last row
        series = fv.FluxSeries(ts, flux)
        for retained, want_removed in ((("2003-10-29",), 5), ((), 6)):
            want_flux, removed = _saturation_oracle(ts, flux, 17e-4, retained)
            config = fv.IngestConfig(retained_saturation_events=retained)
            filtered, got_removed = fv.filter_saturation(series, config)
            assert got_removed == removed == want_removed
            np.testing.assert_array_equal(filtered.flux.view(np.uint64),
                                          want_flux.view(np.uint64))
            np.testing.assert_array_equal(filtered.timestamps, ts)


def _saturation_oracle(ts, flux, level, retained):
    """The flux with each run at or above ``level`` that touches no retained
    date blanked, and the number of runs blanked, one sample at a time."""
    out, removed, run = flux.copy(), 0, []
    for i in range(flux.size + 1):
        if i < flux.size and flux[i] >= level:
            run.append(i)
            continue
        if run and not {str(ts[j].astype("datetime64[D]")) for j in run} & set(retained):
            out[run] = np.nan
            removed += 1
        run = []
    return out, removed


def _scan_peak(n: int) -> int:
    """tracemalloc's peak over parsing the CSV of n rows, 10% of them NaN."""
    rng = np.random.default_rng(23)
    flux = 1e-4 * rng.pareto(2.0, n) / 0.7
    flux[rng.random(n) < 0.1] = np.nan
    data = fv.write_flux_csv(make_series(flux))
    tracemalloc.start()
    try:
        back = fv.parse_flux_csv(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(back.flux.view(np.uint64), flux.view(np.uint64))
    return peak


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


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

    @pytest.mark.parametrize("divisor", [0.0, -0.7, np.inf, np.nan])
    def test_bad_divisor(self, divisor):
        # the rule and the words of IngestConfig.scaling_divisor
        with pytest.raises(DomainError, match="scaling_divisor must be > 0 and finite"):
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

    def test_no_flux_copy_unless_a_run_is_blanked(self):
        n = 1_000_000
        flux = np.full(n, 1e-4)
        flux[10:20] = 20e-4  # one saturated run, on the retained date
        series = make_series(flux, start="2003-10-28T00:00")
        tracemalloc.start()
        try:
            filtered, removed = fv.filter_saturation(series, fv.IngestConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the exceedance scan's mask of a task of rows on each chunk thread;
        # a copy of the flux would add 8 B a row, a whole-series mask 1 B
        assert peak < 2 * n
        assert removed == 0 and filtered is series

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

    BLOCK = fv.ingest._BUILD_BLOCK_ROWS
    FAULTS = {
        "off grid": (DomainError, "timestamps must lie on the minute grid"),
        "repeated stamp": (OrderingError, "timestamps must be strictly increasing"),
        "-inf": (DomainError, "flux values must be NaN or finite and >= 0"),
        "inf": (DomainError, "flux values must be NaN or finite and >= 0"),
        "negative": (DomainError, "flux values must be NaN or finite and >= 0"),
    }

    @staticmethod
    def _blocks_of_rows(n):
        ts = np.datetime64("2000-01-01T00:00", "m") + np.arange(n)
        flux = np.linspace(0.0, 1e-3, n)
        flux[::7] = np.nan
        return ts, flux

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("row", [BLOCK + 11, BLOCK - 1, BLOCK, 2 * BLOCK + 4],
                             ids=["later block", "block end", "block start", "last row"])
    def test_fault_in_any_block_is_found(self, fault, row):
        ts, flux = self._blocks_of_rows(2 * self.BLOCK + 5)
        if fault == "off grid":
            ts = ts.astype("datetime64[s]")
            ts[row] += 30
        elif fault == "repeated stamp":
            ts[row] = ts[row - 1]  # at the block start, a pair across blocks
        else:
            flux[row] = {"-inf": -np.inf, "inf": np.inf, "negative": -1e-12}[fault]
        error, message = self.FAULTS[fault]
        with pytest.raises(error) as exc:
            fv.FluxSeries(ts, flux)
        assert type(exc.value) is error and str(exc.value) == message

    def test_several_faults_raise_the_first_in_check_order(self):
        # the checks run in this order: stamp conversion, minute grid, flux
        # conversion, shape, ordering, flux values
        n = 2 * self.BLOCK + 5
        ts, flux = self._blocks_of_rows(n)
        off_grid = ts.astype("datetime64[s]")
        off_grid[n - 1] += 30
        backwards = ts.copy()
        backwards[n - 1] = backwards[0]
        bad_flux = flux.copy()
        bad_flux[0] = -1.0
        grid, shape = "timestamps must lie on the minute grid", \
            "timestamps and flux must be parallel 1-d arrays"
        cases = [
            (off_grid, bad_flux, DomainError, grid),
            (off_grid, flux[:-1], DomainError, grid),
            (off_grid, ["x"] * n, DomainError, grid),
            (["2000-01-01T00:00", "x"], ["q", 1.0], ValueError,
             'Error parsing datetime string "x" at position 0'),
            (ts[:2], ["1", "zz", "3"], ValueError, "could not convert string to float: 'zz'"),
            (backwards, flux[:-1], DomainError, shape),
            (backwards[:, None], flux[:, None], DomainError, shape),
            (backwards, bad_flux, OrderingError, "timestamps must be strictly increasing"),
        ]
        for stamps, values, error, message in cases:
            with pytest.raises(error) as exc:
                fv.FluxSeries(stamps, values)
            assert type(exc.value) is error and str(exc.value) == message

    @pytest.mark.parametrize("stamps,values", [
        *(((np.datetime64("2000-01-01T00:00", "m") + np.arange(3)).astype(f"datetime64[{unit}]"),
           [1e-4, 2e-4, 3e-4]) for unit in ("s", "ms", "us", "ns")),
        (np.array(["2000-01-01", "2000-01-02", "2000-01-03"], "datetime64[D]"),
         [1e-4, 2e-4, 3e-4]),
        (np.array([15778080, 15778081, 15778082]), [1e-4, 2e-4, 3e-4]),
        (["2000-01-01T00:00", "2000-01-01T00:01", "2000-01-01T00:02"], [1e-4, 2e-4, 3e-4]),
        (np.datetime64("2000-01-01T00:00", "m") + np.arange(3), [1e-4, None, 3e-4]),
        (np.datetime64("2000-01-01T00:00", "m") + np.arange(3), np.array([0, 2, 3])),
        (np.datetime64("2000-01-01T00:00", "m") + np.arange(3), ["1e-4", "nan", "3e-4"]),
    ], ids=["s", "ms", "us", "ns", "D", "int minutes", "ISO strings", "None flux",
            "int flux", "numeric strings"])
    def test_input_kinds_are_copied_as_converted(self, stamps, values):
        series = fv.FluxSeries(stamps, values)
        want_ts = np.asarray(stamps).astype("datetime64[m]")
        want_flux = np.array(values, dtype=np.float64)
        assert series.timestamps.dtype == np.dtype("datetime64[m]")
        np.testing.assert_array_equal(series.timestamps, want_ts)
        np.testing.assert_array_equal(series.flux, want_flux)
        assert series.n_observations == np.count_nonzero(~np.isnan(want_flux))

    @pytest.mark.parametrize("n,row", [(2 * BLOCK + 5, 0), (2 * BLOCK + 5, BLOCK),
                                       (2 * BLOCK + 5, 2 * BLOCK + 4), (1, 0)],
                             ids=["first row", "block start", "last row", "one row"])
    def test_nat_stamp_is_no_ordering_fault(self, n, row):
        # NaT is the int64 minimum and compares false as a datetime, so it
        # is refused by name, in any block and in any stamp dtype
        ts, flux = self._blocks_of_rows(n)
        ts[row] = np.datetime64("NaT")
        for given in (ts, ts.astype("datetime64[s]"), ts.astype(np.int64)):
            with pytest.raises(DomainError) as exc:
                fv.FluxSeries(given, flux)
            assert type(exc.value) is DomainError
            assert str(exc.value) == "timestamps must not be NaT"

    def test_converted_stamps_of_many_blocks(self):
        n = 2 * self.BLOCK + 5
        ts, flux = self._blocks_of_rows(n)
        for given in (ts.astype("datetime64[s]"), ts.astype(np.int64)):
            series = fv.FluxSeries(given, flux.tolist())
            np.testing.assert_array_equal(series.timestamps, ts)
            np.testing.assert_array_equal(series.flux, flux)
        with pytest.raises(OrderingError):
            fv.FluxSeries(ts[::-1].astype(np.int64), flux)

    def test_n_observations_counts_non_missing_samples(self):
        ts, flux = self._blocks_of_rows(2 * self.BLOCK + 5)
        built = fv.FluxSeries(ts, flux)
        adopted = [fv.parse_flux_csv(fv.write_flux_csv(built)),
                   fv.apply_scaling(built, 0.7),
                   fv.filter_saturation(built, fv.IngestConfig(saturation_level=5e-4))[0],
                   fv.synth_clustered_series(3e-4, 0.25, 60.0, 10.0, 0.01, seed=1)]
        for series in [built, *adopted]:
            assert series.n_observations == np.count_nonzero(~np.isnan(series.flux))
            assert vars(series)["n_observations"] == series.n_observations  # kept

    def test_build_copies_and_checks_in_one_pass(self):
        n = 1_000_000
        ts, flux = self._blocks_of_rows(n)
        tracemalloc.start()
        try:
            series = fv.FluxSeries(ts, flux)
            build_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert series.n_observations == n - (n + 6) // 7
            count_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the two copies (16 B a row) and one block's temporaries; a
        # whole-array mask or difference would add 1 or 8 B a row
        assert build_peak < 16 * n + 0.75 * 2**20
        assert count_peak < 1024


class TestSynth:
    def test_deterministic(self):
        a = fv.synth_clustered_series(3e-4, 0.25, 10.0, 8.0, 0.1, seed=99)
        b = fv.synth_clustered_series(3e-4, 0.25, 10.0, 8.0, 0.1, seed=99)
        np.testing.assert_array_equal(a.flux, b.flux)
        np.testing.assert_array_equal(a.timestamps, b.timestamps)

    def test_event_rate_of_one_a_minute_is_accepted(self):
        series = fv.synth_clustered_series(3e-4, 0.25, fv.ingest.MINUTES_PER_YEAR, 8.0, 0.001,
                                           seed=1)
        assert len(series) == 526 and np.all(series.flux > 0)

    def test_zero_event_rate_stays_quiet(self):
        series = fv.synth_clustered_series(3e-4, 0.25, 0.0, 8.0, 0.05, seed=1)
        assert np.all(series.flux < 1e-4)

    @pytest.mark.parametrize("kwargs", [
        {"scale": -1.0}, {"duration": 0.0}, {"event_rate": -2.0},
        {"cluster_length_mean": 0.5}, {"base_threshold": 0.0},
        {"dip_fraction": 1.0},
        # each must be finite; huge finite durations are left out, as they allocate
        {"duration": np.inf}, {"duration": np.nan},
        {"event_rate": np.inf}, {"event_rate": np.nan},
        {"cluster_length_mean": np.inf}, {"cluster_length_mean": np.inf, "event_rate": 6000.0},
        {"cluster_length_mean": np.nan},
        {"base_threshold": np.inf}, {"base_threshold": np.nan},
        # more than one event a minute; refused before anything is drawn
        {"event_rate": fv.ingest.MINUTES_PER_YEAR + 1.0}, {"event_rate": 1e300},
        # past 9999-12-31T23:59, the last stamp the writer formats; refused
        # before anything is allocated
        {"duration": 1e13},
        {"duration": 61 / fv.ingest.MINUTES_PER_YEAR, "start": "9999-12-31T23:00"},
    ])
    def test_invalid_parameters(self, kwargs):
        base = dict(scale=3e-4, shape=0.25, event_rate=5.0,
                    cluster_length_mean=8.0, duration=0.2, seed=0)
        base.update(kwargs)
        with pytest.raises(DomainError):
            fv.synth_clustered_series(**base)

    def test_series_may_end_at_the_last_written_stamp(self):
        series = fv.synth_clustered_series(3e-4, 0.25, 5.0, 8.0, 60 / fv.ingest.MINUTES_PER_YEAR,
                                           seed=1, start="9999-12-31T23:00")
        assert len(series) == 60
        assert series.timestamps[-1] == np.datetime64("9999-12-31T23:59", "m")
        assert fv.write_flux_csv(series).endswith(b"\n9999-12-31T23:59:00Z,"
                                                  + repr(series.flux[-1].item()).encode() + b"\n")

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
