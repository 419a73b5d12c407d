"""The CSV table format shared by every artifact: round trips and golden text."""

import json
import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flarevt as fv
from flarevt import ParseError
from flarevt.decluster import MISSING_MINUTES_POLICY, EventCatalog, catalog_from_files
from flarevt._table import (_decimal_values, _shortest_digits, read_floats, table_bytes,
                            table_text)
from flarevt.pipeline import excesses_from_csv_text, excesses_to_csv_text

from helpers import FLOAT_TEXTS, make_series

# minutes from 1870 to 2070, so that stamps before 1970 are drawn
MINUTES = st.integers(-100 * 525_960, 100 * 525_960)
# finite floats, subnormal and huge values included
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
# the values a peak flux or an excess may take: finite and >= 0, -0.0 included
NONNEGATIVE_FLOATS = st.floats(min_value=-0.0, allow_infinity=False)

CATALOG_HEADER = "peak_time,peak_flux,cluster_start,cluster_end,cluster_samples"


def _catalog(rows) -> EventCatalog:
    stamps = np.array([r[:3] for r in rows], dtype=np.int64).reshape(-1, 3)
    minutes = stamps.astype("datetime64[m]")
    return EventCatalog(minutes[:, 0], [r[3] for r in rows], minutes[:, 1], minutes[:, 2],
                        [r[4] for r in rows], decluster_threshold=1e-4, gap_minutes=15,
                        n_total_observations=1000, span_years=0.5)


def _meta(catalog: EventCatalog) -> dict:
    return json.loads(json.dumps(catalog.to_json_dict()))


class TestRoundTrip:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(MINUTES, MINUTES, MINUTES, NONNEGATIVE_FLOATS,
                              st.integers(0, 2**62)), max_size=12))
    def test_catalog(self, rows):
        catalog = _catalog(rows)
        back = catalog_from_files(catalog.to_csv_text(), _meta(catalog))
        assert back == catalog
        assert back.peak_fluxes.tobytes() == catalog.peak_fluxes.tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(NONNEGATIVE_FLOATS, max_size=20))
    def test_excesses_bit_for_bit(self, values):
        y = np.array(values, dtype=np.float64)
        back = excesses_from_csv_text(excesses_to_csv_text(y))
        assert back.dtype == np.float64
        assert back.tobytes() == y.tobytes()

    def test_bytes_read_like_text(self):
        catalog = _catalog([(-1, 0, 3, 5e-324, 4)])
        text = catalog.to_csv_text()
        assert catalog_from_files(text.encode("ascii"), _meta(catalog)) == catalog


class TestGoldenText:
    def test_sweep_blanks_a_nan_lag_and_writes_integer_counts(self):
        curve = fv.GapSweepCurve([1, 2, 30], [np.nan, 0.25, -1e-300], [2, 10, 7])
        assert curve.to_csv_text() == ("gap_minutes,lag1_autocorrelation,event_count\n"
                                       "1,,2\n2,0.25,10\n30,-1e-300,7\n")

    def test_catalog_stamps(self):
        catalog = _catalog([(-1, -2, 1439, 1.5e-4, 3)])
        assert catalog.to_csv_text() == (
            CATALOG_HEADER + "\n"
            "1969-12-31T23:59:00Z,0.00015,1969-12-31T23:58:00Z,1970-01-01T23:59:00Z,3\n")

    def test_empty_catalog_is_its_header(self):
        assert _catalog([]).to_csv_text() == CATALOG_HEADER + "\n"


class TestCatalogErrors:
    ROW = "2000-01-01T00:00:00Z,0.0002,2000-01-01T00:00:00Z,2000-01-01T00:00:00Z,1\n"
    META = {"decluster_threshold": 1e-4, "gap_minutes": 15, "n_total_observations": 1,
            "span_years": 1e-6, "missing_minutes_policy": MISSING_MINUTES_POLICY}

    def test_reference_row_reads(self):
        catalog = catalog_from_files(CATALOG_HEADER + "\n" + self.ROW, self.META)
        assert len(catalog) == 1 and catalog.peak_fluxes[0] == 2e-4

    def test_wrong_header_names_line_1(self):
        text = "peak,peak_flux,cluster_start,cluster_end,cluster_samples\n" + self.ROW
        with pytest.raises(ParseError, match="line 1: expected header"):
            catalog_from_files(text, self.META)

    def test_off_grid_stamp_names_line(self):
        text = CATALOG_HEADER + "\n" + self.ROW + self.ROW.replace("00:00:00Z,0", "00:01:30Z,0")
        with pytest.raises(ParseError, match="line 3: timestamp '2000-01-01T00:01:30' "
                                             "not on the minute grid"):
            catalog_from_files(text, self.META)

    def test_empty_peak_flux_names_line(self):
        text = CATALOG_HEADER + "\n\n" + self.ROW.replace("0.0002", "")
        with pytest.raises(ParseError, match="line 3: bad peak_fluxes value ''"):
            catalog_from_files(text, self.META)


def _repr_lines(values) -> str:
    """The reference text of a float column: repr of each value, NaN empty."""
    return "".join(("" if v != v else repr(v)) + "\n" for v in values)


# the values the array formatter leaves to repr, and integers, with either sign
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
    st.integers(-1074, 1023).map(lambda k: math.ldexp(1.0, k)),
    st.integers(0, 2**70).map(float),
)
SIGNED_EDGE_FLOATS = st.tuples(EDGE_FLOATS, st.booleans()).map(lambda v: -v[0] if v[1] else v[0])


def _digit_count(text: str) -> int:
    """The significant digits in a float's repr."""
    return len(text.lstrip("-").partition("e")[0].replace(".", "").strip("0"))


class TestFloatText:
    """The array formatter behind every float field, against repr value for value."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(FLOATS, SIGNED_EDGE_FLOATS), min_size=1, max_size=40))
    def test_matches_repr(self, values):
        assert table_text("v", np.array(values)) == "v\n" + _repr_lines(values)

    def test_seeded_sweep_matches_repr(self):
        rng = np.random.default_rng(20240601)
        n = 500_000
        # random bit patterns: a fifth over every exponent, the rest at 1e-21..1e21
        bits = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False)
        bits[n // 5:] &= np.uint64(0x800F_FFFF_FFFF_FFFF)
        bits[n // 5:] |= rng.integers(1023 - 70, 1023 + 70, n - n // 5).astype(np.uint64) << 52
        bits = bits.view(np.float64)[~np.isnan(bits.view(np.float64))]
        # k-digit decimals, k in 1..17, at exponents around both notation boundaries
        k = rng.integers(1, 18, n)
        mantissa = rng.integers(10 ** (k - 1), 10 ** k)
        exponent = rng.integers(-25, 26, n) - k + 1
        decimals = np.array([float(f"{m}e{e}") for m, e in zip(mantissa.tolist(), exponent.tolist())])
        decimals[rng.random(n) < 0.5] *= -1.0
        for values in (bits, decimals):
            assert table_text("v", values) == "v\n" + "\n".join(map(repr, values.tolist())) + "\n"
        # repr is the fallback, not the rule: the kernel decides nearly every value
        for values in (np.abs(bits[n // 5:]), np.abs(decimals)):
            assert np.mean(_shortest_digits(values)[2]) > 0.95

    @pytest.mark.parametrize("value,text", [
        (9.999999999999999e-05, "9.999999999999999e-05"), (0.0001, "0.0001"),
        (1e16, "1e+16"), (9999999999999998.0, "9999999999999998.0"), (1e-100, "1e-100"),
        (-0.0, "-0.0"), (0.1, "0.1"), (1e23, "1e+23"), (-1.5e300, "-1.5e+300"),
        (123456789.0, "123456789.0"), (5e-324, "5e-324"), (math.inf, "inf"),
        (-math.inf, "-inf"), (math.nan, ""),
    ])
    def test_notation_boundaries(self, value, text):
        assert table_text("v", np.array([value])) == f"v\n{text}\n"

    def test_every_layout_matches_repr(self):
        # each sign, digit count 1-17 and exponent -7..18 (both notations and
        # every place of the point), then 3-digit exponents, NaN between them
        exponents = [*range(-7, 19), -300, -290, -123, -100, 100, 123, 289, 300]
        values = []
        for e in exponents:
            for n in range(1, 18):
                value = float(f"{'1234567890123456'[:n - 1]}7e{e - n + 1}")
                while _digit_count(repr(value)) != n:  # 16 and 17 digits that repr shortens
                    value = math.nextafter(value, math.inf)
                values += [value, math.nan, -value, math.nan]
        assert {(v < 0, _digit_count(repr(v)), math.floor(math.log10(abs(v))))
                for v in values if v == v} == {(sign, n, e) for sign in (False, True)
                                                for n in range(1, 18) for e in exponents}
        assert table_text("v", np.array(values)) == "v\n" + _repr_lines(values)

    def test_working_memory(self):
        n = 8192
        series = fv.synth_clustered_series(3e-4, 0.25, 60.0, 10.0, 0.1, seed=7)
        columns = series.timestamps[:n], series.flux[:n]
        table_bytes(*columns)
        tracemalloc.start()
        try:
            table_bytes(*columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # ~255 B a row: the stamp words (24) held while the float field's
        # working words peak (~230); a per-byte gather index into a 24-byte
        # field would add 192 B a row on its own
        assert peak < 320 * n

    def test_write_flux_csv_nan_rows_on_chunk_edges(self, monkeypatch, tmp_path):
        monkeypatch.setattr(fv.ingest, "_WRITE_CHUNK_ROWS", 4)
        flux = np.geomspace(1e-8, 2e-3, 13) / 0.7
        flux[[0, 3, 4, 7, 8, 12]] = np.nan  # the first and last row of chunks
        series = make_series(flux, start=np.datetime64("1969-12-31T23:57", "m"))
        stamps = np.datetime_as_string(series.timestamps, unit="s").tolist()
        want = "timestamp,flux_wm2\n" + "".join(
            f"{t}Z,{line}" for t, line in zip(stamps, _repr_lines(flux.tolist()).splitlines(True)))
        path = tmp_path / "series.csv"
        assert fv.write_flux_csv(series, path) == want.encode("ascii")
        assert path.read_bytes() == want.encode("ascii")



class TestStampText:
    """The stamp formatter behind every stamp field, against numpy's text."""

    def test_stamps_match_datetime_as_string(self):
        firsts = np.array([f"{y}-{m:02d}-01" for y in (1900, 2000, 2100) for m in range(1, 13)],
                          dtype="datetime64[m]")
        # month ends, leap days of 2000 (and none of 1900 or 2100), years
        # before 1970, 0001 and 9999, in no order, as catalog columns come
        stamps = np.concatenate([firsts, firsts - 1, np.array(
            ["2000-02-29T12:34", "1969-12-31T23:59", "1600-02-29T00:00", "0001-01-01T00:00",
             "0000-03-01T07:00", "9999-12-31T23:59"], dtype="datetime64[m]")])
        np.random.default_rng(3).shuffle(stamps)
        want = "".join(t + "Z\n" for t in np.datetime_as_string(stamps, unit="s"))
        assert table_text("t", stamps) == "t\n" + want

    @pytest.mark.parametrize("stamp", ["10000-01-01T00:00", "-0001-12-31T23:59", "NaT"])
    def test_stamps_outside_years_0000_9999_raise(self, stamp):
        with pytest.raises(ValueError, match="years 0000-9999"):
            table_bytes(np.array(["2000-01-01T00:00", stamp], dtype="datetime64[m]"))

# a header and a stamp before the first field, as in a flux CSV: the
# kernel gathers up to 29 bytes back from a field's end
_FIELD_PREFIX = b"timestamp,flux_wm2\n2000-01-01T00:00:00Z,"


def _read_fields(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """read_floats and _decimal_values' decisions on fields, one a line."""
    data = _FIELD_PREFIX + "".join(t + "\n" for t in texts).encode("ascii")
    ends = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))[1:]
    widths = np.array([len(t) for t in texts], dtype=np.int64)
    return read_floats(data, ends, widths), _decimal_values(data, ends, widths)[1]


def _float_bits(texts) -> np.ndarray:
    return np.array([float(t) if t else math.nan for t in texts]).view(np.uint64)


class TestFloatRead:
    """The array reader behind every canonical flux field, against float() value for value."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(FLOAT_TEXTS, st.just("")), min_size=1, max_size=40))
    def test_matches_float(self, texts):
        assert _read_fields(texts)[0].view(np.uint64).tobytes() == _float_bits(texts).tobytes()

    def test_seeded_sweep_matches_float(self):
        rng = np.random.default_rng(20241018)
        n = 320_000
        # random bit patterns: a fifth over every exponent, the rest at 1e-21..1e21
        bits = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False)
        bits[n // 5:] &= np.uint64(0x800F_FFFF_FFFF_FFFF)
        bits[n // 5:] |= rng.integers(1023 - 70, 1023 + 70, n - n // 5).astype(np.uint64) << 52
        bits = bits.view(np.float64)[np.isfinite(bits.view(np.float64))]
        # k-digit decimals, k in 1..17, at exponents -25..25, as written and as repr
        k = rng.integers(1, 18, n)
        mantissa = rng.integers(10 ** (k - 1), 10 ** k)
        exponent = rng.integers(-25, 26, n) - k + 1
        decimals = [f"{m}e{e:+03d}" for m, e in zip(mantissa.tolist(), exponent.tolist())]
        # powers of two and their neighbours, subnormals, and values near 1e-290 and 1e290
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        powers = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
        subnormals = (rng.integers(1, 2**52, 20_000, dtype=np.uint64)).view(np.float64)
        extremes = 10.0 ** rng.uniform(-1, 1, 40_000) * np.repeat([1e-290, 1e290], 20_000)
        # exact ties between two doubles: odd multiples of half an ulp, in 16-19 digits
        odd = 2 ** 53 + 2 * rng.integers(0, 2 ** 51, 10_000) + 1
        ties = [str(Decimal(int(m)) / 2 ** k) for k in range(4) for m in odd.tolist()]
        ties += [str(int(m) << e) for e in range(1, 10) for m in odd[:1000].tolist()]
        sweep = {
            "ties": ties,
            "bits": list(map(repr, bits.tolist())),
            "decimals": decimals,
            "decimal values": [repr(float(t)) for t in decimals],
            "edges": list(map(repr, np.concatenate([powers, subnormals, extremes]).tolist())),
        }
        assert sum(map(len, sweep.values())) >= 1_000_000
        decided = {}
        for name, texts in sweep.items():
            values, decided[name] = _read_fields(texts)
            assert values.view(np.uint64).tobytes() == _float_bits(texts).tobytes(), name
        # float() is the fallback, not the rule: the kernel decides nearly every value
        assert np.mean(decided["bits"][n // 5:]) > 0.95
        for name in ("decimals", "decimal values"):
            assert np.mean(decided[name]) > 0.95

    @pytest.mark.parametrize("text", [
        ".", "-", "e+05", "1e", "1e+", "1..5", "1.5.", "--1", "1e+05e+05", "0x10", "1,5",
        " 1", "1_0", "inf", "nan",  # float() takes these, but they are not decimals
    ])
    def test_rejects_non_decimals(self, text):
        with pytest.raises(ValueError):
            _read_fields(["1e-05", text])
