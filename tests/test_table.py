"""The CSV table format shared by every artifact: round trips and golden text."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flarevt as fv
from flarevt import ParseError
from flarevt.decluster import MISSING_MINUTES_POLICY, EventCatalog, catalog_from_files
from flarevt._table import _shortest_digits, table_text
from flarevt.pipeline import excesses_from_csv_text, excesses_to_csv_text

from helpers import make_series

# minutes from 1870 to 2070, so that stamps before 1970 are drawn
MINUTES = st.integers(-100 * 525_960, 100 * 525_960)
# finite floats, subnormal and huge values included
FLOATS = st.floats(allow_nan=False, allow_infinity=False)

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
    @given(st.lists(st.tuples(MINUTES, MINUTES, MINUTES, FLOATS,
                              st.integers(0, 2**62)), max_size=12))
    def test_catalog(self, rows):
        catalog = _catalog(rows)
        back = catalog_from_files(catalog.to_csv_text(), _meta(catalog))
        assert back == catalog
        assert back.peak_fluxes.tobytes() == catalog.peak_fluxes.tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(FLOATS, max_size=20))
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

    def test_write_flux_csv_nan_rows_on_chunk_edges(self, monkeypatch, tmp_path):
        monkeypatch.setattr(fv.ingest, "_WRITE_CHUNK_ROWS", 4)
        flux = np.geomspace(1e-8, 2e-3, 13) / 0.7
        flux[[0, 3, 4, 7, 8, 12]] = np.nan  # the first and last row of chunks
        series = make_series(flux, start=np.datetime64("1969-12-31T23:57", "m"))
        stamps = np.datetime_as_string(series.timestamps, unit="s").tolist()
        want = "timestamp,flux_wm2\n" + "".join(
            f"{t}Z,{line}" for t, line in zip(stamps, _repr_lines(flux.tolist()).splitlines(True)))
        path = tmp_path / "series.csv"
        assert fv.write_flux_csv(series, path) == want
        assert path.read_bytes() == want.encode("ascii")
