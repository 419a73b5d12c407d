"""Minute-cadence X-ray flux ingestion and conditioning.

Reads the two-column CSV interchange format (``timestamp,flux_wm2``),
applies the cross-satellite scaling divisor, and removes instrument
saturation runs.  Missing data stays on the minute grid as NaN so that
gap structure survives for declustering.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass
from typing import IO

import numpy as np

from ._table import STAMP_WIDTH, Table, read_floats, read_stamps, read_table, table_bytes
from .errors import DomainError, EmptyInputError, OrderingError, ParseError
from .gpd import GpdParams, gpd_quantile

__all__ = [
    "MINUTES_PER_YEAR",
    "FluxSeries",
    "IngestConfig",
    "parse_flux_csv",
    "read_flux_csv",
    "write_flux_csv",
    "apply_scaling",
    "filter_saturation",
    "synth_clustered_series",
]

MINUTES_PER_YEAR = 525_600

CSV_HEADER = "timestamp,flux_wm2"

_MINUTE = np.timedelta64(1, "m")


@dataclass(frozen=True)
class FluxSeries:
    """Time-ordered minute-cadence flux samples.

    ``timestamps`` is a strictly increasing ``datetime64[m]`` array and
    ``flux`` a parallel float64 array in W/m^2 with NaN marking missing
    samples.  The constructor checks this on frozen copies of its own, so
    a series is safe to share.  The span runs from first to last stamp.
    """

    timestamps: np.ndarray
    flux: np.ndarray

    def __post_init__(self):
        given = np.asarray(self.timestamps)
        ts = given.astype("datetime64[m]")  # a copy, as is fx
        if given.dtype.kind == "M" and given.dtype != ts.dtype and np.any(ts != given):
            raise DomainError("timestamps must lie on the minute grid")
        fx = np.array(self.flux, dtype=np.float64)
        if ts.shape != fx.shape or ts.ndim != 1:
            raise DomainError("timestamps and flux must be parallel 1-d arrays")
        if np.any(ts[1:] <= ts[:-1]):
            raise OrderingError("timestamps must be strictly increasing")
        if np.any(fx < 0.0) or np.any(fx == np.inf):  # NaN compares false
            raise DomainError("flux values must be NaN or finite and >= 0")
        self._freeze(ts, fx)

    @classmethod
    def _adopt(cls, timestamps: np.ndarray, flux: np.ndarray) -> "FluxSeries":
        """Freezes arrays that its caller built and checked and no one else writes."""
        series = cls.__new__(cls)
        series._freeze(timestamps, flux)
        return series

    def _freeze(self, timestamps: np.ndarray, flux: np.ndarray) -> None:
        for name, array in (("timestamps", timestamps), ("flux", flux)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def __len__(self) -> int:
        return int(self.timestamps.size)

    @property
    def n_observations(self) -> int:
        """Number of non-missing samples."""
        return int(np.count_nonzero(~np.isnan(self.flux)))

    @property
    def span_start(self) -> np.datetime64:
        return self.timestamps[0] if len(self) else np.datetime64("NaT", "m")

    @property
    def span_end(self) -> np.datetime64:
        return self.timestamps[-1] if len(self) else np.datetime64("NaT", "m")

    @property
    def span_minutes(self) -> int:
        """Minutes covered by [span_start, span_end], inclusive; 0 when empty."""
        return int((self.span_end - self.span_start) / _MINUTE) + 1 if len(self) else 0

    @property
    def span_years(self) -> float:
        return self.span_minutes / MINUTES_PER_YEAR


@dataclass(frozen=True)
class IngestConfig:
    """Conditioning policy for one input file.

    ``retained_saturation_events`` lists ISO dates (UTC) whose saturation
    runs are kept as real observations instead of being blanked.  The
    defaults are the reference GOES policy: divide by 0.7 and blank every
    saturation run except the one on 2003-10-28.
    """

    scaling_divisor: float = 0.7
    saturation_level: float = 17e-4
    retained_saturation_events: tuple[str, ...] = ("2003-10-28",)
    missing_sentinels: tuple[float, ...] = (-99999.0,)

    def __post_init__(self):
        if not self.scaling_divisor > 0.0:
            raise DomainError("scaling_divisor must be > 0")
        if not self.saturation_level > 0.0:
            raise DomainError("saturation_level must be > 0")
        # normalize eagerly so bad dates fail at config time
        try:
            dates = tuple(str(np.datetime64(d, "D"))
                          for d in self.retained_saturation_events)
        except ValueError as exc:
            raise DomainError(f"retained_saturation_events: {exc}") from None
        if "NaT" in dates:  # what an empty string or "NaT" reads as
            raise DomainError("retained_saturation_events: "
                              f"{self.retained_saturation_events[dates.index('NaT')]!r} "
                              "is not a date")
        object.__setattr__(self, "retained_saturation_events", dates)
        object.__setattr__(self, "missing_sentinels",
                           tuple(float(v) for v in self.missing_sentinels))


# ---------------------------------------------------------------------------
# CSV interchange format
# ---------------------------------------------------------------------------

# The canonical layout, as write_flux_csv produces it: the exact header,
# then ``YYYY-MM-DDTHH:MM:00Z,<flux>`` rows, each ended by a newline.
_CANONICAL_HEADER = (CSV_HEADER + "\n").encode("ascii")
_SCAN_CHUNK_BYTES = 1 << 19  # bytes decoded at a time, with ~10x that in working arrays
_WRITE_CHUNK_ROWS = 1 << 13  # rows formatted at a time; their buffers stay in cache
_CSV_KINDS = {"timestamp": "datetime64[m]", "flux": np.float64}


def _scan_canonical(data: str | bytes) -> Table | None:
    """Decode canonical input in numpy; None leaves it to the per-line scan.

    Anything else (CRLF, a BOM, blank lines, padded fields, date-only or
    off-grid stamps, invalid dates, ``nan`` or ``inf`` text, non-ASCII
    bytes, malformed rows) returns None, so the per-line scan decides it
    and names the line.
    """
    if isinstance(data, str):
        if not data.isascii():
            return None
        data = data.encode("ascii")
    start = len(_CANONICAL_HEADER)
    if not data.startswith(_CANONICAL_HEADER) or len(data) == start:
        return None
    # each chunk's arrays are joined at the end: filling preallocated ones
    # instead measured 1.7x slower at 30 years, malloc returning the freed
    # working arrays to the system after every chunk (1.2M page faults)
    stamps, flux = [], []
    while start < len(data):
        stop = data.find(b"\n", start + _SCAN_CHUNK_BYTES) + 1 or len(data)
        chunk = np.frombuffer(data, np.uint8, stop - start, start)
        ends = start + np.flatnonzero(chunk == ord("\n"))
        if stop == len(data) and not data.endswith(b"\n"):
            ends = np.append(ends, stop)
        starts = np.concatenate(([start], ends[:-1] + 1))
        widths = ends - starts - STAMP_WIDTH
        if widths.min() < 0:  # a blank line, or a row too short for its stamp
            return None
        minutes = read_stamps(data, starts)
        if minutes is None:
            return None
        try:
            flux.append(read_floats(data, ends, widths))
        except ValueError:
            return None
        stamps.append(minutes)
        start = stop
    stamps, flux = np.concatenate(stamps).view("datetime64[m]"), np.concatenate(flux)

    def row_text(i: int) -> tuple[int, tuple[str, ...]]:
        ends = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))
        stop = ends[i + 1] if i + 1 < ends.size else len(data)
        ts, value = data[ends[i] + 1:stop].decode("ascii").split(",")
        return i + 2, (ts[:-1], value)

    return Table((stamps, flux), np.isnan(flux), row_text)


def parse_flux_csv(source: str | bytes | IO, config: IngestConfig | None = None) -> FluxSeries:
    """Parse the two-column flux CSV into a series.

    Expects a ``timestamp,flux_wm2`` header, ISO-8601 UTC timestamps with
    a ``Z`` suffix on the minute grid, and decimal or scientific-notation
    flux values.  An empty flux field or a configured sentinel value
    marks the sample missing.  Input in the layout ``write_flux_csv``
    produces is decoded a chunk at a time in numpy, each flux bit for bit
    as ``float()`` reads it; any other input is scanned line by line, by
    the scan every CSV reader shares.  Both give the same series or the
    same error.

    Raises
    ------
    EmptyInputError
        No content or no data rows.
    ParseError
        Malformed row or bytes that are not UTF-8; the message names the
        offending 1-based line.
    OrderingError
        Non-increasing timestamps; names the offending line.
    """
    config = config or IngestConfig()
    data = source if isinstance(source, (str, bytes)) else source.read()
    (ts_min, flux), empty, row_text = (_scan_canonical(data)
                                       or read_table(data, CSV_HEADER, _CSV_KINDS))
    if not ts_min.size:
        raise EmptyInputError("no data rows")

    for sentinel in config.missing_sentinels:
        empty |= flux == sentinel
    flux[empty] = np.nan

    invalid = ~empty & (~np.isfinite(flux) | (flux < 0.0))
    if np.any(invalid):
        line_no, (_, value) = row_text(int(np.argmax(invalid)))
        raise ParseError(f"flux value '{value}' is not a finite value >= 0", line_no)

    backwards = np.diff(ts_min) <= np.timedelta64(0, "m")
    if np.any(backwards):
        line_no, (ts, _) = row_text(int(np.argmax(backwards)) + 1)
        raise OrderingError(f"timestamp '{ts}' does not increase", line_no)

    return FluxSeries._adopt(ts_min, flux)


def read_flux_csv(path, config: IngestConfig | None = None) -> FluxSeries:
    """Parse a flux CSV file from disk."""
    with open(path, "rb") as fh:
        return parse_flux_csv(fh, config)


def write_flux_csv(series: FluxSeries, path=None) -> str:
    """Serialize a series to the interchange CSV (missing flux = empty field).

    Each flux is its shortest round-trip ``repr``.  Returns the CSV text;
    also writes it to ``path`` when given, a chunk of rows at a time.
    """
    chunks = (table_bytes(series.timestamps[lo:lo + _WRITE_CHUNK_ROWS],
                          series.flux[lo:lo + _WRITE_CHUNK_ROWS])
              for lo in range(0, len(series), _WRITE_CHUNK_ROWS))
    text = []
    with open(path, "wb") if path is not None else contextlib.nullcontext() as fh:
        for part in itertools.chain([_CANONICAL_HEADER], chunks):
            if fh is not None:
                fh.write(part)
            text.append(part.decode("ascii"))
    return "".join(text)


# ---------------------------------------------------------------------------
# conditioning
# ---------------------------------------------------------------------------

def apply_scaling(series: FluxSeries, divisor: float) -> FluxSeries:
    """Divide every non-missing flux by ``divisor`` (cross-satellite scaling)."""
    if not divisor > 0.0:
        raise DomainError("scaling divisor must be > 0")
    with np.errstate(over="ignore"):
        flux = series.flux / divisor
    if np.any(flux == np.inf):
        raise DomainError(f"flux / {divisor!r} overflows to inf")
    return FluxSeries._adopt(series.timestamps, flux)


def filter_saturation(series: FluxSeries, config: IngestConfig) -> tuple[FluxSeries, int]:
    """Blank contiguous saturated runs not covered by the retained-date list.

    A run is a maximal stretch of consecutive samples with flux at or
    above ``config.saturation_level``.  A run is kept when any calendar
    date it touches appears in ``config.retained_saturation_events``;
    otherwise all its samples become missing.  Returns the filtered
    series and the number of runs removed.
    """
    flux = series.flux
    with np.errstate(invalid="ignore"):
        saturated = flux >= config.saturation_level
    if not np.any(saturated):
        return series, 0

    padded = np.concatenate(([False], saturated, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    starts, ends = edges[0::2], edges[1::2]  # half-open [start, end)

    retained = {np.datetime64(d, "D") for d in config.retained_saturation_events}
    new_flux = flux.copy()
    removed = 0
    for lo, hi in zip(starts, ends):
        run_dates = set(np.unique(series.timestamps[lo:hi].astype("datetime64[D]")))
        if run_dates & retained:
            continue
        new_flux[lo:hi] = np.nan
        removed += 1
    if removed == 0:
        return series, 0
    return FluxSeries._adopt(series.timestamps, new_flux), removed


# ---------------------------------------------------------------------------
# synthetic data generator
# ---------------------------------------------------------------------------

def synth_clustered_series(scale: float, shape: float, event_rate: float,
                           cluster_length_mean: float, duration: float, seed: int,
                           *, base_threshold: float = 1e-4,
                           dip_fraction: float = 0.3,
                           start: str = "2000-01-01T00:00") -> FluxSeries:
    """Generate a minute-cadence series with clustered threshold exceedances.

    Event count is Poisson(``event_rate * duration``); each event's peak
    excess over ``base_threshold`` is a GPD(scale, shape) draw, smeared
    over a geometric-length cluster of elevated minutes with the peak
    somewhere inside it.  A ``dip_fraction`` share of the non-peak
    cluster minutes briefly dips below the base threshold, the way real
    flare decays wiggle across a class boundary; declustering with a
    short gap therefore splits events into serially correlated fragments
    while an adequate gap recovers one event per cluster.  Background
    minutes sit strictly below the base threshold.  Output is
    bit-identical for a fixed seed.

    Parameters
    ----------
    scale, shape : float
        Excess distribution of event peaks.
    event_rate : float
        Mean events per year; 0 yields a fully quiet series.
    cluster_length_mean : float
        Mean cluster length in minutes (>= 1).
    duration : float
        Series length in years (> 0).
    seed : int
        Generator seed.
    base_threshold : float
        Boundary between background and event minutes.
    dip_fraction : float
        Probability that a non-peak cluster minute falls below the base
        threshold; 0 keeps every cluster minute elevated.
    """
    params = GpdParams(scale, shape)  # validates scale/shape
    if not duration > 0.0:
        raise DomainError("duration must be > 0 years")
    if event_rate < 0.0:
        raise DomainError("event_rate must be >= 0")
    if cluster_length_mean < 1.0:
        raise DomainError("cluster_length_mean must be >= 1 minute")
    if not base_threshold > 0.0:
        raise DomainError("base_threshold must be > 0")
    if not 0.0 <= dip_fraction < 1.0:
        raise DomainError("dip_fraction must lie in [0, 1)")

    n_minutes = int(round(duration * MINUTES_PER_YEAR))
    rng = np.random.default_rng(seed)
    flux = base_threshold * rng.uniform(0.05, 0.95, n_minutes)

    n_events = int(rng.poisson(event_rate * duration))
    if n_events > 0:
        starts = np.sort(rng.integers(0, n_minutes, size=n_events))
        lengths = rng.geometric(1.0 / cluster_length_mean, size=n_events)
        peak_excesses = gpd_quantile(rng.random(n_events), params)
        for i in range(n_events):
            lo = int(starts[i])
            hi = min(lo + int(lengths[i]), n_minutes)
            width = hi - lo
            peak = base_threshold + float(peak_excesses[i])
            profile = base_threshold + (peak - base_threshold) * rng.random(width)
            dips = rng.random(width) < dip_fraction
            n_dips = int(np.count_nonzero(dips))
            if n_dips:
                profile[dips] = base_threshold * (0.25 + 0.7 * rng.random(n_dips))
            profile[int(rng.integers(0, width))] = peak
            # element-wise max keeps earlier peaks when events overlap
            np.maximum(flux[lo:hi], profile, out=flux[lo:hi])

    timestamps = np.datetime64(start, "m") + np.arange(n_minutes) * _MINUTE
    return FluxSeries._adopt(timestamps, flux)
