"""Minute-cadence X-ray flux ingestion and conditioning.

Reads the two-column CSV interchange format (``timestamp,flux_wm2``),
applies the cross-satellite scaling divisor, and removes instrument
saturation runs.  Missing data stays on the minute grid as NaN so that
gap structure survives for declustering.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import io
import mmap
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import IO

import numpy as np

from ._table import (LAST_STAMP, STAMP_WIDTH, Record, check_nonnegative, read_floats,
                     read_stamps, read_table, table_bytes)
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
_BUILD_BLOCK_ROWS = 1 << 16  # rows FluxSeries copies and checks at a time
_NAT_TICKS = np.iinfo(np.int64).min  # NaT as an int64 datetime64


@dataclass(frozen=True, eq=False)
class FluxSeries(Record):
    """Time-ordered minute-cadence flux samples.

    ``timestamps`` is a strictly increasing ``datetime64[m]`` array with no NaT and
    ``flux`` a parallel float64 array in W/m^2 with NaN marking missing
    samples.  The constructor checks this on frozen copies of its own, so
    a series is safe to share.  The span runs from first to last stamp.
    """

    timestamps: np.ndarray
    flux: np.ndarray

    def __post_init__(self):
        given = np.asarray(self.timestamps)
        stamps = given.astype("datetime64[m]", copy=False)  # a copy unless already [m]
        if given.dtype.kind == "M" and stamps is not given and np.any(stamps != given):
            raise DomainError("timestamps must not be NaT" if np.any(np.isnat(given))
                              else "timestamps must lie on the minute grid")
        values = np.asarray(self.flux, dtype=np.float64)
        if stamps.shape != values.shape or stamps.ndim != 1:
            raise DomainError("timestamps and flux must be parallel 1-d arrays")
        ts = stamps if stamps is not given else np.empty(stamps.size, stamps.dtype)
        fx, ticks = np.empty(values.size), ts.view(np.int64)

        def build(start: int) -> tuple[bool, bool, int]:
            """Copies, checks and counts one task's rows, a block at a time while in cache."""
            backwards, bad_flux, observed, stop = False, False, 0, start + _TASK_ROWS
            for lo in range(start, min(stop, fx.size), _BUILD_BLOCK_ROWS):
                hi = min(lo + _BUILD_BLOCK_ROWS, stop)
                ts[lo:hi], fx[lo:hi] = stamps[lo:hi], values[lo:hi]  # a no-op where ts is stamps
                k, f = ticks[max(lo - 1, start):hi], fx[lo:hi]  # seams are checked after all tasks
                backwards = backwards or bool(np.any(k[1:] <= k[:-1]))
                bad_flux = bad_flux or np.fmin.reduce(f) < 0.0 or np.fmax.reduce(f) == np.inf
                observed += f.size - np.count_nonzero(np.isnan(f))
            return backwards, bad_flux, observed

        backwards, bad_flux, observed = False, False, 0
        for back, bad, count in _in_order(build, range(0, fx.size, _TASK_ROWS)):
            backwards, bad_flux, observed = backwards or back, bad_flux or bad, observed + count
        seams = np.arange(_TASK_ROWS, fx.size, _TASK_ROWS)  # each task's first stamp
        backwards = backwards or bool(np.any(ticks[seams] <= ticks[seams - 1]))
        # NaT is the int64 minimum, so past the first stamp the int64 test flags it
        if backwards or (ticks.size and ticks[0] == _NAT_TICKS):
            if np.any(np.isnat(ts)):
                raise DomainError("timestamps must not be NaT")
            raise OrderingError("timestamps must be strictly increasing")
        if bad_flux:  # fmin and fmax skip NaN
            raise DomainError("flux values must be NaN or finite and >= 0")
        self._freeze(ts, fx)
        object.__setattr__(self, "n_observations", int(observed))

    @classmethod
    def _adopt(cls, timestamps: np.ndarray, flux: np.ndarray,
               n_observations: int | None = None) -> "FluxSeries":
        """Freezes arrays that its caller built and checked and no one else writes,
        with their count of non-missing samples where the caller has it."""
        series = cls.__new__(cls)
        series._freeze(timestamps, flux)
        if n_observations is not None:
            object.__setattr__(series, "n_observations", int(n_observations))
        return series

    def _freeze(self, timestamps: np.ndarray, flux: np.ndarray) -> None:
        for name, array in (("timestamps", timestamps), ("flux", flux)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def __len__(self) -> int:
        return int(self.timestamps.size)

    @functools.cached_property
    def n_observations(self) -> int:
        """Number of non-missing samples, counted once per series."""
        return int(np.count_nonzero(~np.isnan(self.flux)))

    def _exceedance_index(self, threshold: float) -> np.ndarray:
        """The read-only index of each sample at or above ``threshold``.  The
        series is frozen, so the last threshold's index is kept, outside the
        fields, and scans at that threshold share it."""
        memo = vars(self).get("_exceedance_memo")  # one tuple, so threads never see it torn
        if memo is None or memo[0] != threshold:
            index = _exceedances(self.flux, threshold)
            index.setflags(write=False)
            memo = (threshold, index)
            object.__setattr__(self, "_exceedance_memo", memo)
        return memo[1]

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
        _check_divisor(self.scaling_divisor)
        if not 0.0 < self.saturation_level < np.inf:
            raise DomainError("saturation_level must be > 0 and finite")
        sentinels = tuple(float(v) for v in self.missing_sentinels)
        if not all(np.isfinite(sentinels)):
            raise DomainError("every value of missing_sentinels must be finite")
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
        object.__setattr__(self, "missing_sentinels", sentinels)


def _check_divisor(divisor: float) -> None:
    if not 0.0 < divisor < np.inf:
        raise DomainError("scaling_divisor must be > 0 and finite")


# ---------------------------------------------------------------------------
# CSV interchange format
# ---------------------------------------------------------------------------

# The canonical layout, as write_flux_csv produces it: the exact header,
# then ``YYYY-MM-DDTHH:MM:00Z,<flux>`` rows, each ended by a newline.
_CANONICAL_HEADER = (CSV_HEADER + "\n").encode("ascii")
_READ_BLOCK_BYTES = 1 << 19  # bytes read and decoded at a time, with ~10x that in working arrays
_LEAD = 3  # bytes before the buffer's first row, as read_stamps reads 3 before a stamp
# rows a whole-series pass hands a chunk thread; shorter numpy calls lose to GIL handoffs
_TASK_ROWS = 1 << 19
_WRITE_CHUNK_ROWS = 1 << 14  # rows formatted at a time, with ~250 B a row in working arrays
_CSV_KINDS = {"timestamp": "datetime64[m]", "flux": np.float64}
# chunk threads: one a CPU this process may use, capped to bound their working arrays
_WORKERS = min(8, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)


def _in_order(fn, items):
    """``fn(item)`` for each item, in order, on _WORKERS threads with two items a
    thread in flight, or on this thread for one worker or one item.  An error, or
    closing the generator, cancels the calls not started and waits for the rest."""
    workers = min(_WORKERS, len(items))
    if workers < 2:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(workers) as pool:
        ahead = collections.deque(pool.submit(fn, item) for item in items[:2 * workers])
        try:
            for item in items[2 * workers:]:
                yield ahead.popleft().result()
                ahead.append(pool.submit(fn, item))
            while ahead:
                yield ahead.popleft().result()
        finally:
            pool.shutdown(cancel_futures=True)


def _row_blocks(source: IO[bytes], buf: bytearray):
    """The rows after the canonical header, from ``source``'s position, a block at a time.

    Yields ``hi`` with whole rows, each ended by its newline, in ``buf[_LEAD:hi]``.
    ``source`` is an open file or a ``_BufferReader`` over bytes in memory,
    either read into ``buf`` in place.  ``buf`` is the caller's, reused for
    every block: the row that a block's end cuts moves to its start before
    the next read.  Yields None, and stops, for another header, a row longer
    than ``buf``, or a last row without its newline, which the per-line scan
    then refuses by its line.
    """
    if source.read(len(_CANONICAL_HEADER)) != _CANONICAL_HEADER:
        yield None
        return
    stop = _LEAD
    with memoryview(buf) as view:
        while True:
            got = source.readinto(view[stop:])
            stop += got
            cut = buf.rfind(b"\n", _LEAD, stop) + 1
            if cut > _LEAD:
                yield cut
                buf[_LEAD:_LEAD + stop - cut] = buf[cut:stop]
                stop = _LEAD + stop - cut
            elif stop == len(buf) or (stop > _LEAD and not got):  # a long row or a cut one
                yield None
                return
            elif not got:
                return


def _newlines(buf, hi: int) -> np.ndarray:
    return np.frombuffer(buf, np.uint8, hi - _LEAD, _LEAD) == ord("\n")


def _decode_rows(buf, hi: int, sentinels: tuple[float, ...]
                 ) -> tuple[np.ndarray, np.ndarray] | None:
    """The minutes and flux of the rows in ``buf[_LEAD:hi]``, sentinels as NaN;
    None unless every row decodes, every flux is NaN or finite and >= 0, and
    every stamp comes after the one before."""
    ends = _LEAD + np.flatnonzero(_newlines(buf, hi))
    starts = np.concatenate(([_LEAD], ends[:-1] + 1))
    widths = ends - starts - STAMP_WIDTH
    if widths.min() < 0:  # a blank line, or a row too short for its stamp
        return None
    minutes = read_stamps(buf, starts)
    if minutes is None or np.any(minutes[1:] <= minutes[:-1]):
        return None
    try:
        flux = read_floats(buf, ends, widths)
    except ValueError:
        return None
    for sentinel in sentinels:
        flux[flux == sentinel] = np.nan
    if np.fmin.reduce(flux) < 0.0 or np.fmax.reduce(flux) == np.inf:  # both skip NaN
        return None
    return minutes, flux


def _scan_canonical(source: IO[bytes],
                    sentinels: tuple[float, ...] = IngestConfig.missing_sentinels
                    ) -> tuple[np.ndarray, np.ndarray] | None:
    """Decode canonical input in numpy, a block at a time; None leaves it to the per-line scan.

    Returns the stamps and the flux, sentinels as NaN.  Anything else (CRLF,
    a BOM, blank lines, padded fields, date-only or off-grid stamps, invalid
    dates, ``nan`` or ``inf`` text, non-ASCII bytes, malformed rows, a flux
    that is negative or infinite, stamps that do not increase) returns None,
    so the per-line scan decides it and names the line.

    Two passes over the blocks of :func:`_row_blocks` in one buffer, each from
    the stream's position at the call: the first counts the rows, so that the
    arrays are allocated once at their size; the second decodes each block
    whole on the calling thread.
    """
    start, buf = source.tell(), bytearray(_LEAD + _READ_BLOCK_BYTES)
    rows = 0
    for hi in _row_blocks(source, buf):
        if hi is None:
            return None
        rows += np.count_nonzero(_newlines(buf, hi))
    if not rows:
        return None
    source.seek(start)
    minutes, flux = np.empty(rows, np.int64), np.empty(rows)
    done, last = 0, _NAT_TICKS
    for hi in _row_blocks(source, buf):
        if hi is None:  # a file changed since its rows were counted
            return None
        decoded = _decode_rows(buf, hi, sentinels)
        if decoded is None or decoded[0][0] <= last or done + decoded[0].size > rows:
            return None
        n = done + decoded[0].size
        minutes[done:n], flux[done:n] = decoded
        done, last = n, decoded[0][-1]
    return (minutes.view("datetime64[m]"), flux) if done == rows else None


def _per_line(data: str | bytes, config: IngestConfig) -> FluxSeries:
    """The series of any layout the per-line scan reads; an error names its line."""
    (ts_min, flux), empty, row_text = read_table(data, CSV_HEADER, _CSV_KINDS)
    if not ts_min.size:
        raise EmptyInputError("no data rows")

    for sentinel in config.missing_sentinels:
        empty |= flux == sentinel
    flux[empty] = np.nan

    check_nonnegative(flux, row_text, 1, "flux", skip=empty)

    backwards = ts_min[1:] <= ts_min[:-1]  # no whole-input difference array
    if np.any(backwards):
        line_no, (ts, _) = row_text(int(np.argmax(backwards)) + 1)
        raise OrderingError(f"timestamp '{ts}' does not increase", line_no)

    # text after the last line break that is not blank is a row without its newline
    newline, carriage = ("\n", "\r") if isinstance(data, str) else (b"\n", b"\r")
    at = data.rfind(newline) + 1
    at = data.rfind(carriage, at) + 1 or at  # CR line ends
    if data[at:].strip():
        raise ParseError("no newline at the end of the input: it may be truncated",
                         row_text(ts_min.size - 1)[0])

    return FluxSeries._adopt(ts_min, flux)


class _BufferReader:
    """A seekable binary stream over a bytes-like object, read in place."""

    def __init__(self, view: memoryview):
        self._view, self._at = view, 0

    def readinto(self, out) -> int:
        n = min(len(out), len(self._view) - self._at)
        out[:n] = self._view[self._at:self._at + n]
        self._at += n
        return n

    def read(self, size: int = -1) -> bytes:
        stop = len(self._view) if size < 0 else min(self._at + size, len(self._view))
        data, self._at = self._view[self._at:stop].tobytes(), stop
        return data

    def tell(self) -> int:
        return self._at

    def seek(self, at: int) -> None:
        self._at = at


def parse_flux_csv(source: str | bytes | IO, config: IngestConfig | None = None) -> FluxSeries:
    """Parse the two-column flux CSV into a series.

    Expects a ``timestamp,flux_wm2`` header, ISO-8601 UTC timestamps with
    a ``Z`` suffix on the minute grid, and decimal or scientific-notation
    flux values.  Every row, the last one included, ends with a newline: a
    last row without one is refused, as the input may be truncated.  An
    empty flux field or a configured sentinel value marks the sample
    missing.  ``source`` is text, bytes, another bytes-like object (such as
    the memoryview ``write_flux_csv`` returns), read in place, or an open
    file, read from its position; a text stream or a pipe is read whole
    first.  Canonical input, the layout ``write_flux_csv`` produces, is
    decoded by numpy kernels a block at a time in one buffer, each flux bit
    for bit as ``float()`` reads it; other input, and canonical input with
    a bad value, stamps out of order or no last newline, is read whole and
    scanned line by line by the scan every CSV reader shares.  Both give
    the same series or error.

    Raises
    ------
    EmptyInputError
        No content or no data rows.
    ParseError
        Malformed row, a last row without its newline, or bytes that are not
        UTF-8; the message names the offending 1-based line.
    OrderingError
        Non-increasing timestamps; names the offending line.
    """
    config = config or IngestConfig()
    if isinstance(source, str):
        if not source.isascii():  # the kernels read ASCII only
            return _per_line(source, config)
        source = source.encode("ascii")
    if not hasattr(source, "read"):
        with memoryview(source) as view, view.cast("B") as data:
            return _parse_stream(_BufferReader(data), config)
    if not (isinstance(source, io.BufferedIOBase) and source.seekable()):
        return parse_flux_csv(source.read(), config)  # a text stream or a pipe, whole
    return _parse_stream(source, config)


def _parse_stream(source, config: IngestConfig) -> FluxSeries:
    """The series of a seekable binary stream, from its position."""
    start = source.tell()
    scanned = _scan_canonical(source, config.missing_sentinels)
    if scanned is None:
        source.seek(start)
        return _per_line(source.read(), config)
    return FluxSeries._adopt(*scanned)


def read_flux_csv(path, config: IngestConfig | None = None) -> FluxSeries:
    """Parse a flux CSV file from disk, as :func:`parse_flux_csv` parses an open file."""
    with open(path, "rb") as fh:
        return parse_flux_csv(fh, config)


def write_flux_csv(series: FluxSeries, path=None) -> bytes | memoryview:
    """Serialize a series to the interchange CSV (missing flux = empty field).

    Each flux is its shortest round-trip ``repr``.  Chunks of rows are
    formatted on the chunk threads while earlier ones are written.  With
    no ``path``, returns the CSV as ASCII bytes.  With one, writes each
    chunk to ``path + ".partial"`` and drops it; the partial file replaces
    ``path`` once every row is written, and a failed write leaves no
    partial file and ``path`` as it was.  Then returns a read-only
    memoryview of the written file, mapped and not read, so no copy of the
    text is held: it has the file's length, equals its bytes and hashes
    as they do.
    """
    n = _WRITE_CHUNK_ROWS
    parts = _in_order(lambda lo: table_bytes(series.timestamps[lo:lo + n], series.flux[lo:lo + n]),
                      range(0, len(series), n))
    with contextlib.closing(parts):
        if path is None:
            text = io.BytesIO()  # one copy, which getvalue() hands out without copying
            text.write(_CANONICAL_HEADER)
            text.writelines(parts)
            return text.getvalue()
        partial = os.fspath(path) + ".partial"
        try:
            with open(partial, "wb") as fh:
                fh.write(_CANONICAL_HEADER)
                fh.writelines(parts)
            os.replace(partial, path)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.remove(partial)
    with open(path, "rb") as fh:
        return memoryview(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ))


# ---------------------------------------------------------------------------
# conditioning
# ---------------------------------------------------------------------------

def apply_scaling(series: FluxSeries, divisor: float) -> FluxSeries:
    """Divide every non-missing flux by ``divisor`` (cross-satellite scaling)."""
    _check_divisor(divisor)
    with np.errstate(over="ignore"):
        flux = series.flux / divisor
    if np.any(flux == np.inf):
        raise DomainError(f"flux / {divisor!r} overflows to inf")
    return FluxSeries._adopt(series.timestamps, flux)


def _exceedances(flux: np.ndarray, threshold: float) -> np.ndarray:
    """Index of each sample at or above ``threshold``, in order, scanned a task
    of rows at a time on the chunk threads."""
    n = _TASK_ROWS
    parts = _in_order(lambda lo: lo + np.flatnonzero(flux[lo:lo + n] >= threshold),
                      range(0, flux.size, n))
    return np.concatenate([np.empty(0, np.intp), *parts])


def _run_starts(values: np.ndarray, gap: int) -> np.ndarray:
    """Index of each run's first value, given increasing values: a value more
    than ``gap`` past the one before it opens a run."""
    is_new = np.ones(values.size, dtype=bool)
    np.greater(np.diff(values), gap, out=is_new[1:])
    return np.flatnonzero(is_new)


def filter_saturation(series: FluxSeries, config: IngestConfig) -> tuple[FluxSeries, int]:
    """Blank contiguous saturated runs not covered by the retained-date list.

    A run is a maximal stretch of consecutive samples with flux at or
    above ``config.saturation_level``, found by the exceedance scan and run
    split that declustering uses.  A run is kept when any calendar date it
    touches appears in ``config.retained_saturation_events``; otherwise all
    its samples become missing.  Returns the filtered series, whose flux is
    a copy only when a run is removed, and the number of runs removed.
    """
    saturated = series._exceedance_index(config.saturation_level)
    starts = _run_starts(saturated, 1)
    days = series.timestamps[saturated].astype("datetime64[D]")
    retained = np.array(config.retained_saturation_events, "datetime64[D]")
    kept = np.logical_or.reduceat(np.isin(days, retained), starts)
    blanked = saturated[~np.repeat(kept, np.diff(starts, append=saturated.size))]
    if not blanked.size:
        return series, 0
    flux = series.flux.copy()
    flux[blanked] = np.nan
    return FluxSeries._adopt(series.timestamps, flux), int(np.count_nonzero(~kept))


# ---------------------------------------------------------------------------
# synthetic data generator
# ---------------------------------------------------------------------------

_SYNTH_START = "2000-01-01T00:00"


def check_synth_parameters(event_rate: float = 0.0, cluster_length_mean: float = 1.0,
                           duration: float = 1.0, base_threshold: float = 1.0,
                           start: str = _SYNTH_START) -> None:
    """DomainError unless each given synth_clustered_series parameter is finite and in range.

    The series from ``start`` must end by 9999-12-31T23:59 (LAST_STAMP),
    the last stamp the CSV writer formats.
    """
    rules = ((0.0 <= event_rate <= MINUTES_PER_YEAR, "event_rate must be >= 0 and finite, "
              f"at most {MINUTES_PER_YEAR} a year (one event a minute)"),
             (1.0 <= cluster_length_mean < np.inf,
              "cluster_length_mean must be >= 1 minute and finite"),
             (0.0 < duration < np.inf, "duration must be > 0 years and finite"),
             (0.0 < base_threshold < np.inf, "base_threshold must be > 0 and finite"))
    for ok, message in rules:
        if not ok:
            raise DomainError(message)
    minutes = int((LAST_STAMP - np.datetime64(start, "m")) // _MINUTE) + 1
    if round(duration * MINUTES_PER_YEAR) > minutes:
        raise DomainError(f"duration must end by {LAST_STAMP}, at most "
                          f"{minutes / MINUTES_PER_YEAR:.6g} years from {start}")


def synth_clustered_series(scale: float, shape: float, event_rate: float,
                           cluster_length_mean: float, duration: float, seed: int,
                           *, base_threshold: float = 1e-4,
                           dip_fraction: float = 0.3,
                           start: str = _SYNTH_START) -> FluxSeries:
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
        Mean events per year, at most one a minute; 0 yields a fully quiet series.
    cluster_length_mean : float
        Mean cluster length in minutes (>= 1).
    duration : float
        Series length in years (> 0), ending by 9999-12-31T23:59.
    seed : int
        Generator seed.
    base_threshold : float
        Boundary between background and event minutes.
    dip_fraction : float
        Probability that a non-peak cluster minute falls below the base
        threshold; 0 keeps every cluster minute elevated.
    """
    params = GpdParams(scale, shape)  # validates scale/shape
    check_synth_parameters(event_rate, cluster_length_mean, duration, base_threshold, start)
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
