"""Runs declustering of flux exceedances into independent flare events.

A cluster opens at the first sample at or above the threshold and closes
only after a configurable number of consecutive quiet minutes (flux below
the threshold); any exceedance inside that window resets the counter.
Each cluster contributes one event at its peak flux.  Minutes that are
missing or absent from the grid count as quiet: absent data cannot
confirm continued activity, and treating outages as resets would merge
events across them.  The lag-1 autocorrelation of the event peak
sequence quantifies how much serial dependence survives a given gap.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import ingest
from ._table import TableRecord, check_nonnegative, from_json, json_object, read_table, to_json
from .errors import DomainError, InsufficientDataError, ParseError, ZeroVarianceError
from .ingest import FluxSeries

__all__ = [
    "DEFAULT_THRESHOLD",
    "DEFAULT_GAP_MINUTES",
    "MISSING_MINUTES_POLICY",
    "EventCatalog",
    "GapSweepCurve",
    "decluster",
    "lag1_autocorrelation",
    "gap_sweep",
    "checked_rule",
    "checked_gaps",
    "MAX_SWEEP_GAPS",
]

DEFAULT_THRESHOLD = 1e-4   # X1
DEFAULT_GAP_MINUTES = 15
MAX_SWEEP_GAPS = 10_080  # the most gaps a sweep takes: one week of minutes

MISSING_MINUTES_POLICY = "missing-or-absent-minutes-count-as-quiet"

_I64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True, eq=False)
class EventCatalog(TableRecord):
    """Declustered events plus the observation bookkeeping for rate estimates.

    One frozen array per event column: ``cluster_starts``/``cluster_ends``
    bound the exceedance samples of each cluster and
    ``cluster_sample_counts`` counts them.  The policy for missing
    minutes is recorded in ``missing_minutes_policy``.
    """

    HEADER = "peak_time,peak_flux,cluster_start,cluster_end,cluster_samples"
    COLUMNS = dict(peak_times="datetime64[m]", peak_fluxes=np.float64,
                   cluster_starts="datetime64[m]", cluster_ends="datetime64[m]",
                   cluster_sample_counts=np.int64)

    peak_times: np.ndarray
    peak_fluxes: np.ndarray
    cluster_starts: np.ndarray
    cluster_ends: np.ndarray
    cluster_sample_counts: np.ndarray
    decluster_threshold: float
    gap_minutes: int
    n_total_observations: int
    span_years: float
    missing_minutes_policy: str = MISSING_MINUTES_POLICY

    def __len__(self) -> int:
        return int(self.peak_fluxes.size)

    def excesses_over(self, threshold: float) -> np.ndarray:
        """Peak excesses over a (usually higher) analysis threshold."""
        peaks = self.peak_fluxes
        return peaks[peaks > threshold] - threshold

    def to_json_dict(self) -> dict:
        return {**to_json(_META_JSON, self), "n_events": len(self)}


# catalog.json: each field of EventCatalog's that is not an event column, as
# its declared kind, and the event count, which the reader checks where given
_META_JSON = {name: kind for name, kind in typing.get_type_hints(EventCatalog).items()
              if name not in EventCatalog.COLUMNS}


def catalog_from_files(csv_data: str | bytes, meta: dict) -> EventCatalog:
    """Rebuild a catalog from its CSV event table and JSON metadata.

    A malformed table, or a peak flux that is not finite and >= 0, raises
    ParseError naming its 1-based line, and a missing or ill-typed metadata
    value, or an ``n_events`` other than the table's row count, raises
    ParseError naming its key; a missing policy is the default, and a
    missing ``n_events`` is not checked.
    """
    columns, empty, row_text = read_table(csv_data, EventCatalog.HEADER, EventCatalog.COLUMNS)
    if np.any(empty):
        raise ParseError("bad peak_fluxes value ''", row_text(int(np.argmax(empty)))[0])
    check_nonnegative(columns[1], row_text, 1, "peak_flux")
    meta = {"missing_minutes_policy": MISSING_MINUTES_POLICY, **json_object(meta, "catalog")}
    rows = len(columns[0])
    if "n_events" in meta and from_json(int, meta["n_events"], "catalog.n_events") != rows:
        raise ParseError(f"catalog.n_events is {meta['n_events']!r}, but the event table's "
                         f"row count is {rows}")
    return EventCatalog(*columns, **from_json(_META_JSON, meta, "catalog"))


def decluster(series: FluxSeries, threshold: float = DEFAULT_THRESHOLD,
              gap_minutes: int = DEFAULT_GAP_MINUTES) -> EventCatalog:
    """Reduce a flux series to independent cluster-peak events.

    An empty series (or one with no exceedances) yields an empty catalog.

    Parameters
    ----------
    series : FluxSeries
        Minute-cadence input.
    threshold : float
        Cluster-membership threshold; a sample with flux >= threshold is
        an exceedance.
    gap_minutes : int
        Number of consecutive quiet minutes that closes a cluster.
    """
    threshold, gap = checked_rule(threshold, gap_minutes)
    ts, flux = series.timestamps, series.flux
    exc = series._exceedance_index(threshold)
    starts = ingest._run_starts(ts[exc].astype(np.int64), gap)
    counts = np.diff(np.append(starts, exc.size))

    # the peak is the first occurrence of the cluster maximum
    flux_exc = flux[exc]
    peak_val = np.repeat(np.maximum.reduceat(flux_exc, starts), counts)
    candidate = np.where(flux_exc == peak_val, exc, _I64_MAX)
    peaks = np.minimum.reduceat(candidate, starts)

    return EventCatalog(
        peak_times=ts[peaks],
        peak_fluxes=flux[peaks],
        cluster_starts=ts[exc[starts]],
        cluster_ends=ts[exc[starts + counts - 1]],
        cluster_sample_counts=counts,
        decluster_threshold=threshold,
        gap_minutes=gap,
        n_total_observations=series.n_observations,
        span_years=series.span_years,
    )


def lag1_autocorrelation(values) -> float:
    """Serial correlation at lag one.

    Computed as sum_t (x_t - m)(x_{t+1} - m) / sum_t (x_t - m)^2 with m
    the full-sample mean; the result lies in [-1, 1].

    Raises
    ------
    InsufficientDataError
        Fewer than 3 values.
    ZeroVarianceError
        All values identical.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    if x.size < 3:
        raise InsufficientDataError("need at least 3 values")
    dev = x - x.mean()
    denom = float(dev @ dev)
    if denom == 0.0:
        raise ZeroVarianceError("series is constant")
    return float(dev[:-1] @ dev[1:]) / denom


@dataclass(frozen=True, eq=False)
class GapSweepCurve(TableRecord):
    """Lag-1 autocorrelation of event peaks as a function of the gap.

    A NaN autocorrelation marks a gap where the statistic is unavailable
    (fewer than 3 events, or constant peaks).
    """

    HEADER = "gap_minutes,lag1_autocorrelation,event_count"
    COLUMNS = dict(gaps=np.int64, lag1=np.float64, event_counts=np.int64)

    gaps: np.ndarray
    lag1: np.ndarray
    event_counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gaps", checked_gaps(self.gaps))
        super().__post_init__()


def checked_rule(threshold: float,
                 gap_minutes: int = DEFAULT_GAP_MINUTES) -> tuple[float, int]:
    """The declustering threshold as a float and gap as an int; DomainError
    unless the threshold is finite and > 0 and the gap >= 1."""
    threshold = float(threshold)
    if not 0.0 < threshold < np.inf:
        raise DomainError(f"decluster threshold must be finite and > 0, got {threshold}")
    gap = int(gap_minutes)
    if gap < 1:
        raise DomainError("gap_minutes must be >= 1")
    return threshold, gap


def checked_gaps(gaps: Sequence[int]) -> np.ndarray:
    """The sweep's gaps as int64; DomainError unless non-empty, at most
    MAX_SWEEP_GAPS, each in [1, 2**63) and strictly increasing.  A range is
    checked by its ends and its length before it is listed."""
    out_of_range = "every gap must be >= 1 and < 2**63"
    if isinstance(gaps, range) and gaps and not all(1 <= end < 2**63
                                                    for end in (gaps[0], gaps[-1])):
        raise DomainError(out_of_range)
    if len(gaps) > MAX_SWEEP_GAPS:
        raise DomainError(f"at most {MAX_SWEEP_GAPS} gaps can be swept, got {len(gaps)}")
    try:
        gap_arr = np.asarray(list(gaps), dtype=np.int64)
    except OverflowError:  # a gap past int64
        raise DomainError(out_of_range) from None
    if gap_arr.size == 0:
        raise DomainError("gaps must be non-empty")
    if np.any(gap_arr < 1):
        raise DomainError(out_of_range)
    if np.any(np.diff(gap_arr) <= 0):
        raise DomainError("gaps must be strictly increasing")
    return gap_arr


def gap_sweep(series: FluxSeries, threshold: float,
              gaps: Sequence[int]) -> GapSweepCurve:
    """Decluster at each gap and correlate the resulting peak sequences.

    The exceedances are found once, by the scan that :func:`decluster` at
    the same threshold shares, and re-split into clusters at each gap by
    the rule it uses.  ``gaps`` must be at most MAX_SWEEP_GAPS strictly
    increasing values >= 1.  Gaps yielding too few events for the
    statistic are kept in the curve with NaN.
    """
    gap_arr = checked_gaps(gaps)
    threshold = checked_rule(threshold)[0]

    exc = series._exceedance_index(threshold)
    minutes, flux_exc = series.timestamps[exc].astype(np.int64), series.flux[exc]
    lag1 = np.full(gap_arr.size, np.nan)
    counts = np.zeros(gap_arr.size, dtype=np.int64)
    for i, gap in enumerate(gap_arr):
        starts = ingest._run_starts(minutes, int(gap))
        counts[i] = starts.size
        if starts.size >= 3:
            try:
                lag1[i] = lag1_autocorrelation(np.maximum.reduceat(flux_exc, starts))
            except ZeroVarianceError:
                pass
    return GapSweepCurve(gap_arr, lag1, counts)
