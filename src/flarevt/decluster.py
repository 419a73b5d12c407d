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

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import ingest
from ._table import check_nonnegative, read_table, table_text
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


# the catalog's event columns, in CSV order, and the dtype each is stored in
_COLUMNS = dict(peak_times="datetime64[m]", peak_fluxes=np.float64,
                cluster_starts="datetime64[m]", cluster_ends="datetime64[m]",
                cluster_sample_counts=np.int64)
_CSV_HEADER = "peak_time,peak_flux,cluster_start,cluster_end,cluster_samples"


@dataclass(frozen=True, eq=False)
class EventCatalog:
    """Declustered events plus the observation bookkeeping for rate estimates.

    One frozen array per event column: ``cluster_starts``/``cluster_ends``
    bound the exceedance samples of each cluster and
    ``cluster_sample_counts`` counts them.  The policy for missing
    minutes is recorded in ``missing_minutes_policy``.
    """

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

    def __post_init__(self):
        for name, dtype in _COLUMNS.items():
            column = np.array(getattr(self, name), dtype=dtype)
            if column.shape != np.shape(self.peak_times) or column.ndim != 1:
                raise DomainError("event columns must be parallel 1-d arrays")
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventCatalog):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    def __len__(self) -> int:
        return int(self.peak_fluxes.size)

    def excesses_over(self, threshold: float) -> np.ndarray:
        """Peak excesses over a (usually higher) analysis threshold."""
        peaks = self.peak_fluxes
        return peaks[peaks > threshold] - threshold

    def to_csv_text(self) -> str:
        return table_text(_CSV_HEADER, *(getattr(self, name) for name in _COLUMNS))

    def to_json_dict(self) -> dict:
        return {
            "decluster_threshold": float(self.decluster_threshold),
            "gap_minutes": int(self.gap_minutes),
            "n_events": len(self),
            "n_total_observations": int(self.n_total_observations),
            "span_years": float(self.span_years),
            "missing_minutes_policy": self.missing_minutes_policy,
        }


def catalog_from_files(csv_data: str | bytes, meta: dict) -> EventCatalog:
    """Rebuild a catalog from its CSV event table and JSON metadata.

    A malformed table, or a peak flux that is not finite and >= 0, raises
    ParseError naming its 1-based line, and a missing or ill-typed metadata
    value raises ParseError naming the key or the metadata.
    """
    columns, empty, row_text = read_table(csv_data, _CSV_HEADER, _COLUMNS)
    if np.any(empty):
        raise ParseError("bad peak_fluxes value ''", row_text(int(np.argmax(empty)))[0])
    check_nonnegative(columns[1], row_text, 1, "peak_flux")
    try:
        return EventCatalog(
            *columns,
            decluster_threshold=float(meta["decluster_threshold"]),
            gap_minutes=int(meta["gap_minutes"]),
            n_total_observations=int(meta["n_total_observations"]),
            span_years=float(meta["span_years"]),
            missing_minutes_policy=str(meta.get("missing_minutes_policy",
                                                MISSING_MINUTES_POLICY)),
        )
    except KeyError as exc:
        raise ParseError(f"catalog metadata has no key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad catalog metadata: {exc}") from None


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


@dataclass(frozen=True)
class GapSweepCurve:
    """Lag-1 autocorrelation of event peaks as a function of the gap.

    A NaN autocorrelation marks a gap where the statistic is unavailable
    (fewer than 3 events, or constant peaks).
    """

    gaps: np.ndarray
    lag1: np.ndarray
    event_counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gaps", checked_gaps(self.gaps))
        object.__setattr__(self, "lag1", np.asarray(self.lag1, dtype=np.float64))
        object.__setattr__(self, "event_counts",
                           np.asarray(self.event_counts, dtype=np.int64))

    def to_csv_text(self) -> str:
        return table_text("gap_minutes,lag1_autocorrelation,event_count",
                          self.gaps, self.lag1, self.event_counts)


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
