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

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError, InsufficientDataError, ZeroVarianceError
from .ingest import FluxSeries

__all__ = [
    "DEFAULT_THRESHOLD",
    "DEFAULT_GAP_MINUTES",
    "MISSING_MINUTES_POLICY",
    "FlareEvent",
    "EventCatalog",
    "GapSweepCurve",
    "decluster",
    "lag1_autocorrelation",
    "gap_sweep",
]

DEFAULT_THRESHOLD = 1e-4   # X1
DEFAULT_GAP_MINUTES = 15

MISSING_MINUTES_POLICY = "missing-or-absent-minutes-count-as-quiet"

_I64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class FlareEvent:
    """One declustered flare: the peak sample of a cluster of exceedances."""

    peak_time: np.datetime64
    peak_flux: float
    cluster_start: np.datetime64
    cluster_end: np.datetime64
    cluster_sample_count: int

    def __post_init__(self):
        if not (self.cluster_start <= self.peak_time <= self.cluster_end):
            raise DomainError("peak_time must lie within the cluster")


@dataclass(frozen=True)
class EventCatalog:
    """Declustered events plus the observation bookkeeping for rate estimates.

    ``cluster_start``/``cluster_end`` bound the exceedance samples of each
    cluster and ``cluster_sample_count`` counts them.  The policy for
    missing minutes is recorded in ``missing_minutes_policy``.
    """

    events: tuple[FlareEvent, ...]
    decluster_threshold: float
    gap_minutes: int
    n_total_observations: int
    span_years: float
    missing_minutes_policy: str = MISSING_MINUTES_POLICY

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FlareEvent]:
        return iter(self.events)

    def __getitem__(self, i: int) -> FlareEvent:
        return self.events[i]

    @property
    def peak_fluxes(self) -> np.ndarray:
        return np.array([e.peak_flux for e in self.events], dtype=np.float64)

    @property
    def peak_times(self) -> np.ndarray:
        return np.array([e.peak_time for e in self.events], dtype="datetime64[m]")

    def excesses_over(self, threshold: float) -> np.ndarray:
        """Peak excesses over a (usually higher) analysis threshold."""
        peaks = self.peak_fluxes
        return peaks[peaks > threshold] - threshold

    def to_csv_text(self) -> str:
        lines = ["peak_time,peak_flux,cluster_start,cluster_end,cluster_samples"]
        for e in self.events:
            lines.append(",".join((
                _iso(e.peak_time),
                repr(float(e.peak_flux)),
                _iso(e.cluster_start),
                _iso(e.cluster_end),
                str(int(e.cluster_sample_count)),
            )))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "decluster_threshold": float(self.decluster_threshold),
            "gap_minutes": int(self.gap_minutes),
            "n_events": len(self.events),
            "n_total_observations": int(self.n_total_observations),
            "span_years": float(self.span_years),
            "missing_minutes_policy": self.missing_minutes_policy,
        }


def _iso(t: np.datetime64) -> str:
    return np.datetime_as_string(t.astype("datetime64[s]"), unit="s") + "Z"


def catalog_from_files(csv_text: str, meta: dict) -> EventCatalog:
    """Rebuild a catalog from its CSV event table and JSON metadata."""
    events = []
    lines = [ln for ln in csv_text.splitlines() if ln.strip()]
    for line in lines[1:]:
        pt, pf, cs, ce, n = line.split(",")
        events.append(FlareEvent(
            peak_time=np.datetime64(pt.rstrip("Z"), "m"),
            peak_flux=float(pf),
            cluster_start=np.datetime64(cs.rstrip("Z"), "m"),
            cluster_end=np.datetime64(ce.rstrip("Z"), "m"),
            cluster_sample_count=int(n),
        ))
    return EventCatalog(
        events=tuple(events),
        decluster_threshold=float(meta["decluster_threshold"]),
        gap_minutes=int(meta["gap_minutes"]),
        n_total_observations=int(meta["n_total_observations"]),
        span_years=float(meta["span_years"]),
        missing_minutes_policy=str(meta.get("missing_minutes_policy",
                                            MISSING_MINUTES_POLICY)),
    )


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
    if not threshold > 0.0:
        raise DomainError("threshold must be > 0")
    gap = int(gap_minutes)
    if gap < 1:
        raise DomainError("gap_minutes must be >= 1")

    ts, flux = series.timestamps, series.flux
    # an exceedance more than `gap` minutes after the previous one opens a
    # new cluster; `starts` indexes each cluster's first entry in `exc`
    exc = np.flatnonzero(flux >= threshold)
    is_new = np.ones(exc.size, dtype=bool)
    np.greater(np.diff(ts[exc].astype(np.int64)), gap, out=is_new[1:])
    starts = np.flatnonzero(is_new)
    counts = np.diff(np.append(starts, exc.size))
    ends = exc[starts + counts - 1]

    # the peak is the first occurrence of the cluster maximum
    flux_exc = flux[exc]
    peak_val = np.repeat(np.maximum.reduceat(flux_exc, starts), counts)
    candidate = np.where(flux_exc == peak_val, exc, _I64_MAX)
    peaks = np.minimum.reduceat(candidate, starts)

    events = tuple(
        FlareEvent(
            peak_time=ts[peak],
            peak_flux=float(flux[peak]),
            cluster_start=ts[first],
            cluster_end=ts[last],
            cluster_sample_count=int(n),
        )
        for first, last, peak, n in zip(exc[starts], ends, peaks, counts)
    )
    return EventCatalog(
        events=events,
        decluster_threshold=float(threshold),
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
        gaps = np.asarray(self.gaps, dtype=np.int64)
        if gaps.size == 0 or np.any(np.diff(gaps) <= 0):
            raise DomainError("gaps must be non-empty and strictly increasing")
        object.__setattr__(self, "gaps", gaps)
        object.__setattr__(self, "lag1", np.asarray(self.lag1, dtype=np.float64))
        object.__setattr__(self, "event_counts",
                           np.asarray(self.event_counts, dtype=np.int64))

    def to_csv_text(self) -> str:
        lines = ["gap_minutes,lag1_autocorrelation,event_count"]
        for g, r, c in zip(self.gaps, self.lag1, self.event_counts):
            r_txt = "" if np.isnan(r) else repr(float(r))
            lines.append(f"{int(g)},{r_txt},{int(c)}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "points": [
                {"gap_minutes": int(g),
                 "lag1_autocorrelation": None if np.isnan(r) else float(r),
                 "event_count": int(c)}
                for g, r, c in zip(self.gaps, self.lag1, self.event_counts)
            ],
        }


def gap_sweep(series: FluxSeries, threshold: float,
              gaps: Sequence[int]) -> GapSweepCurve:
    """Decluster at each gap and correlate the resulting peak sequences.

    ``gaps`` must be strictly increasing values >= 1.  Gaps yielding too
    few events for the statistic are kept in the curve with NaN.
    """
    gap_arr = np.asarray(list(gaps), dtype=np.int64)
    if gap_arr.size == 0:
        raise DomainError("gaps must be non-empty")
    if np.any(gap_arr < 1):
        raise DomainError("every gap must be >= 1")
    if np.any(np.diff(gap_arr) <= 0):
        raise DomainError("gaps must be strictly increasing")

    lag1 = np.full(gap_arr.size, np.nan)
    counts = np.zeros(gap_arr.size, dtype=np.int64)
    for i, gap in enumerate(gap_arr):
        catalog = decluster(series, threshold, int(gap))
        counts[i] = len(catalog)
        if len(catalog) >= 3:
            try:
                lag1[i] = lag1_autocorrelation(catalog.peak_fluxes)
            except ZeroVarianceError:
                pass
    return GapSweepCurve(gap_arr, lag1, counts)
