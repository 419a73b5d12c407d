"""Shared test utilities and reference implementations.

The declustering oracle here deliberately takes the slow road: it
materializes the full minute grid between the first and last sample and
walks it with the quiet-minute counter state machine, index by index.
The production code never does this, which is what makes the comparison
meaningful.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from flarevt import FluxSeries

EPOCH = np.datetime64("2000-01-01T00:00", "m")
MINUTE = np.timedelta64(1, "m")

# Texts of finite doubles >= 0 that a flux column may hold: repr and printf
# forms, an uppercase E, a leading +, over 24 bytes ("%.30f", "%.19e"),
# mantissas of over 19 digits, and a point with no digits on one side.
FLOAT_TEXTS = st.one_of(
    st.floats(min_value=0.0, allow_infinity=False).flatmap(lambda v: st.sampled_from([
        repr(v), f"{v:.17e}", f"{v:.6e}", f"{v:.9f}", f"{v:.6E}", f"+{v!r}", f"{v:.30f}",
        f"{v:.19e}", f"{v:.19e}".partition("e")[0]])),
    st.integers(0, 10 ** 25).map(str),
    st.integers(0, 10 ** 6).flatmap(lambda m: st.sampled_from([f".{m}", f"{m}.", f"{m}.e-05"])),
)


def make_series(fluxes, start=EPOCH, offsets=None) -> FluxSeries:
    """Series from a flux list; ``offsets`` gives minutes past ``start``."""
    fluxes = np.asarray(fluxes, dtype=np.float64)
    if offsets is None:
        offsets = np.arange(fluxes.size)
    ts = np.datetime64(start, "m") + np.asarray(offsets, dtype=np.int64) * MINUTE
    return FluxSeries(ts, fluxes)


def decluster_oracle(times_min, flux, threshold, gap_minutes):
    """Brute-force runs declustering by scanning every grid minute.

    A cluster opens at an exceedance and closes once the counter of
    consecutive quiet minutes reaches the gap; an exceedance resets the
    counter.  Minutes missing from the sample arrays count as quiet.
    Returns a list of dicts with peak/first/last times (minutes), peak
    flux, and the exceedance count.
    """
    times_min = np.asarray(times_min, dtype=np.int64)
    flux = np.asarray(flux, dtype=np.float64)
    if times_min.size == 0:
        return []
    lookup = {int(t): float(f) for t, f in zip(times_min, flux)}
    events = []
    in_cluster = False
    counter = 0
    cur = None
    for t in range(int(times_min[0]), int(times_min[-1]) + 1):
        f = lookup.get(t)
        exceed = f is not None and not math.isnan(f) and f >= threshold
        if not in_cluster:
            if exceed:
                in_cluster = True
                counter = 0
                cur = {"first": t, "last": t, "peak": f, "peak_t": t, "count": 1}
        elif exceed:
            counter = 0
            cur["count"] += 1
            cur["last"] = t
            if f > cur["peak"]:
                cur["peak"] = f
                cur["peak_t"] = t
        else:
            counter += 1
            if counter >= gap_minutes:
                events.append(cur)
                in_cluster = False
                cur = None
    if in_cluster:
        events.append(cur)
    return events


def random_gappy_series(rng, max_len=200):
    """Random series with irregular timestamps, missing values, and ties."""
    n = int(rng.integers(1, max_len + 1))
    offsets = np.cumsum(rng.integers(1, 5, size=n))
    flux = rng.uniform(0.0, 10.0, size=n)
    flux[rng.random(n) < 0.15] = np.nan
    # duplicated values exercise first-occurrence peak ties
    if n > 3:
        flux[rng.integers(0, n, size=max(1, n // 10))] = 5.0
    return make_series(flux, offsets=offsets)


def assert_catalog_matches_oracle(catalog, series, threshold, gap):
    expected = decluster_oracle(series.timestamps.astype(np.int64),
                                series.flux, threshold, gap)
    assert len(catalog) == len(expected)
    columns = {"peak_t": catalog.peak_times.astype(np.int64),
               "peak": catalog.peak_fluxes,
               "first": catalog.cluster_starts.astype(np.int64),
               "last": catalog.cluster_ends.astype(np.int64),
               "count": catalog.cluster_sample_counts}
    for key, column in columns.items():
        assert column.tolist() == [ref[key] for ref in expected], key
