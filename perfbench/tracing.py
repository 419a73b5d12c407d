"""Spans recorded from outside flarevt, and the per-layer metrics read from them.

The benchmark edits nothing in the program.  A traced pass records a span
around each call into a layer's public functions: either the benchmark
calls the function itself through :meth:`Tracer.call`, or
:meth:`Tracer.patched` swaps a traced wrapper in for the name that
``flarevt.pipeline`` looks up at call time.  Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from contextlib import contextmanager

# the names run_pipeline and its stage helpers look up in flarevt.pipeline
PIPELINE_NAMES = (
    "read_flux_csv", "apply_scaling", "filter_saturation", "write_flux_csv",
    "decluster", "gap_sweep", "fit_gpd", "mean_excess_curve",
    "probability_plot", "return_curve", "return_level_ci",
    "return_period_band", "write_json",
)

# layer of each span name; a span of no layer is the benchmark's own
LAYER_OF = {
    "read_flux_csv": "ingest", "apply_scaling": "ingest",
    "filter_saturation": "ingest", "write_flux_csv": "ingest",
    "FluxSeries": "ingest",
    "decluster": "decluster", "gap_sweep": "decluster",
    "fit_gpd": "gpd",
    "mean_excess_curve": "diagnostics", "probability_plot": "diagnostics",
    "return_curve": "returns", "return_level_ci": "returns",
    "return_period_band": "returns",
    "run_pipeline": "pipeline", "write_json": "pipeline",
}


def _counts(name, args, result) -> dict:
    """Counts taken at the span boundary, after the span has ended."""
    if name == "read_flux_csv":
        return {"rows": len(result), "bytes": os.path.getsize(args[0])}
    if name == "write_flux_csv":  # ASCII text: one byte per character
        return {"bytes": len(result)}
    if name == "filter_saturation":
        return {"runs_removed": int(result[1])}
    if name == "decluster":
        return {"events": len(result)}
    if name == "gap_sweep":
        return {"events": int(result.event_counts.sum()),
                "gaps": int(result.gaps.size)}
    if name == "fit_gpd":
        return {"nfev": result.convergence.function_evals,
                "restarts": result.convergence.restarts,
                "no_covariance": int(result.covariance is None)}
    if name == "mean_excess_curve":
        return {"points": int(result.u0.size)}
    return {}


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "error", "counts")

    def __init__(self, span_id, name, parent):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.error = None
        self.counts = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, "error": self.error,
                **self.counts}


class Tracer:
    """Records one span per traced call, with its parent span."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        span = Span(len(self.spans), name, self._open[-1] if self._open else None)
        self.spans.append(span)
        self._open.append(span.id)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._open.pop()
        span.counts = _counts(name, args, result)
        return result

    @contextmanager
    def patched(self, module, names):
        """Trace every name in ``module`` for the duration of the block.

        Yields the names that ``module`` no longer has; the layers read
        from them are unmeasured, not zero.
        """
        found = {name: getattr(module, name) for name in names if hasattr(module, name)}
        for name, fn in found.items():
            setattr(module, name, self._wrap(name, fn))
        try:
            yield [name for name in names if name not in found]
        finally:
            for name, fn in found.items():
                setattr(module, name, fn)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced


def plain_call(name, fn, *args, **kwargs):
    """The untraced stand-in for :meth:`Tracer.call`."""
    return fn(*args, **kwargs)


def self_times(spans) -> dict:
    """Self time per layer: each span's duration minus its children's."""
    child_time = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
    totals = {}
    for span in spans:
        layer = LAYER_OF.get(span.name, "benchmark")
        totals[layer] = totals.get(layer, 0.0) + span.duration - child_time.get(span.id, 0.0)
    return totals


# per-layer metric -> (unit, span names or probe it is read from)
PER_LAYER = {
    "ingest.read_s": ("s", ("read_flux_csv",)),
    "ingest.read_mb_per_s": ("MB/s", ("read_flux_csv",)),
    "ingest.read_rows_per_s": ("1/s", ("read_flux_csv",)),
    "ingest.read_peak_mb": ("MB", ("memory_probe",)),
    "ingest.write_s": ("s", ("write_flux_csv",)),
    "ingest.write_mb_per_s": ("MB/s", ("write_flux_csv",)),
    "ingest.write_peak_mb": ("MB", ("memory_probe",)),
    "ingest.condition_s": ("s", ("apply_scaling", "filter_saturation")),
    "ingest.saturation_runs": ("count", ("filter_saturation",)),
    "ingest.series_build_s": ("s", ("FluxSeries",)),
    "decluster.s": ("s", ("decluster",)),
    "decluster.events": ("count", ("decluster",)),
    "decluster.sweep_s": ("s", ("gap_sweep",)),
    "decluster.sweep_s_per_gap": ("s", ("gap_sweep",)),
    "decluster.sweep_events": ("count", ("gap_sweep",)),
    "gpd.fit_s": ("s", ("fit_gpd",)),
    "gpd.fit_ms_p50": ("ms", ("fit_gpd",)),
    "gpd.nfev": ("count", ("fit_gpd",)),
    "gpd.restarts": ("count", ("fit_gpd",)),
    "gpd.no_covariance": ("count", ("fit_gpd",)),
    "returns.ci_s": ("s", ("return_level_ci",)),
    "returns.band_s": ("s", ("return_period_band",)),
    "returns.curve_s": ("s", ("return_curve",)),
    "returns.band_failures": ("count", ("return_period_band",)),
    "diagnostics.s": ("s", ("mean_excess_curve", "probability_plot")),
    "diagnostics.mrl_points": ("count", ("mean_excess_curve",)),
    "pipeline.self_s": ("s", ("run_pipeline",)),
    "pipeline.artifact_bytes": ("bytes", ("run_pipeline",)),
    "pipeline.artifacts": ("count", ("run_pipeline",)),
    "trace.overhead_s": ("s", ()),
}

MB = float(1 << 20)


def layer_metrics(spans, probe: dict, artifacts: dict, overhead_s: float) -> dict:
    """Every PER_LAYER value from one traced pass.

    ``probe`` holds the tracemalloc peaks of the memory probe and
    ``artifacts`` the size and count of the files the pass wrote; both
    are empty where the workload has no such step.  A layer the workload
    does not call reads 0.
    """
    def of(*names):
        return [s for s in spans if s.name in names]

    def dur(*names):
        return sum((s.duration for s in of(*names)), 0.0)

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in of(name))

    def per(amount, seconds):
        return amount / seconds if seconds > 0.0 else 0.0

    read_s, write_s = dur("read_flux_csv"), dur("write_flux_csv")
    sweep_s, gaps = dur("gap_sweep"), total("gap_sweep", "gaps")
    fits = [s.duration for s in of("fit_gpd")]
    return {
        "ingest.read_s": read_s,
        "ingest.read_mb_per_s": per(total("read_flux_csv", "bytes") / MB, read_s),
        "ingest.read_rows_per_s": per(total("read_flux_csv", "rows"), read_s),
        "ingest.read_peak_mb": probe.get("read_peak_bytes", 0) / MB,
        "ingest.write_s": write_s,
        "ingest.write_mb_per_s": per(total("write_flux_csv", "bytes") / MB, write_s),
        "ingest.write_peak_mb": probe.get("write_peak_bytes", 0) / MB,
        "ingest.condition_s": dur("apply_scaling", "filter_saturation"),
        "ingest.saturation_runs": total("filter_saturation", "runs_removed"),
        "ingest.series_build_s": dur("FluxSeries"),
        "decluster.s": dur("decluster"),
        "decluster.events": total("decluster", "events"),
        "decluster.sweep_s": sweep_s,
        "decluster.sweep_s_per_gap": per(sweep_s, gaps),
        "decluster.sweep_events": total("gap_sweep", "events"),
        "gpd.fit_s": dur("fit_gpd"),
        "gpd.fit_ms_p50": statistics.median(fits) * 1e3 if fits else 0.0,
        "gpd.nfev": total("fit_gpd", "nfev"),
        "gpd.restarts": total("fit_gpd", "restarts"),
        "gpd.no_covariance": total("fit_gpd", "no_covariance"),
        "returns.ci_s": dur("return_level_ci"),
        "returns.band_s": dur("return_period_band"),
        "returns.curve_s": dur("return_curve"),
        "returns.band_failures": sum(1 for s in of("return_period_band") if s.error),
        "diagnostics.s": dur("mean_excess_curve", "probability_plot"),
        "diagnostics.mrl_points": total("mean_excess_curve", "points"),
        "pipeline.self_s": self_times(spans).get("pipeline", 0.0),
        "pipeline.artifact_bytes": artifacts.get("bytes", 0),
        "pipeline.artifacts": artifacts.get("count", 0),
        "trace.overhead_s": overhead_s,
    }


def unmeasured(spans, expected, probe: dict) -> list:
    """PER_LAYER metrics whose expected source left no record.

    ``expected`` names the spans (and ``memory_probe``) the workload
    should produce.  A name the program no longer has, or no longer
    calls, leaves every metric read from it unmeasured.
    """
    seen = {s.name for s in spans} | ({"memory_probe"} if probe else set())
    absent = set(expected) - seen
    return [metric for metric, (_, sources) in PER_LAYER.items()
            if absent.intersection(sources)]
