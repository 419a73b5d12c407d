"""The workloads: how each makes its inputs, runs one pass, and checks it.

A workload object has

* ``setup(seed, dest)``: generate the inputs from the seed into ``dest``;
* ``load(dest)``: read them back, outside any timed region;
* ``run_pass(state, call, pause)``: one timed unit of work, calling into
  flarevt through ``call`` (the tracer's, or the untraced stand-in); it
  returns a :class:`PassResult`.  A long pass may call ``pause`` between
  operations and leave its time out of the pass;
* ``checks(state, outcomes)``: correctness checks, as (name, ok, detail);
* ``reference(state)``: a fixed block of work like the pass's own, built
  from numpy, scipy and Python alone, timed between and inside passes;
* ``expected_spans``: the span names a traced pass must record.

The reference block calls nothing in flarevt, so a change to the program
leaves its time as it was, while a host that runs slower for a while (on
a shared machine, for a minute at a time) slows it as it slows the pass.
The end-to-end time is reported as a multiple of it.

Where a workload writes files, the benchmark uses its own writer and not
``flarevt.write_flux_csv``: the program's writer is measured inside the
pipeline, and set-up time must not move when it changes.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize

import flarevt as fv
from flarevt import pipeline
from flarevt.errors import InfiniteReturnError
from flarevt.gpd import fit_to_json_dict
from tracing import PIPELINE_NAMES, plain_call

# the README quick start and the ROADMAP baseline: divide by 1, fit over X1
CONFIG = pipeline.PipelineConfig.from_dict(
    {"ingest": {"scaling_divisor": 1.0}, "gpd_threshold": 1e-4})
CAL = fv.ObservationCalendar(CONFIG.obs_per_year)

# synth_clustered_series(scale, shape, events/yr, mean cluster minutes, ...)
SYNTH = (3e-4, 0.25, 60.0, 10.0)


def _synth(years: float, seed: int) -> fv.FluxSeries:
    return fv.synth_clustered_series(*SYNTH, years, seed)


def _save_series(series: fv.FluxSeries, dest: Path) -> None:
    np.save(dest / "minutes.npy", series.timestamps)
    np.save(dest / "flux.npy", series.flux)


def _load_series_arrays(dest: Path):
    return np.load(dest / "minutes.npy"), np.load(dest / "flux.npy")


def write_csv(path: Path, minutes: np.ndarray, flux: np.ndarray) -> None:
    """The interchange CSV, as flarevt.write_flux_csv formats it."""
    stamps = np.datetime_as_string(minutes.astype("datetime64[s]"), unit="s").tolist()
    values = ["" if v != v else repr(v) for v in flux.tolist()]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("timestamp,flux_wm2\n")
        fh.write("".join(f"{t}Z,{v}\n" for t, v in zip(stamps, values)))


@contextlib.contextmanager
def _calling_after(module, names, hook):
    """Call ``hook()`` after every call of the named functions of ``module``.

    A name the module no longer has is skipped: the pass still runs, with
    fewer pauses.
    """
    found = {name: getattr(module, name) for name in names if hasattr(module, name)}

    def wrap(fn):
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                hook()
        return wrapper

    for name, fn in found.items():
        setattr(module, name, wrap(fn))
    try:
        yield
    finally:
        for name, fn in found.items():
            setattr(module, name, fn)


class PassResult(NamedTuple):
    wall_s: float       # first call into flarevt to the pass's result
    op_s: list          # latency of each operation: a replicate, or the pass
    failed: int         # operations that failed
    outcome: object     # must repeat exactly from pass to pass


class Workload:
    min_passes = 2      # outcomes are compared between passes
    setup_repeats = 3   # set-ups per run; setup_s is their median
    ref_blocks = 3      # reference blocks before the first pass and after each
    expected_spans: tuple = ()

    def warm_up(self, state) -> None:
        """Untimed work before the first pass."""

    def artifacts(self, state) -> dict:
        return {}

    def memory_probe(self, state) -> dict:
        return {}


class ArchiveCsv(Workload):
    """Five yearly CSVs through run_pipeline, as a user's batch run."""

    name = "archive_csv_5y"
    years = 5
    setup_repeats = 2   # a set-up takes ~7 s
    ref_blocks = 2
    ref_rows = 60_000
    # a pass is one run_pipeline call of ~15 s; it pauses after each of
    # these calls (five reads, one write), so reference blocks fall inside it
    pause_after = ("read_flux_csv", "write_flux_csv")
    expected_spans = ("run_pipeline", "memory_probe") + PIPELINE_NAMES

    def setup(self, seed: int, dest: Path) -> None:
        series = _synth(self.years, seed)
        _save_series(series, dest)
        minutes, flux = series.timestamps, series.flux
        year = minutes.astype("datetime64[Y]")
        cuts = np.flatnonzero(year[1:] != year[:-1]) + 1
        for lo, hi in zip([0, *cuts], [*cuts, minutes.size]):
            write_csv(dest / f"goes_{year[lo]}.csv", minutes[lo:hi], flux[lo:hi])

    def load(self, dest: Path) -> dict:
        inputs = sorted(dest.glob("goes_*.csv"))
        rng = np.random.default_rng(0)
        minutes = np.datetime64("2020-01-01T00:00", "m") + np.arange(self.ref_rows)
        return {"dest": dest, "inputs": inputs, "out": dest.parent / f"{self.name}.out",
                "ref_rows": (minutes, 1e-7 * (1.0 + rng.pareto(3.0, self.ref_rows)))}

    def reference(self, state) -> None:
        """Format fixed rows as CSV text and parse them back, in memory.

        The same work as the pipeline's ingest, without the disk: a block
        right after a pass would otherwise wait on the pass's write-back.
        """
        minutes, flux = state["ref_rows"]
        stamps = np.datetime_as_string(minutes.astype("datetime64[s]"), unit="s").tolist()
        text = "".join(f"{t}Z,{v!r}\n" for t, v in zip(stamps, flux.tolist()))
        stamps, values = zip(*(row.split(",") for row in text.splitlines()))
        np.array([stamp[:-1] for stamp in stamps], dtype="datetime64[s]")
        np.array(values, dtype=np.float64)

    def run_pass(self, state, call, pause=None):
        out = state["out"]
        shutil.rmtree(out, ignore_errors=True)
        paused = [0.0]

        def timed_pause():
            t = time.perf_counter()
            pause()
            paused[0] += time.perf_counter() - t

        hooks = (_calling_after(pipeline, self.pause_after, timed_pause) if pause
                 else contextlib.nullcontext())
        with hooks:
            t0 = time.perf_counter()
            call("run_pipeline", pipeline.run_pipeline, CONFIG, state["inputs"], out,
                 fixed_clock=True)
            elapsed = time.perf_counter() - t0 - paused[0]
        return PassResult(elapsed, [elapsed], 0, (out / "report.json").read_bytes())

    def artifacts(self, state) -> dict:
        files = [p for p in state["out"].iterdir() if p.is_file()]
        return {"count": len(files), "bytes": sum(p.stat().st_size for p in files)}

    def memory_probe(self, state) -> dict:
        """tracemalloc peaks inside one read_flux_csv and one write_flux_csv.

        The read is of the first input file, as the pipeline reads one
        file at a time; the write is of the whole series, as the pipeline
        writes ``series.csv``.
        """
        import tracemalloc
        minutes, flux = _load_series_arrays(state["dest"])
        series = fv.FluxSeries(minutes, flux)
        del minutes, flux
        probe = {}
        tracemalloc.start()
        try:
            fv.read_flux_csv(state["inputs"][0], CONFIG.ingest)
            probe["read_peak_bytes"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fv.write_flux_csv(series, state["out"] / "probe_series.csv")
            probe["write_peak_bytes"] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        (state["out"] / "probe_series.csv").unlink()
        return probe

    def checks(self, state, outcomes) -> list:
        first = outcomes[0]
        same = all(report == first for report in outcomes[1:])
        checks = [("report.json byte-identical across passes", same,
                   f"{len(outcomes)} passes")]
        fit_doc = json.loads(first)["fit"]
        ref = self._reference_fit(state["dest"])
        want = {"scale": ref.scale, "shape": ref.shape, "n_excesses": ref.n_excesses}
        got = {key: fit_doc[key] for key in want}
        checks.append(("report fit equals in-process reference, bit for bit",
                       got == want, f"report {got} vs reference {want}"))
        return checks

    @staticmethod
    def _reference_fit(dest: Path) -> fv.GpdFit:
        minutes, flux = _load_series_arrays(dest)
        series = fv.apply_scaling(fv.FluxSeries(minutes, flux),
                                  CONFIG.ingest.scaling_divisor)
        series, _ = fv.filter_saturation(series, CONFIG.ingest)
        catalog = fv.decluster(series, CONFIG.decluster_threshold, CONFIG.gap_minutes)
        return fv.fit_gpd(catalog.excesses_over(CONFIG.gpd_threshold),
                          threshold=CONFIG.gpd_threshold,
                          n_total=catalog.n_total_observations)


class SweepMemory(Workload):
    """The paper's 30-year span from memory: no CSV, the gap sweep dominates."""

    name = "sweep_mem_30y"
    years = 30
    expected_spans = ("FluxSeries", "decluster", "gap_sweep", "fit_gpd",
                      "mean_excess_curve", "probability_plot", "return_curve",
                      "return_level_ci", "return_period_band")

    def setup(self, seed: int, dest: Path) -> None:
        _save_series(_synth(self.years, seed), dest)

    def load(self, dest: Path) -> dict:
        minutes, flux = _load_series_arrays(dest)
        return {"minutes": minutes, "flux": flux}

    def reference(self, state) -> None:
        """Copy and scan the whole grid twice, as each decluster of the sweep does."""
        minutes, flux = state["minutes"], state["flux"]
        for _ in range(2):
            stamps = minutes.astype(np.int64)
            np.count_nonzero(~np.isnan(flux))
            np.diff(stamps[np.flatnonzero(flux >= CONFIG.decluster_threshold)])

    def run_pass(self, state, call, pause=None):
        cfg = CONFIG
        t0 = time.perf_counter()
        series = call("FluxSeries", fv.FluxSeries, state["minutes"], state["flux"])
        catalog = call("decluster", fv.decluster, series, cfg.decluster_threshold,
                       cfg.gap_minutes)
        sweep = call("gap_sweep", fv.gap_sweep, series, cfg.decluster_threshold,
                     range(cfg.sweep_gap_lo, cfg.sweep_gap_hi + 1))
        fit = call("fit_gpd", fv.fit_gpd, catalog.excesses_over(cfg.gpd_threshold),
                   threshold=cfg.gpd_threshold, n_total=catalog.n_total_observations)
        mrl, _ = pipeline.run_diagnostics(catalog, fit, cfg)
        # the return-period grid run_pipeline uses
        m_min = catalog.n_total_observations / (cfg.obs_per_year * fit.n_excesses)
        m_grid = np.geomspace(max(cfg.m_grid_lo, m_min * 1.001), cfg.m_grid_hi,
                              cfg.m_grid_count)
        curve = call("return_curve", fv.return_curve, fit, m_grid, CAL, cfg.ci_level)
        scenarios = pipeline.build_scenarios(fit, cfg)
        elapsed = time.perf_counter() - t0
        at_gap = sweep.event_counts[sweep.gaps == cfg.gap_minutes]
        outcome = {
            "events": len(catalog),
            "sweep_events_at_gap": int(at_gap[0]) if at_gap.size else None,
            "sweep_counts": sweep.event_counts.tolist(),
            "fit": fit_to_json_dict(fit),
            "mrl_points": int(mrl.u0.size),
            "curve_levels": curve.level.tolist(),
            "scenarios": scenarios,
        }
        return PassResult(elapsed, [elapsed], int(fit.covariance is None), outcome)

    def checks(self, state, outcomes) -> list:
        first = outcomes[0]
        return [
            (f"sweep event count at gap {CONFIG.gap_minutes} equals len(decluster)",
             first["sweep_events_at_gap"] == first["events"],
             f"{first['sweep_events_at_gap']} vs {first['events']}"),
            ("outputs identical across passes",
             all(o == first for o in outcomes[1:]), f"{len(outcomes)} passes"),
        ]


class McFitStudy(Workload):
    """Criterion 09's Monte Carlo: fit, 150-year interval, X45 band per replicate."""

    name = "mc_fit_study"
    replicates = 1000   # per pass: p99 of a pass then has ten replicates beyond it
    setup_repeats = 25  # one set-up takes milliseconds; many steady the median
    expected_spans = ("fit_gpd", "return_level_ci", "return_period_band")
    threshold = 3.5e-4
    params = fv.GpdParams(2.98e-4, 0.26)
    n_excesses = 171
    n_total = 15_768_000
    years = 150.0
    level = 45e-4
    coverage_floor = 0.88
    ref_samples = 40
    ref_blocks = 1
    pause_every = 50    # a reference block every 50 replicates, as well

    def setup(self, seed: int, dest: Path) -> None:
        rng = np.random.default_rng(seed)
        counts = rng.binomial(self.n_total, self.n_excesses / self.n_total,
                              size=self.replicates)
        values = fv.gpd_quantile(rng.random(int(counts.sum())), self.params)
        np.save(dest / "counts.npy", counts)
        np.save(dest / "excesses.npy", values)

    def load(self, dest: Path) -> dict:
        counts = np.load(dest / "counts.npy")
        values = np.load(dest / "excesses.npy")
        rng = np.random.default_rng(0)
        scale, shape = self.params.scale, self.params.shape
        ref = [scale / shape * ((1.0 - rng.random(self.n_excesses)) ** -shape - 1.0)
               for _ in range(self.ref_samples)]
        return {"replicates": np.split(values, np.cumsum(counts)[:-1]), "ref_samples": ref}

    def reference(self, state) -> None:
        """Nelder-Mead fits of a GPD likelihood written here, on fixed samples."""
        for y in state["ref_samples"]:
            minimize(_reference_nll, [math.log(y.mean()), 0.1], args=(y,),
                     method="Nelder-Mead", options={"xatol": 1e-8, "fatol": 1e-8})

    def warm_up(self, state) -> None:
        # scipy loads parts of itself on first use; a study pays that once
        self.run_pass({"replicates": state["replicates"][:20]}, plain_call)

    def run_pass(self, state, call, pause=None):
        latencies, outcomes, failed, paused = [], [], 0, 0.0
        start = time.perf_counter()
        for i, y in enumerate(state["replicates"]):
            if pause is not None and i and i % self.pause_every == 0:
                t0 = time.perf_counter()
                pause()
                paused += time.perf_counter() - t0
            t0 = time.perf_counter()
            try:
                fit = call("fit_gpd", fv.fit_gpd, y, threshold=self.threshold,
                           n_total=self.n_total)
                ci = call("return_level_ci", fv.return_level_ci, fit, self.years, CAL)
                try:
                    band = call("return_period_band", fv.return_period_band, fit,
                                self.level, CAL)
                except InfiniteReturnError:
                    # the fitted tail ends below the level: "never", a valid answer
                    band = (math.inf,) * 3
            except Exception as exc:  # one failed replicate; the study goes on
                failed += 1
                outcomes.append(f"{type(exc).__name__}: {exc}")
            else:
                outcomes.append((fit.scale, fit.shape, ci.asym_low, ci.asym_high, band))
            latencies.append(time.perf_counter() - t0)
        return PassResult(time.perf_counter() - start - paused, latencies, failed,
                          outcomes)

    def truth(self) -> float:
        fit = fv.GpdFit(threshold=self.threshold, params=self.params, covariance=None,
                        std_errors=None, n_excesses=self.n_excesses,
                        n_total=self.n_total, log_likelihood=0.0,
                        convergence=fv.FitConvergence(True, 0, 0, 0, "truth"))
        return fv.return_level(fit, self.years, CAL)

    def coverage(self, outcomes) -> tuple[int, int]:
        truth = self.truth()
        covered = sum(1 for o in outcomes
                      if isinstance(o, tuple) and o[2] <= truth <= o[3])
        return covered, len(outcomes)

    def checks(self, state, outcomes) -> list:
        first = outcomes[0]
        covered, n = self.coverage(first)
        return [
            (f"asymmetric interval covers the true {self.years:g}-year level "
             f"in >= {self.coverage_floor:.0%} of replicates",
             covered >= self.coverage_floor * n,
             f"{covered} of {n} ({covered / n:.1%})"),
            ("replicate results identical across passes",
             all(o == first for o in outcomes[1:]), f"{len(outcomes)} passes"),
        ]


def _reference_nll(theta, y) -> float:
    """GPD negative log-likelihood of excesses y at (log scale, shape)."""
    scale, shape = math.exp(theta[0]), theta[1]
    z = shape * y / scale
    if shape == 0.0 or z.min() <= -1.0:
        return 1e300
    return y.size * math.log(scale) + (1.0 / shape + 1.0) * float(np.log1p(z).sum())


WORKLOADS = {w.name: w for w in (ArchiveCsv(), SweepMemory(), McFitStudy())}

