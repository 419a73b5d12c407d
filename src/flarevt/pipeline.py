"""End-to-end analysis pipeline and its report.

Stages: ingest -> decluster -> gap sweep -> excess extraction -> fit ->
diagnostics -> return curve.  Every stage writes its artifact before the
next one runs, so each number in the final report is traceable to a file
on disk, and a failed run leaves a manifest naming the completed stages.
Reports are byte-deterministic for identical config and inputs when the
fixed-clock flag suppresses the generation timestamp.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .decluster import (DEFAULT_GAP_MINUTES, DEFAULT_THRESHOLD, EventCatalog,
                        GapSweepCurve, decluster, gap_sweep)
from .diagnostics import (MrlCurve, ProbabilityPlot, default_threshold_grid,
                          mean_excess_curve, probability_plot)
from .errors import DomainError, PipelineStageError
from .gpd import GpdFit, fit_gpd, fit_to_json_dict
from .ingest import FluxSeries, IngestConfig, filter_saturation, read_flux_csv, \
    apply_scaling, write_flux_csv
from .returns import (ObservationCalendar, return_curve, return_level_ci,
                      return_period_band)

__all__ = [
    "STAGES",
    "PipelineConfig",
    "InputSpec",
    "AnalysisReport",
    "run_pipeline",
    "write_json",
    "json_text",
]

STAGES = ("ingest", "decluster", "sweep", "excesses", "fit",
          "diagnose", "returns", "report")

REPORT_SCHEMA_VERSION = 2

X_CLASS_UNIT = 1e-4  # W/m^2 per X-class unit


@dataclass(frozen=True)
class InputSpec:
    """One input file plus its ingest overrides."""

    path: str
    ingest: IngestConfig


@dataclass(frozen=True)
class PipelineConfig:
    """Declarative analysis configuration with the standard defaults baked in.

    The zero-config path reproduces the reference GOES analysis given the
    archive: divide by 0.7, blank saturation runs except 2003-10-28,
    decluster at X1 with a 15-minute gap, and fit excesses over X3.5.
    """

    ingest: IngestConfig = field(default_factory=lambda: IngestConfig(
        retained_saturation_events=("2003-10-28",)))
    decluster_threshold: float = DEFAULT_THRESHOLD
    gap_minutes: int = DEFAULT_GAP_MINUTES
    gpd_threshold: float = 3.5e-4
    obs_per_year: float = 525_600.0
    ci_level: float = 0.95
    m_grid_lo: float = 1.0
    m_grid_hi: float = 1e5
    m_grid_count: int = 101
    sweep_gap_lo: int = 1
    sweep_gap_hi: int = 30
    return_table_years: tuple[float, ...] = (10.0, 30.0, 100.0, 150.0, 500.0, 10_000.0)
    scenario_levels: tuple[float, ...] = (45e-4, 200e-4)
    scenario_years: tuple[float, ...] = (150.0,)
    mrl_grid_points: int = 200
    out_dir: str = "flarevt_out"

    def __post_init__(self):
        if not (self.decluster_threshold > 0.0 and self.gpd_threshold > 0.0):
            raise DomainError("thresholds must be > 0")
        if self.gpd_threshold < self.decluster_threshold:
            raise DomainError("gpd_threshold must be >= decluster_threshold")
        if self.gap_minutes < 1:
            raise DomainError("gap_minutes must be >= 1")
        if not 0.0 < self.ci_level < 1.0:
            raise DomainError("ci_level must lie in (0, 1)")
        if not self.obs_per_year > 0.0:
            raise DomainError("obs_per_year must be > 0")
        if not (1 <= self.sweep_gap_lo <= self.sweep_gap_hi):
            raise DomainError("sweep gap range must satisfy 1 <= lo <= hi")

    def to_dict(self) -> dict:
        return {
            "ingest": {
                "scaling_divisor": self.ingest.scaling_divisor,
                "saturation_level": self.ingest.saturation_level,
                "retained_saturation_events": list(self.ingest.retained_saturation_events),
                "missing_sentinels": list(self.ingest.missing_sentinels),
            },
            "decluster_threshold": self.decluster_threshold,
            "gap_minutes": self.gap_minutes,
            "gpd_threshold": self.gpd_threshold,
            "obs_per_year": self.obs_per_year,
            "ci_level": self.ci_level,
            "m_grid": {"lo": self.m_grid_lo, "hi": self.m_grid_hi,
                       "count": self.m_grid_count},
            "sweep_gaps": {"lo": self.sweep_gap_lo, "hi": self.sweep_gap_hi},
            "return_table_years": list(self.return_table_years),
            "scenario_levels": list(self.scenario_levels),
            "scenario_years": list(self.scenario_years),
            "mrl_grid_points": self.mrl_grid_points,
            "out_dir": self.out_dir,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        known = {"ingest", "decluster_threshold", "gap_minutes", "gpd_threshold",
                 "obs_per_year", "ci_level", "m_grid", "sweep_gaps",
                 "return_table_years", "scenario_levels", "scenario_years",
                 "mrl_grid_points", "out_dir", "inputs"}
        unknown = set(doc) - known
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {}
        if "ingest" in doc:
            ing = dict(doc["ingest"])
            bad = set(ing) - {"scaling_divisor", "saturation_level",
                              "retained_saturation_events", "missing_sentinels"}
            if bad:
                raise DomainError(f"unknown ingest config keys: {sorted(bad)}")
            if "retained_saturation_events" in ing:
                ing["retained_saturation_events"] = tuple(ing["retained_saturation_events"])
            if "missing_sentinels" in ing:
                ing["missing_sentinels"] = tuple(ing["missing_sentinels"])
            kwargs["ingest"] = IngestConfig(**ing)
        for key in ("decluster_threshold", "gpd_threshold", "obs_per_year", "ci_level"):
            if key in doc:
                kwargs[key] = float(doc[key])
        if "gap_minutes" in doc:
            kwargs["gap_minutes"] = int(doc["gap_minutes"])
        if "m_grid" in doc:
            grid = doc["m_grid"]
            kwargs["m_grid_lo"] = float(grid.get("lo", 1.0))
            kwargs["m_grid_hi"] = float(grid.get("hi", 1e5))
            kwargs["m_grid_count"] = int(grid.get("count", 101))
        if "sweep_gaps" in doc:
            kwargs["sweep_gap_lo"] = int(doc["sweep_gaps"].get("lo", 1))
            kwargs["sweep_gap_hi"] = int(doc["sweep_gaps"].get("hi", 30))
        if "return_table_years" in doc:
            kwargs["return_table_years"] = tuple(float(v) for v in doc["return_table_years"])
        if "scenario_levels" in doc:
            kwargs["scenario_levels"] = tuple(float(v) for v in doc["scenario_levels"])
        if "scenario_years" in doc:
            kwargs["scenario_years"] = tuple(float(v) for v in doc["scenario_years"])
        if "mrl_grid_points" in doc:
            kwargs["mrl_grid_points"] = int(doc["mrl_grid_points"])
        if "out_dir" in doc:
            kwargs["out_dir"] = str(doc["out_dir"])
        return cls(**kwargs)

    @classmethod
    def from_json_file(cls, path) -> tuple["PipelineConfig", list["InputSpec"]]:
        """Load config and any declared inputs from a JSON document."""
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        config = cls.from_dict(doc)
        inputs = [coerce_input_spec(entry, config.ingest)
                  for entry in doc.get("inputs", [])]
        return config, inputs

    def config_hash(self) -> str:
        """Content hash of the resolved configuration (output dir excluded)."""
        doc = self.to_dict()
        doc.pop("out_dir")
        return hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def coerce_input_spec(entry, default_ingest: IngestConfig) -> InputSpec:
    """Accept a bare path or a {path, overrides...} mapping."""
    if isinstance(entry, (str, os.PathLike)):
        return InputSpec(str(entry), default_ingest)
    entry = dict(entry)
    path = entry.pop("path")
    overrides = {}
    for key in ("scaling_divisor", "saturation_level"):
        if key in entry:
            overrides[key] = float(entry.pop(key))
    for key in ("retained_saturation_events", "missing_sentinels"):
        if key in entry:
            overrides[key] = tuple(entry.pop(key))
    if entry:
        raise DomainError(f"unknown input keys: {sorted(entry)}")
    return InputSpec(str(path), replace(default_ingest, **overrides))


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json_text(obj))


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def excesses_to_csv_text(excesses: np.ndarray) -> str:
    lines = ["excess"]
    lines.extend(repr(float(v)) for v in excesses)
    return "\n".join(lines) + "\n"


def excesses_from_csv_text(text: str) -> np.ndarray:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "excess":
        raise DomainError("expected an excess list with header 'excess'")
    return np.array([float(v) for v in lines[1:]], dtype=np.float64)


def x_class(flux: float) -> float:
    """Flux expressed in X-class units (X1 = 1e-4 W/m^2)."""
    return flux / X_CLASS_UNIT


# ---------------------------------------------------------------------------
# stage workers (shared between run_pipeline and the CLI subcommands)
# ---------------------------------------------------------------------------

def ingest_one(spec: InputSpec) -> tuple[FluxSeries, dict]:
    """Read, scale, and desaturate one file; returns the series and a summary."""
    raw = read_flux_csv(spec.path, spec.ingest)
    scaled = apply_scaling(raw, spec.ingest.scaling_divisor)
    cleaned, removed = filter_saturation(scaled, spec.ingest)
    info = {
        "file": Path(spec.path).name,
        "sha256": _sha256_file(spec.path),
        "rows": len(raw),
        "n_observations": cleaned.n_observations,
        "scaling_divisor": spec.ingest.scaling_divisor,
        "saturation_runs_removed": removed,
    }
    return cleaned, info


def ingest_many(specs: list[InputSpec]) -> tuple[FluxSeries, list[dict]]:
    """Ingest and concatenate several files (re-validates global ordering)."""
    if not specs:
        raise DomainError("no input files given")
    series_list, infos = [], []
    for spec in specs:
        series, info = ingest_one(spec)
        series_list.append(series)
        infos.append(info)
    if len(series_list) == 1:
        return series_list[0], infos
    combined = FluxSeries(
        np.concatenate([s.timestamps for s in series_list]),
        np.concatenate([s.flux for s in series_list]),
    )
    return combined, infos


def extract_excesses(catalog: EventCatalog, gpd_threshold: float) -> np.ndarray:
    return catalog.excesses_over(gpd_threshold)


def run_fit(excesses: np.ndarray, gpd_threshold: float, n_total: int) -> GpdFit:
    return fit_gpd(excesses, threshold=gpd_threshold, n_total=n_total)


def run_diagnostics(catalog: EventCatalog, fit: GpdFit, config: PipelineConfig
                    ) -> tuple[MrlCurve, ProbabilityPlot]:
    peaks = catalog.peak_fluxes
    grid = default_threshold_grid(config.decluster_threshold, peaks,
                                  config.mrl_grid_points)
    mrl = mean_excess_curve(peaks, grid, config.ci_level)
    plot = probability_plot(fit, peaks[peaks > fit.threshold] - fit.threshold)
    return mrl, plot


def build_scenarios(fit: GpdFit, config: PipelineConfig) -> dict:
    """Named headline numbers: per-level return periods, per-period levels."""
    cal = ObservationCalendar(config.obs_per_year)
    scenarios: dict[str, dict] = {}
    for level in config.scenario_levels:
        key = f"x{x_class(level):g}_return_period"
        if level <= fit.threshold:
            scenarios[key] = {"level_wm2": level, "x_class": x_class(level),
                              "note": "level at or below the fit threshold"}
            continue
        try:
            m_hat, m_lo, m_hi = return_period_band(fit, level, cal, config.ci_level)
        except Exception as exc:  # no usable covariance, unbounded, ...
            scenarios[key] = {"level_wm2": level, "x_class": x_class(level),
                              "note": str(exc)}
            continue
        scenarios[key] = {
            "level_wm2": level,
            "x_class": x_class(level),
            "return_period_years": m_hat,
            "ci_low_years": m_lo,
            "ci_high_years": None if math.isinf(m_hi) else m_hi,
            "ci_level": config.ci_level,
        }
    for years in config.scenario_years:
        ci = return_level_ci(fit, years, cal, config.ci_level)
        scenarios[f"level_{years:g}yr"] = {
            "m_years": years,
            "level_wm2": ci.level,
            "x_class": x_class(ci.level),
            "ci_low_wm2": ci.asym_low,
            "ci_high_wm2": ci.asym_high,
            "sym_ci_low_wm2": ci.low,
            "sym_ci_high_wm2": ci.high,
            "ci_level": config.ci_level,
        }
    return scenarios


def build_return_table(fit: GpdFit, config: PipelineConfig) -> list[dict]:
    cal = ObservationCalendar(config.obs_per_year)
    table = []
    for m in config.return_table_years:
        ci = return_level_ci(fit, m, cal, config.ci_level)
        table.append({
            "m_years": m,
            "level_wm2": ci.level,
            "x_class": x_class(ci.level),
            "ci_low_wm2": ci.asym_low,
            "ci_high_wm2": ci.asym_high,
        })
    return table


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalysisReport:
    """Everything the pipeline learned, with pointers to the artifacts."""

    schema_version: int
    generated_at: str | None
    config: dict
    ingest: dict
    catalog: dict
    gap_sweep: dict
    fit: dict
    diagnostics: dict
    return_table: list
    scenarios: dict
    provenance: dict
    artifacts: dict

    def to_json_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "generated_at": self.generated_at,
            "config": self.config,
            "ingest": self.ingest,
            "catalog": self.catalog,
            "gap_sweep": self.gap_sweep,
            "fit": self.fit,
            "diagnostics": self.diagnostics,
            "return_table": self.return_table,
            "scenarios": self.scenarios,
            "provenance": self.provenance,
            "artifacts": self.artifacts,
        }

    def to_json_text(self) -> str:
        return json_text(self.to_json_dict())


def _sweep_summary(curve: GapSweepCurve, configured_gap: int) -> dict:
    doc = {"n_gaps": int(curve.gaps.size)}
    for label, gap in (("lag1_at_gap_1", 1), ("lag1_at_configured_gap", configured_gap)):
        idx = np.flatnonzero(curve.gaps == gap)
        if idx.size:
            value = curve.lag1[idx[0]]
            doc[label] = None if np.isnan(value) else float(value)
    return doc


def run_pipeline(config: PipelineConfig, inputs, out_dir=None,
                 fixed_clock: bool = False) -> AnalysisReport:
    """Run every stage over the input files and write all artifacts.

    ``inputs`` is a list of paths or :class:`InputSpec`; per-file ingest
    settings come from the spec, everything else from ``config``.  On a
    stage failure a ``manifest.json`` listing completed stages is written
    and :class:`PipelineStageError` raised.

    Returns the report, which has also been written to
    ``<out_dir>/report.json``.
    """
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    specs = [entry if isinstance(entry, InputSpec)
             else coerce_input_spec(entry, config.ingest)
             for entry in inputs]

    completed: list[str] = []
    artifacts: dict[str, str] = {}

    def fail(stage: str, exc: BaseException):
        write_json(out / "manifest.json", {
            "completed_stages": completed,
            "failed_stage": stage,
            "error": str(exc),
            "artifacts": artifacts,
        })
        raise PipelineStageError(stage, exc) from exc

    # ingest
    try:
        series, ingest_infos = ingest_many(specs)
        write_flux_csv(series, out / "series.csv")
        write_json(out / "ingest.json", {
            "files": ingest_infos,
            "n_observations": series.n_observations,
        })
        artifacts["series_csv"] = "series.csv"
        artifacts["ingest_json"] = "ingest.json"
    except Exception as exc:
        fail("ingest", exc)
    completed.append("ingest")

    # decluster
    try:
        catalog = decluster(series, config.decluster_threshold, config.gap_minutes)
        _write_text(out / "catalog.csv", catalog.to_csv_text())
        write_json(out / "catalog.json", catalog.to_json_dict())
        artifacts["catalog_csv"] = "catalog.csv"
        artifacts["catalog_json"] = "catalog.json"
    except Exception as exc:
        fail("decluster", exc)
    completed.append("decluster")

    # gap sweep
    try:
        gaps = range(config.sweep_gap_lo, config.sweep_gap_hi + 1)
        sweep = gap_sweep(series, config.decluster_threshold, gaps)
        _write_text(out / "sweep.csv", sweep.to_csv_text())
        artifacts["sweep_csv"] = "sweep.csv"
    except Exception as exc:
        fail("sweep", exc)
    completed.append("sweep")

    # excess extraction
    try:
        excesses = extract_excesses(catalog, config.gpd_threshold)
        _write_text(out / "excesses.csv", excesses_to_csv_text(excesses))
        artifacts["excesses_csv"] = "excesses.csv"
    except Exception as exc:
        fail("excesses", exc)
    completed.append("excesses")

    # fit
    try:
        fit = run_fit(excesses, config.gpd_threshold, catalog.n_total_observations)
        write_json(out / "fit.json", fit_to_json_dict(fit))
        artifacts["fit_json"] = "fit.json"
    except Exception as exc:
        fail("fit", exc)
    completed.append("fit")

    # diagnostics
    try:
        mrl, plot = run_diagnostics(catalog, fit, config)
        _write_text(out / "mrl.csv", mrl.to_csv_text())
        _write_text(out / "probplot.csv", plot.to_csv_text())
        write_json(out / "mrl.json", mrl.to_json_dict())
        write_json(out / "probplot.json", plot.to_json_dict())
        artifacts["mrl_csv"] = "mrl.csv"
        artifacts["probplot_csv"] = "probplot.csv"
        artifacts["mrl_json"] = "mrl.json"
        artifacts["probplot_json"] = "probplot.json"
    except Exception as exc:
        fail("diagnose", exc)
    completed.append("diagnose")

    # return levels
    try:
        cal = ObservationCalendar(config.obs_per_year)
        m_min = catalog.n_total_observations / (config.obs_per_year * fit.n_excesses)
        grid_lo = max(config.m_grid_lo, m_min * 1.001)
        m_grid = np.geomspace(grid_lo, config.m_grid_hi, config.m_grid_count)
        curve = return_curve(fit, m_grid, cal, config.ci_level)
        _write_text(out / "returns.csv", curve.to_csv_text())
        write_json(out / "returns.json", curve.to_json_dict(fit))
        table = build_return_table(fit, config)
        scenarios = build_scenarios(fit, config)
        write_json(out / "return_table.json", table)
        write_json(out / "scenarios.json", scenarios)
        artifacts["returns_csv"] = "returns.csv"
        artifacts["returns_json"] = "returns.json"
        artifacts["return_table_json"] = "return_table.json"
        artifacts["scenarios_json"] = "scenarios.json"
    except Exception as exc:
        fail("returns", exc)
    completed.append("returns")

    # report
    try:
        removed_total = sum(info["saturation_runs_removed"] for info in ingest_infos)
        ingest_doc = {
            "files": ingest_infos,
            "n_observations": series.n_observations,
            "saturation_runs_removed": removed_total,
        }
        if removed_total:
            ingest_doc["saturation_note"] = (
                f"{removed_total} saturated run(s) blanked to missing; "
                "sub-saturation behaviour during those runs is discarded")
        config_doc = config.to_dict()
        config_doc.pop("out_dir")  # run location, not analysis content
        report = AnalysisReport(
            schema_version=REPORT_SCHEMA_VERSION,
            generated_at=None if fixed_clock
            else _dt.datetime.now(_dt.timezone.utc).isoformat(),
            config=config_doc,
            ingest=ingest_doc,
            catalog=catalog.to_json_dict(),
            gap_sweep=_sweep_summary(sweep, config.gap_minutes),
            fit=fit_to_json_dict(fit),
            diagnostics={
                "mrl_csv": "mrl.csv",
                "probplot_csv": "probplot.csv",
                "probability_plot_max_abs_deviation":
                    plot.max_abs_deviation_from_diagonal,
            },
            return_table=table,
            scenarios=scenarios,
            provenance={
                "tool": "flarevt",
                "version": __version__,
                "config_sha256": config.config_hash(),
                "inputs": [{"file": info["file"], "sha256": info["sha256"]}
                           for info in ingest_infos],
            },
            artifacts=artifacts,
        )
        report_text = report.to_json_text()
        _write_text(out / "report.json", report_text)
        write_json(out / "manifest.json", {
            "completed_stages": completed + ["report"],
            "failed_stage": None,
            "artifacts": {**artifacts, "report_json": "report.json"},
        })
    except Exception as exc:
        fail("report", exc)
    return report
