"""End-to-end analysis pipeline and its report.

Stages: ingest -> decluster -> gap sweep -> excess extraction -> fit ->
diagnostics -> return curve.  Each stage returns its artifacts by file
name, and they are written through :func:`write_artifact` before the
next stage runs, so each number in the final report is traceable to a
file on disk.  A failed stage writes none of its artifacts, and the run
leaves a manifest naming the completed stages and every artifact file.
Reports are byte-deterministic for identical config and inputs when the
fixed-clock flag suppresses the generation timestamp.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import math
import os
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, is_dataclass, replace
from numbers import Real
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from ._table import check_nonnegative, read_table, table_text
from .decluster import (DEFAULT_GAP_MINUTES, DEFAULT_THRESHOLD, EventCatalog,
                        GapSweepCurve, checked_gaps, checked_rule, decluster, gap_sweep)
from .diagnostics import (MrlCurve, ProbabilityPlot, default_threshold_grid,
                          mean_excess_curve, probability_plot)
from .errors import DomainError, FlareVtError, OrderingError, ParseError, PipelineStageError
from .gpd import GpdFit, checked_threshold, fit_gpd, fit_to_json_dict
from .ingest import FluxSeries, IngestConfig, filter_saturation, read_flux_csv, \
    apply_scaling, write_flux_csv
from .returns import (ObservationCalendar, normal_quantile, return_curve,
                      return_level_ci, return_period_band)

__all__ = [
    "STAGES",
    "PipelineConfig",
    "InputSpec",
    "run_pipeline",
    "read_json",
    "write_artifact",
    "write_json",
    "json_text",
]

REPORT_SCHEMA_VERSION = 3

X_CLASS_UNIT = 1e-4  # W/m^2 per X-class unit

# Flat config fields that the JSON document nests: ``m_grid_lo`` is ``m_grid.lo``.
_JSON_GROUPS = {"m_grid": ("m_grid_lo", "m_grid_hi", "m_grid_count"),
                "sweep_gaps": ("sweep_gap_lo", "sweep_gap_hi")}
_NESTED_PATH = {name: (group, name.rsplit("_", 1)[1])
                for group, names in _JSON_GROUPS.items() for name in names}


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

    ingest: IngestConfig = IngestConfig()
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

    def __post_init__(self):
        # each value with a library owner is checked by it, in its words
        checked_rule(self.decluster_threshold, self.gap_minutes)
        checked_threshold(self.gpd_threshold)
        normal_quantile(self.ci_level)
        ObservationCalendar(self.obs_per_year)
        if self.gpd_threshold < self.decluster_threshold:
            raise DomainError("gpd_threshold must be >= decluster_threshold")
        if not (0.0 < self.m_grid_lo < self.m_grid_hi < math.inf and self.m_grid_count >= 1):
            raise DomainError("m_grid must satisfy 0 < lo < hi < inf and count >= 1")
        if not self.sweep_gap_lo <= self.sweep_gap_hi:
            raise DomainError("sweep gap range must satisfy lo <= hi")
        checked_gaps(range(self.sweep_gap_lo, self.sweep_gap_hi + 1))  # counted before it is listed
        if self.mrl_grid_points < 1:
            raise DomainError("mrl_grid_points must be >= 1")
        for name in ("return_table_years", "scenario_years", "scenario_levels"):
            if not all(0.0 < value < math.inf for value in getattr(self, name)):
                raise DomainError(f"every value of {name} must be > 0 and finite")

    def to_dict(self) -> dict:
        return _to_json(PipelineConfig, self)

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        """The config a JSON document describes; its ``inputs`` are left to
        :meth:`from_json_file`."""
        doc = {key: value for key, value in _object(doc, "config").items()
               if key != "inputs"}
        return cls(**_fields_from_json(cls, doc, "config"))

    @classmethod
    def from_json_file(cls, path) -> tuple["PipelineConfig", list["InputSpec"]]:
        """Load config and any declared inputs from a JSON document."""
        doc = read_json(path)
        config = cls.from_dict(doc)
        inputs = doc.get("inputs", [])
        if not isinstance(inputs, list):
            raise DomainError("config.inputs must be a list")
        return config, [coerce_input_spec(entry, config.ingest) for entry in inputs]

    def config_hash(self) -> str:
        """Content hash of the resolved configuration."""
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")).hexdigest()


def coerce_input_spec(entry, default_ingest: IngestConfig) -> InputSpec:
    """Accept a bare path or a {path, overrides...} mapping."""
    if isinstance(entry, (str, os.PathLike)):
        return InputSpec(str(entry), default_ingest)
    overrides = dict(_object(entry, "input"))
    path = overrides.pop("path", None)
    if not isinstance(path, str):
        raise DomainError(f"an input needs a 'path' string, got {entry!r}")
    return InputSpec(path, replace(default_ingest, **_fields_from_json(
        IngestConfig, overrides, "input")))


# ---------------------------------------------------------------------------
# config documents, derived from the dataclass fields
# ---------------------------------------------------------------------------

def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise DomainError(f"{where} must be a JSON object, got {value!r}")
    return value


def _to_json(tp, value):
    """``value`` of declared type ``tp`` as JSON, numbers as their declared type."""
    if is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        doc: dict = {}
        for f in fields(tp):
            *group, key = _NESTED_PATH.get(f.name, (f.name,))
            target = doc.setdefault(group[0], {}) if group else doc
            target[key] = _to_json(hints[f.name], getattr(value, f.name))
        return doc
    if typing.get_origin(tp) is tuple:
        return [_to_json(typing.get_args(tp)[0], item) for item in value]
    return tp(value)


def _fields_from_json(cls, doc, where: str) -> dict:
    """Keyword arguments for dataclass ``cls`` from its JSON object.

    Each value is coerced to its field's declared type; a key naming no
    field is rejected.
    """
    hints = typing.get_type_hints(cls)
    field_at = {_NESTED_PATH.get(f.name, (f.name,)): f.name for f in fields(cls)}
    groups = {path[0] for path in field_at if len(path) == 2}
    leaves = []
    for key, value in _object(doc, where).items():
        if key in groups:
            leaves.extend(((key, sub), item) for sub, item
                          in _object(value, f"{where}.{key}").items())
        else:
            leaves.append(((key,), value))
    unknown = sorted(".".join(path) for path, _ in leaves if path not in field_at)
    if unknown:
        raise DomainError(f"unknown keys in {where}: {unknown}")
    return {field_at[path]: _from_json(hints[field_at[path]], value,
                                       ".".join((where,) + path))
            for path, value in leaves}


def _from_json(tp, value, where: str):
    """A JSON value as declared type ``tp``; a value of another type is rejected."""
    if is_dataclass(tp):
        return tp(**_fields_from_json(tp, value, where))
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise DomainError(f"{where} must be a list, got {value!r}")
        item_type = typing.get_args(tp)[0]
        return tuple(_from_json(item_type, item, f"{where}[{i}]")
                     for i, item in enumerate(value))
    if tp is str:
        ok = isinstance(value, str)
    else:  # int or float; an int field takes only integral numbers
        ok = (isinstance(value, Real) and not isinstance(value, bool)
              and (tp is float or float(value).is_integer()))
    if not ok:
        raise DomainError(f"{where} must be of type {tp.__name__}, got {value!r}")
    return tp(value)


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def read_json(path):
    """The JSON document in a file; ParseError naming the file if it is not one."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParseError(f"{path}: not a JSON document: {exc}") from None


def json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_artifact(path, content) -> None:
    """Write one artifact, picking the format by the content's type, since a
    flag may name any file: a FluxSeries as the series CSV, a ``str`` as it
    is, anything else as JSON.  The writers are looked up by name at each
    call, so that a wrapper set on this module sees every write."""
    if isinstance(content, FluxSeries):
        write_flux_csv(content, path)
    elif not isinstance(content, str):
        write_json(path, content)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)


def write_json(path, obj) -> None:
    write_artifact(path, json_text(obj))


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def excesses_to_csv_text(excesses: np.ndarray) -> str:
    return table_text("excess", np.asarray(excesses, dtype=np.float64))


def excesses_from_csv_text(data: str | bytes) -> np.ndarray:
    """The excess list; ParseError naming the line of a bad header or of a
    value that is not finite and >= 0."""
    (excesses,), _, row_text = read_table(data, "excess", {"excess": np.float64})
    check_nonnegative(excesses, row_text, 0, "excess")
    return excesses


def x_class(flux: float) -> float:
    """Flux expressed in X-class units (X1 = 1e-4 W/m^2)."""
    return flux / X_CLASS_UNIT


# ---------------------------------------------------------------------------
# stage workers (shared between run_pipeline and the CLI subcommands)
# ---------------------------------------------------------------------------

def ingest_one(spec: InputSpec) -> tuple[FluxSeries, dict]:
    """Read (and hash, on a second thread), scale, and desaturate one file;
    returns the series and a summary."""
    with ThreadPoolExecutor(1) as pool:
        sha256 = pool.submit(_sha256_file, spec.path)
        raw = read_flux_csv(spec.path, spec.ingest)
    rows, scaled = len(raw), apply_scaling(raw, spec.ingest.scaling_divisor)
    del raw  # its flux, so that filter_saturation's copy does not sit beside it
    cleaned, removed = filter_saturation(scaled, spec.ingest)
    info = {
        "file": Path(spec.path).name,
        "sha256": sha256.result(),
        "rows": rows,
        "n_observations": cleaned.n_observations,
        "scaling_divisor": spec.ingest.scaling_divisor,
        "saturation_runs_removed": removed,
    }
    return cleaned, info


def ingest_many(specs: list[InputSpec]) -> tuple[FluxSeries, list[dict]]:
    """Ingest and concatenate several files; each must start after the one before."""
    if not specs:
        raise DomainError("no input files given")
    series_list, infos = [], []
    for spec in specs:
        series, info = ingest_one(spec)
        if series_list and series.span_start <= series_list[-1].span_end:
            raise OrderingError(f"{spec.path} does not start after the last minute "
                                f"of {infos[-1]['file']}, {series_list[-1].span_end}")
        series_list.append(series)
        infos.append(info)
    if len(series_list) == 1:
        return series_list[0], infos
    combined = FluxSeries._adopt(
        np.concatenate([s.timestamps for s in series_list]),
        np.concatenate([s.flux for s in series_list]),
        sum(info["n_observations"] for info in infos),
    )
    return combined, infos


def run_diagnostics(catalog: EventCatalog, fit: GpdFit, config: PipelineConfig
                    ) -> tuple[MrlCurve, ProbabilityPlot]:
    peaks = catalog.peak_fluxes
    grid = default_threshold_grid(config.decluster_threshold, peaks,
                                  config.mrl_grid_points)
    mrl = mean_excess_curve(peaks, grid, config.ci_level)
    plot = probability_plot(fit, catalog.excesses_over(fit.threshold))
    return mrl, plot


def return_period_grid(fit: GpdFit, config: PipelineConfig) -> np.ndarray:
    """The config's log-spaced return periods, starting no lower than just
    above the mean inter-exceedance time n_total / (obs_per_year * n_excesses)."""
    m_min = fit.n_total / (config.obs_per_year * fit.n_excesses)
    return np.geomspace(max(config.m_grid_lo, m_min * 1.001), config.m_grid_hi,
                        config.m_grid_count)


def build_scenarios(fit: GpdFit, config: PipelineConfig) -> dict:
    """Named headline numbers: per-level return periods, per-period levels."""
    cal = ObservationCalendar(config.obs_per_year)
    scenarios: dict[str, dict] = {}
    for level in config.scenario_levels:
        entry = scenarios[f"x{x_class(level):g}_return_period"] = {
            "level_wm2": level, "x_class": x_class(level)}
        if level <= fit.threshold:
            entry["note"] = "level at or below the fit threshold"
            continue
        try:
            m_hat, m_lo, m_hi = return_period_band(fit, level, cal, config.ci_level)
        except FlareVtError as exc:  # no usable covariance, unbounded, ...
            entry["note"] = str(exc)
            continue
        entry.update(return_period_years=m_hat, ci_low_years=m_lo,
                     ci_high_years=None if math.isinf(m_hi) else m_hi,
                     ci_level=config.ci_level)
    for years in config.scenario_years:
        ci = return_level_ci(fit, years, cal, config.ci_level)
        scenarios[f"level_{years:g}yr"] = {
            **_level_row(years, ci), "sym_ci_low_wm2": ci.low,
            "sym_ci_high_wm2": ci.high, "ci_level": config.ci_level}
    return scenarios


def _level_row(m: float, ci) -> dict:
    """A return level as the report quotes it: with the asymmetric interval."""
    return {"m_years": m, "level_wm2": ci.level, "x_class": x_class(ci.level),
            "ci_low_wm2": ci.asym_low, "ci_high_wm2": ci.asym_high}


def build_return_table(fit: GpdFit, config: PipelineConfig) -> list[dict]:
    cal = ObservationCalendar(config.obs_per_year)
    return [_level_row(m, return_level_ci(fit, m, cal, config.ci_level))
            for m in config.return_table_years]


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

def _sweep_summary(curve: GapSweepCurve, configured_gap: int) -> dict:
    doc = {"n_gaps": int(curve.gaps.size)}
    for label, gap in (("lag1_at_gap_1", 1), ("lag1_at_configured_gap", configured_gap)):
        idx = np.flatnonzero(curve.gaps == gap)
        if idx.size:
            value = curve.lag1[idx[0]]
            doc[label] = None if np.isnan(value) else float(value)
    return doc


# Each stage takes the run state, adds its results to it, and returns its
# artifacts, file name to content, for run_pipeline to write.

def _ingest_stage(run) -> dict:
    run.series, infos = ingest_many(run.specs)
    run.ingest_doc = {"files": infos, "n_observations": run.series.n_observations}
    return {"series.csv": run.series, "ingest.json": run.ingest_doc}


def _decluster_stage(run) -> dict:
    run.catalog = decluster(run.series, run.config.decluster_threshold,
                            run.config.gap_minutes)
    return {"catalog.csv": run.catalog.to_csv_text(),
            "catalog.json": run.catalog.to_json_dict()}


def _sweep_stage(run) -> dict:
    gaps = range(run.config.sweep_gap_lo, run.config.sweep_gap_hi + 1)
    run.sweep = gap_sweep(run.series, run.config.decluster_threshold, gaps)
    return {"sweep.csv": run.sweep.to_csv_text()}


def _excesses_stage(run) -> dict:
    run.excesses = run.catalog.excesses_over(run.config.gpd_threshold)
    return {"excesses.csv": excesses_to_csv_text(run.excesses)}


def _fit_stage(run) -> dict:
    run.fit = fit_gpd(run.excesses, threshold=run.config.gpd_threshold,
                      n_total=run.catalog.n_total_observations)
    return {"fit.json": fit_to_json_dict(run.fit)}


def _diagnose_stage(run) -> dict:
    run.mrl, run.plot = run_diagnostics(run.catalog, run.fit, run.config)
    return {"mrl.csv": run.mrl.to_csv_text(), "probplot.csv": run.plot.to_csv_text()}


def _returns_stage(run) -> dict:
    config, fit = run.config, run.fit
    cal = ObservationCalendar(config.obs_per_year)
    curve = return_curve(fit, return_period_grid(fit, config), cal, config.ci_level)
    run.table = build_return_table(fit, config)
    run.scenarios = build_scenarios(fit, config)
    return {"returns.csv": curve.to_csv_text()}


def _report_stage(run) -> dict:
    config, infos = run.config, run.ingest_doc["files"]
    removed_total = sum(info["saturation_runs_removed"] for info in infos)
    ingest_doc = {**run.ingest_doc, "saturation_runs_removed": removed_total}
    if removed_total:
        ingest_doc["saturation_note"] = (
            f"{removed_total} saturated run(s) blanked to missing; "
            "sub-saturation behaviour during those runs is discarded")
    run.report = dict(
        schema_version=REPORT_SCHEMA_VERSION,
        generated_at=None if run.fixed_clock
        else _dt.datetime.now(_dt.timezone.utc).isoformat(),
        config=config.to_dict(),
        ingest=ingest_doc,
        catalog=run.catalog.to_json_dict(),
        gap_sweep=_sweep_summary(run.sweep, config.gap_minutes),
        fit=fit_to_json_dict(run.fit),
        diagnostics={
            "mrl_csv": "mrl.csv",
            "probplot_csv": "probplot.csv",
            "probability_plot_max_abs_deviation":
                run.plot.max_abs_deviation_from_diagonal,
        },
        return_table=run.table,
        scenarios=run.scenarios,
        provenance={
            "tool": "flarevt",
            "version": __version__,
            "config_sha256": config.config_hash(),
            "inputs": [{"file": info["file"], "sha256": info["sha256"]}
                       for info in infos],
        },
        artifacts=dict(run.artifacts),
    )
    return {"report.json": run.report}


_STAGE_TABLE = {
    "ingest": _ingest_stage,
    "decluster": _decluster_stage,
    "sweep": _sweep_stage,
    "excesses": _excesses_stage,
    "fit": _fit_stage,
    "diagnose": _diagnose_stage,
    "returns": _returns_stage,
    "report": _report_stage,
}

STAGES = tuple(_STAGE_TABLE)


def run_pipeline(config: PipelineConfig, inputs, out_dir,
                 fixed_clock: bool = False) -> dict:
    """Run every stage over the input files and write all artifacts.

    ``inputs`` is a list of paths or :class:`InputSpec`; per-file ingest
    settings come from the spec, everything else from ``config``.  A
    failed stage writes none of its artifacts, ``manifest.json`` lists the
    completed stages and the artifacts written, and
    :class:`PipelineStageError` is raised.

    Returns the report document, as written to ``<out_dir>/report.json``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    specs = [entry if isinstance(entry, InputSpec)
             else coerce_input_spec(entry, config.ingest)
             for entry in inputs]
    run = SimpleNamespace(config=config, specs=specs, fixed_clock=fixed_clock,
                          artifacts={})
    completed: list[str] = []
    manifest = {"completed_stages": completed, "failed_stage": None,
                "artifacts": run.artifacts}
    try:
        for stage, work in _STAGE_TABLE.items():
            for name, content in work(run).items():
                write_artifact(out / name, content)
                run.artifacts[name.replace(".", "_")] = name
            completed.append(stage)
        write_artifact(out / "manifest.json", manifest)
    except Exception as exc:
        write_artifact(out / "manifest.json",
                       {**manifest, "failed_stage": stage, "error": str(exc)})
        raise PipelineStageError(stage, exc) from exc
    return run.report
