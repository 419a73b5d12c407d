"""Command line interface.

One subcommand per pipeline stage plus ``run`` for the whole analysis
and ``synth`` for test data.  Each stage reads and writes the serialized
artifacts, so any figure-ready output can be regenerated in isolation
(sweep for the declustering diagnostic, diagnose for the threshold and
fit diagnostics, returns for the return-level curve).

Exit codes: 0 on success, 2 for configuration or usage errors, and a
stage-specific code when a pipeline stage fails (see STAGE_EXIT_CODES).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .decluster import catalog_from_files, decluster, gap_sweep
from .errors import DomainError, FlareVtError, ParseError, PipelineStageError
from .gpd import fit_from_json_dict, fit_gpd, fit_to_json_dict
from .ingest import (IngestConfig, read_flux_csv, synth_clustered_series,
                     write_flux_csv)
from .pipeline import (STAGES, InputSpec, PipelineConfig, excesses_from_csv_text,
                       excesses_to_csv_text, ingest_one, run_diagnostics,
                       run_pipeline, write_json, write_text, x_class)
from .returns import (ObservationCalendar, default_m_grid, return_curve,
                      return_level_ci, return_period_band)

# ingest=3, decluster=4, ... report=10
STAGE_EXIT_CODES = {stage: code for code, stage in enumerate(STAGES, start=3)}


def _positive_int(text: str) -> int:
    """Parse an int >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"need an integer >= 1, got {text!r}")
    return value


def _positive_int_range(text: str) -> range | list[int]:
    """Parse 'lo:hi' (inclusive) or a comma list into increasing ints >= 1."""
    try:
        if ":" in text:
            lo, hi = text.split(":")
            gaps = range(int(lo), int(hi) + 1)
        else:
            gaps = [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'lo:hi' or a comma list of ints, got {text!r}") from None
    if not gaps or gaps[0] < 1 or any(b <= a for a, b in zip(gaps, gaps[1:])):
        raise argparse.ArgumentTypeError(
            f"need strictly increasing gaps >= 1, got {text!r}")
    return gaps


def _retained_date(text: str) -> str:
    """Parse an ISO date as IngestConfig reads its retained dates."""
    try:
        return IngestConfig(retained_saturation_events=(text,)).retained_saturation_events[0]
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _ingest_float(field: str):
    """An argparse type: a float that IngestConfig accepts as its ``field``."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
        try:
            IngestConfig(**{field: value})
        except DomainError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return parse


def _log_grid(text: str) -> tuple[float, float, int]:
    """Parse 'lo:hi:count' for a log-spaced return-period grid."""
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'lo:hi:count', got {text!r}") from None
    if not (0.0 < lo < hi and count >= 1):
        raise argparse.ArgumentTypeError(
            f"need 0 < lo < hi and count >= 1, got {text!r}")
    return lo, hi, count


def _read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParseError(f"{path}: not a JSON document: {exc}") from None


def _ingest_config_from_args(args) -> IngestConfig:
    """IngestConfig's defaults, overridden by the flags that were given."""
    given = {f.name: getattr(args, f.name) for f in fields(IngestConfig)}
    return IngestConfig(**{name: v for name, v in given.items() if v is not None})


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_ingest(args) -> int:
    spec = InputSpec(args.input, _ingest_config_from_args(args))
    series, info = ingest_one(spec)
    write_flux_csv(series, args.out)
    if args.summary:
        write_json(args.summary, info)
    print(f"ingest: {info['rows']} rows, {info['n_observations']} observations, "
          f"{info['saturation_runs_removed']} saturated run(s) removed -> {args.out}")
    return 0


def _cmd_decluster(args) -> int:
    series = read_flux_csv(args.series)
    catalog = decluster(series, args.threshold, args.gap)
    write_text(args.out_events, catalog.to_csv_text())
    write_json(args.out_meta, catalog.to_json_dict())
    print(f"decluster: {len(catalog)} events -> {args.out_events}")
    return 0


def _cmd_sweep(args) -> int:
    series = read_flux_csv(args.series)
    curve = gap_sweep(series, args.threshold, list(args.gaps))
    write_text(args.out, curve.to_csv_text())
    print(f"sweep: {curve.gaps.size} gap(s) -> {args.out}")
    return 0


def _load_catalog(events_path, meta_path):
    return catalog_from_files(Path(events_path).read_bytes(), _read_json(meta_path))


def _cmd_fit(args) -> int:
    if args.excesses:
        excesses = excesses_from_csv_text(Path(args.excesses).read_bytes())
        n_total = args.n_total if args.n_total is not None else excesses.size
    else:
        if not args.meta:
            print("fit: --events needs --meta (the catalog metadata JSON)",
                  file=sys.stderr)
            return 2
        if args.n_total is not None:
            print("fit: --n-total goes with --excesses; with --events the "
                  "catalog metadata gives it", file=sys.stderr)
            return 2
        catalog = _load_catalog(args.events, args.meta)
        excesses = catalog.excesses_over(args.threshold)
        n_total = catalog.n_total_observations
        if args.out_excesses:
            write_text(args.out_excesses, excesses_to_csv_text(excesses))
    fit = fit_gpd(excesses, threshold=args.threshold, n_total=n_total)
    write_json(args.out, fit_to_json_dict(fit))
    se = fit.std_errors
    se_txt = "unavailable" if se is None else f"({se[0]:.3g}, {se[1]:.3g})"
    print(f"fit: scale={fit.scale:.6g} shape={fit.shape:.4g} "
          f"std_errors={se_txt} n_excesses={fit.n_excesses} -> {args.out}")
    return 0


def _cmd_diagnose(args) -> int:
    catalog = _load_catalog(args.events, args.meta)
    fit = fit_from_json_dict(_read_json(args.fit))
    config = PipelineConfig(
        decluster_threshold=catalog.decluster_threshold,
        gap_minutes=catalog.gap_minutes,
        gpd_threshold=max(fit.threshold, catalog.decluster_threshold),
        ci_level=args.ci,
        mrl_grid_points=args.grid_points,
    )
    mrl, plot = run_diagnostics(catalog, fit, config)
    write_text(args.out_mrl, mrl.to_csv_text())
    write_text(args.out_probplot, plot.to_csv_text())
    print(f"diagnose: {mrl.u0.size} mean-excess points, "
          f"probability plot max deviation "
          f"{plot.max_abs_deviation_from_diagonal:.4f}")
    return 0


def _cmd_returns(args) -> int:
    fit = fit_from_json_dict(_read_json(args.fit))
    cal = ObservationCalendar(args.obs_per_year)
    did_something = False
    if args.level is not None:
        m_hat, m_lo, m_hi = return_period_band(fit, args.level, cal, args.ci)
        hi_txt = "inf" if np.isinf(m_hi) else f"{m_hi:.1f}"
        print(f"level {args.level:g} W/m^2 (X{x_class(args.level):g}): "
              f"return period {m_hat:.1f} years "
              f"[{args.ci*100:g}% CI {m_lo:.1f} - {hi_txt} years]")
        did_something = True
    if args.years is not None:
        ci = return_level_ci(fit, args.years, cal, args.ci)
        print(f"{args.years:g}-year return level: {ci.level:.6g} W/m^2 "
              f"(X{x_class(ci.level):.1f}) "
              f"[{args.ci*100:g}% CI X{x_class(ci.asym_low):.1f} - "
              f"X{x_class(ci.asym_high):.1f}]")
        did_something = True
    if args.out:
        if args.m_grid:
            grid = default_m_grid(*args.m_grid)
        else:
            m_min = 1.0 / (cal.obs_per_year * fit.exceedance_rate)
            grid = default_m_grid(max(1.0, m_min * 1.001))
        curve = return_curve(fit, grid, cal, args.ci)
        write_text(args.out, curve.to_csv_text())
        print(f"returns: {curve.m.size} grid points -> {args.out}")
        did_something = True
    if not did_something:
        print("returns: nothing to do (give --level, --years, or --out)",
              file=sys.stderr)
        return 2
    return 0


def _cmd_synth(args) -> int:
    series = synth_clustered_series(
        scale=args.scale, shape=args.shape, event_rate=args.event_rate,
        cluster_length_mean=args.cluster_mean, duration=args.duration,
        seed=args.seed, base_threshold=args.base_threshold)
    write_flux_csv(series, args.out)
    print(f"synth: {len(series)} samples over {args.duration:g} year(s) -> {args.out}")
    return 0


def _cmd_run(args) -> int:
    if args.config:
        config, config_inputs = PipelineConfig.from_json_file(args.config)
    else:
        config, config_inputs = PipelineConfig(), []
    inputs = list(config_inputs) + list(args.inputs or [])
    if not inputs:
        print("run: no input files (give positional paths or config 'inputs')",
              file=sys.stderr)
        return 2
    out_dir = args.out if args.out else config.out_dir
    report = run_pipeline(config, inputs, out_dir=out_dir,
                          fixed_clock=args.fixed_clock)
    fit = report.fit
    print(f"run: report -> {Path(out_dir) / 'report.json'}")
    print(f"  events: {report.catalog['n_events']}, "
          f"excesses over {config.gpd_threshold:g}: {fit['n_excesses']}")
    print(f"  fit: scale={fit['scale']:.6g} shape={fit['shape']:.4g}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flarevt",
        description="Peaks-over-threshold extreme value analysis of "
                    "minute-cadence X-ray flux series.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse, scale, and desaturate one flux file")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="cleaned series CSV")
    p.add_argument("--summary", help="optional ingest summary JSON")
    # one flag per IngestConfig field; unset flags keep its defaults
    p.add_argument("--divisor", dest="scaling_divisor", type=_ingest_float("scaling_divisor"))
    p.add_argument("--saturation-level", type=_ingest_float("saturation_level"))
    p.add_argument("--retain-date", dest="retained_saturation_events", action="append",
                   type=_retained_date,
                   help="ISO date whose saturation run is kept (repeatable; replaces "
                        "the default 2003-10-28). To blank every saturation run, give "
                        "'flarevt run' a config file with "
                        "\"retained_saturation_events\": []")
    p.add_argument("--sentinel", dest="missing_sentinels", action="append", type=float,
                   help="raw value treated as missing (repeatable)")
    p.set_defaults(handler=_cmd_ingest, stage="ingest")

    p = sub.add_parser("decluster", help="reduce a series to independent events")
    p.add_argument("--series", required=True)
    p.add_argument("--threshold", type=float, default=1e-4)
    p.add_argument("--gap", type=_positive_int, default=15)
    p.add_argument("--out-events", required=True)
    p.add_argument("--out-meta", required=True)
    p.set_defaults(handler=_cmd_decluster, stage="decluster")

    p = sub.add_parser("sweep", help="gap sweep of the lag-1 autocorrelation")
    p.add_argument("--series", required=True)
    p.add_argument("--threshold", type=float, default=1e-4)
    p.add_argument("--gaps", type=_positive_int_range, default=range(1, 31),
                   help="'lo:hi' inclusive or comma list (default 1:30)")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_sweep, stage="sweep")

    p = sub.add_parser("fit", help="maximum-likelihood excess model fit")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--excesses", help="serialized excess list CSV")
    group.add_argument("--events", help="event catalog CSV (with --meta)")
    p.add_argument("--meta", help="catalog metadata JSON (required with --events)")
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--n-total", type=int,
                   help="total observation count (only with --excesses)")
    p.add_argument("--out", required=True, help="fit JSON")
    p.add_argument("--out-excesses", help="also write the extracted excess list")
    p.set_defaults(handler=_cmd_fit, stage="fit")

    p = sub.add_parser("diagnose", help="mean-residual-life and probability plot")
    p.add_argument("--events", required=True)
    p.add_argument("--meta", required=True)
    p.add_argument("--fit", required=True)
    p.add_argument("--ci", type=float, default=0.95)
    p.add_argument("--grid-points", type=_positive_int, default=200)
    p.add_argument("--out-mrl", required=True)
    p.add_argument("--out-probplot", required=True)
    p.set_defaults(handler=_cmd_diagnose, stage="diagnose")

    p = sub.add_parser("returns", help="return levels, periods, and intervals")
    p.add_argument("--fit", required=True)
    p.add_argument("--level", type=float, help="flux level to invert (W/m^2)")
    p.add_argument("--years", type=float, help="return period to evaluate")
    p.add_argument("--m-grid", type=_log_grid,
                   help="'lo:hi:count' log-spaced grid for --out")
    p.add_argument("--obs-per-year", type=float, default=525_600.0)
    p.add_argument("--ci", type=float, default=0.95)
    p.add_argument("--out", help="return curve CSV")
    p.set_defaults(handler=_cmd_returns, stage="returns")

    p = sub.add_parser("synth", help="generate a synthetic clustered series")
    p.add_argument("--scale", type=float, required=True)
    p.add_argument("--shape", type=float, required=True)
    p.add_argument("--event-rate", type=float, required=True,
                   help="events per year")
    p.add_argument("--cluster-mean", type=float, default=10.0,
                   help="mean cluster length in minutes")
    p.add_argument("--duration", type=float, required=True, help="years")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--base-threshold", type=float, default=1e-4)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_synth, stage="synth")

    p = sub.add_parser("run", help="run the full pipeline")
    p.add_argument("inputs", nargs="*", help="flux CSV files")
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--out", help="output directory (overrides config)")
    p.add_argument("--fixed-clock", action="store_true",
                   help="omit timestamps for byte-reproducible reports")
    p.set_defaults(handler=_cmd_run, stage="run")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except PipelineStageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return STAGE_EXIT_CODES.get(exc.stage, 1)
    except FlareVtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        stage = getattr(args, "stage", None)
        return STAGE_EXIT_CODES.get(stage, 2)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
