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
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .decluster import catalog_from_files, checked_gaps, checked_rule, decluster, gap_sweep
from .errors import DomainError, FlareVtError, ParseError, PipelineStageError
from .gpd import GpdParams, checked_threshold, fit_from_json_dict, fit_gpd, fit_to_json_dict
from .ingest import (IngestConfig, read_flux_csv, synth_clustered_series,
                     write_flux_csv)
from .pipeline import (STAGES, InputSpec, PipelineConfig, excesses_from_csv_text,
                       excesses_to_csv_text, ingest_one, return_period_grid,
                       run_diagnostics, run_pipeline, write_json, write_text,
                       x_class)
from .returns import (ObservationCalendar, normal_quantile, return_curve,
                      return_level_ci, return_period_band)

# ingest=3, decluster=4, ... report=10
STAGE_EXIT_CODES = {stage: code for code, stage in enumerate(STAGES, start=3)}


class _Parser(argparse.ArgumentParser):
    """Reads ``-1e-4`` and ``-inf`` as values, as ``-1``; argparse (3.10, 3.11)
    takes them for options.  The words are those ``float()`` reads, in any case."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|(?i:inf|infinity|nan))$")


def _flag(convert, accept):
    """An argparse type: ``convert`` the text, then have ``accept`` build the
    object that owns the value (a config, a calendar) or call its check.

    A value the owner rejects is a usage error carrying the owner's own
    message, so it exits 2 before any input is read.
    """
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}") from None
        try:
            accept(value)
        except DomainError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return parse


def _gap_list(text: str) -> list[int]:
    """Parse 'lo:hi' (inclusive) or a comma list of ints."""
    try:
        if ":" in text:
            lo, hi = text.split(":")
            return list(range(int(lo), int(hi) + 1))
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'lo:hi' or a comma list of ints, got {text!r}") from None


def _log_grid(text: str) -> tuple[float, float, int]:
    """Parse 'lo:hi:count' for a log-spaced return-period grid."""
    try:
        lo, hi, count = text.split(":")
        return float(lo), float(hi), int(count)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'lo:hi:count', got {text!r}") from None


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
        grid = (np.geomspace(*args.m_grid) if args.m_grid
                else return_period_grid(fit, PipelineConfig(obs_per_year=cal.obs_per_year)))
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
    parser = _Parser(
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
    p.add_argument("--divisor", dest="scaling_divisor",
                   type=_flag(float, lambda v: IngestConfig(scaling_divisor=v)))
    p.add_argument("--saturation-level",
                   type=_flag(float, lambda v: IngestConfig(saturation_level=v)))
    p.add_argument("--retain-date", dest="retained_saturation_events", action="append",
                   type=_flag(str, lambda v: IngestConfig(retained_saturation_events=(v,))),
                   help="ISO date whose saturation run is kept (repeatable; replaces "
                        f"the default {', '.join(IngestConfig.retained_saturation_events)})."
                        " To blank every saturation run, give "
                        "'flarevt run' a config file with "
                        "\"retained_saturation_events\": []")
    p.add_argument("--sentinel", dest="missing_sentinels", action="append", type=float,
                   help="raw value treated as missing (repeatable)")
    p.set_defaults(handler=_cmd_ingest, stage="ingest")

    p = sub.add_parser("decluster", help="reduce a series to independent events")
    p.add_argument("--series", required=True)
    p.add_argument("--threshold", type=_flag(float, checked_rule),
                   default=PipelineConfig.decluster_threshold)
    p.add_argument("--gap", type=_flag(int, lambda v: PipelineConfig(gap_minutes=v)),
                   default=PipelineConfig.gap_minutes)
    p.add_argument("--out-events", required=True)
    p.add_argument("--out-meta", required=True)
    p.set_defaults(handler=_cmd_decluster, stage="decluster")

    p = sub.add_parser("sweep", help="gap sweep of the lag-1 autocorrelation")
    p.add_argument("--series", required=True)
    p.add_argument("--threshold", type=_flag(float, checked_rule),
                   default=PipelineConfig.decluster_threshold)
    p.add_argument("--gaps", type=_flag(_gap_list, checked_gaps),
                   default=range(PipelineConfig.sweep_gap_lo, PipelineConfig.sweep_gap_hi + 1),
                   help="'lo:hi' inclusive or comma list (default "
                        f"{PipelineConfig.sweep_gap_lo}:{PipelineConfig.sweep_gap_hi})")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_sweep, stage="sweep")

    p = sub.add_parser("fit", help="maximum-likelihood excess model fit")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--excesses", help="serialized excess list CSV")
    group.add_argument("--events", help="event catalog CSV (with --meta)")
    p.add_argument("--meta", help="catalog metadata JSON (required with --events)")
    p.add_argument("--threshold", type=_flag(float, checked_threshold), required=True)
    p.add_argument("--n-total", type=int,
                   help="total observation count (only with --excesses)")
    p.add_argument("--out", required=True, help="fit JSON")
    p.add_argument("--out-excesses", help="also write the extracted excess list")
    p.set_defaults(handler=_cmd_fit, stage="fit")

    p = sub.add_parser("diagnose", help="mean-residual-life and probability plot")
    p.add_argument("--events", required=True)
    p.add_argument("--meta", required=True)
    p.add_argument("--fit", required=True)
    p.add_argument("--ci", type=_flag(float, normal_quantile),
                   default=PipelineConfig.ci_level)
    p.add_argument("--grid-points",
                   type=_flag(int, lambda v: PipelineConfig(mrl_grid_points=v)),
                   default=PipelineConfig.mrl_grid_points)
    p.add_argument("--out-mrl", required=True)
    p.add_argument("--out-probplot", required=True)
    p.set_defaults(handler=_cmd_diagnose, stage="diagnose")

    p = sub.add_parser("returns", help="return levels, periods, and intervals")
    p.add_argument("--fit", required=True)
    p.add_argument("--level", help="flux level to invert (W/m^2)",
                   type=_flag(float, lambda v: PipelineConfig(scenario_levels=(v,))))
    p.add_argument("--years", help="return period to evaluate",
                   type=_flag(float, lambda v: PipelineConfig(scenario_years=(v,))))
    p.add_argument("--m-grid", help="'lo:hi:count' log-spaced grid for --out",
                   type=_flag(_log_grid, lambda g: PipelineConfig(
                       m_grid_lo=g[0], m_grid_hi=g[1], m_grid_count=g[2])))
    p.add_argument("--obs-per-year", type=_flag(float, ObservationCalendar),
                   default=PipelineConfig.obs_per_year)
    p.add_argument("--ci", type=_flag(float, normal_quantile),
                   default=PipelineConfig.ci_level)
    p.add_argument("--out", help="return curve CSV")
    p.set_defaults(handler=_cmd_returns, stage="returns")

    p = sub.add_parser("synth", help="generate a synthetic clustered series")
    p.add_argument("--scale", type=_flag(float, lambda v: GpdParams(v, 0.0)), required=True)
    p.add_argument("--shape", type=float, required=True)
    p.add_argument("--event-rate", type=float, required=True,
                   help="events per year")
    p.add_argument("--cluster-mean", type=float, default=10.0,
                   help="mean cluster length in minutes")
    p.add_argument("--duration", type=float, required=True, help="years")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--base-threshold", type=float,
                   default=PipelineConfig.decluster_threshold)
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
