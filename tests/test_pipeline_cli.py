import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import flarevt as fv
from flarevt import PipelineStageError, SubThresholdReturnWarning, pipeline
from flarevt.cli import STAGE_EXIT_CODES, main
from flarevt.gpd import fit_from_json_dict, fit_to_json_dict
from flarevt.pipeline import (PipelineConfig, build_scenarios, excesses_to_csv_text, json_text,
                              run_pipeline)

from helpers import make_series

TRUE_SCALE, TRUE_SHAPE = 3e-4, 0.2


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    """A 0.3-year synthetic input with known excess distribution."""
    path = tmp_path_factory.mktemp("data") / "synth.csv"
    series = fv.synth_clustered_series(TRUE_SCALE, TRUE_SHAPE, 400.0, 8.0, 0.3,
                                       seed=424242)
    fv.write_flux_csv(series, path)
    return path


@pytest.fixture(scope="module")
def pipeline_config():
    # fit at the generator's base threshold so the recovered parameters
    # are directly comparable with the generator's
    return PipelineConfig(
        ingest=fv.IngestConfig(scaling_divisor=1.0),
        gpd_threshold=1e-4,
    )


EXPECTED_ARTIFACTS = [
    "series.csv", "ingest.json", "catalog.csv", "catalog.json", "sweep.csv",
    "excesses.csv", "fit.json", "mrl.csv", "probplot.csv", "returns.csv",
    "report.json", "manifest.json",
]


_STAGES_WITHOUT_SCIPY = """
import sys
import flarevt
from flarevt import cli

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

print("after import:", scipy_modules())
d = sys.argv[1]
for argv in (
        ["synth", "--scale", "3e-4", "--shape", "0.25", "--event-rate", "2000",
         "--duration", "0.02", "--seed", "7", "--out", f"{d}/flux.csv"],
        ["ingest", "--input", f"{d}/flux.csv", "--divisor", "1", "--out", f"{d}/series.csv"],
        ["decluster", "--series", f"{d}/series.csv", "--gap", "15",
         "--out-events", f"{d}/catalog.csv", "--out-meta", f"{d}/catalog.json"],
        ["sweep", "--series", f"{d}/series.csv", "--out", f"{d}/sweep.csv"],
        ["fit", "--events", f"{d}/catalog.csv", "--meta", f"{d}/catalog.json",
         "--threshold", "1e-4", "--out", f"{d}/fit.json", "--out-excesses", f"{d}/excesses.csv"],
        ["fit", "--excesses", f"{d}/excesses.csv", "--n-total", "10512",  # synth's minutes
         "--threshold", "1e-4", "--out", f"{d}/fit_from_excesses.json"]):
    assert cli.main(argv) == 0, argv
print("after the stages:", scipy_modules())
"""

# the period bands of `returns --level` and of a run's scenarios, in a fresh
# interpreter; the interval's normal quantile may load scipy.special
_BANDS_WITHOUT_SCIPY_OPTIMIZE = """
import sys
from flarevt import cli

d = sys.argv[1]
for argv in (
        ["returns", "--fit", f"{d}/fit.json", "--level", "45e-4"],
        ["synth", "--scale", "3e-4", "--shape", "0.25", "--event-rate", "2000",
         "--duration", "0.02", "--seed", "7", "--out", f"{d}/flux.csv"],
        ["run", f"{d}/flux.csv", "--config", f"{d}/config.json", "--out", f"{d}/run",
         "--fixed-clock"]):
    assert cli.main(argv) == 0, argv
print(sorted(name for name in sys.modules if name.startswith("scipy.optimize")))
"""


def _write_stage_inputs(d):
    """Readable stage inputs in ``d``: a one-event catalog, an excess list, a fit
    and the fit's 300 excesses."""
    series = d / "series.csv"
    series.write_text("timestamp,flux_wm2\n2000-01-01T00:00:00Z,2e-4\n")
    catalog = fv.decluster(fv.read_flux_csv(series))
    (d / "catalog.csv").write_text(catalog.to_csv_text())
    (d / "catalog.json").write_text(json_text(catalog.to_json_dict()))
    excesses = fv.gpd_sample(fv.GpdParams(1.0, 0.2), 300, seed=5)
    fit = fv.fit_gpd(excesses, threshold=0.5, n_total=100_000)
    (d / "fit.json").write_text(json_text(fit_to_json_dict(fit)))
    (d / "excesses.csv").write_text("excess\n0.5\n")
    (d / "fit_excesses.csv").write_text(excesses_to_csv_text(excesses))


class TestRunPipeline:
    def test_writes_all_artifacts_and_recovers_truth(self, synth_csv,
                                                     pipeline_config, tmp_path):
        report = run_pipeline(pipeline_config, [synth_csv],
                              out_dir=tmp_path / "out", fixed_clock=True)
        written = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert written == sorted(EXPECTED_ARTIFACTS)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert written == sorted(["manifest.json", *manifest["artifacts"].values()])

        fit = fit_from_json_dict(report["fit"])
        se = fit.std_errors
        assert abs(fit.scale - TRUE_SCALE) <= 3 * se[0]
        assert abs(fit.shape - TRUE_SHAPE) <= 3 * se[1]

        # round-trip invariant holds on the reported fit
        level = fv.return_level(fit, 100.0)
        assert fv.return_period(fit, level) == pytest.approx(100.0, rel=1e-8)

        assert manifest["failed_stage"] is None
        assert manifest["completed_stages"][-1] == "report"
        assert report["generated_at"] is None
        assert report["scenarios"]  # named headline rows present
        assert report == json.loads((tmp_path / "out" / "report.json").read_text())

    def test_report_is_byte_deterministic(self, synth_csv, pipeline_config,
                                          tmp_path):
        run_pipeline(pipeline_config, [synth_csv], out_dir=tmp_path / "a",
                     fixed_clock=True)
        run_pipeline(pipeline_config, [synth_csv], out_dir=tmp_path / "b",
                     fixed_clock=True)
        for name in EXPECTED_ARTIFACTS:
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_split_inputs_match_single_file(self, synth_csv, pipeline_config,
                                            tmp_path):
        text = Path(synth_csv).read_text()
        lines = text.splitlines()
        half = len(lines) // 2
        first = tmp_path / "part1.csv"
        second = tmp_path / "part2.csv"
        first.write_text("\n".join(lines[:half]) + "\n")
        second.write_text("\n".join([lines[0]] + lines[half:]) + "\n")

        run_pipeline(pipeline_config, [synth_csv], out_dir=tmp_path / "one",
                     fixed_clock=True)
        run_pipeline(pipeline_config, [first, second], out_dir=tmp_path / "two",
                     fixed_clock=True)
        assert ((tmp_path / "one" / "catalog.csv").read_bytes()
                == (tmp_path / "two" / "catalog.csv").read_bytes())
        assert ((tmp_path / "one" / "fit.json").read_bytes()
                == (tmp_path / "two" / "fit.json").read_bytes())

    def test_unordered_inputs_fail_in_ingest(self, synth_csv, pipeline_config,
                                             tmp_path):
        with pytest.raises(PipelineStageError) as err:
            run_pipeline(pipeline_config, [synth_csv, synth_csv],
                         out_dir=tmp_path / "out")
        assert err.value.stage == "ingest"
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["failed_stage"] == "ingest"
        assert not (tmp_path / "out" / "report.json").exists()

    def test_overlapping_inputs_name_the_later_file(self, synth_csv, pipeline_config,
                                                    tmp_path):
        lines = Path(synth_csv).read_text().splitlines()
        half = len(lines) // 2
        first = tmp_path / "early.csv"
        later = tmp_path / "late.csv"
        first.write_text("\n".join(lines[:half + 1]) + "\n")
        later.write_text("\n".join([lines[0]] + lines[half:]) + "\n")
        with pytest.raises(PipelineStageError) as err:
            run_pipeline(pipeline_config, [first, later], out_dir=tmp_path / "out")
        assert err.value.stage == "ingest"
        assert isinstance(err.value.cause, fv.OrderingError)
        assert str(later) in str(err.value) and "early.csv" in str(err.value)

    def test_ingest_many_sums_the_files_observation_counts(self, tmp_path):
        flux = np.linspace(1e-6, 1e-3, 300)
        flux[::7] = np.nan
        whole = make_series(flux)
        specs = []
        for lo, hi in ((0, 100), (100, 250), (250, 300)):
            path = tmp_path / f"part_{lo}.csv"
            fv.write_flux_csv(fv.FluxSeries(whole.timestamps[lo:hi], flux[lo:hi]), path)
            specs.append(pipeline.InputSpec(str(path), fv.IngestConfig(scaling_divisor=1.0)))
        series, infos = pipeline.ingest_many(specs)
        counted = vars(series)["n_observations"]  # set by ingest_many, not counted again
        assert counted == sum(info["n_observations"] for info in infos)
        assert counted == np.count_nonzero(~np.isnan(series.flux)) == 300 - 43

    def test_empty_input_fails_in_ingest(self, pipeline_config, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("")
        with pytest.raises(PipelineStageError) as err:
            run_pipeline(pipeline_config, [bad], out_dir=tmp_path / "out")
        assert err.value.stage == "ingest"


# (subcommand, flag, value, the message of the object that owns the value)
BAD_FLAG_VALUES = [
    ("decluster", "--gap", "0", "gap_minutes must be >= 1"),
    ("decluster", "--gap", "-2", "gap_minutes must be >= 1"),
    ("decluster", "--gap", "x", "invalid int value: 'x'"),
    ("diagnose", "--grid-points", "0", "mrl_grid_points must be >= 1"),
    ("decluster", "--threshold", "-1", "decluster threshold must be finite and > 0, got -1.0"),
    ("sweep", "--threshold", "0", "decluster threshold must be finite and > 0, got 0.0"),
    ("diagnose", "--ci", "1.5", "ci_level must lie in (0, 1)"),
    ("returns", "--ci", "2", "ci_level must lie in (0, 1)"),
    ("returns", "--obs-per-year", "0", "obs_per_year must be > 0"),
    ("returns", "--years", "-5", "every value of scenario_years must be > 0"),
    ("returns", "--level", "-1", "every value of scenario_levels must be > 0"),
    ("returns", "--level", "-1e-4", "every value of scenario_levels must be > 0"),
    ("returns", "--years", "-5E+1", "every value of scenario_years must be > 0"),
    ("returns", "--level", "-inf", "every value of scenario_levels must be > 0"),
    ("returns", "--years", "-Infinity", "every value of scenario_years must be > 0"),
    ("returns", "--years", "inf", "every value of scenario_years must be > 0 and finite"),
    ("returns", "--level", "Infinity", "every value of scenario_levels must be > 0 and finite"),
    ("returns", "--m-grid", "1:inf:5", "m_grid must satisfy 0 < lo < hi < inf and count >= 1"),
    ("synth", "--scale", "-3e-4", "scale must be finite and > 0, got -0.0003"),
    ("synth", "--event-rate", "nan", "event_rate must be >= 0 and finite"),
    ("synth", "--event-rate", "1e300", "event_rate must be >= 0 and finite, at most 525600"),
    ("synth", "--duration", "1e13", "duration must end by 9999-12-31T23:59, at most 8005.32 years"),
    ("fit", "--threshold", "nan", "threshold must be finite and >= 0, got nan"),
    ("fit", "--threshold", "inf", "threshold must be finite and >= 0, got inf"),
    ("fit", "--threshold", "-1", "threshold must be finite and >= 0, got -1.0"),
    ("sweep", "--gaps", f"1,{2**63}", "every gap must be >= 1 and < 2**63"),
    ("sweep", "--gaps", f"1,{10**20}", "every gap must be >= 1 and < 2**63"),
    ("sweep", "--gaps", f"1:{10**20}", "every gap must be >= 1 and < 2**63"),
]


class TestCliStages:
    def test_chained_subcommands_match_pipeline(self, synth_csv, pipeline_config,
                                                tmp_path):
        out_a = tmp_path / "pipeline"
        run_pipeline(pipeline_config, [synth_csv], out_dir=out_a,
                     fixed_clock=True)

        d = tmp_path / "chained"
        d.mkdir()
        assert main(["ingest", "--input", str(synth_csv), "--divisor", "1.0",
                     "--out", str(d / "series.csv")]) == 0
        assert main(["decluster", "--series", str(d / "series.csv"),
                     "--threshold", "1e-4", "--gap", "15",
                     "--out-events", str(d / "catalog.csv"),
                     "--out-meta", str(d / "catalog.json")]) == 0
        assert main(["sweep", "--series", str(d / "series.csv"),
                     "--threshold", "1e-4", "--gaps", "1:30",
                     "--out", str(d / "sweep.csv")]) == 0
        assert main(["fit", "--events", str(d / "catalog.csv"),
                     "--meta", str(d / "catalog.json"),
                     "--threshold", "1e-4",
                     "--out", str(d / "fit.json"),
                     "--out-excesses", str(d / "excesses.csv")]) == 0
        assert main(["diagnose", "--events", str(d / "catalog.csv"),
                     "--meta", str(d / "catalog.json"),
                     "--fit", str(d / "fit.json"),
                     "--out-mrl", str(d / "mrl.csv"),
                     "--out-probplot", str(d / "probplot.csv")]) == 0
        assert main(["returns", "--fit", str(d / "fit.json"),
                     "--m-grid", "1:1e5:101",
                     "--out", str(d / "returns.csv")]) == 0

        for name in ("series.csv", "catalog.csv", "catalog.json", "sweep.csv",
                     "excesses.csv", "fit.json", "mrl.csv", "probplot.csv",
                     "returns.csv"):
            assert ((out_a / name).read_bytes() == (d / name).read_bytes()), name

        # JSON under names without ".json", and fit's --excesses form
        n_total = json.loads((out_a / "catalog.json").read_text())["n_total_observations"]
        assert main(["decluster", "--series", str(d / "series.csv"),
                     "--threshold", "1e-4", "--gap", "15",
                     "--out-events", str(d / "events.out"),
                     "--out-meta", str(d / "catalog.meta")]) == 0
        assert main(["fit", "--excesses", str(d / "excesses.csv"),
                     "--n-total", str(n_total), "--threshold", "1e-4",
                     "--out", str(d / "fit_from_excesses.out")]) == 0
        assert (d / "catalog.meta").read_bytes() == (out_a / "catalog.json").read_bytes()
        assert (d / "fit_from_excesses.out").read_bytes() == (out_a / "fit.json").read_bytes()

    def test_fit_on_excess_list_matches_library_byte_for_byte(self, tmp_path):
        y = fv.gpd_sample(fv.GpdParams(1.0, 0.2), 300, seed=5)
        excesses_path = tmp_path / "excesses.csv"
        excesses_path.write_text(excesses_to_csv_text(y))

        out = tmp_path / "fit.json"
        assert main(["fit", "--excesses", str(excesses_path),
                     "--threshold", "0.5", "--n-total", "100000",
                     "--out", str(out)]) == 0

        fit = fv.fit_gpd(y, threshold=0.5, n_total=100_000)
        assert out.read_text() == json_text(fit_to_json_dict(fit))

    def test_fit_events_without_meta_is_usage_error(self, tmp_path, capsys):
        events = tmp_path / "catalog.csv"
        events.write_text("peak_time,peak_flux,cluster_start,cluster_end,"
                          "cluster_samples\n")
        out = tmp_path / "fit.json"
        assert main(["fit", "--events", str(events), "--threshold", "1e-4",
                     "--out", str(out)]) == 2
        assert "--meta" in capsys.readouterr().err
        assert not out.exists()

    def test_fit_excesses_without_n_total_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # the excess count is no observation count: a fit at exceedance rate 1
        # would have no return levels; refused before the input, which does not exist
        monkeypatch.chdir(tmp_path)
        assert main(["fit", "--excesses", "excesses.csv", "--threshold", "1e-4",
                     "--out", "out_fit.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("fit: --excesses needs --n-total") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_fit_events_with_n_total_is_usage_error(self, synth_csv, pipeline_config,
                                                    tmp_path, capsys):
        # the catalog metadata fixes n_total, so an explicit one would be dropped
        run_pipeline(pipeline_config, [synth_csv], out_dir=tmp_path, fixed_clock=True)
        out = tmp_path / "fit_n_total.json"
        assert main(["fit", "--events", str(tmp_path / "catalog.csv"),
                     "--meta", str(tmp_path / "catalog.json"),
                     "--threshold", "1e-4", "--n-total", "5",
                     "--out", str(out)]) == 2
        assert "--n-total" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["fit", "--excesses", "excesses.csv", "--threshold", "1e-4", "--out", "out_fit.json",
          "--out-excesses", "out_excesses.csv"], "--out-excesses"),
        (["fit", "--excesses", "excesses.csv", "--meta", "catalog.json", "--threshold", "1e-4",
          "--out", "out_fit.json"], "--meta"),
        (["returns", "--fit", "fit.json", "--years", "150", "--m-grid", "1:100:5"], "--m-grid"),
    ], ids=["fit-out-excesses", "fit-meta", "returns-m-grid"])
    def test_flag_the_command_would_drop_is_usage_error(self, argv, flag, tmp_path, monkeypatch,
                                                        capsys):
        # refused before any input is read: the inputs named do not exist
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{argv[0]}: {flag} ") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("grid", ["1:10", "1:10:x", "0:10:5", "10:1:5"])
    def test_malformed_m_grid_is_usage_error(self, grid, tmp_path):
        # a readable fit, so that only the grid can make the command fail
        fit_path = tmp_path / "fit.json"
        fit = fv.fit_gpd(fv.gpd_sample(fv.GpdParams(1.0, 0.2), 300, seed=5),
                         threshold=0.5, n_total=100_000)
        fit_path.write_text(json_text(fit_to_json_dict(fit)))
        with pytest.raises(SystemExit) as exc:
            main(["returns", "--fit", str(fit_path), "--m-grid", grid,
                  "--out", str(tmp_path / "returns.csv")])
        assert exc.value.code == 2
        assert not (tmp_path / "returns.csv").exists()

    @pytest.mark.parametrize("gaps", ["5:1", "3,1", "2,2", "0:5", "0", "1:2:3", "1:10081"])
    def test_bad_sweep_gaps_are_usage_error(self, gaps, tmp_path):
        series = tmp_path / "series.csv"
        series.write_text("timestamp,flux_wm2\n2000-01-01T00:00:00Z,1e-6\n")
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--series", str(series), "--gaps", gaps,
                  "--out", str(tmp_path / "sweep.csv")])
        assert exc.value.code == 2
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("stage,option,value,message", BAD_FLAG_VALUES,
                             ids=["-".join(case[:3]) for case in BAD_FLAG_VALUES])
    def test_bad_counts_are_usage_error(self, stage, option, value, message, tmp_path,
                                        capsys):
        # readable inputs, so that only the bad value can make the command fail
        _write_stage_inputs(tmp_path)
        d = tmp_path
        files = {
            "decluster": ["--series", d / "series.csv", "--out-events", d / "out_events.csv",
                          "--out-meta", d / "out_meta.json"],
            "sweep": ["--series", d / "series.csv", "--out", d / "out_sweep.csv"],
            "diagnose": ["--events", d / "catalog.csv", "--meta", d / "catalog.json",
                         "--fit", d / "fit.json", "--out-mrl", d / "out_mrl.csv",
                         "--out-probplot", d / "out_probplot.csv"],
            "returns": ["--fit", d / "fit.json", "--out", d / "out_returns.csv"],
            "fit": ["--excesses", d / "fit_excesses.csv", "--out", d / "out_fit.json"],
            "synth": ["--shape", "0.25", "--event-rate", "60", "--duration", "0.01",
                      "--seed", "7", "--out", d / "out_synth.csv"],
        }[stage]
        with pytest.raises(SystemExit) as exc:
            main([stage, *map(str, files), option, value])
        assert exc.value.code == 2
        assert f"argument {option}: {message}" in capsys.readouterr().err
        assert not list(tmp_path.glob("out_*"))

    @pytest.mark.parametrize("stage,name,corrupt,message", [
        ("fit", "catalog.csv", lambda text: text.replace(",1\n", "\n"), "line 2: expected 5"),
        ("fit", "catalog.csv", lambda text: text.replace("0.0002", "abc"),
         "line 2: bad peak_fluxes value 'abc'"),
        ("diagnose", "catalog.json",
         lambda text: json_text({k: v for k, v in json.loads(text).items()
                                 if k != "span_years"}), "'span_years'"),
        ("fit", "excesses.csv", lambda text: text + "x1\n", "line 3: bad excess value 'x1'"),
        ("returns", "fit.json",
         lambda text: json_text({k: v for k, v in json.loads(text).items()
                                 if k != "convergence"}), "'convergence'"),
        ("returns", "fit.json", lambda text: text[:len(text) // 2],
         "fit.json: not a JSON document"),
        ("diagnose", "fit.json", lambda text: text[:len(text) // 2],
         "fit.json: not a JSON document"),
        ("fit", "catalog.json", lambda text: text[:len(text) // 2],
         "catalog.json: not a JSON document"),
        ("diagnose", "catalog.json", lambda text: text[:len(text) // 2],
         "catalog.json: not a JSON document"),
        ("fit", "excesses.csv", lambda text: text + "nan\n",
         "line 3: excess value 'nan' is not a finite value >= 0"),
        ("fit", "excesses.csv", lambda text: text + "inf\n",
         "line 3: excess value 'inf' is not a finite value >= 0"),
        ("fit", "excesses.csv", lambda text: text + "-3e-5\n",
         "line 3: excess value '-3e-5' is not a finite value >= 0"),
        ("fit", "catalog.csv", lambda text: text.replace("0.0002", "nan"),
         "line 2: peak_flux value 'nan' is not a finite value >= 0"),
        ("diagnose", "catalog.csv", lambda text: text.replace("0.0002", "-0.0002"),
         "line 2: peak_flux value '-0.0002' is not a finite value >= 0"),
        ("fit", "excesses.csv", lambda text: text + "\udcff1\n",
         "line 3: invalid UTF-8 byte 0xff"),
        ("fit", "catalog.csv", lambda text: text.replace("peak_time", "peak_t\udce9me"),
         "line 1: invalid UTF-8 byte 0xe9"),
        ("fit", "catalog.json", lambda text: json_text({**json.loads(text), "span_years": "x"}),
         "catalog.span_years must be of type float, got 'x'"),
        ("fit", "catalog.json", lambda text: json_text({**json.loads(text), "gap_minutes": 15.9}),
         "catalog.gap_minutes must be of type int, got 15.9"),
        ("diagnose", "catalog.json",
         lambda text: json_text({**json.loads(text), "n_total_observations": True}),
         "catalog.n_total_observations must be of type int, got True"),
        ("fit", "catalog.json", lambda text: json_text([json.loads(text)]),
         "catalog must be a JSON object, got [{"),
        ("returns", "fit.json", lambda text: json_text([json.loads(text)]),
         "fit must be a JSON object, got [{"),
        ("returns", "fit.json", lambda text: json_text({**json.loads(text), "scale": "x"}),
         "fit.scale must be of type float, got 'x'"),
        ("returns", "fit.json", lambda text: json_text({**json.loads(text), "std_errors": "xy"}),
         "fit.std_errors must be a list of length 2, got 'xy'"),
        ("returns", "fit.json", lambda text: json_text({**json.loads(text), "n_excesses": 171.5}),
         "fit.n_excesses must be of type int, got 171.5"),
        ("diagnose", "fit.json", lambda text: json_text({**json.loads(text), "n_total": "1000000"}),
         "fit.n_total must be of type int, got '1000000'"),
        ("returns", "fit.json", lambda text: json_text(
            {**json.loads(text), "convergence": {**json.loads(text)["convergence"],
                                                 "converged": "false"}}),
         "fit.convergence.converged must be of type bool, got 'false'"),
        ("returns", "fit.json", lambda text: json_text(
            {**json.loads(text), "covariance": [[1e-10, 0.0], [0.0, 1e-2]]}),
         "fit.covariance must be a list of length 4, got [[1e-10, 0.0], [0.0, 0.01]]"),
        ("returns", "fit.json", lambda text: json_text({**json.loads(text), "scale": -1.0}),
         "bad fit document: scale must be finite and > 0, got -1.0"),
        ("fit", "catalog.json", lambda text: json_text({**json.loads(text), "n_events": 999}),
         "catalog.n_events is 999, but the event table's row count is 1"),
        ("diagnose", "catalog.json", lambda text: json_text({**json.loads(text), "n_events": 0}),
         "catalog.n_events is 0, but the event table's row count is 1"),
        ("fit", "catalog.json", lambda text: json_text({**json.loads(text), "n_events": 1.5}),
         "catalog.n_events must be of type int, got 1.5"),
        ("returns", "fit.json", lambda text: json_text({**json.loads(text), "std_errors": [1.0, 2.0]}),
         "the square roots of the covariance's diagonal, got [1.0, 2.0]"),
        ("diagnose", "fit.json", lambda text: json_text({**json.loads(text), "std_errors": None}),
         "the square roots of the covariance's diagonal, got None"),
        ("returns", "fit.json", lambda text: json_text({**json.loads(text), "covariance": None}),
         "fit.std_errors must be null beside a null covariance, got ["),
        ("fit", "catalog.csv", lambda text: text.replace("peak_time,", "peak,"),
         "line 1: expected header"),
        ("diagnose", "catalog.csv", lambda text: text.replace(":00Z,0.0002", ":30Z,0.0002"),
         "line 2: timestamp '2000-01-01T00:00:30' not on the minute grid"),
        ("fit", "excesses.csv", lambda text: "", "input is empty"),
        ("fit", "catalog.csv", lambda text: text, "need at least 20 excesses"),
    ])
    def test_malformed_artifact_is_stage_error(self, stage, name, corrupt, message,
                                               tmp_path, capsys):
        _write_stage_inputs(tmp_path)
        path = tmp_path / name
        # a lone surrogate \udcXX in the corrupted text is written as the byte 0xXX
        path.write_text(corrupt(path.read_text()), errors="surrogateescape")
        d = tmp_path
        args = {
            "fit": (["--excesses", d / "excesses.csv", "--n-total", "100000"]
                    if name == "excesses.csv" else
                    ["--events", d / "catalog.csv", "--meta", d / "catalog.json",
                     "--out-excesses", d / "out_excesses.csv"])
            + ["--threshold", "1e-4", "--out", d / "out_fit.json"],
            "diagnose": ["--events", d / "catalog.csv", "--meta", d / "catalog.json",
                         "--fit", d / "fit.json", "--out-mrl", d / "out_mrl.csv",
                         "--out-probplot", d / "out_probplot.csv"],
            "returns": ["--fit", d / "fit.json", "--years", "100"],
        }[stage]
        assert main([stage, *map(str, args)]) == STAGE_EXIT_CODES[stage]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not list(tmp_path.glob("out_*"))

    def test_returns_years_and_default_grid(self, tmp_path, capsys):
        _write_stage_inputs(tmp_path)
        fit = fit_from_json_dict(json.loads((tmp_path / "fit.json").read_text()))
        out = tmp_path / "returns.csv"
        assert main(["returns", "--fit", str(tmp_path / "fit.json"), "--years", "100",
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert f"{fv.return_level(fit, 100.0):.6g} W/m^2" in printed
        # without --m-grid the grid starts just above the mean inter-exceedance time
        m = [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
        m_min = 1.0 / (525_600.0 * fit.exceedance_rate)
        assert m[0] == pytest.approx(max(1.0, m_min * 1.001), rel=1e-12)
        assert len(m) > 1 and m == sorted(m)

    def test_returns_with_nothing_to_do_is_usage_error(self, tmp_path, capsys):
        _write_stage_inputs(tmp_path)
        assert main(["returns", "--fit", str(tmp_path / "fit.json")]) == 2
        assert "nothing to do" in capsys.readouterr().err

    def test_returns_level_past_the_largest_period_fails_the_stage(self, tmp_path, capsys):
        _write_stage_inputs(tmp_path)
        out = tmp_path / "r.csv"
        assert main(["returns", "--fit", str(tmp_path / "fit.json"), "--level", "1e300",
                     "--out", str(out)]) == STAGE_EXIT_CODES["returns"]
        err = capsys.readouterr().err
        assert err == "error: level 1e+300 has a return period beyond the largest double\n"
        assert not out.exists()

    @pytest.mark.parametrize("option,value,message", [
        ("--level", "45e-4", "error: the level exceeded once per "),
        ("--years", "150", "error: the 150-year level's standard error is beyond "),
    ])
    def test_returns_past_a_double_fails_the_stage(self, option, value, message, tmp_path,
                                                   capsys):
        # a large positive shape: the level or its standard error overflows a double
        _write_stage_inputs(tmp_path)
        doc = json.loads((tmp_path / "fit.json").read_text())
        (tmp_path / "fit.json").write_text(json_text({**doc, "threshold": 1e-4, "shape": 45.0}))
        assert main(["returns", "--fit", str(tmp_path / "fit.json"), option, value]
                    ) == STAGE_EXIT_CODES["returns"]
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert err.endswith("is beyond the largest double\n")

    def test_python_dash_m_runs_the_cli(self):
        env = {**os.environ, "PYTHONPATH": str(Path(fv.__file__).parents[1])}  # src/
        done = subprocess.run([sys.executable, "-m", "flarevt", "--version"], env=env,
                              capture_output=True, text=True, check=False)
        assert (done.returncode, done.stdout) == (0, f"{fv.__version__}\n")

    def test_stage_commands_load_no_scipy(self, tmp_path):
        # scipy is loaded at first use by the interval code only: importing the
        # package and the CLI, and the stages before the fit's intervals, need numpy
        env = {**os.environ, "PYTHONPATH": str(Path(fv.__file__).parents[1])}  # src/
        done = subprocess.run([sys.executable, "-c", _STAGES_WITHOUT_SCIPY, str(tmp_path)],
                              env=env, capture_output=True, text=True, check=False)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert (lines[0], lines[-1]) == ("after import: []", "after the stages: []")

    def test_period_bands_load_no_scipy_optimize(self, tmp_path):
        fit = fv.GpdFit(threshold=3.5e-4, params=fv.GpdParams(2.98e-4, 0.26),
                        covariance=np.diag([(0.02e-4) ** 2, 0.09 ** 2]),
                        std_errors=(0.02e-4, 0.09), n_excesses=171, n_total=15_768_000,
                        log_likelihood=0.0, convergence=fv.FitConvergence(True, 0, 0, 0, ""))
        (tmp_path / "fit.json").write_text(json_text(fit_to_json_dict(fit)))
        (tmp_path / "config.json").write_text(
            '{"ingest": {"scaling_divisor": 1.0}, "gpd_threshold": 1e-4}')
        env = {**os.environ, "PYTHONPATH": str(Path(fv.__file__).parents[1])}  # src/
        done = subprocess.run(
            [sys.executable, "-c", _BANDS_WITHOUT_SCIPY_OPTIMIZE, str(tmp_path)],
            env=env, capture_output=True, text=True, check=False)
        assert done.returncode == 0, done.stderr
        assert "return period 63.2 years [95% CI 19.6 - inf years]" in done.stdout
        assert done.stdout.splitlines()[-1] == "[]"
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["scenarios"]["x45_return_period"]["ci_low_years"] is not None

    def test_stage_exit_codes(self):
        assert STAGE_EXIT_CODES == {
            "ingest": 3, "decluster": 4, "sweep": 5, "excesses": 6, "fit": 7,
            "diagnose": 8, "returns": 9, "report": 10}

    def test_returns_level_query_prints_period(self, synth_csv, pipeline_config,
                                               tmp_path, capsys):
        out = tmp_path / "out"
        run_pipeline(pipeline_config, [synth_csv], out_dir=out, fixed_clock=True)
        assert main(["returns", "--fit", str(out / "fit.json"),
                     "--level", "45e-4"]) == 0
        printed = capsys.readouterr().out
        fit = fit_from_json_dict(json.loads((out / "fit.json").read_text()))
        expected = fv.return_period(fit, 45e-4)
        assert f"{expected:.1f}" in printed

    def test_synth_deterministic(self, tmp_path):
        args = ["synth", "--scale", "3e-4", "--shape", "0.2",
                "--event-rate", "40", "--duration", "0.05", "--seed", "7"]
        assert main(args + ["--out", str(tmp_path / "a.csv")]) == 0
        assert main(args + ["--out", str(tmp_path / "b.csv")]) == 0
        assert ((tmp_path / "a.csv").read_bytes()
                == (tmp_path / "b.csv").read_bytes())
        # different seed, different file
        assert main(["synth", "--scale", "3e-4", "--shape", "0.2",
                     "--event-rate", "40", "--duration", "0.05", "--seed", "8",
                     "--out", str(tmp_path / "c.csv")]) == 0
        assert ((tmp_path / "a.csv").read_bytes()
                != (tmp_path / "c.csv").read_bytes())


class TestCliRun:
    def test_run_with_config_file(self, synth_csv, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "ingest": {"scaling_divisor": 1.0},
            "gpd_threshold": 1e-4,
            "inputs": [str(synth_csv)],
        }))
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path),
                     "--out", str(out), "--fixed-clock"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["generated_at"] is None
        assert report["provenance"]["config_sha256"]
        assert report["catalog"]["n_events"] > 0
        assert {"ingest", "fit", "scenarios", "return_table"} <= set(report)

    def test_ingest_and_run_share_the_saturation_policy(self, tmp_path):
        # two hours with one saturated run on 2003-10-28, which the reference policy keeps
        flux = np.full(120, 1e-5)
        flux[30:35] = 20e-4
        stamps = np.datetime64("2003-10-28T10:00", "m") + np.arange(120)
        raw = tmp_path / "raw.csv"
        fv.write_flux_csv(fv.FluxSeries(stamps, flux), raw)
        assert main(["ingest", "--input", str(raw), "--out", str(tmp_path / "series.csv"),
                     "--summary", str(tmp_path / "ingest.json")]) == 0
        # one event is too few to fit, but ingest has written its artifacts by then
        assert main(["run", str(raw), "--out", str(tmp_path / "run"),
                     "--fixed-clock"]) == STAGE_EXIT_CODES["fit"]
        assert ((tmp_path / "series.csv").read_bytes()
                == (tmp_path / "run" / "series.csv").read_bytes())
        summary = json.loads((tmp_path / "ingest.json").read_text())
        assert summary["saturation_runs_removed"] == 0
        assert json.loads((tmp_path / "run" / "ingest.json").read_text())["files"] == [summary]

    def test_run_exit_code_on_empty_input(self, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("")
        code = main(["run", str(bad), "--out", str(tmp_path / "out")])
        assert code == STAGE_EXIT_CODES["ingest"]

    def test_run_without_inputs_is_usage_error(self, tmp_path):
        assert main(["run", "--out", str(tmp_path / "out")]) == 2

    def test_run_writes_flarevt_out_by_default(self, synth_csv, pipeline_config, tmp_path,
                                               monkeypatch):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(pipeline_config.to_dict()))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(config_path), str(synth_csv),
                     "--fixed-clock"]) == 0
        assert (tmp_path / "flarevt_out" / "report.json").is_file()

    def test_per_input_ingest_overrides(self, synth_csv, tmp_path, capsys):
        # each input's own divisor scales that file alone, and ingest.json records it
        lines = Path(synth_csv).read_text().splitlines()
        half = len(lines) // 2
        paths = (tmp_path / "early.csv", tmp_path / "late.csv")
        paths[0].write_text("\n".join(lines[:half]) + "\n")
        paths[1].write_text("\n".join([lines[0]] + lines[half:]) + "\n")
        divisors = (0.5, 2.0)
        doc = {"ingest": {"scaling_divisor": 1.0, "saturation_level": 1.0},
               "gpd_threshold": 1e-4,
               "inputs": [{"path": str(path), "scaling_divisor": divisor}
                          for path, divisor in zip(paths, divisors)]}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out),
                     "--fixed-clock"]) == 0
        infos = json.loads((out / "ingest.json").read_text())["files"]
        assert [(info["file"], info["scaling_divisor"]) for info in infos] == [
            ("early.csv", 0.5), ("late.csv", 2.0)]
        raw = [fv.read_flux_csv(path) for path in paths]
        series = fv.read_flux_csv(out / "series.csv")
        np.testing.assert_array_equal(
            series.timestamps, np.concatenate([r.timestamps for r in raw]))
        np.testing.assert_array_equal(
            series.flux, np.concatenate([r.flux / d for r, d in zip(raw, divisors)]))

        doc["inputs"][1]["divisor"] = 2.0
        config_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "bad")]) == 2
        assert capsys.readouterr().err == "error: unknown keys in input: ['divisor']\n"
        assert not (tmp_path / "bad").exists()

    def test_out_dir_in_config_is_usage_error(self, synth_csv, tmp_path, capsys):
        # the output directory is run_pipeline's argument and --out, not a config key
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"out_dir": str(tmp_path / "out")}))
        assert main(["run", "--config", str(config_path), str(synth_csv)]) == 2
        assert "error: unknown keys in config: ['out_dir']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_truncated_config_is_one_error_line(self, synth_csv, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"gpd_threshold": 1e-4')
        assert main(["run", "--config", str(config_path), str(synth_csv),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{config_path}: not a JSON document" in err
        assert not (tmp_path / "out").exists()

    def test_bad_config_key_is_usage_error(self, synth_csv, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"no_such_key": 1}))
        assert main(["run", "--config", str(config_path), str(synth_csv),
                     "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("text", [
        '{"gpd_threshold": 1e-4',                             # malformed JSON
        '[1, 2]',                                             # not an object
        '{"inputs": [{"scaling_divisor": 1.0}]}',             # input with no path
        '{"inputs": "flux.csv"}',                             # inputs not a list
        '{"ingest": {"scaling_divisor": "x"}}',               # wrongly typed
        '{"ingest": {"retained_saturation_events": ["x"]}}',  # not a date
        '{"gap_minutes": 15.7}',                              # non-integral int
        '{"m_grid": {"bogus": 1}}',                           # unknown nested key
        '{"sweep_gaps": {"lo": 1, "step": 2}}',
        '{"m_grid": [1, 10, 5]}',                             # group not an object
        '{"m_grid_lo": 2.0}',                                 # flat name of a nested key
    ])
    def test_bad_config_file_is_usage_error(self, text, synth_csv, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(text)
        assert main(["run", "--config", str(config_path), str(synth_csv),
                     "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out" / "series.csv").exists()

    @pytest.mark.parametrize("doc", [
        {"m_grid": {"count": 0}},
        {"m_grid": {"lo": 10.0, "hi": 10.0}},
        {"m_grid": {"lo": 0.0}},
        {"mrl_grid_points": 0},
        {"return_table_years": [-1]},
        {"scenario_years": [0]},
        {"scenario_levels": [-45e-4]},
        {"ingest": {"scaling_divisor": float("inf")}},
        {"ingest": {"saturation_level": float("inf")}},
        {"ingest": {"missing_sentinels": [float("nan")]}},
        {"sweep_gaps": {"hi": 2**63}},
        {"sweep_gaps": {"hi": 10**20}},
        {"sweep_gaps": {"hi": 10**400}},  # past a double: an integer, refused by its range
        {"sweep_gaps": {"lo": 10**20, "hi": 10**20}},
        {"sweep_gaps": {"lo": 0}},
        {"sweep_gaps": {"lo": 5, "hi": 4}},
        {"sweep_gaps": {"lo": 5, "hi": 10_085}},  # 10,081 gaps
    ])
    def test_bad_config_value_fails_before_ingest(self, doc, synth_csv, tmp_path):
        with pytest.raises(fv.DomainError):
            PipelineConfig.from_dict(doc)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(config_path), str(synth_csv),
                     "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out" / "series.csv").exists()


# The owner of each numeric rule: its library call, config key, CLI flag, a finite
# value out of its range, and the message it refuses a value with.
RULE_OWNERS = {
    "interval level": (lambda v: fv.mean_excess_curve([1.0, 2.0, 3.0], ci_level=v),
                       "ci_level", ("returns", "--ci"), 1.5, "ci_level must lie in (0, 1)"),
    "calendar": (fv.ObservationCalendar, "obs_per_year", ("returns", "--obs-per-year"), 0.0,
                 "obs_per_year must be > 0 and finite"),
    "declustering": (lambda v: fv.decluster(make_series([1.0]), v), "decluster_threshold",
                     ("decluster", "--threshold"), 0.0,
                     "decluster threshold must be finite and > 0, got "),
    "fit threshold": (lambda v: fv.fit_gpd(np.ones(30), threshold=v), "gpd_threshold",
                      ("fit", "--threshold"), -1.0, "threshold must be finite and >= 0, got "),
}


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "out of range"])
@pytest.mark.parametrize("owner", RULE_OWNERS)
def test_rule_owner_refuses_value_everywhere(owner, value, synth_csv, tmp_path, capsys):
    call, key, flag, out_of_range, message = RULE_OWNERS[owner]
    number = out_of_range if value == "out of range" else float(value)
    with pytest.raises(fv.DomainError, match=re.escape(message)):
        call(number)
    with pytest.raises(fv.DomainError, match=re.escape(message)):
        PipelineConfig.from_dict({key: number})
    # a config file holding the value fails before the output directory is made
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({key: number}))
    assert main(["run", "--config", str(config_path), str(synth_csv),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    with pytest.raises(SystemExit) as exc:
        main([*flag, str(number)])
    assert exc.value.code == 2
    assert f"argument {flag[1]}: {message}" in capsys.readouterr().err


class TestConfig:
    def test_defaults_are_reference_analysis(self):
        config = PipelineConfig()
        assert config.decluster_threshold == 1e-4
        assert config.gap_minutes == 15
        assert config.gpd_threshold == 3.5e-4
        assert config.obs_per_year == 525_600.0
        assert config.ingest.scaling_divisor == 0.7
        assert config.ingest.saturation_level == 17e-4
        assert "2003-10-28" in config.ingest.retained_saturation_events

    @pytest.mark.parametrize("option,value,message", [
        ("--divisor", "-1", "scaling_divisor must be > 0"),
        ("--divisor", "nan", "scaling_divisor must be > 0"),
        ("--divisor", "x", "invalid float value: 'x'"),
        ("--saturation-level", "0", "saturation_level must be > 0"),
        ("--divisor", "inf", "scaling_divisor must be > 0 and finite"),
        ("--saturation-level", "inf", "saturation_level must be > 0 and finite"),
        ("--sentinel", "nan", "every value of missing_sentinels must be finite"),
        ("--sentinel", "-inf", "every value of missing_sentinels must be finite"),
    ])
    def test_bad_ingest_value_is_usage_error(self, option, value, message, tmp_path, capsys):
        # a nonexistent input: the value is rejected before any input is read
        with pytest.raises(SystemExit) as exc:
            main(["ingest", "--input", str(tmp_path / "missing.csv"),
                  "--out", str(tmp_path / "out.csv"), option, value])
        assert exc.value.code == 2
        assert f"argument {option}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("date", ["", "NaT"])
    def test_empty_or_nat_retained_date_is_rejected(self, date, synth_csv, tmp_path):
        with pytest.raises(fv.DomainError, match="is not a date"):
            fv.IngestConfig(retained_saturation_events=("2003-10-28", date))
        with pytest.raises(fv.DomainError, match="is not a date"):
            PipelineConfig.from_dict({"ingest": {"retained_saturation_events": [date]}})
        with pytest.raises(SystemExit) as exc:
            main(["ingest", "--input", str(synth_csv), "--out", str(tmp_path / "out.csv"),
                  "--retain-date", date])
        assert exc.value.code == 2
        assert not (tmp_path / "out.csv").exists()

    def test_round_trip_and_hash_stability(self):
        config = PipelineConfig(gpd_threshold=4e-4)
        back = PipelineConfig.from_dict(config.to_dict())
        assert back == config
        assert back.config_hash() == config.config_hash()
        assert PipelineConfig().config_hash() != config.config_hash()

    def test_default_document_and_hash_are_pinned(self):
        assert PipelineConfig().to_dict() == {
            "ingest": {
                "scaling_divisor": 0.7,
                "saturation_level": 17e-4,
                "retained_saturation_events": ["2003-10-28"],
                "missing_sentinels": [-99999.0],
            },
            "decluster_threshold": 1e-4,
            "gap_minutes": 15,
            "gpd_threshold": 3.5e-4,
            "obs_per_year": 525_600.0,
            "ci_level": 0.95,
            "m_grid": {"lo": 1.0, "hi": 1e5, "count": 101},
            "sweep_gaps": {"lo": 1, "hi": 30},
            "return_table_years": [10.0, 30.0, 100.0, 150.0, 500.0, 10_000.0],
            "scenario_levels": [45e-4, 200e-4],
            "scenario_years": [150.0],
            "mrl_grid_points": 200,
        }
        assert PipelineConfig().config_hash() == (
            "0c5a7ce89896c428d7c4060dd05c14c2f1fe3e16e342610ec8ff3972650c24aa")

    def test_hash_is_a_function_of_the_value(self):
        as_int = PipelineConfig.from_dict({"ingest": {"scaling_divisor": 1}})
        as_float = PipelineConfig.from_dict({"ingest": {"scaling_divisor": 1.0}})
        assert as_int == as_float
        assert as_int.config_hash() == as_float.config_hash()
        assert as_int.to_dict()["ingest"]["scaling_divisor"] == 1.0
        assert type(as_int.to_dict()["ingest"]["scaling_divisor"]) is float

    def test_partial_ingest_object_overrides_only_its_keys(self):
        config = PipelineConfig.from_dict({"ingest": {"scaling_divisor": 1.0}})
        assert config.ingest == replace(PipelineConfig().ingest, scaling_divisor=1.0)

    def test_threshold_ordering_enforced(self):
        with pytest.raises(fv.DomainError):
            PipelineConfig(decluster_threshold=4e-4, gpd_threshold=1e-4)

    def test_scenario_notes(self):
        fit = fv.fit_gpd(fv.gpd_sample(fv.GpdParams(3e-4, 0.2), 300, seed=5),
                         threshold=3.5e-4, n_total=1_000_000)
        config = PipelineConfig(scenario_levels=(2e-4, 3.5e-4, 45e-4), scenario_years=())
        rows = build_scenarios(fit, config)
        for key in ("x2_return_period", "x3.5_return_period"):
            assert rows[key]["note"] == "level at or below the fit threshold"
        assert rows["x45_return_period"]["return_period_years"] > 0.0
        no_cov = build_scenarios(replace(fit, covariance=None, std_errors=None), config)
        assert no_cov["x45_return_period"]["note"] == "fit covariance is unavailable"
        assert "return_period_years" not in no_cov["x45_return_period"]
        bounded = fv.fit_gpd(fv.gpd_sample(fv.GpdParams(3e-4, -0.3), 300, seed=5),
                             threshold=3.5e-4, n_total=1_000_000)
        assert bounded.threshold - bounded.scale / bounded.shape < 45e-4
        assert build_scenarios(bounded, config)["x45_return_period"]["note"] == (
            "level lies beyond the fitted upper endpoint; it is never exceeded")
        huge = build_scenarios(fit, replace(config, scenario_levels=(45e-4, 1e300)))
        assert huge["x1e+304_return_period"]["note"] == (
            "level 1e+300 has a return period beyond the largest double")
        assert huge["x45_return_period"] == rows["x45_return_period"]

    def test_band_past_a_double_is_a_note(self):
        fit = fv.fit_gpd(fv.gpd_sample(fv.GpdParams(3e-4, 0.2), 300, seed=5),
                         threshold=3.5e-4, n_total=1_000_000)
        rows = build_scenarios(replace(fit, params=fv.GpdParams(fit.scale, 45.0)),
                               PipelineConfig(scenario_years=()))
        for key in ("x45_return_period", "x200_return_period"):
            assert rows[key]["note"].startswith("the level exceeded once per ")
            assert rows[key]["note"].endswith(" is beyond the largest double")
            assert "return_period_years" not in rows[key]

    def test_untyped_error_fails_the_returns_stage(self, synth_csv, tmp_path, monkeypatch):
        # only the library's typed errors become a scenario note
        def broken(*args):
            raise TypeError("not a flarevt error")
        monkeypatch.setattr(pipeline, "return_period_band", broken)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"ingest": {"scaling_divisor": 1.0},
                                           "gpd_threshold": 1e-4}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), str(synth_csv),
                     "--out", str(out)]) == STAGE_EXIT_CODES["returns"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failed_stage"] == "returns"
        assert manifest["error"] == "not a flarevt error"
        assert not (out / "returns.csv").exists()
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["manifest.json", *manifest["artifacts"].values()])

    def test_scenarios_trace_to_fit(self, synth_csv, pipeline_config, tmp_path):
        report = run_pipeline(pipeline_config, [synth_csv],
                              out_dir=tmp_path / "out", fixed_clock=True)
        fit = fit_from_json_dict(report["fit"])
        row = report["scenarios"]["x45_return_period"]
        if "return_period_years" in row:
            assert row["return_period_years"] == pytest.approx(
                fv.return_period(fit, 45e-4), rel=1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SubThresholdReturnWarning)
            expected = fv.return_level_ci(fit, 150.0).level
        assert report["scenarios"]["level_150yr"]["level_wm2"] == pytest.approx(
            expected, rel=1e-12)
