import json
import warnings
from pathlib import Path

import pytest

import flarevt as fv
from flarevt import PipelineStageError, SubThresholdReturnWarning
from flarevt.cli import STAGE_EXIT_CODES, main
from flarevt.gpd import fit_from_json_dict, fit_to_json_dict
from flarevt.pipeline import PipelineConfig, json_text, run_pipeline

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
    "excesses.csv", "fit.json", "mrl.csv", "probplot.csv", "mrl.json",
    "probplot.json", "returns.csv", "returns.json", "return_table.json",
    "scenarios.json", "report.json", "manifest.json",
]


class TestRunPipeline:
    def test_writes_all_artifacts_and_recovers_truth(self, synth_csv,
                                                     pipeline_config, tmp_path):
        report = run_pipeline(pipeline_config, [synth_csv],
                              out_dir=tmp_path / "out", fixed_clock=True)
        for name in EXPECTED_ARTIFACTS:
            assert (tmp_path / "out" / name).exists(), name

        fit = fit_from_json_dict(report.fit)
        se = fit.std_errors
        assert abs(fit.scale - TRUE_SCALE) <= 3 * se[0]
        assert abs(fit.shape - TRUE_SHAPE) <= 3 * se[1]

        # round-trip invariant holds on the reported fit
        level = fv.return_level(fit, 100.0)
        assert fv.return_period(fit, level) == pytest.approx(100.0, rel=1e-8)

        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["failed_stage"] is None
        assert manifest["completed_stages"][-1] == "report"
        assert report.generated_at is None
        assert report.scenarios  # named headline rows present

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

    def test_empty_input_fails_in_ingest(self, pipeline_config, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("")
        with pytest.raises(PipelineStageError) as err:
            run_pipeline(pipeline_config, [bad], out_dir=tmp_path / "out")
        assert err.value.stage == "ingest"


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

    def test_fit_on_excess_list_matches_library_byte_for_byte(self, tmp_path):
        y = fv.gpd_sample(fv.GpdParams(1.0, 0.2), 300, seed=5)
        excesses_path = tmp_path / "excesses.csv"
        from flarevt.pipeline import excesses_to_csv_text
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

    def test_run_exit_code_on_empty_input(self, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("")
        code = main(["run", str(bad), "--out", str(tmp_path / "out")])
        assert code == STAGE_EXIT_CODES["ingest"]

    def test_run_without_inputs_is_usage_error(self, tmp_path):
        assert main(["run", "--out", str(tmp_path / "out")]) == 2

    def test_bad_config_key_is_usage_error(self, synth_csv, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"no_such_key": 1}))
        assert main(["run", "--config", str(config_path), str(synth_csv),
                     "--out", str(tmp_path / "out")]) == 2


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

    def test_round_trip_and_hash_stability(self):
        config = PipelineConfig(gpd_threshold=4e-4)
        back = PipelineConfig.from_dict(config.to_dict())
        assert back == config
        assert back.config_hash() == config.config_hash()
        assert PipelineConfig().config_hash() != config.config_hash()

    def test_threshold_ordering_enforced(self):
        with pytest.raises(fv.DomainError):
            PipelineConfig(decluster_threshold=4e-4, gpd_threshold=1e-4)

    def test_scenarios_trace_to_fit(self, synth_csv, pipeline_config, tmp_path):
        report = run_pipeline(pipeline_config, [synth_csv],
                              out_dir=tmp_path / "out", fixed_clock=True)
        fit = fit_from_json_dict(report.fit)
        row = report.scenarios["x45_return_period"]
        if "return_period_years" in row:
            assert row["return_period_years"] == pytest.approx(
                fv.return_period(fit, 45e-4), rel=1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SubThresholdReturnWarning)
            expected = fv.return_level_ci(fit, 150.0).level
        assert report.scenarios["level_150yr"]["level_wm2"] == pytest.approx(
            expected, rel=1e-12)
