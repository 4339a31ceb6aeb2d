"""Tests for experiment configs, the pipeline runner and output emission.

Small grids keep every run under a second; the full-size presets are only
validated here, not executed.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from liemorph import GridSpec, ScalarField, coarsen
from liemorph.cli_experiments import (
    ConfigError,
    ExperimentReport,
    FieldDump,
    emit_outputs,
    main,
    preset_config,
    run_experiment,
    validate_config,
)
from oracles import random_band_limited


def small_raw(pipeline="morphed-enkf", **extra):
    raw = {
        "schema_version": 1,
        "name": "toy",
        "pipeline": pipeline,
        "grid": {"nx": 32, "ny": 32, "lx": 5000.0, "ly": 5000.0,
                 "coarse_nx": 8, "coarse_ny": 8},
        "model": {"f": 0.01, "kappa": 0.001, "h0": 1.0, "theta0": 98.0, "dt": 1.0},
        "ic": {"amplitude": 0.1, "radius": 400.0, "separation": 1250.0,
               "theta_amplitude": 0.05, "perturb_mean": 0.1, "perturb_std": 0.1},
        "horizons": {"truth_steps": 5, "spinup_steps": 3},
        "ensemble": {"size": 4, "seed": 42, "obs_noise_seed": 43},
        "morph": {"epsilon": 10.0, "n_steps": 3, "filter_a": 36.0, "ab_order": 5},
        "nudging": {"steps": 5, "strength": 1.0},
        "output_dir": "runs/toy",
        "workers": 1,
    }
    raw.update(extra)
    return raw


def member_fields(report, stage):
    """FieldDumps for a stage keyed by (member, name), mean dumps excluded."""
    out = {}
    for dump in report.fields:
        if dump.stage == stage and dump.member is not None:
            out[(dump.member, dump.name)] = dump.field
    return out


class TestValidateConfig:
    def test_presets_validate(self):
        for name in ("desk", "paper"):
            config = validate_config(preset_config(name))
            assert config.pipeline == "morphed-enkf"
            assert config.grid.nx % config.coarse.nx == 0
            assert config.r_scale == 1.0

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset_config("espresso")

    def test_small_config_roundtrip(self):
        config = validate_config(small_raw())
        assert config.truth_steps == 5
        assert config.spinup_steps == 3
        assert config.ensemble_size == 4
        assert config.workers == 1

    def test_horizons_accept_time_units(self):
        raw = small_raw()
        raw["horizons"] = {"truth_time": 10.0, "spinup_time": 4.0}
        raw["model"]["dt"] = 2.0
        config = validate_config(raw)
        assert config.truth_steps == 5
        assert config.spinup_steps == 2

    def test_horizons_reject_both_forms(self):
        raw = small_raw()
        raw["horizons"] = {"truth_steps": 5, "truth_time": 5.0, "spinup_steps": 0}
        with pytest.raises(ConfigError, match="exactly one"):
            validate_config(raw)

    def test_collects_every_error(self):
        raw = small_raw()
        raw["schema_version"] = 99
        raw["pipeline"] = "teleport"
        raw["ensemble"]["size"] = 1
        raw["workers"] = 0
        raw["observation"] = {"r_scale": -2.0}
        del raw["output_dir"]
        with pytest.raises(ConfigError) as exc:
            validate_config(raw)
        text = "\n".join(exc.value.errors)
        assert len(exc.value.errors) >= 6
        for fragment in ("schema_version", "pipeline", "ensemble.size",
                         "workers", "r_scale", "output_dir"):
            assert fragment in text

    def test_rejects_unstable_courant_number(self):
        """A 256^2 grid left at dt = 1 has Courant number 1.59 and used to
        run until InstabilityError at step 38; the presets give 0.40."""
        for name in ("desk", "paper"):
            validate_config(preset_config(name))
        raw = preset_config("paper")
        raw["model"]["dt"] = 1.0
        raw["workers"] = 0
        with pytest.raises(ConfigError) as exc:
            validate_config(raw)
        assert len(exc.value.errors) == 2
        courant = [e for e in exc.value.errors if "Courant" in e]
        assert len(courant) == 1
        assert "1.59" in courant[0] and "largest stable dt is 0.4522" in courant[0]
        raw["model"]["dt"] = 0.45
        raw["workers"] = 1
        validate_config(raw)

    def test_coarse_grid_must_divide_fine(self):
        raw = small_raw()
        raw["grid"]["coarse_nx"] = 12
        with pytest.raises(ConfigError, match="divide"):
            validate_config(raw)

    def test_r_scale_parsed_with_default(self):
        assert validate_config(small_raw()).r_scale == 1.0
        raw = small_raw(observation={"r_scale": 2.5})
        assert validate_config(raw).r_scale == 2.5

    def test_non_dict_config_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(["not", "a", "config"])


class TestRunExperiment:
    def test_morph_only_with_zero_steps_is_identity(self):
        """The degenerate pipeline: no morph steps means the posterior is
        the prior, field for field and metric for metric."""
        raw = small_raw(pipeline="morph-only")
        raw["morph"]["n_steps"] = 0
        report = run_experiment(validate_config(raw))
        prior = member_fields(report, "prior")
        post = member_fields(report, "posterior")
        assert set(prior) == set(post)
        for key in prior:
            assert np.array_equal(prior[key].values, post[key].values)
        for variable in ("h", "theta", "omega"):
            assert report.metric("prior", variable, "member_mean_mse") == (
                report.metric("posterior", variable, "member_mean_mse")
            )
        assert all(len(trace) == 1 for _, trace in report.traces)

    def test_plain_enkf_with_inflated_r_keeps_prior(self):
        """observation.r_scale = 1e12 drives the gain toward zero; the
        coarse state vector moves by less than 1e-6 relative."""
        raw = small_raw(pipeline="plain-enkf", observation={"r_scale": 1e12})
        config = validate_config(raw)
        report = run_experiment(config)
        prior = member_fields(report, "prior")
        post = member_fields(report, "posterior")
        members = sorted({m for m, _ in prior})
        worst = 0.0
        for m in members:
            vb = np.concatenate([
                coarsen(prior[(m, n)], config.coarse).values.ravel()
                for n in ("h", "theta", "v1", "v2")
            ])
            va = np.concatenate([
                coarsen(post[(m, n)], config.coarse).values.ravel()
                for n in ("h", "theta", "v1", "v2")
            ])
            worst = max(worst, np.max(np.abs(va - vb)) / np.max(np.abs(vb)))
        assert worst <= 1e-6

    def test_r_scale_multiplies_reported_variances(self):
        base = run_experiment(validate_config(small_raw(pipeline="plain-enkf")))
        scaled_raw = small_raw(pipeline="plain-enkf", observation={"r_scale": 4.0})
        scaled = run_experiment(validate_config(scaled_raw))
        assert scaled.metric("obs", "h", "r") == pytest.approx(
            4.0 * base.metric("obs", "h", "r"), rel=1e-12
        )

    def test_nudging_pipeline_records_trace_and_conserves_mass(self):
        report = run_experiment(validate_config(small_raw(pipeline="nudging-run")))
        assert report.metric("nudged", "h", "member_mean_mse") >= 0.0
        (member, trace), = report.traces
        assert member == 0
        assert len(trace) == 6
        mass = trace.column("mass")
        assert abs(mass[-1] - mass[0]) / abs(mass[0]) <= 1e-10

    def test_reports_runtime_and_observation_rows(self):
        report = run_experiment(validate_config(small_raw(pipeline="plain-enkf")))
        assert report.runtime_seconds > 0.0
        assert report.metric("obs", "h", "r") > 0.0
        assert report.metric("obs", "omega", "r") > 0.0


class TestEmitOutputs:
    def test_empty_report_emits_only_manifest(self, tmp_path):
        written = emit_outputs(ExperimentReport(), tmp_path)
        assert written == ["manifest.json"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["files"] == []

    def test_small_zero_field_layout(self, tmp_path):
        g = GridSpec(4, 4, 1.0, 1.0)
        report = ExperimentReport(
            fields=[FieldDump("h", "truth", None, ScalarField.zeros(g))]
        )
        emit_outputs(report, tmp_path)
        raw = (tmp_path / "fields/truth_h.f64").read_bytes()
        assert len(raw) == 4 * 4 * 8
        assert not np.frombuffer(raw, dtype="<f8").any()
        sidecar = json.loads((tmp_path / "fields/truth_h.json").read_text())
        assert (sidecar["nx"], sidecar["ny"]) == (4, 4)
        assert (tmp_path / "fields/truth_h.pgm").exists()

    def test_f64_dump_roundtrips_bitwise(self, tmp_path):
        g = GridSpec(16, 12, 3.0, 2.0)
        vals = random_band_limited(g, 301)
        report = ExperimentReport(
            fields=[FieldDump("h", "prior", 2, ScalarField(g, vals))]
        )
        emit_outputs(report, tmp_path)
        raw = (tmp_path / "fields/prior_h_m02.f64").read_bytes()
        back = np.frombuffer(raw, dtype="<f8").reshape(g.shape)
        assert np.array_equal(back, vals)

    def test_metrics_csv_preserves_float_values(self, tmp_path):
        ugly = 0.1 + 0.2
        report = ExperimentReport(metrics_rows=[("prior", "h", "member_mean_mse", ugly)])
        emit_outputs(report, tmp_path)
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0] == "stage,variable,kind,value"
        assert float(lines[1].split(",")[-1]) == ugly

    def test_manifest_hashes_every_written_file(self, tmp_path):
        g = GridSpec(8, 8, 1.0, 1.0)
        report = ExperimentReport(
            config={"name": "t"},
            fields=[FieldDump("h", "truth", None,
                              ScalarField(g, 1.0 + random_band_limited(g, 302)))],
            metrics_rows=[("obs", "h", "r", 0.5)],
        )
        written = emit_outputs(report, tmp_path)
        assert written[-1] == "manifest.json"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert sorted(e["path"] for e in manifest["files"]) == sorted(written[:-1])
        for entry in manifest["files"]:
            blob = (tmp_path / entry["path"]).read_bytes()
            assert entry["bytes"] == len(blob)
            assert entry["sha256"] == hashlib.sha256(blob).hexdigest()

    def test_rerun_manifest_is_byte_identical(self, tmp_path):
        raw = small_raw(pipeline="morphed-enkf")
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        emit_outputs(run_experiment(validate_config(raw)), a_dir)
        emit_outputs(run_experiment(validate_config(raw)), b_dir)
        assert (a_dir / "manifest.json").read_bytes() == (
            b_dir / "manifest.json"
        ).read_bytes()


class TestCommandLine:
    def write_config(self, tmp_path, raw):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        return str(path)

    def test_presets_listing(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "desk" in out and "paper" in out

    def test_presets_json_dump(self, capsys):
        assert main(["presets", "desk"]) == 0
        assert json.loads(capsys.readouterr().out) == preset_config("desk")

    def test_validate_accepts_good_config(self, tmp_path, capsys):
        path = self.write_config(tmp_path, small_raw())
        assert main(["validate", path]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_reports_each_error_with_exit_2(self, tmp_path, capsys):
        raw = small_raw()
        raw["pipeline"] = "teleport"
        raw["workers"] = 0
        path = self.write_config(tmp_path, raw)
        assert main(["validate", path]) == 2
        err = capsys.readouterr().err
        assert err.count("config error:") >= 2

    def test_validate_rejects_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["validate", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_run_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_run_unknown_preset_exits_2(self, capsys):
        assert main(["run", "espresso", "--preset"]) == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_run_applies_cli_overrides(self, tmp_path, capsys):
        raw = small_raw(pipeline="plain-enkf")
        cfg = self.write_config(tmp_path, raw)
        out_dir = str(tmp_path / "out")
        code = main(["run", cfg, "--seed", "99", "--workers", "2", "--out", out_dir])
        assert code == 0
        saved = json.loads((tmp_path / "out" / "config.json").read_text())
        assert saved["ensemble"]["seed"] == 99
        assert saved["ensemble"]["obs_noise_seed"] == 100
        assert saved["workers"] == 2
        assert saved["output_dir"] == out_dir
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_run_instability_exits_3(self, tmp_path, capsys):
        # a 20x height anomaly drives h negative in the first truth step,
        # at a dt that passes the Courant check
        raw = small_raw(pipeline="plain-enkf")
        raw["ic"]["amplitude"] = 20.0
        cfg = self.write_config(tmp_path, raw)
        assert main(["run", cfg]) == 3
        assert "numerical instability" in capsys.readouterr().err

    def test_worker_env_cap_applies(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LIEMORPH_MAX_WORKERS", "1")
        raw = small_raw(pipeline="morphed-enkf", workers=8)
        cfg = self.write_config(tmp_path, raw)
        out_dir = str(tmp_path / "capped")
        assert main(["run", cfg, "--out", out_dir]) == 0

    def test_worker_env_cap_must_be_integer(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LIEMORPH_MAX_WORKERS", "many")
        cfg = self.write_config(tmp_path, small_raw(pipeline="plain-enkf"))
        assert main(["run", cfg, "--out", str(tmp_path / "x")]) == 2
        assert "must be an integer" in capsys.readouterr().err
