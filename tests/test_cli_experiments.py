"""Tests for experiment configs, the pipeline runner and output emission.

Small grids keep every run under a second; the full-size presets are only
validated here, not executed.
"""

import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import liemorph
from liemorph import (
    GridSpec,
    InstabilityError,
    ModelParams,
    MorphParams,
    ScalarField,
    TSWState,
    VortexIC,
    coarsen,
    conserved_totals,
    double_vortex_ic,
    integrate,
)
from liemorph import cli_experiments
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
from liemorph.tsw_model import (_MODEL_AB_ORDER, _MODEL_COURANT_MAX, _MODEL_DECAY_MAX, AB_COEFFS,
                                _propagator)
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
        "horizons": {"truth_time": 5.0, "spinup_time": 3.0},
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

    def test_paper_preset_step_counts(self):
        """The paper preset runs dt = 2, the largest step under the remainder
        bound (2.011) that keeps both horizons whole numbers of steps; its
        nudging window spans the desk preset's 50 time units."""
        desk, paper = (validate_config(preset_config(name)) for name in ("desk", "paper"))
        assert (paper.truth_steps, paper.spinup_steps, paper.nudging_steps) == (1375, 1000, 25)
        assert desk.nudging_steps * desk.model.dt == paper.nudging_steps * paper.model.dt == 50.0

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
        """The model step carries the rest-state gravity waves exactly, so
        dt is bounded by its AB3 remainder: the peak flow speed plus the
        rise of the gravity-wave speed at the vortex peak.  The desk preset
        sits at 0.45 and the paper preset at 0.716; the paper preset at
        dt = 5 gives 1.79.  On the desk grid a run at the bound keeps
        positivity for 150 steps, and one at twice the bound loses it."""
        for name in ("desk", "paper"):
            validate_config(preset_config(name))
        raw = preset_config("paper")
        raw["model"]["dt"] = 5.0
        raw["workers"] = 0
        with pytest.raises(ConfigError) as exc:
            validate_config(raw)
        assert len(exc.value.errors) == 2
        courant = [e for e in exc.value.errors if "Courant" in e]
        assert len(courant) == 1
        assert "1.79" in courant[0] and "largest stable dt is 2.011" in courant[0]
        raw["model"]["dt"] = 2.011
        raw["workers"] = 1
        # the paper horizons are no whole number of 2.011 steps
        with pytest.raises(ConfigError) as exc:
            validate_config(raw)
        assert [e.split(":")[0] for e in exc.value.errors] == [
            "horizons.truth_time", "horizons.spinup_time"]
        raw["model"]["dt"] = 2.0
        config = validate_config(raw)
        assert (config.truth_steps, config.spinup_steps) == (1375, 1000)

        raw = preset_config("desk")
        raw["model"]["dt"] = 20.0
        with pytest.raises(ConfigError) as exc:
            validate_config(raw)
        largest = float(exc.value.errors[0].rsplit(" ", 1)[1])
        assert largest == 8.045
        desk = validate_config(preset_config("desk"))
        ic = double_vortex_ic(desk.ic, desk.grid, desk.model)
        integrate(ic, 150, ModelParams(dt=largest))
        with pytest.raises(InstabilityError):
            integrate(ic, 150, ModelParams(dt=2 * largest))

    def test_rejects_advective_courant_number(self):
        """A 20x height anomaly on the 32^2 grid: its peak geostrophic speed
        and the rise of the gravity-wave speed at its peak give a remainder
        Courant number of 6.7; it used to die at truth step 1 with
        min h = -66."""
        raw = small_raw()
        raw["ic"]["amplitude"] = 20.0
        with pytest.raises(ConfigError) as exc:
            validate_config(raw)
        assert exc.value.errors == [
            "model.dt: remainder Courant number (max|v| + dc)*k_max*dt = 6.71 "
            "exceeds the AB3 bound 0.72; the largest stable dt is 0.1072"
        ]
        raw["ic"]["amplitude"] = 0.1
        validate_config(raw)

    @pytest.mark.parametrize("preset, changes, expected", [
        # the geostrophic speed, and so the remainder rate, overflows to inf
        pytest.param(None, {("model", "f"): 5e-324}, [
            "model.dt: remainder Courant number (max|v| + dc)*k_max*dt = inf "
            "exceeds the AB3 bound 0.72",
        ], id="tiny-f"),
        # both gravity wave speeds overflow and their difference is nan;
        # kappa = 0 passes however high h gets
        pytest.param("desk", {("model", "h0"): 1e308, ("ic", "amplitude"): 1e308,
                              ("model", "kappa"): 0.0}, [
            "model.dt: remainder Courant number (max|v| + dc)*k_max*dt = nan "
            "exceeds the AB3 bound 0.72",
        ], id="nan-wave-speed"),
        # both numbers overflow; 6/11 over the infinite reach floors to nan
        pytest.param("desk", {("model", "h0"): 1e300, ("model", "dt"): 1e300}, [
            "model.dt: remainder Courant number (max|v| + dc)*k_max*dt = inf "
            "exceeds the AB3 bound 0.72; the largest stable dt is 7.324e-149",
            "model.kappa: relaxation number kappa*(h0 + ic.amplitude)*dt = inf "
            "exceeds the AB3 bound 0.5455",
            "horizons.truth_time: 220.0 is not a whole number of model.dt = 1e+300 "
            "steps; the nearest valid times are 0 and 1e+300",
            "horizons.spinup_time: 200.0 is not a whole number of model.dt = 1e+300 "
            "steps; the nearest valid times are 0 and 1e+300",
        ], id="huge-h0-dt"),
    ])
    def test_overflowing_courant_rate_names_no_dt(self, preset, changes, expected):
        """Model values near the float range overflow the stability
        numbers: each is rejected, no error names a largest stable value
        that is not finite, and validation emits no warning."""
        raw = small_raw() if preset is None else preset_config(preset)
        for (section, key), value in changes.items():
            raw[section][key] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError) as exc:
                validate_config(raw)
        assert exc.value.errors == expected

    def test_coarse_grid_must_divide_fine(self):
        raw = small_raw()
        raw["grid"]["coarse_nx"] = 12
        with pytest.raises(ConfigError) as exc:
            validate_config(raw)
        assert exc.value.errors == ["grid.coarse_nx 12 must divide the fine grid's nx 32"]

    @pytest.mark.parametrize("key, value, why", [
        ("theta_amplitude", 0.0, "ic.theta_amplitude 0 leaves the truth at rest"),
        ("truth_time", 0.0, "horizons.truth_time 0 makes the truth the initial state"),
    ], ids=["no-theta-anomaly", "no-truth-steps"])
    def test_zero_amplitude_without_vorticity_rejected(self, key, value, why):
        """ic.amplitude 0 starts from v = 0.  Without a Theta anomaly to
        drive a flow, or without truth steps, the truth's vorticity is
        identically zero; run used to integrate the truth and then blame
        observation.r_scale."""
        raw = small_raw(pipeline="plain-enkf")
        raw["ic"]["amplitude"] = 0.0
        (raw["ic"] if key in raw["ic"] else raw["horizons"])[key] = value
        with pytest.raises(ConfigError) as exc:
            validate_config(raw)
        (error,) = exc.value.errors
        assert error.startswith(f"ic.amplitude: 0 with {why}"), error
        assert error.endswith("so its vorticity observations would be identically zero")

    def test_zero_amplitude_with_a_theta_anomaly_validates(self):
        """A Theta anomaly drives a flow whose vorticity the truth run
        builds up (a variance of 2e-11 on the desk grid), so ic.amplitude
        0 alone is a valid experiment."""
        raw = small_raw(pipeline="plain-enkf")
        raw["ic"]["amplitude"] = 0.0
        assert validate_config(raw).ic.amplitude == 0.0

    def test_r_scale_parsed_with_default(self):
        assert validate_config(small_raw()).r_scale == 1.0
        raw = small_raw(observation={"r_scale": 2.5})
        assert validate_config(raw).r_scale == 2.5

    def test_non_dict_config_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(["not", "a", "config"])


def with_value(path, value, others=None):
    """small_raw() with the dotted key path set to value, and each dotted
    key of the dict `others` to its value."""
    raw = small_raw()
    for dotted, v in {path: value, **(others or {})}.items():
        *sections, key = dotted.split(".")
        node = raw
        for name in sections:
            node = node.setdefault(name, {})
        node[key] = v
    return raw


# Each of these used to validate, and some then failed at run time:
# n_steps 3.5 with a TypeError, r_scale NaN with a LinAlgError, dt NaN with
# exit 3; a NaN or infinite truth_time crashed validate_config itself; a
# billion workers asked a process pool for a billion processes; a negative
# seed raised ValueError in default_rng after the truth run; a grid count
# of 10^6 allocated its GridSpec before the divisibility check and, with
# both counts that large, died with a MemoryError; a perturb_mean or
# perturb_std that puts a vortex centre at inf km filled the spin-up's
# members with nan; a radius of 1e200 died in double_vortex_ic with an
# OverflowError at radius**2, and one of 1e-300, whose square underflows
# to 0, with a ValueError at its non-finite h.  The last eight are range
# errors of the parameter classes, which name the key as the kind errors do.
MALFORMED = [
    ("workers", True),
    ("workers", 10**9),
    ("ensemble.seed", True),
    ("grid.nx", "32"),
    ("grid.nx", 32.7),
    ("morph.n_steps", 3.5),
    ("morph.ab_order", 5.0),
    ("model.dt", float("nan")),
    ("morph.epsilon", float("nan")),
    ("morph.epsilon", float("inf")),
    ("observation.r_scale", float("nan")),
    ("morph.early_stop_pateince", 3),
    ("obsevation", {"r_scale": 2.0}),
    ("horizons.truth_time", float("nan")),
    ("horizons.truth_time", float("inf")),
    ("ensemble.seed", -2),
    ("ensemble.obs_noise_seed", -1),
    ("grid.nx", 10**6),
    ("grid.coarse_nx", 10**6),
    ("ic.perturb_mean", 1e308),
    ("ic.perturb_std", 1e306),
    ("ic.radius", 1e200),
    ("ic.radius", 1e-300),
    ("ic.radius", -1.0),
    ("morph.filter_a", -1.0),
    ("morph.ab_order", 7),
    ("model.dt", -1.0),
    ("grid.nx", 63),
    ("grid.ny", 2),
    ("grid.coarse_nx", 12),
    ("grid.coarse_ny", 6),
    ("grid.lx", 5e-324),
    ("grid.ly", 1e-300),
    ("ic.perturb_std", 1e308),
]
# The other keys a MALFORMED key is set with: on small_raw, the Courant
# pre-flight rejects a radius of 1e-300 first, but with ic.amplitude 0 it
# has no flow to bound, and the radius alone is judged
ALONGSIDE = {"ic.radius": {"ic.amplitude": 0.0}}


class TestMalformedValues:
    @pytest.mark.parametrize("path,value", MALFORMED)
    def test_validate_exits_2_naming_the_key(self, tmp_path, capsys, path, value):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(with_value(path, value, ALONGSIDE.get(path))))
        assert main(["validate", str(cfg)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert any(line.startswith("config error:") and path in line for line in lines), lines

    def test_errors_in_one_section_are_all_reported(self):
        raw = small_raw()
        del raw["ensemble"]["seed"]
        raw["ensemble"]["size"] = 1
        raw["morph"]["n_steps"] = 3.5
        raw["morph"]["filter_a"] = "wide"
        with pytest.raises(ConfigError) as exc:
            validate_config(raw)
        assert exc.value.errors == [
            "ensemble.size must be an integer >= 2",
            "missing key ensemble.seed",
            "morph.n_steps must be an integer",
            "morph.filter_a must be a finite number",
        ]


class TestParameterRanges:
    """The parameter classes check their own ranges, and validate_config
    reports what they reject as errors."""

    @pytest.mark.parametrize("kwargs", [
        {"f": 0.0}, {"dt": float("nan")}, {"kappa": float("inf")}, {"h0": float("nan")},
    ])
    def test_model_params_rejects(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"filter_a": 0.0}, {"filter_a": -1.0}, {"early_stop_patience": 0},
        {"early_stop_patience": -1}, {"n_steps": 3.5}, {"epsilon": float("inf")},
    ])
    def test_morph_params_rejects(self, kwargs):
        with pytest.raises(ValueError):
            MorphParams(**kwargs)

    def test_vortex_ic_rejects_a_radius_whose_square_overflows(self):
        # radius 1e200 used to validate and then die in double_vortex_ic
        # with an OverflowError at radius**2, exit 1 (its config half is a
        # MALFORMED case)
        with pytest.raises(ValueError, match="radius"):
            VortexIC(radius=1e200)

    @pytest.mark.parametrize("kwargs, message", [
        ({"amplitude": -0.5}, "amplitude must be nonnegative, got -0.5"),
        ({"theta_amplitude": -2}, "theta_amplitude must be nonnegative, got -2"),
        ({"radius": 1e-300},
         "radius must be positive and its square positive and finite, got 1e-300"),
    ], ids=["amplitude", "theta_amplitude", "radius-1e-300"])
    def test_vortex_ic_rejects_out_of_range(self, kwargs, message):
        # a negative amplitude passed the model's pre-flight and lost
        # positivity at desk step 16, a negative theta_amplitude crashed the
        # pre-flight with a math domain error, and a radius whose square
        # underflows to 0 made double_vortex_ic divide 0 by 0
        with pytest.raises(ValueError) as exc:
            VortexIC(**kwargs)
        assert str(exc.value) == message

    def test_negative_amplitude_is_reported(self):
        # the class's message with the key's section, where SCHEMA used to
        # state the range itself
        with pytest.raises(ConfigError) as exc:
            validate_config(with_value("ic.amplitude", -0.5))
        assert exc.value.errors == ["ic.amplitude must be nonnegative, got -0.5"]

    def test_morph_params_accepts_patience_one(self):
        assert MorphParams(early_stop_patience=1).early_stop_patience == 1

    @staticmethod
    def ab3_amplification(z):
        # largest root modulus of rho(xi) - z sigma(xi) for the model
        # step's AB order p: xi^p = xi^(p-1) + z (c0 xi^(p-1) + ... + c_(p-1))
        c = AB_COEFFS[_MODEL_AB_ORDER]
        return max(abs(np.roots([1.0, -1.0 - z * c[0], *(-z * cj for cj in c[1:])])))

    def test_ab3_bounds_lie_in_the_stability_region(self):
        assert self.ab3_amplification(1j * _MODEL_COURANT_MAX) <= 1 + 1e-12
        assert self.ab3_amplification(-_MODEL_DECAY_MAX) <= 1 + 1e-12
        # and the real-axis bound is the edge of the region
        assert self.ab3_amplification(-1.01 * _MODEL_DECAY_MAX) > 1

    def test_zero_nudging_strength_validates(self):
        assert validate_config(with_value("nudging.strength", 0)).nudging_strength == 0

    def test_negative_kappa_is_reported(self):
        # a negative kappa validated and lost positivity at step 132;
        # ModelParams rejects it, and validation names the key
        with pytest.raises(ConfigError) as exc:
            validate_config(with_value("model.kappa", -0.05))
        assert exc.value.errors == ["model.kappa must be nonnegative, got -0.05"]

    def test_kappa_bound_names_a_kappa_that_passes(self):
        # kappa*(h0 + amplitude)*dt = 0.55 on small_raw, above 6/11 = 0.5455
        with pytest.raises(ConfigError) as exc:
            validate_config(with_value("model.kappa", 0.5))
        (error,) = exc.value.errors
        assert error.startswith("model.kappa:") and "0.55" in error
        largest = float(error.rsplit(" ", 1)[1])
        assert 0.99 * 6 / 11 / 1.1 < largest <= 6 / 11 / 1.1
        assert validate_config(with_value("model.kappa", largest)).model.kappa == largest

    @pytest.mark.parametrize("dt,key,time,nearest", [
        (1.0, "truth", 0.4, "0 and 1"),
        (1.0, "spinup", 200.6, "200 and 201"),
        (0.25, "truth", 2750.1, "2750 and 2750.25"),
    ])
    def test_horizon_time_must_be_whole_steps(self, dt, key, time, nearest):
        # these used to round silently: 0.4 to no truth steps at all
        raw = small_raw()
        raw["model"]["dt"] = dt
        raw["horizons"] = {"truth_time": 5 * dt, "spinup_time": 0.0, f"{key}_time": time}
        with pytest.raises(ConfigError) as exc:
            validate_config(raw)
        (error,) = exc.value.errors
        assert error.startswith(f"horizons.{key}_time:") and error.endswith(nearest)

    @pytest.mark.parametrize("dt,time,steps", [(0.1, 1.0, 10), (0.25, 2750.0, 11000),
                                               (0.25, 20.0, 80), (1.0, 0.0, 0)])
    def test_horizon_time_within_rounding_passes(self, dt, time, steps):
        raw = small_raw()
        raw["model"]["dt"] = dt
        raw["horizons"] = {"truth_time": time, "spinup_time": 0.0}
        assert validate_config(raw).truth_steps == steps

    @pytest.mark.parametrize("path,value,message", [
        # f = 0 used to raise ZeroDivisionError out of validate_config
        ("model.f", 0.0, "model.f must be nonzero"),
        # filter_a <= 0 used to fail at the first morph step, after spin-up
        ("morph.filter_a", 0.0, "morph.filter_a must be positive"),
        # patience < 1 used to stop every member after one step, exit 0
        ("morph.early_stop_patience", 0, "morph.early_stop_patience must be"),
        ("morph.early_stop_patience", -1, "morph.early_stop_patience must be"),
    ])
    def test_validate_exits_2(self, tmp_path, capsys, path, value, message):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(with_value(path, value)))
        assert main(["validate", str(cfg)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err


class TestRunExperiment:
    def test_morph_only_with_zero_steps_is_identity(self):
        """The morph alone, morphed-enkf's morphed stage, is the identity
        with no morph steps: it equals the prior, field for field and
        metric for metric."""
        raw = small_raw()
        raw["morph"]["n_steps"] = 0
        report = run_experiment(validate_config(raw))
        prior = member_fields(report, "prior")
        morphed = member_fields(report, "morphed")
        assert set(prior) == set(morphed)
        for key in prior:
            assert np.array_equal(prior[key].values, morphed[key].values)
        for variable in ("h", "theta", "omega"):
            assert report.metric("prior", variable, "member_mean_mse") == (
                report.metric("morphed", variable, "member_mean_mse")
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

    @pytest.mark.parametrize("pipeline", ["plain-enkf", "morphed-enkf"])
    def test_ensemble_pipelines_drop_the_propagator_after_the_spin_up(self, pipeline,
                                                                        monkeypatch):
        """The truth run and the spin-up share one build of the model's wave
        propagator, which no later stage reads, and the run ends with it
        dropped."""
        _propagator.cache_clear()
        spin_up, built = cli_experiments.generate_ensemble, []

        def recorded(*args, **kwargs):
            ensemble = spin_up(*args, **kwargs)
            built.append(_propagator.cache_info())
            return ensemble

        monkeypatch.setattr(cli_experiments, "generate_ensemble", recorded)
        run_experiment(validate_config(small_raw(pipeline=pipeline)))
        (info,) = built
        assert info.misses == 1 and info.hits > 0
        assert _propagator.cache_info().currsize == 0

    def test_nudging_run_reuses_the_spin_ups_propagator(self):
        """The nudge's model steps read the propagator that the truth run
        and the spin-up built, which the run keeps."""
        _propagator.cache_clear()
        run_experiment(validate_config(small_raw(pipeline="nudging-run")))
        info = _propagator.cache_info()
        assert info.misses == 1 and info.currsize == 1

    def test_naive_pipeline_leaks_mass_tensor_pipeline_keeps_it(self):
        """naive-morphed-enkf transports h as a 0-form, so each member's
        morphed mass drifts from its prior mass (8.9e-8 relative
        measured); morphed-enkf carries h as a 2-form (0.0 measured)."""
        drift = {}
        for pipeline in ("morphed-enkf", "naive-morphed-enkf"):
            report = run_experiment(validate_config(small_raw(pipeline=pipeline)))
            mass = {(stage, m): total for stage, m, total, *_ in report.totals_rows}
            drift[pipeline] = max(abs(mass["morphed", m] - mass["prior", m]) / mass["prior", m]
                                  for stage, m in mass if stage == "prior")
        assert drift["morphed-enkf"] <= 1e-12
        assert drift["naive-morphed-enkf"] > 1e-9

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

    def test_ledger_names_agree(self, tmp_path):
        """conserved_totals.csv, the morph trace and conserved_totals name
        the totals alike, in one order."""
        emit_outputs(run_experiment(validate_config(small_raw(pipeline="nudging-run"))), tmp_path)
        header = (tmp_path / "conserved_totals.csv").read_text().splitlines()[0].split(",")
        trace = (tmp_path / "traces/morph_m00.csv").read_text().splitlines()[0].split(",")
        keys = list(conserved_totals(TSWState.rest(GridSpec(8, 8, 1.0, 1.0), ModelParams())))
        assert header == ["stage", "member", *keys]
        assert trace[-len(keys):] == keys

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
        for pipeline in ("morphed-enkf", "nudging-run"):
            raw = small_raw(pipeline=pipeline)
            a_dir, b_dir = tmp_path / pipeline / "a", tmp_path / pipeline / "b"
            emit_outputs(run_experiment(validate_config(raw)), a_dir)
            emit_outputs(run_experiment(validate_config(raw)), b_dir)
            assert (a_dir / "manifest.json").read_bytes() == (
                b_dir / "manifest.json"
            ).read_bytes()

    @pytest.mark.parametrize("pipeline", cli_experiments.PIPELINES)
    def test_workers_leave_every_output_unchanged(self, tmp_path, pipeline):
        """Batches on two threads write what one thread writes: the
        manifests agree on every file but the recorded config.json."""
        listed = []
        for workers in (1, 2):
            out = tmp_path / f"workers{workers}"
            raw = small_raw(pipeline=pipeline, workers=workers)
            emit_outputs(run_experiment(validate_config(raw)), out)
            files = json.loads((out / "manifest.json").read_text())["files"]
            listed.append([entry for entry in files if entry["path"] != "config.json"])
        assert listed[0] == listed[1] and len(listed[0]) > 1


class TestCommandLine:
    def write_config(self, tmp_path, raw):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        return str(path)

    def test_presets_listing(self, capsys):
        assert main(["presets"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "desk: 64x64 fine / 16x16 coarse, 8 members, 500 morph steps, 2 workers",
            "paper: 256x256 fine / 64x64 coarse, 20 members, 10000 morph steps, 2 workers",
        ]

    def test_presets_listing_reads_the_presets(self, capsys, monkeypatch):
        monkeypatch.setitem(cli_experiments.PRESETS["paper"]["ensemble"], "size", 3)
        monkeypatch.setitem(cli_experiments.PRESETS["paper"], "workers", 1)
        assert main(["presets"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == (
            "paper: 256x256 fine / 64x64 coarse, 3 members, 10000 morph steps, 1 workers")

    def test_presets_json_dump(self, capsys):
        assert main(["presets", "desk"]) == 0
        assert json.loads(capsys.readouterr().out) == preset_config("desk")

    @pytest.mark.parametrize("name", ["desk", "paper"])
    def test_presets_print_their_pinned_bytes(self, capsys, name):
        """The presets are built from the parameter classes' defaults; a
        changed default must show here, not as a silently changed preset."""
        golden = os.path.join(os.path.dirname(__file__), "golden", f"presets_{name}.json")
        assert main(["presets", name]) == 0
        with open(golden, encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read()

    def test_presets_share_no_sections(self):
        """paper is built from desk; editing one preset leaves the other."""
        desk, paper = (cli_experiments.PRESETS[name] for name in ("desk", "paper"))
        assert all(desk[key] is not paper[key] for key in desk if isinstance(desk[key], dict))

    def test_validate_accepts_good_config(self, tmp_path, capsys):
        path = self.write_config(tmp_path, small_raw())
        assert main(["validate", path]) == 0
        assert "OK" in capsys.readouterr().out

    @staticmethod
    def modules_after(argv):
        """The names in sys.modules once main(argv) has returned 0 in a
        fresh interpreter."""
        code = (
            "import json, sys, liemorph\n"
            "from liemorph.cli_experiments import main\n"
            f"assert main({argv!r}) == 0\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout
        return json.loads(out.splitlines()[-1])

    def test_validate_imports_no_scipy(self, tmp_path):
        """scipy is imported only by generalized_optical_flow (CG), which
        nothing in the command line calls, so set-up skips its cost."""
        path = self.write_config(tmp_path, small_raw())
        mods = self.modules_after(["validate", path])
        assert [m for m in mods if m.split(".")[0] == "scipy"] == []

    @pytest.mark.parametrize("pipeline", cli_experiments.PIPELINES)
    def test_run_imports_no_scipy(self, tmp_path, pipeline):
        """No pipeline reaches the one scipy import, generalized_optical_flow's."""
        path = self.write_config(tmp_path, small_raw(pipeline=pipeline))
        mods = self.modules_after(["run", path, "--out", str(tmp_path / "out")])
        assert [m for m in mods if m.split(".")[0] == "scipy"] == []

    def test_validate_imports_no_multiprocessing(self, tmp_path):
        """Parallel batches run on threads, so no process pool is loaded."""
        path = self.write_config(tmp_path, small_raw())
        mods = self.modules_after(["validate", path])
        assert [m for m in mods if "multiprocessing" in m.split(".")[0]] == []

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

    @pytest.mark.parametrize("content, message", [
        (b'{"name": "\xff\xfe"}', "not UTF-8 text"),
        (b"[" * 200000 + b"]" * 200000, "nests too deeply"),
    ], ids=["not-utf8", "nested-200000-deep"])
    def test_validate_rejects_unparsable_file(self, tmp_path, capsys, content, message):
        """A file that is not UTF-8, and JSON nested past the parser's
        recursion limit, are config errors, not tracebacks."""
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["validate", str(path)]) == 2
        assert message in capsys.readouterr().err

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

    @pytest.mark.parametrize("path,value,others", [
        pytest.param("ic.amplitude", -1.1, {}, id="ic.amplitude--1.1"),
        pytest.param("ic.theta_amplitude", -30.0, {}, id="ic.theta_amplitude--30.0"),
        pytest.param("horizons.truth_time", 1e308, {"model.dt": 0.25},
                     id="horizons.truth_time-1e+308"),
        pytest.param("ensemble", [], {}, id="ensemble-value3"),
        pytest.param("horizons.truth_time", 1e308, {}, id="horizons.truth_time-1e+308-dt1"),
        pytest.param("morph.n_steps", 10**18, {}, id="morph.n_steps-1e18"),
        pytest.param("nudging.steps", 10**18, {}, id="nudging.steps-1e18"),
        pytest.param("ensemble.size", 10**9, {}, id="ensemble.size-1e9"),
        pytest.param("model.kappa", 0.5, {}, id="model.kappa-0.5"),
        pytest.param("horizons.truth_time", 0.4, {}, id="horizons.truth_time-0.4"),
        pytest.param("nudging.strength", -5.0, {}, id="nudging.strength--5.0"),
        pytest.param("ic.radius", -1.0, {}, id="ic.radius--1.0"),
        pytest.param("ic.radius", 1e-300, {"ic.amplitude": 0.0}, id="ic.radius-1e-300"),
        pytest.param("morph.filter_a", -1.0, {}, id="morph.filter_a--1.0"),
        pytest.param("morph.ab_order", 7, {}, id="morph.ab_order-7"),
        pytest.param("model.dt", -1.0, {}, id="model.dt--1.0"),
        pytest.param("grid.nx", 63, {}, id="grid.nx-63"),
        pytest.param("grid.coarse_ny", 6, {}, id="grid.coarse_ny-6"),
        pytest.param("grid.lx", 5e-324, {}, id="grid.lx-5e-324"),
    ])
    def test_run_rejects_before_compute(self, tmp_path, capsys, monkeypatch, path, value,
                                        others):
        # the first four used to end in a traceback and exit 1: the IC
        # construction raised ValueError, t / dt overflowed and --seed
        # indexed the list; the next four validated, and the run would
        # have integrated for ever or run out of memory; of the last
        # three, kappa 0.5 lost positivity at step 164 (exit 3), and
        # truth_time 0.4 (0 truth steps) and strength -5 ran to exit 0; the
        # rest are the parameter classes' range errors, which name the key
        # (lx 5e-324 used to end in a ZeroDivisionError, exit 1, and a
        # radius of 1e-300 with amplitude 0 in a ValueError at its
        # non-finite h)
        def no_truth(*args, **kwargs):
            raise AssertionError("the truth run started")

        monkeypatch.setattr(cli_experiments, "integrate", no_truth)
        cfg = self.write_config(tmp_path, with_value(path, value, others))
        out = tmp_path / "out"
        assert main(["run", cfg, "--seed", "3", "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert any(line.startswith("config error:") and path in line for line in lines), lines
        assert not out.exists()

    def test_negative_seed_override_exits_2_before_compute(self, tmp_path, capsys):
        # --seed -2 used to fail in default_rng after the truth run, exit 1
        cfg = self.write_config(tmp_path, small_raw(pipeline="plain-enkf"))
        out = tmp_path / "out"
        assert main(["run", cfg, "--seed", "-2", "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["config error: ensemble.seed must be a nonnegative integer",
                         "config error: ensemble.obs_noise_seed must be a nonnegative integer"]
        assert not out.exists()

    def test_negative_f_exits_2_before_compute(self, tmp_path, capsys):
        # f = -0.01 with amplitude 3 (advective number 0.9) used to
        # validate and run; on desk, amplitude 2 lost positivity at truth
        # step 22, exit 3.  Its remainder Courant number is 1.11
        raw = with_value("model.f", -0.01)
        raw["ic"]["amplitude"] = 3.0
        cfg = self.write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["run", cfg, "--seed", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: model.dt: remainder Courant number")
        assert "*dt = 1.11 " in err
        assert not out.exists()

    def test_run_instability_exits_3(self, tmp_path, capsys):
        # an epsilon of 1e4 overshoots the morph until h turns negative,
        # in a config that passes every pre-flight check
        raw = small_raw()
        raw["morph"]["epsilon"] = 1e4
        raw["morph"]["n_steps"] = 20
        cfg = self.write_config(tmp_path, raw)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "numerical instability" in err
        assert "morph of member 0: step 4: positivity lost during morph" in err

    def test_truth_instability_names_the_stage(self, tmp_path, capsys, monkeypatch):
        # the pre-flight rejects dt = 1e5; without it, the truth run's
        # first step loses positivity
        monkeypatch.setattr(cli_experiments, "_stability_errors", lambda *args: [])
        raw = small_raw(horizons={"truth_time": 5e5, "spinup_time": 3e5})
        raw["model"]["dt"] = 1e5
        cfg = self.write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical instability: truth run: step 0: positivity lost"), err
        assert not out.exists()

    def test_nudge_instability_names_the_stage(self, tmp_path, capsys):
        # a blow-up in the nudge used to name no stage, where the truth
        # run, the spin-up and the morph each name theirs
        raw = small_raw(pipeline="nudging-run", nudging={"steps": 5, "strength": 1e6})
        cfg = self.write_config(tmp_path, raw)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical instability: nudge of member 0: step 0: "), err

    def test_run_rejects_an_r_scale_that_zeroes_the_variances(self, tmp_path, capsys,
                                                              monkeypatch):
        """r_scale = 5e-324 passes validate, but times each observation
        variance it rounds to 0: run exits 2 naming the key and each
        field, after the truth run and before the spin-up."""
        def spin_up(*args, **kwargs):
            raise AssertionError("the spin-up ran")

        monkeypatch.setattr(cli_experiments, "generate_ensemble", spin_up)
        raw = small_raw(pipeline="plain-enkf", observation={"r_scale": 5e-324})
        cfg = self.write_config(tmp_path, raw)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: observation.r_scale:"), err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert [line.split(" variance ")[0] for line in lines] == [
            f"config error: observation.r_scale: the {name}" for name in ("h", "omega")]
        assert all(line.endswith("times r_scale 5e-324 is 0.0, not finite and > 0")
                   for line in lines), lines
        assert not (tmp_path / "out").exists()

    def test_run_rejects_an_r_scale_that_overflows_a_variance(self, tmp_path, capsys):
        """r_scale 1e308 times the h variance 4.0 of h0 = 20 is inf; the
        scaled observation set used to raise a ValueError, exit 1."""
        raw = small_raw(pipeline="plain-enkf", observation={"r_scale": 1e308})
        raw["model"]["h0"] = 20.0
        cfg = self.write_config(tmp_path, raw)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: observation.r_scale: the h variance 4.0"), line
        assert line.endswith("times r_scale 1e+308 is inf, not finite and > 0")

    def test_run_names_a_field_whose_variance_is_zero_before_scaling(
            self, tmp_path, capsys, monkeypatch):
        """A vortex of amplitude 1e-300 without a Theta anomaly passes
        validate, but its vorticity is too small to square: the omega
        variance is 0 whatever the r_scale.  The error names omega alone
        and says so, where it used to blame observation.r_scale."""
        def spin_up(*args, **kwargs):
            raise AssertionError("the spin-up ran")

        monkeypatch.setattr(cli_experiments, "generate_ensemble", spin_up)
        raw = small_raw(pipeline="plain-enkf")
        raw["ic"].update(amplitude=1e-300, theta_amplitude=0.0)
        cfg = self.write_config(tmp_path, raw)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["config error: observations: the omega observations' variance is 0 "
                         "before observation.r_scale scales it (the truth's omega is zero or "
                         "too small to square), so no r_scale makes it positive"]
        assert not (tmp_path / "out").exists()


class TestOutputDirectory:
    """A run is written beside --out and renamed into place; it replaces
    only an empty directory or an earlier run."""

    def run(self, tmp_path, pipeline, out):
        cfg = tmp_path / f"{pipeline}.json"
        cfg.write_text(json.dumps(small_raw(pipeline=pipeline)))
        return main(["run", str(cfg), "--out", str(out)])

    @staticmethod
    def present(out):
        return sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())

    @staticmethod
    def listed(out):
        manifest = json.loads((out / "manifest.json").read_text())
        return sorted([e["path"] for e in manifest["files"]] + ["manifest.json"])

    def test_rerun_replaces_the_earlier_run(self, tmp_path, capsys):
        """A plain-enkf run into the directory of a morphed-enkf run used
        to leave the morphed_* dumps and traces/ there, unlisted."""
        out = tmp_path / "out"
        assert self.run(tmp_path, "morphed-enkf", out) == 0
        assert any(p.startswith("traces/") for p in self.present(out))
        assert self.run(tmp_path, "plain-enkf", out) == 0
        assert self.present(out) == self.listed(out)
        assert not any("morphed" in p or p.startswith("traces/") for p in self.present(out))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "morphed-enkf.json", "out", "plain-enkf.json"]

    def test_refuses_a_foreign_directory_before_any_compute(
            self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("keep me")

        def no_compute(config):
            raise AssertionError("run_experiment called")

        monkeypatch.setattr(cli_experiments, "run_experiment", no_compute)
        assert self.run(tmp_path, "plain-enkf", out) == 2
        assert "config error: output_dir" in capsys.readouterr().err
        assert self.present(out) == ["notes.txt"]
        report = ExperimentReport(metrics_rows=[("obs", "h", "r", 0.5)])
        with pytest.raises(ConfigError):
            emit_outputs(report, out)
        assert self.present(out) == ["notes.txt"]

    def test_refuses_a_run_with_an_unlisted_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        emit_outputs(ExperimentReport(metrics_rows=[("obs", "h", "r", 0.5)]), out)
        (out / "fields").mkdir()
        (out / "fields" / "extra.f64").write_bytes(b"")
        assert self.run(tmp_path, "plain-enkf", out) == 2
        assert self.present(out) == ["fields/extra.f64", "manifest.json", "metrics.csv"]

    @pytest.mark.parametrize("below", ["out", "a/b/out"])
    def test_refuses_an_out_under_a_regular_file_before_any_compute(
            self, tmp_path, capsys, monkeypatch, below):
        """An --out under a regular file used to pass every check, run the
        whole pipeline and die in emit_outputs' makedirs (exit 1)."""
        blocker = tmp_path / "f"
        blocker.write_text("a file")

        def no_truth(*args, **kwargs):
            raise AssertionError("the truth run started")

        monkeypatch.setattr(cli_experiments, "integrate", no_truth)
        assert self.run(tmp_path, "plain-enkf", blocker / below) == 2
        err = capsys.readouterr().err
        assert err == (f"config error: output_dir {blocker / below} lies under {blocker}, "
                       f"which is not a directory; choose another --out\n")
        assert blocker.read_text() == "a file"

    def test_writes_into_an_empty_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        assert self.run(tmp_path, "plain-enkf", out) == 0
        assert self.present(out) == self.listed(out)

    def test_a_failed_emit_keeps_the_earlier_run(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        emit_outputs(ExperimentReport(metrics_rows=[("obs", "h", "r", 0.5)]), out)
        before = {p: (out / p).read_bytes() for p in self.present(out)}

        def broken(values):
            raise OSError("disk full")

        monkeypatch.setattr(cli_experiments, "_pgm", broken)
        g = GridSpec(4, 4, 1.0, 1.0)
        report = ExperimentReport(fields=[FieldDump("h", "truth", None, ScalarField.zeros(g))])
        with pytest.raises(OSError, match="disk full"):
            emit_outputs(report, out)
        assert {p: (out / p).read_bytes() for p in self.present(out)} == before
        assert [p.name for p in tmp_path.iterdir()] == ["out"]


class TestBenchmarkHooks:
    """perfbench/tracing.py wraps the pipeline's stage calls by module
    attribute; a rename or an inlined call would leave a span unrecorded."""

    @pytest.fixture
    def tracing(self, monkeypatch):
        perfbench = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")
        monkeypatch.syspath_prepend(perfbench)
        import tracing

        return tracing

    @pytest.mark.parametrize("pipeline", ["plain-enkf", "morphed-enkf", "nudging-run"])
    def test_every_stage_span_is_recorded(self, tmp_path, monkeypatch, capsys, tracing,
                                          pipeline):
        for module, attr, _ in tracing.STAGES:
            # registers the original, which monkeypatch puts back afterwards
            target = getattr(liemorph, module)
            monkeypatch.setattr(target, attr, getattr(target, attr))
        tracer = tracing.Tracer()
        tracing.instrument(tracer, liemorph, layers=False)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(small_raw(pipeline=pipeline)))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        recorded = {span["name"] for span in tracer.summary()["spans"]}
        expected = {name for _, _, name in tracing.STAGES}
        if pipeline != "morphed-enkf":
            expected.discard("assimilation.morph_ensemble")
        if pipeline == "nudging-run":
            expected -= {"assimilation.generate_ensemble", "assimilation.enkf_analysis"}
        assert recorded == expected

    def test_every_layer_name_resolves(self, tracing):
        """--trace 1 wraps each LAYERS entry by name; a deleted name would
        break the traced run."""
        for module, attr, _ in tracing.LAYERS:
            assert hasattr(getattr(liemorph, module), attr), f"{module}.{attr}"
