"""Config-driven twin experiments and artifact emission.

A JSON config (versioned schema) selects one pipeline:

    plain-enkf          observe, spin up, one EnKF analysis
    morphed-enkf        per-member morph toward the observations, then EnKF
    naive-morphed-enkf  same, but every field transported as a 0-form
    morph-only          per-member morph, no analysis
    nudging-run         one member integrated with the displacement nudge

Outputs are raw float64 field dumps with JSON sidecars, CSV metrics, PGM
renders and a hashed manifest; identical configs and seeds reproduce the
manifest bit for bit.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field, replace as dc_replace

import numpy as np

from .assimilation import (
    _targets_from_obs,
    enkf_analysis,
    generate_ensemble,
    morph_ensemble,
    observe,
)
from .morph_engine import (
    MorphParams,
    MorphTrace,
    conserved_totals,
    field_mse,
    morph_velocity,
)
from .spectral_core import GridSpec, ScalarField
from .tsw_model import (
    InstabilityError,
    ModelParams,
    TSWState,
    VortexIC,
    ab3_step,
    double_vortex_ic,
    integrate,
    nudged_tendency,
    vorticity_of,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ExperimentReport",
    "FieldDump",
    "PRESETS",
    "load_config",
    "preset_config",
    "run_experiment",
    "emit_outputs",
    "main",
]

SCHEMA_VERSION = 1
PIPELINES = (
    "plain-enkf",
    "morphed-enkf",
    "naive-morphed-enkf",
    "morph-only",
    "nudging-run",
)
MAX_WORKERS_ENV = "LIEMORPH_MAX_WORKERS"
# AB3 is stable on the imaginary axis up to |lambda dt| ~ 0.72.
AB3_COURANT_MAX = 0.72


class ConfigError(ValueError):
    """Invalid experiment configuration; carries every detected problem."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


PRESETS = {
    "desk": {
        "schema_version": SCHEMA_VERSION,
        "name": "desk",
        "pipeline": "morphed-enkf",
        "grid": {"nx": 64, "ny": 64, "lx": 5000.0, "ly": 5000.0,
                 "coarse_nx": 16, "coarse_ny": 16},
        "model": {"f": 0.01, "kappa": 0.001, "h0": 1.0, "theta0": 98.0, "dt": 1.0},
        "ic": {"amplitude": 0.1, "radius": 400.0, "separation": 1250.0,
               "theta_amplitude": 0.05, "perturb_mean": 0.1, "perturb_std": 0.1},
        "horizons": {"truth_steps": 220, "spinup_steps": 200},
        "ensemble": {"size": 8, "seed": 1234, "obs_noise_seed": 5678},
        "morph": {"epsilon": 10.0, "n_steps": 500, "filter_a": 36.0,
                  "ab_order": 5, "early_stop_patience": None},
        "nudging": {"steps": 50, "strength": 1.0},
        "output_dir": "runs/desk",
        "workers": 1,
    },
    "paper": {
        "schema_version": SCHEMA_VERSION,
        "name": "paper",
        "pipeline": "morphed-enkf",
        "grid": {"nx": 256, "ny": 256, "lx": 5000.0, "ly": 5000.0,
                 "coarse_nx": 64, "coarse_ny": 64},
        "model": {"f": 0.01, "kappa": 0.001, "h0": 1.0, "theta0": 98.0, "dt": 0.25},
        "ic": {"amplitude": 0.1, "radius": 400.0, "separation": 1250.0,
               "theta_amplitude": 0.05, "perturb_mean": 0.1, "perturb_std": 0.1},
        "horizons": {"truth_time": 2750.0, "spinup_time": 2000.0},
        "ensemble": {"size": 20, "seed": 1234, "obs_noise_seed": 5678},
        "morph": {"epsilon": 0.000033, "n_steps": 10000, "filter_a": 36.0,
                  "ab_order": 5, "early_stop_patience": None},
        "nudging": {"steps": 200, "strength": 1.0},
        "output_dir": "runs/paper",
        "workers": 1,
    },
}

PRESET_NOTES = {
    "desk": "64x64 fine / 16x16 coarse, 8 members, 500 morph steps; the CI-gated scale",
    "paper": "256x256 fine / 64x64 coarse, 20 members, full-scale horizons; not CI-gated",
}


@dataclass
class ExperimentConfig:
    """Validated experiment configuration."""

    name: str
    pipeline: str
    grid: GridSpec
    coarse: GridSpec
    model: ModelParams
    ic: VortexIC
    perturb_mean: float
    perturb_std: float
    truth_steps: int
    spinup_steps: int
    ensemble_size: int
    seed: int
    obs_noise_seed: int
    morph: MorphParams
    nudging_steps: int
    nudging_strength: float
    r_scale: float
    output_dir: str
    workers: int
    raw: dict = field(repr=False, default_factory=dict)


def _steps_from_horizon(section, key, dt, errors):
    steps_key, time_key = f"{key}_steps", f"{key}_time"
    has_steps, has_time = steps_key in section, time_key in section
    if has_steps == has_time:
        errors.append(f"horizons: give exactly one of {steps_key} or {time_key}")
        return 0
    if has_steps:
        n = section[steps_key]
        if not isinstance(n, int) or n < 0:
            errors.append(f"horizons.{steps_key} must be a nonnegative integer")
            return 0
        return n
    t = section[time_key]
    if not isinstance(t, (int, float)) or t < 0:
        errors.append(f"horizons.{time_key} must be a nonnegative number")
        return 0
    return int(round(t / dt))


def _require(section, name, keys, errors):
    if not isinstance(section, dict):
        errors.append(f"{name} must be an object")
        return False
    missing = [k for k in keys if k not in section]
    if missing:
        errors.append(f"{name} missing keys: {', '.join(missing)}")
    return not missing


def validate_config(raw):
    """Build an ExperimentConfig, collecting every error before failing."""
    errors = []
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])
    if raw.get("schema_version") != SCHEMA_VERSION:
        errors.append(f"schema_version must be {SCHEMA_VERSION}")
    pipeline = raw.get("pipeline")
    if pipeline not in PIPELINES:
        errors.append(f"pipeline must be one of {', '.join(PIPELINES)}")

    grid = coarse = None
    g = raw.get("grid", {})
    if _require(g, "grid", ("nx", "ny", "lx", "ly", "coarse_nx", "coarse_ny"), errors):
        try:
            grid = GridSpec(g["nx"], g["ny"], g["lx"], g["ly"])
            coarse = GridSpec(g["coarse_nx"], g["coarse_ny"], g["lx"], g["ly"])
            if grid.nx % coarse.nx or grid.ny % coarse.ny:
                errors.append("grid: coarse resolutions must divide fine resolutions")
        except (ValueError, TypeError) as err:
            errors.append(f"grid: {err}")

    model = None
    m = raw.get("model", {})
    if _require(m, "model", ("f", "kappa", "h0", "theta0", "dt"), errors):
        try:
            model = ModelParams(**m)
        except (ValueError, TypeError) as err:
            errors.append(f"model: {err}")

    if grid is not None and model is not None:
        # fastest model mode: a gravity wave at the grid Nyquist wavenumber
        rate = np.sqrt(model.h0 * model.theta0) * np.pi / min(grid.dx, grid.dy)
        if rate * model.dt > AB3_COURANT_MAX:
            errors.append(
                f"model.dt: Courant number sqrt(h0*theta0)*k_max*dt = "
                f"{rate * model.dt:.3g} exceeds the AB3 bound {AB3_COURANT_MAX}; "
                f"the largest stable dt is {AB3_COURANT_MAX / rate:.4g}"
            )

    ic = None
    perturb_mean = perturb_std = 0.0
    i = raw.get("ic", {})
    if _require(i, "ic", ("amplitude", "radius", "separation", "theta_amplitude",
                          "perturb_mean", "perturb_std"), errors):
        try:
            ic = VortexIC(
                amplitude=i["amplitude"],
                radius=i["radius"],
                separation=i["separation"],
                theta_amplitude=i["theta_amplitude"],
            )
            perturb_mean = float(i["perturb_mean"])
            perturb_std = float(i["perturb_std"])
            if perturb_std < 0:
                errors.append("ic.perturb_std must be nonnegative")
        except (ValueError, TypeError) as err:
            errors.append(f"ic: {err}")

    truth_steps = spinup_steps = 0
    hz = raw.get("horizons", {})
    if not isinstance(hz, dict):
        errors.append("horizons must be an object")
    elif model is not None:
        truth_steps = _steps_from_horizon(hz, "truth", model.dt, errors)
        spinup_steps = _steps_from_horizon(hz, "spinup", model.dt, errors)

    ensemble_size = seed = obs_noise_seed = 0
    e = raw.get("ensemble", {})
    if _require(e, "ensemble", ("size", "seed", "obs_noise_seed"), errors):
        ensemble_size = e["size"]
        seed, obs_noise_seed = e["seed"], e["obs_noise_seed"]
        if not isinstance(ensemble_size, int) or ensemble_size < 2:
            errors.append("ensemble.size must be an integer >= 2")
        for key in ("seed", "obs_noise_seed"):
            if not isinstance(e[key], int):
                errors.append(f"ensemble.{key} must be an integer")

    morph = None
    mo = raw.get("morph", {})
    if _require(mo, "morph", ("epsilon", "n_steps", "filter_a", "ab_order"), errors):
        try:
            morph = MorphParams(
                epsilon=mo["epsilon"],
                n_steps=mo["n_steps"],
                filter_a=mo["filter_a"],
                ab_order=mo["ab_order"],
                early_stop_patience=mo.get("early_stop_patience"),
            )
        except (ValueError, TypeError) as err:
            errors.append(f"morph: {err}")

    nudging_steps, nudging_strength = 0, 1.0
    nu = raw.get("nudging", {"steps": 0, "strength": 1.0})
    if not isinstance(nu, dict):
        errors.append("nudging must be an object")
    else:
        nudging_steps = nu.get("steps", 0)
        nudging_strength = nu.get("strength", 1.0)
        if not isinstance(nudging_steps, int) or nudging_steps < 0:
            errors.append("nudging.steps must be a nonnegative integer")
        if not isinstance(nudging_strength, (int, float)):
            errors.append("nudging.strength must be a number")

    r_scale = 1.0
    ob = raw.get("observation", {})
    if not isinstance(ob, dict):
        errors.append("observation must be an object")
    else:
        r_scale = ob.get("r_scale", 1.0)
        if not isinstance(r_scale, (int, float)) or r_scale <= 0:
            errors.append("observation.r_scale must be a positive number")

    output_dir = raw.get("output_dir")
    if not isinstance(output_dir, str) or not output_dir:
        errors.append("output_dir must be a nonempty string")
    workers = raw.get("workers", 1)
    if not isinstance(workers, int) or workers < 1:
        errors.append("workers must be a positive integer")

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        name=raw.get("name", "experiment"),
        pipeline=pipeline,
        grid=grid,
        coarse=coarse,
        model=model,
        ic=ic,
        perturb_mean=perturb_mean,
        perturb_std=perturb_std,
        truth_steps=truth_steps,
        spinup_steps=spinup_steps,
        ensemble_size=ensemble_size,
        seed=seed,
        obs_noise_seed=obs_noise_seed,
        morph=morph,
        nudging_steps=nudging_steps,
        nudging_strength=nudging_strength,
        r_scale=float(r_scale),
        output_dir=output_dir,
        workers=workers,
        raw=raw,
    )


def preset_config(name):
    if name not in PRESETS:
        raise ConfigError([f"unknown preset {name!r}; available: {', '.join(PRESETS)}"])
    return json.loads(json.dumps(PRESETS[name]))


def load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError([f"cannot read config: {err}"]) from err
    except json.JSONDecodeError as err:
        raise ConfigError([f"config is not valid JSON: {err}"]) from err
    return raw


@dataclass
class FieldDump:
    name: str
    stage: str
    member: int | None
    field: ScalarField


@dataclass
class ExperimentReport:
    """Everything run_experiment produced, ready for emit_outputs."""

    config: dict = field(default_factory=dict)
    metrics_rows: list = field(default_factory=list)
    fields: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    totals_rows: list = field(default_factory=list)
    runtime_seconds: float = 0.0

    def metric(self, stage, variable, kind):
        for s, v, k, val in self.metrics_rows:
            if (s, v, k) == (stage, variable, kind):
                return val
        raise KeyError((stage, variable, kind))


def _state_dumps(state, stage, member=None):
    named = [("h", state.h), ("theta", state.theta), ("v1", state.v1),
             ("v2", state.v2), ("omega", vorticity_of(state))]
    return [FieldDump(name, stage, member, fld) for name, fld in named]


def _ensemble_mean(members):
    grid = members[0].grid
    out = []
    for k in range(4):
        acc = np.zeros(grid.shape)
        for m in members:
            acc += m.fields()[k].values
        out.append(ScalarField(grid, acc / len(members)))
    # every member has h, Theta > 0, so their mean passes TSWState's checks
    return TSWState(*out, time=members[0].time)


def _mse_rows(stage, members, truth, rows):
    """MSE of the ensemble-mean field and member-mean MSE, per variable."""
    truth_named = [("h", truth.h), ("theta", truth.theta), ("v1", truth.v1),
                   ("v2", truth.v2), ("omega", vorticity_of(truth))]
    mean_state = _ensemble_mean(members)
    for idx, (name, tf) in enumerate(truth_named):
        member_fields = [
            m.fields()[idx] if idx < 4 else vorticity_of(m) for m in members
        ]
        per_member = [field_mse(f, tf) for f in member_fields]
        rows.append((stage, name, "member_mean_mse", float(np.mean(per_member))))
        mean_field = mean_state.fields()[idx] if idx < 4 else vorticity_of(mean_state)
        rows.append((stage, name, "mean_field_mse", field_mse(mean_field, tf)))
    v_mm = 0.5 * (rows_val(rows, stage, "v1", "member_mean_mse")
                  + rows_val(rows, stage, "v2", "member_mean_mse"))
    rows.append((stage, "v", "member_mean_mse", v_mm))
    v_mf = 0.5 * (rows_val(rows, stage, "v1", "mean_field_mse")
                  + rows_val(rows, stage, "v2", "mean_field_mse"))
    rows.append((stage, "v", "mean_field_mse", v_mf))


def rows_val(rows, stage, variable, kind):
    for s, v, k, val in rows:
        if (s, v, k) == (stage, variable, kind):
            return val
    raise KeyError((stage, variable, kind))


def _totals_rows(stage, members, rows):
    for i, m in enumerate(members):
        t = conserved_totals(m)
        rows.append((stage, i, t["mass"], t["vorticity"], t["buoyancy_integral"]))


def run_experiment(config):
    """Truth run, observation, spin-up and the configured pipeline."""
    t_start = time.perf_counter()
    report = ExperimentReport(config=config.raw)

    truth_ic = VortexIC(
        ox=0.0, oy=0.0, amplitude=config.ic.amplitude, radius=config.ic.radius,
        separation=config.ic.separation, theta_amplitude=config.ic.theta_amplitude,
    )
    try:
        truth = integrate(
            double_vortex_ic(truth_ic, config.grid, config.model),
            config.truth_steps, config.model,
        )
    except InstabilityError as err:
        raise InstabilityError(f"truth run: {err}") from err
    report.fields += _state_dumps(truth, "truth")

    obs = observe(truth, config.coarse)
    if config.r_scale != 1.0:
        obs = dc_replace(obs, r_h=obs.r_h * config.r_scale,
                         r_omega=obs.r_omega * config.r_scale)
    report.fields.append(FieldDump("h_obs", "obs", None, obs.h_obs))
    report.fields.append(FieldDump("omega_obs", "obs", None, obs.omega_obs))
    report.metrics_rows.append(("obs", "h", "r", obs.r_h))
    report.metrics_rows.append(("obs", "omega", "r", obs.r_omega))

    if config.pipeline == "nudging-run":
        _run_nudging(config, truth, obs, report)
        report.runtime_seconds = time.perf_counter() - t_start
        return report

    ensemble = generate_ensemble(
        config.ic, config.grid, config.ensemble_size, config.seed,
        config.spinup_steps, config.model,
        perturb_mean=config.perturb_mean, perturb_std=config.perturb_std,
    )
    _stage_outputs("prior", ensemble.members, truth, report)

    traces = []
    if config.pipeline == "plain-enkf":
        analysis = enkf_analysis(ensemble, obs, config.obs_noise_seed)
    else:
        morphed, traces = morph_ensemble(
            ensemble, obs, config.morph,
            naive=(config.pipeline == "naive-morphed-enkf"),
            workers=config.workers,
        )
        if config.pipeline == "morph-only":
            analysis = morphed
        else:
            _stage_outputs("morphed", morphed.members, truth, report)
            analysis = enkf_analysis(morphed, obs, config.obs_noise_seed)

    report.traces = list(enumerate(traces))
    _stage_outputs("posterior", analysis.members, truth, report)
    report.runtime_seconds = time.perf_counter() - t_start
    return report


def _stage_outputs(stage, members, truth, report):
    for i, m in enumerate(members):
        report.fields += _state_dumps(m, stage, member=i)
    report.fields += _state_dumps(_ensemble_mean(members), stage + "_mean")
    _mse_rows(stage, members, truth, report.metrics_rows)
    _totals_rows(stage, members, report.totals_rows)


def _run_nudging(config, truth, obs, report):
    rng = np.random.default_rng(config.seed)
    from .assimilation import draw_center_offsets

    ox, oy = draw_center_offsets(rng, 1, config.perturb_mean, config.perturb_std)[0]
    ic = VortexIC(
        ox=float(ox), oy=float(oy), amplitude=config.ic.amplitude,
        radius=config.ic.radius, separation=config.ic.separation,
        theta_amplitude=config.ic.theta_amplitude,
    )
    state = integrate(
        double_vortex_ic(ic, config.grid, config.model),
        config.spinup_steps, config.model,
    )
    targets = _targets_from_obs(obs, config.grid)
    trace = MorphTrace()
    trace.record(
        0,
        field_mse(state.h, targets[0].target.components[0]),
        field_mse(vorticity_of(state), targets[1].target.components[0]),
        conserved_totals(state),
    )
    history = []
    for k in range(config.nudging_steps):
        u = morph_velocity(state, targets) * config.nudging_strength
        state = ab3_step(
            state, history, config.model,
            tendency_fn=lambda s, p: nudged_tendency(s, p, u), step=k,
        )
        trace.record(
            k + 1,
            field_mse(state.h, targets[0].target.components[0]),
            field_mse(vorticity_of(state), targets[1].target.components[0]),
            conserved_totals(state),
        )
    report.traces = [(0, trace)]
    report.fields += _state_dumps(state, "nudged", member=0)
    _mse_rows("nudged", [state], truth, report.metrics_rows)
    _totals_rows("nudged", [state], report.totals_rows)


def _write_pgm(path, values):
    lo, hi = float(values.min()), float(values.max())
    img = values.T  # image x across, y down
    if hi > lo:
        data = np.round((img - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        data = np.zeros(img.shape, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n# min={lo!r} max={hi!r}\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(data.tobytes(order="C"))


def emit_outputs(report, out_dir):
    """Write field dumps, sidecars, CSVs, PGMs and the hashed manifest.

    Returns the list of relative paths written (manifest last).  Volatile
    values (wall-clock runtime) are deliberately excluded so reruns with
    identical seeds produce identical manifests.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def emit(relpath, data):
        path = os.path.join(out_dir, relpath)
        os.makedirs(os.path.dirname(path) or out_dir, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(data)
        written.append(relpath)

    for dump in report.fields:
        g = dump.field.grid
        tag = f"_m{dump.member:02d}" if dump.member is not None else ""
        base = f"fields/{dump.stage}_{dump.name}{tag}"
        emit(base + ".f64", dump.field.values.astype("<f8").tobytes(order="C"))
        sidecar = {
            "name": dump.name, "nx": g.nx, "ny": g.ny, "lx": g.lx, "ly": g.ly,
            "stage": dump.stage, "member": dump.member,
        }
        emit(base + ".json", json.dumps(sidecar, sort_keys=True, indent=2).encode())
        pgm_path = os.path.join(out_dir, base + ".pgm")
        _write_pgm(pgm_path, dump.field.values)
        written.append(base + ".pgm")

    if report.metrics_rows:
        lines = ["stage,variable,kind,value"]
        for s, v, k, val in report.metrics_rows:
            lines.append(f"{s},{v},{k},{val!r}")
        emit("metrics.csv", ("\n".join(lines) + "\n").encode())

    if report.totals_rows:
        lines = ["stage,member,mass,vorticity_total,buoyancy_integral"]
        for s, m, mass, vort, buoy in report.totals_rows:
            lines.append(f"{s},{m},{mass!r},{vort!r},{buoy!r}")
        emit("conserved_totals.csv", ("\n".join(lines) + "\n").encode())

    for member, trace in report.traces:
        rel = f"traces/morph_m{member:02d}.csv"
        path = os.path.join(out_dir, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        trace.to_csv(path)
        written.append(rel)

    if report.config:
        emit("config.json", json.dumps(report.config, sort_keys=True, indent=2).encode())

    entries = []
    for rel in sorted(written):
        path = os.path.join(out_dir, rel)
        with open(path, "rb") as fh:
            blob = fh.read()
        entries.append({
            "path": rel, "bytes": len(blob),
            "sha256": hashlib.sha256(blob).hexdigest(),
        })
    manifest = {"schema_version": SCHEMA_VERSION, "files": entries}
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
    return written + ["manifest.json"]


def _apply_overrides(raw, args):
    if args.seed is not None and isinstance(raw, dict):
        raw.setdefault("ensemble", {})
        raw["ensemble"]["seed"] = args.seed
        raw["ensemble"]["obs_noise_seed"] = args.seed + 1
    if args.workers is not None and isinstance(raw, dict):
        raw["workers"] = args.workers
    if args.out is not None and isinstance(raw, dict):
        raw["output_dir"] = args.out
    return raw


def _effective_workers(requested):
    cap = os.environ.get(MAX_WORKERS_ENV)
    if cap is None:
        return requested
    try:
        cap = int(cap)
    except ValueError:
        raise ConfigError([f"{MAX_WORKERS_ENV} must be an integer, got {cap!r}"])
    return max(1, min(requested, cap))


def _cmd_run(args):
    raw = load_config(args.config) if not args.preset else preset_config(args.config)
    raw = _apply_overrides(raw, args)
    config = validate_config(raw)
    config.workers = _effective_workers(config.workers)
    report = run_experiment(config)
    files = emit_outputs(report, config.output_dir)
    print(f"pipeline {config.pipeline} finished in {report.runtime_seconds:.1f} s")
    for stage in ("prior", "posterior", "nudged"):
        try:
            val = report.metric(stage, "theta", "mean_field_mse")
        except KeyError:
            continue
        print(f"  {stage} theta mean-field MSE: {val:.6e}")
    print(f"wrote {len(files)} files to {config.output_dir}")
    return 0


def _cmd_validate(args):
    raw = load_config(args.config)
    validate_config(raw)
    print(f"{args.config}: OK")
    return 0


def _cmd_presets(args):
    if args.name is None:
        for name in PRESETS:
            print(f"{name}: {PRESET_NOTES[name]}")
        return 0
    print(json.dumps(preset_config(args.name), sort_keys=True, indent=2))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="liemorph",
        description="Morphed-EnKF twin experiments on the thermal shallow water equations",
        epilog=f"Set {MAX_WORKERS_ENV} to cap the worker count regardless of --workers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config", help="path to config.json (or preset name with --preset)")
    p_run.add_argument("--preset", action="store_true",
                       help="treat the positional argument as a preset name")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override ensemble.seed (obs noise seed becomes seed+1)")
    p_run.add_argument("--workers", type=int, default=None, help="override worker count")
    p_run.add_argument("--out", default=None, help="override output_dir")
    p_run.set_defaults(fn=_cmd_run)

    p_val = sub.add_parser("validate", help="validate a JSON config and exit")
    p_val.add_argument("config")
    p_val.set_defaults(fn=_cmd_validate)

    p_pre = sub.add_parser("presets", help="list presets or print one as JSON")
    p_pre.add_argument("name", nargs="?", default=None)
    p_pre.set_defaults(fn=_cmd_presets)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as err:
        for e in err.errors:
            print(f"config error: {e}", file=sys.stderr)
        return 2
    except InstabilityError as err:
        print(f"numerical instability: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
