"""Config-driven twin experiments and artifact emission.

A JSON config (versioned schema) selects one pipeline:

    plain-enkf          observe, spin up, one EnKF analysis
    morphed-enkf        per-member morph toward the observations, then EnKF
    naive-morphed-enkf  same, but every field transported as a 0-form
    nudging-run         one member integrated with the displacement nudge

`validate_config` reads the config by one table of keys and kinds,
`SCHEMA`; the parameter classes it builds check their own ranges.

Outputs are raw float64 field dumps with JSON sidecars, CSV metrics, PGM
renders and a hashed manifest; identical configs and seeds reproduce the
manifest bit for bit.  A run is written beside its output directory and
renamed into place, replacing only an empty directory or an earlier run.
"""

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, replace as dc_replace

import numpy as np

from .assimilation import (
    CENTER_OFFSET,
    _member_ics,
    _spin_up,
    _targets_from_obs,
    enkf_analysis,
    generate_ensemble,
    morph_ensemble,
    observe,
)
from .morph_engine import _TOTALS, MorphParams, _mse, _totals, nudge
from .spectral_core import GridSpec, ScalarField, _check_coarse, _is_int, _is_real
from .tsw_model import (
    _MODEL_AB_ORDER,
    _MODEL_COURANT_MAX,
    _MODEL_DECAY_MAX,
    InstabilityError,
    ModelParams,
    VortexIC,
    _propagator,
    _state,
    _vortex_centres,
    double_vortex_ic,
    integrate,
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
    "nudging-run",
)
# A horizon time is a whole number of steps up to this relative error.
STEP_RTOL = 1e-9
# Ceilings on the counts a run loops over or allocates, far above the
# paper preset's (1375 truth steps, 10000 morph steps, 20 members, a 256
# x 256 grid): a value beyond them would run for days or exhaust memory.
MAX_STEPS = 10**6
MAX_MEMBERS = 1000
MAX_GRID = 4096


class ConfigError(ValueError):
    """Invalid experiment configuration; carries every detected problem."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _with(base, **changes):
    """A copy of the preset `base` with `changes`; a section's changes
    replace only the keys they name."""
    return {key: {**value, **changes.get(key, {})} if isinstance(value, dict)
            else changes.get(key, value) for key, value in base.items()}


# The two presets run the reference model, vortex and morph, the defaults
# of ModelParams, VortexIC (less the member offsets, drawn as CENTER_OFFSET)
# and MorphParams; each states only what it changes.
PRESETS = {"desk": {
    "schema_version": SCHEMA_VERSION,
    "name": "desk",
    "pipeline": "morphed-enkf",
    "grid": {"nx": 64, "ny": 64, "lx": 5000.0, "ly": 5000.0,
             "coarse_nx": 16, "coarse_ny": 16},
    "model": {**asdict(ModelParams()), "dt": 5.0},
    "ic": {**{k: v for k, v in asdict(VortexIC()).items() if k not in ("ox", "oy")},
           "perturb_mean": CENTER_OFFSET.mean, "perturb_std": CENTER_OFFSET.std},
    "horizons": {"truth_time": 220.0, "spinup_time": 200.0},
    "ensemble": {"size": 8, "seed": 1234, "obs_noise_seed": 5678},
    "morph": {**asdict(MorphParams()), "epsilon": 10.0, "n_steps": 500},
    "nudging": {"steps": 10, "strength": 1.0},
    "output_dir": "runs/desk",
    "workers": 2,
}}
# the full-scale run, with the reference morph's epsilon and steps
PRESETS["paper"] = _with(
    PRESETS["desk"], name="paper", output_dir="runs/paper",
    grid={"nx": 256, "ny": 256, "coarse_nx": 64, "coarse_ny": 64},
    model={"dt": 2.0}, horizons={"truth_time": 2750.0, "spinup_time": 2000.0},
    ensemble={"size": 20}, nudging={"steps": 25},
    morph={"epsilon": MorphParams.epsilon, "n_steps": MorphParams.n_steps})


# A kind is (what a value must be, its test); the tests keep out JSON's
# true and false.  Ranges are checked by the classes built from a
# section, and the other ranges here; CEILINGS caps the counts.
INT = ("an integer", _is_int)
NUM = ("a finite number", _is_real)
COUNT = ("a nonnegative integer", lambda v: _is_int(v) and v >= 0)
SPAN = ("a nonnegative number", lambda v: _is_real(v) and v >= 0)
OBJECT = ("an object", lambda v: isinstance(v, dict))
SECTIONS = ("grid", "model", "ic", "horizons", "ensemble", "morph", "nudging", "observation")
# The keys of the config ("") and of each section with their kinds, and
# after the kind the default of a key that may be left out.
SCHEMA = {
    "": {
        "schema_version": (f"{SCHEMA_VERSION}", lambda v: _is_int(v) and v == SCHEMA_VERSION),
        "name": ("a string", lambda v: isinstance(v, str), "experiment"),
        "pipeline": (f"one of {', '.join(PIPELINES)}", lambda v: v in PIPELINES),
        **dict.fromkeys(SECTIONS, OBJECT), "nudging": (*OBJECT, {}), "observation": (*OBJECT, {}),
        "output_dir": ("a nonempty string", lambda v: isinstance(v, str) and v != ""),
        "workers": ("a positive integer", lambda v: _is_int(v) and v >= 1, 1),
    },
    "grid": {"nx": INT, "ny": INT, "lx": NUM, "ly": NUM, "coarse_nx": INT, "coarse_ny": INT},
    # a negative kappa drives Theta away from Theta0 until it turns negative
    "model": {"f": NUM, "kappa": SPAN, "h0": NUM, "theta0": NUM, "dt": NUM},
    # a nonnegative amplitude keeps h and Theta of the vortex IC positive
    "ic": {"amplitude": SPAN, "radius": NUM, "separation": NUM, "theta_amplitude": SPAN,
           "perturb_mean": NUM, "perturb_std": SPAN},
    "horizons": {"truth_time": SPAN, "spinup_time": SPAN},
    # numpy's default_rng takes only nonnegative seeds
    "ensemble": {"size": ("an integer >= 2", lambda v: _is_int(v) and v >= 2),
                 "seed": COUNT, "obs_noise_seed": COUNT},
    "morph": {"epsilon": NUM, "n_steps": INT, "filter_a": NUM, "ab_order": INT,
              "early_stop_patience": ("an integer or null",
                                      lambda v: v is None or _is_int(v), None)},
    # a negative strength pushes the member away from the observations
    "nudging": {"steps": (*COUNT, 0), "strength": (*SPAN, 1.0)},
    "observation": {"r_scale": ("a positive number", lambda v: _is_real(v) and v > 0, 1.0)},
}
# The largest value of each count that has its kind in SCHEMA; no run has
# more batches, so more threads, than members.
CEILINGS = {
    **dict.fromkeys(("morph.n_steps", "nudging.steps"), MAX_STEPS),
    **dict.fromkeys(("grid.nx", "grid.ny", "grid.coarse_nx", "grid.coarse_ny"), MAX_GRID),
    "ensemble.size": MAX_MEMBERS,
    "workers": MAX_MEMBERS,
}


def _unstable(key, number, value, bound, rate):
    # "<key>: <number> = <value> exceeds the AB<order> bound <bound>", then
    # "; the largest stable <name> is <bound / rate>" rounded down to 4
    # significant digits, a limit that passes, unless that is not finite
    # (an infinite rate floors 0 to nan)
    with np.errstate(all="ignore"):
        scale = 10.0 ** (np.floor(np.log10(bound / rate)) - 3)
        limit = np.floor(bound / rate / scale) * scale
    largest = f"; the largest stable {key.split('.')[-1]} is {limit:.4g}" if _is_real(limit) else ""
    return f"{key}: {number} = {value:.3g} exceeds the AB{_MODEL_AB_ORDER} bound {bound}{largest}"


def _read(section, name, errors):
    """The keys of one config section that have their SCHEMA kind, with
    defaults for those left out; a bad or missing key adds an error."""
    prefix = f"{name}." if name else ""
    errors += [f"unknown key {prefix}{key}" for key in section if key not in SCHEMA[name]]
    values = {}
    for key, (what, ok, *default) in SCHEMA[name].items():
        if key not in section:
            if default:
                values[key] = default[0]
            else:
                errors.append(f"missing key {prefix}{key}")
        elif not ok(section[key]):
            errors.append(f"{prefix}{key} must be {what}")
        elif prefix + key in CEILINGS and section[key] > CEILINGS[prefix + key]:
            errors.append(f"{prefix}{key} must be at most {CEILINGS[prefix + key]}")
        else:
            values[key] = section[key]
    return values


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
    truth_steps: int  # horizons.truth_time / model.dt
    spinup_steps: int  # horizons.spinup_time / model.dt
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


def validate_config(raw):
    """Build an ExperimentConfig, collecting every error before failing."""
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])
    errors = []
    top = _read(raw, "", errors)
    # a section that is missing or not an object was reported by the top level
    g, m, i, hz, e, mo, nu, ob = (
        _read(top[name], name, errors) if name in top else {} for name in SECTIONS)

    def build(name, section, make):
        # the section's object, once each of its keys has its kind
        if section.keys() == SCHEMA[name].keys():
            try:
                return make(section)
            except ValueError as err:
                # each class's error begins with the argument it rejects,
                # which is the section's key
                errors.append(f"{name}.{err}")
        return None

    def grids(s):
        # the fine grid and its coarse grid, the same extents; the coarse
        # grid's errors name its counts nx and ny
        fine = GridSpec(s["nx"], s["ny"], s["lx"], s["ly"])
        try:
            coarse = GridSpec(s["coarse_nx"], s["coarse_ny"], s["lx"], s["ly"])
            _check_coarse(fine, coarse)
        except ValueError as err:
            raise ValueError(f"coarse_{err}") from None
        return fine, coarse

    grid, coarse = build("grid", g, grids) or (None, None)
    model = build("model", m, lambda s: ModelParams(**s))
    ic = build("ic", i, lambda s: VortexIC(**{k: v for k, v in s.items() if "perturb" not in k}))
    morph = build("morph", mo, lambda s: MorphParams(**s))

    if grid is not None and model is not None and ic is not None:
        # The step carries the gravity waves about the rest state exactly;
        # its remainder moves at most the peak flow speed plus the rise
        # of the gravity wave speed sqrt(h Theta) over the rest state's at
        # the vortex peak.  |grad(eta)| of a Gaussian bump peaks at
        # amplitude / (radius * sqrt(e)), and the geostrophic speed with it;
        # the sign of f only turns the flow around.  Python floats overflow
        # to inf and nan without a warning, and `not x <= bound` rejects both.
        vmax = model.theta0 / abs(model.f) * ic.amplitude / (ic.radius * math.sqrt(math.e))
        rest = math.sqrt(model.h0 * model.theta0)
        peak = math.sqrt((model.h0 + ic.amplitude) * model.theta0 * (1.0 + ic.theta_amplitude))
        rate = (vmax + peak - rest) * math.pi / min(grid.dx, grid.dy)
        if not rate * model.dt <= _MODEL_COURANT_MAX:
            errors.append(_unstable("model.dt", "remainder Courant number (max|v| + dc)*k_max*dt",
                                    rate * model.dt, _MODEL_COURANT_MAX, rate))
    if model is not None and ic is not None:
        # the Theta relaxation decays at rate kappa*h, and h peaks near
        # h0 + amplitude; kappa = 0 relaxes nothing however high h gets
        reach = (model.h0 + ic.amplitude) * model.dt
        relax = model.kappa * reach if model.kappa else 0.0
        if not relax <= _MODEL_DECAY_MAX:
            errors.append(_unstable("model.kappa", "relaxation number kappa*(h0 + ic.amplitude)*dt",
                                    relax, _MODEL_DECAY_MAX, reach))

    if grid is not None and ic is not None and {"size", "seed"} <= e.keys():
        # a vortex centre drawn at inf km would fill its member with nan,
        # and VortexIC rejects an offset drawn at inf
        try:
            ics = _member_ics(ic, e["size"], e["seed"], i["perturb_mean"], i["perturb_std"])
        except ValueError:
            ics = None
        if ics is None or not np.isfinite([_vortex_centres(m, grid) for m in ics]).all():
            errors.append("ic.perturb_mean, ic.perturb_std: a drawn centre offset times "
                          "ic.radius puts a vortex centre out of floating-point range")

    steps = {}
    for key in ("truth", "spinup"):
        t = hz.get(f"{key}_time")
        if model is None or t is None:
            continue
        r = t / model.dt
        if not r <= MAX_STEPS:
            errors.append(f"horizons.{key}_time: {key}_time / model.dt exceeds {MAX_STEPS} "
                          f"steps; give a shorter horizon or a larger dt")
        elif abs(r - round(r)) > STEP_RTOL * r:
            errors.append(f"horizons.{key}_time: {t} is not a whole number of model.dt = "
                          f"{model.dt} steps; the nearest valid times are "
                          f"{np.floor(r) * model.dt:.10g} and {np.ceil(r) * model.dt:.10g}")
        else:
            steps[key] = round(r)

    if ic is not None and ic.amplitude == 0:
        # The initial velocity balances the height anomaly, so none leaves
        # v = 0.  A Theta anomaly then drives a flow with vorticity; the
        # truth has none without one, or without steps.
        why = ("ic.theta_amplitude 0 leaves the truth at rest" if ic.theta_amplitude == 0 else
               "horizons.truth_time 0 makes the truth the initial state, whose velocity is 0"
               if steps.get("truth") == 0 else None)
        if why:
            errors.append(f"ic.amplitude: 0 with {why}, so its vorticity observations "
                          f"would be identically zero")

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        name=top["name"], pipeline=top["pipeline"], grid=grid, coarse=coarse, model=model,
        ic=ic, perturb_mean=i["perturb_mean"], perturb_std=i["perturb_std"],
        truth_steps=steps["truth"], spinup_steps=steps["spinup"], ensemble_size=e["size"],
        seed=e["seed"], obs_noise_seed=e["obs_noise_seed"], morph=morph,
        nudging_steps=nu["steps"], nudging_strength=nu["strength"],
        r_scale=float(ob["r_scale"]), output_dir=top["output_dir"], workers=top["workers"], raw=raw,
    )


def preset_config(name):
    if name not in PRESETS:
        raise ConfigError([f"unknown preset {name!r}; available: {', '.join(PRESETS)}"])
    return json.loads(json.dumps(PRESETS[name]))


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError([f"cannot read config: {err}"]) from err
    except UnicodeDecodeError as err:
        raise ConfigError([f"config is not UTF-8 text: {err}"]) from err
    except json.JSONDecodeError as err:
        raise ConfigError([f"config is not valid JSON: {err}"]) from err
    except RecursionError as err:
        raise ConfigError(["config nests too deeply to parse"]) from err
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


FIELD_NAMES = ("h", "theta", "v1", "v2", "omega")


def _with_vorticity(state):
    """The ScalarFields h, Theta, v1, v2 and the vorticity omega of a state."""
    return (*state.fields(), vorticity_of(state))


def _dumps(stage, member, fields):
    return [FieldDump(name, stage, member, f) for name, f in zip(FIELD_NAMES, fields)]


def run_experiment(config):
    """Truth run, observation, spin-up and the configured pipeline."""
    t_start = time.perf_counter()
    report = ExperimentReport(config=config.raw)

    try:
        truth = integrate(double_vortex_ic(config.ic, config.grid, config.model),
                          config.truth_steps, config.model)
    except InstabilityError as err:
        raise InstabilityError(f"truth run: {err}") from err
    truth_fields = _with_vorticity(truth)
    report.fields += _dumps("truth", None, truth_fields)

    obs = observe(truth, config.coarse)
    # the analysis needs positive variances; checked before the spin-up
    r, errors = {}, []
    for name, r0 in obs.r.items():
        r[name] = r0 * config.r_scale
        if 0.0 < r[name] < math.inf:
            continue
        if r0:
            errors.append(f"observation.r_scale: the {name} variance {r0!r} times r_scale "
                          f"{config.r_scale!r} is {r[name]!r}, not finite and > 0")
        else:
            errors.append(f"observations: the {name} observations' variance is 0 before "
                          f"observation.r_scale scales it (the truth's {name} is zero or too "
                          f"small to square), so no r_scale makes it positive")
    if errors:
        raise ConfigError(errors)
    obs = dc_replace(obs, r=r)
    report.fields += [FieldDump(f"{name}_obs", "obs", None, f) for name, f in obs.fields.items()]
    report.metrics_rows += [("obs", name, "r", r) for name, r in obs.r.items()]

    if config.pipeline == "nudging-run":
        _run_nudging(config, truth_fields, obs, report)
        report.runtime_seconds = time.perf_counter() - t_start
        return report

    ensemble = generate_ensemble(
        config.ic, config.grid, config.ensemble_size, config.seed,
        config.spinup_steps, config.model,
        perturb_mean=config.perturb_mean, perturb_std=config.perturb_std,
        workers=config.workers,
    )
    # The model stages end here: the truth run and the spin-up shared one
    # build of the wave propagator, which the morph and the analysis never
    # read.  Dropped any earlier, the spin-up would rebuild it.
    _propagator.cache_clear()
    _stage_outputs("prior", ensemble.members, truth_fields, report)

    if config.pipeline == "plain-enkf":
        analysis = enkf_analysis(ensemble, obs, config.obs_noise_seed)
    else:
        morphed, traces = morph_ensemble(
            ensemble, obs, config.morph,
            naive=(config.pipeline == "naive-morphed-enkf"),
            workers=config.workers,
        )
        report.traces = list(enumerate(traces))
        _stage_outputs("morphed", morphed.members, truth_fields, report)
        analysis = enkf_analysis(morphed, obs, config.obs_noise_seed)

    _stage_outputs("posterior", analysis.members, truth_fields, report)
    report.runtime_seconds = time.perf_counter() - t_start
    return report


def _stage_outputs(stage, members, truth, report):
    """Dumps, MSE rows and conserved totals of one stage's members, with
    dumps of an ensemble's mean state; truth is _with_vorticity(truth)."""
    fields = [_with_vorticity(m) for m in members]
    for i, member_fields in enumerate(fields):
        report.fields += _dumps(stage, i, member_fields)
    # (B, 5, nx, ny), freed on return: the dumps keep the members' own fields
    vals = np.array([[f.values for f in member_fields] for member_fields in fields])
    # every member has h, Theta > 0, so their mean passes TSWState's checks
    mean = _with_vorticity(_state(vals[:, :4].mean(axis=0), members[0].grid, members[0].time))
    if len(members) > 1:
        report.fields += _dumps(stage + "_mean", None, mean)
    truth_vals = np.array([f.values for f in truth])
    # each field's B member MSEs as one contiguous row, so their mean sums
    # in the same order as np.mean of a list
    member_mean = [float(row.mean()) for row in np.ascontiguousarray(_mse(vals, truth_vals).T)]
    mean_field = [float(x) for x in _mse(np.array([f.values for f in mean]), truth_vals)]
    for mses in (member_mean, mean_field):
        mses.append(0.5 * (mses[2] + mses[3]))  # v, from v1 and v2
    for name, mm, mf in zip(FIELD_NAMES + ("v",), member_mean, mean_field):
        report.metrics_rows += [(stage, name, "member_mean_mse", mm),
                                (stage, name, "mean_field_mse", mf)]
    totals = _totals(vals.swapaxes(0, 1), vals[:, 4], members[0].grid.area)
    report.totals_rows += [(stage, i, *map(float, t)) for i, t in enumerate(zip(*totals.values()))]


def _run_nudging(config, truth, obs, report):
    """Member 0 of the ensemble, spun up and nudged toward the observations."""
    ics = _member_ics(config.ic, 1, config.seed, config.perturb_mean, config.perturb_std)
    (state,) = _spin_up(ics, config.grid, config.spinup_steps, config.model, workers=1)
    try:
        state, trace = nudge(state, _targets_from_obs(obs, config.grid), config.model,
                             config.nudging_strength, config.nudging_steps)
    except InstabilityError as err:
        raise InstabilityError(f"nudge of member 0: {err}") from err
    report.traces = [(0, trace)]
    _stage_outputs("nudged", [state], truth, report)


def _pgm(values):
    """An 8-bit PGM quicklook of a field, its value range in a comment."""
    lo, hi = float(values.min()), float(values.max())
    img = values.T  # image x across, y down
    if hi > lo:
        data = np.round((img - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        data = np.zeros(img.shape, dtype=np.uint8)
    header = f"P5\n# min={lo!r} max={hi!r}\n{img.shape[1]} {img.shape[0]}\n255\n"
    return header.encode() + data.tobytes(order="C")


def _csv(header, rows):
    lines = [",".join(repr(x) if isinstance(x, float) else str(x) for x in row) for row in rows]
    return "\n".join([header, *lines, ""]).encode()


def _check_out_dir(out_dir):
    """Refuse an existing out_dir unless it is empty or its manifest.json
    lists it all, and an out_dir whose nearest existing ancestor is not a
    directory."""
    ancestor = os.path.dirname(os.path.abspath(out_dir))
    while not os.path.lexists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not os.path.isdir(ancestor):
        raise ConfigError([f"output_dir {out_dir} lies under {ancestor}, which is not a "
                           f"directory; choose another --out"])
    try:
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            listed = {"manifest.json", *(e["path"] for e in json.load(fh)["files"])}
    except (OSError, ValueError, KeyError, TypeError):
        listed = set()
    foreign = any(os.path.relpath(os.path.join(path, name), out_dir) not in listed
                  for path, _, names in os.walk(out_dir) for name in names)
    if foreign or os.path.lexists(out_dir) and not os.path.isdir(out_dir):
        raise ConfigError([f"output_dir {out_dir} exists and is neither an empty directory "
                           f"nor an earlier run; remove it or choose another --out"])


def emit_outputs(report, out_dir):
    """Write field dumps, sidecars, CSVs, PGMs and the hashed manifest.

    Returns the list of relative paths written (manifest last).  Volatile
    values (wall-clock runtime) are deliberately excluded so reruns with
    identical seeds produce identical manifests.  The files are written
    beside out_dir and renamed to it, replacing what _check_out_dir allows.
    """
    import tempfile

    _check_out_dir(out_dir)
    out_dir = os.path.abspath(out_dir)  # "." cannot be renamed, its absolute path can
    os.makedirs(os.path.dirname(out_dir), exist_ok=True)
    entries = []
    with tempfile.TemporaryDirectory(prefix=".liemorph-", dir=os.path.dirname(out_dir)) as work:
        staging = os.path.join(work, "run")

        def emit(rel, blob):
            path = os.path.join(staging, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as fh:
                fh.write(blob)
            entries.append({"path": rel, "bytes": len(blob),
                            "sha256": hashlib.sha256(blob).hexdigest()})

        for dump in report.fields:
            g = dump.field.grid
            tag = f"_m{dump.member:02d}" if dump.member is not None else ""
            base = f"fields/{dump.stage}_{dump.name}{tag}"
            emit(base + ".f64", dump.field.values.astype("<f8").tobytes(order="C"))
            sidecar = {"name": dump.name, "nx": g.nx, "ny": g.ny, "lx": g.lx, "ly": g.ly,
                       "stage": dump.stage, "member": dump.member}
            emit(base + ".json", json.dumps(sidecar, sort_keys=True, indent=2).encode())
            emit(base + ".pgm", _pgm(dump.field.values))
        if report.metrics_rows:
            emit("metrics.csv", _csv("stage,variable,kind,value", report.metrics_rows))
        if report.totals_rows:
            emit("conserved_totals.csv",
                 _csv(",".join(("stage", "member", *_TOTALS)), report.totals_rows))
        for member, trace in report.traces:
            emit(f"traces/morph_m{member:02d}.csv", trace.csv_bytes())
        if report.config:
            emit("config.json", json.dumps(report.config, sort_keys=True, indent=2).encode())
        manifest = {"schema_version": SCHEMA_VERSION,
                    "files": sorted(entries, key=lambda entry: entry["path"])}
        emit("manifest.json", json.dumps(manifest, sort_keys=True, indent=2).encode())
        if os.path.lexists(out_dir):
            os.rename(out_dir, os.path.join(work, "old"))
        os.rename(staging, out_dir)
    return [entry["path"] for entry in entries]


def _apply_overrides(raw, args):
    # a section that is not an object is left for validate_config to report
    if args.seed is not None and isinstance(raw, dict) and isinstance(
            raw.setdefault("ensemble", {}), dict):
        raw["ensemble"]["seed"] = args.seed
        raw["ensemble"]["obs_noise_seed"] = args.seed + 1
    if args.workers is not None and isinstance(raw, dict):
        raw["workers"] = args.workers
    if args.out is not None and isinstance(raw, dict):
        raw["output_dir"] = args.out
    return raw


def _cmd_run(args):
    raw = load_config(args.config) if not args.preset else preset_config(args.config)
    raw = _apply_overrides(raw, args)
    config = validate_config(raw)
    _check_out_dir(config.output_dir)
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
        for name, preset in PRESETS.items():
            g = preset["grid"]
            print(f"{name}: {g['nx']}x{g['ny']} fine / {g['coarse_nx']}x{g['coarse_ny']} "
                  f"coarse, {preset['ensemble']['size']} members, "
                  f"{preset['morph']['n_steps']} morph steps, {preset['workers']} workers")
        return 0
    print(json.dumps(preset_config(args.name), sort_keys=True, indent=2))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="liemorph",
        description="Morphed-EnKF twin experiments on the thermal shallow water equations",
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
