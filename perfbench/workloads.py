"""Benchmark workloads: a built-in liemorph preset plus a few overrides.

Every setting a workload does not override comes from the preset, so a
later change to a preset carries into the workload.  The seed is not part
of the workload: it reaches the program through the CLI's `--seed`, which
sets the ensemble seed to s and the observation-noise seed to s + 1.
"""

WORKLOADS = {
    # The desk preset as shipped: 64x64 / 16x16, 8 members, 500 morph steps,
    # workers 1.  The morph loop is most of the run and per-call overhead
    # is about half of a morph step.
    "desk-morphed": {"preset": "desk", "overrides": {}},
    # The paper preset's 256x256 / 64x64 grids, dt, morph settings and
    # filter, with sizes cut so one run fits in about a minute: FFT-bound
    # model and morph steps, two members morphing in parallel, and the
    # dense 8192 x 8192 observation-space EnKF.
    "paper-shape": {
        "preset": "paper",
        "overrides": {
            "ensemble": {"size": 2},
            "horizons": {"truth_time": 20.0, "spinup_time": 20.0},
            "morph": {"n_steps": 60},
            "workers": 2,
        },
    },
    # The desk preset with the plain filter: never enters the morph path,
    # so truth run and spin-up (the model) dominate.
    "desk-plain": {"preset": "desk", "overrides": {"pipeline": "plain-enkf"}},
}


def _merge(base, overrides):
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _merge(base[key], value)
        else:
            base[key] = value
    return base


def workload_config(name, preset_config):
    """The raw JSON config of workload `name`.

    Args:
        preset_config: the program's preset lookup, name -> fresh dict.
    """
    spec = WORKLOADS[name]
    return _merge(preset_config(spec["preset"]), spec["overrides"])
