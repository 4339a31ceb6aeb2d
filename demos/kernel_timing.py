#!/usr/bin/env python3
"""Milliseconds per step of the two batch kernels, the morph and the model.

Times `morph_engine._run_morph_batch` and `tsw_model._integrate_batch` on
the desk ensemble's initial conditions: an 8-member batch on the desk
grid (64^2) and one member on a 256^2 grid of the same extents.  The
morph runs the desk morph settings toward h and omega targets of the
truth; the model runs the desk dt, scaled with the grid spacing.  The
four cases are timed in turn, repeat after repeat, so a change in the
machine's load reaches all of them alike; each row is the median [min,
max] over the repeats of the run's wall time divided by its steps.
--grid and --steps shrink the run.

    python3 demos/kernel_timing.py [--grid N M] [--steps S] [--repeats R]
"""

import argparse
import time
from dataclasses import replace

import numpy as np

from liemorph import DiffForm, GridSpec, ObservablePair, double_vortex_ic, vorticity_of
from liemorph.assimilation import _member_ics
from liemorph.cli_experiments import preset_config, validate_config
from liemorph.morph_engine import _run_morph_batch
from liemorph.tsw_model import _integrate_batch

DEFAULT_STEPS = {"morph": 150, "model": 150}
LARGE_STEPS = {"morph": 60, "model": 60}


def cases(desk, sizes, members, steps):
    """(kernel, grid, members, steps, run) for each timed case."""
    ics = _member_ics(desk.ic, desk.ensemble_size, desk.seed, desk.perturb_mean,
                      desk.perturb_std)
    out = []
    for n, ne, default in zip(sizes, members, (DEFAULT_STEPS, LARGE_STEPS)):
        grid = GridSpec(n, n, desk.grid.lx, desk.grid.ly)
        model = replace(desk.model, dt=desk.model.dt * grid.dx / desk.grid.dx)
        states = [double_vortex_ic(ic, grid, model) for ic in ics[:ne]]
        truth = double_vortex_ic(desk.ic, grid, model)
        targets = [
            ObservablePair("h", DiffForm.from_scalar(2, truth.h)),
            ObservablePair("omega", DiffForm.from_scalar(2, vorticity_of(truth))),
        ]
        n_morph = steps or default["morph"]
        n_model = steps or default["model"]
        mp = replace(desk.morph, n_steps=n_morph)
        out.append(("_run_morph_batch", grid, ne, n_morph,
                    lambda s=states, t=targets, p=mp: _run_morph_batch(s, t, p)))
        out.append(("_integrate_batch", grid, ne, n_model,
                    lambda s=states, n=n_model, m=model: _integrate_batch(s, n, m)))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grid", type=int, nargs=2, default=(64, 256), metavar=("N", "M"),
                    help="grid points per side of the 8-member batch and of the single member")
    ap.add_argument("--steps", type=int, default=None,
                    help="steps per run (default: 150 at N, 60 at M)")
    ap.add_argument("--repeats", type=int, default=5, help="timed runs per case")
    args = ap.parse_args(argv)
    if min(args.grid) < 4 or args.repeats < 1 or (args.steps is not None and args.steps < 1):
        ap.error("grids need >= 4 points, and steps and repeats must be positive")

    desk = validate_config(preset_config("desk"))
    timed = cases(desk, args.grid, (8, 1), args.steps)
    for _, _, _, _, run in timed:
        run()  # warm-up: caches, allocator, FFT plans
    ms = [[] for _ in timed]
    for _ in range(args.repeats):
        for i, (_, _, _, steps, run) in enumerate(timed):
            t0 = time.perf_counter()
            run()
            ms[i].append(1e3 * (time.perf_counter() - t0) / steps)
    print(f"{'kernel':<17} {'grid':>7} {'members':>7} {'steps':>5}  ms/step median [min, max]")
    for (kernel, grid, ne, steps, _), row in zip(timed, ms):
        print(f"{kernel:<17} {f'{grid.nx}^2':>7} {ne:>7} {steps:>5}  "
              f"{np.median(row):.3f} [{min(row):.3f}, {max(row):.3f}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
