#!/usr/bin/env python3
"""Milliseconds per step of the two batch kernels, the morph and the model.

Times `morph_engine._run_morph_batch` and `tsw_model._integrate_batch` on
the desk ensemble's initial conditions: an 8-member batch on the desk
grid (64^2) and one member on a 256^2 grid of the same extents.  The
morph runs the desk morph settings toward h and omega targets of the
truth; the model runs the desk dt, scaled with the grid spacing.  Each
grid size is timed in a fresh process of its own, so the allocator state
and FFT plans one size leaves behind never reach the other's timings.
Within it the two kernels are timed in turn, repeat after repeat, so a
change in the machine's load reaches both alike; each row is the median
[min, max] over the repeats of the run's wall time divided by its steps.
The `cold` column is each case's first run, which fills the caches, the
allocator's free lists and the FFT plans: a fresh process, as each
benchmark run is, pays it once.  --grid and --steps shrink the run.

    python3 demos/kernel_timing.py [--grid N M] [--steps S] [--repeats R]
"""

import argparse
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from liemorph import DiffForm, GridSpec, ObservablePair, double_vortex_ic, vorticity_of
from liemorph.assimilation import _member_ics
from liemorph.cli_experiments import preset_config, validate_config
from liemorph.morph_engine import _run_morph_batch
from liemorph.tsw_model import _integrate_batch

# members and default steps per run of the two grid sizes
MEMBERS = (8, 1)
DEFAULT_STEPS = (150, 60)


def time_grid(n, members, steps, repeats):
    """(kernel, n, members, steps, cold ms, [ms per repeat]) of both
    kernels on an n^2 grid, in ms per step."""
    desk = validate_config(preset_config("desk"))
    grid = GridSpec(n, n, desk.grid.lx, desk.grid.ly)
    model = replace(desk.model, dt=desk.model.dt * grid.dx / desk.grid.dx)
    ics = _member_ics(desk.ic, desk.ensemble_size, desk.seed, desk.perturb_mean,
                      desk.perturb_std)
    states = [double_vortex_ic(ic, grid, model) for ic in ics[:members]]
    truth = double_vortex_ic(desk.ic, grid, model)
    targets = [
        ObservablePair("h", DiffForm.from_scalar(2, truth.h)),
        ObservablePair("omega", DiffForm.from_scalar(2, vorticity_of(truth))),
    ]
    morph = replace(desk.morph, n_steps=steps)
    timed = [("_run_morph_batch", lambda: _run_morph_batch(states, targets, morph)),
             ("_integrate_batch", lambda: _integrate_batch(states, steps, model))]

    def ms_per_step(run):
        t0 = time.perf_counter()
        run()
        return 1e3 * (time.perf_counter() - t0) / steps

    cold = [ms_per_step(run) for _, run in timed]
    ms = [[] for _ in timed]
    for _ in range(repeats):
        for row, (_, run) in zip(ms, timed):
            row.append(ms_per_step(run))
    return [(kernel, n, members, steps, first, row)
            for (kernel, _), first, row in zip(timed, cold, ms)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grid", type=int, nargs=2, default=(64, 256), metavar=("N", "M"),
                    help="grid points per side of the 8-member batch and of the single member")
    ap.add_argument("--steps", type=int, default=None,
                    help="steps per run (default: 150 at N, 60 at M)")
    ap.add_argument("--repeats", type=int, default=5, help="timed runs per case")
    args = ap.parse_args(argv)
    if min(args.grid) < 4 or any(n % 2 for n in args.grid):
        ap.error("grids need an even number of points, at least 4")
    if args.repeats < 1 or (args.steps is not None and args.steps < 1):
        ap.error("steps and repeats must be positive")

    rows = []
    for n, members, steps in zip(args.grid, MEMBERS, DEFAULT_STEPS):
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
            rows += pool.submit(time_grid, n, members, args.steps or steps, args.repeats).result()
    print(f"{'kernel':<17} {'grid':>7} {'members':>7} {'steps':>5} {'cold':>8}  "
          f"ms/step median [min, max]")
    for kernel, n, members, steps, first, row in rows:
        print(f"{kernel:<17} {f'{n}^2':>7} {members:>7} {steps:>5} {first:>8.3f}  "
              f"{np.median(row):.3f} [{min(row):.3f}, {max(row):.3f}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
