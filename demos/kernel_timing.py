#!/usr/bin/env python3
"""Milliseconds per step of the two batch kernels, the morph and the model.

Times `morph_engine._run_morph_batch` and `tsw_model._integrate_batch` on
the desk ensemble's initial conditions: an 8-member batch on the desk
grid (64^2) and one member on a 256^2 grid of the same extents.  The 8
members are also timed at 2 workers through `assimilation._run_batches`,
as the desk preset runs them: two batches of 4, one on the calling
thread and one on a pool thread.  The morph runs the desk morph settings
toward h and omega targets of the truth; the model runs the desk dt,
scaled with the grid spacing.  Each grid size is timed in a fresh
process of its own, so the allocator state and FFT plans one size leaves
behind never reach the other's timings.  Within it the cases are timed
in turn, repeat after repeat, so a change in the machine's load reaches
all alike; each row is the median [min, max] over the repeats of the
run's wall time divided by its steps.  The `cold` column is each case's
first run, which fills the caches, the allocator's free lists and the
FFT plans: a fresh process, as each benchmark run is, pays it once.  The
`ffts` and `fft%` columns come from one more pass, of the run and of a
run of no steps, with numpy's real 2-D transforms wrapped as
`tests/conftest.py::count_ffts` does: the transforms per step, of every
batch, and their share of the step time, of every thread, the set-up's
transforms excluded.  The ms/step columns time unwrapped runs.  --grid
and --steps shrink the run.

    python3 demos/kernel_timing.py [--grid N M] [--steps S] [--repeats R]
"""

import argparse
import multiprocessing
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from liemorph import GridSpec, double_vortex_ic, vorticity_of
from liemorph.assimilation import _member_ics, _run_batches
from liemorph.cli_experiments import preset_config, validate_config
from liemorph.morph_engine import _run_morph_batch
from liemorph.tsw_model import _integrate_batch

# members and default steps per run of the two grid sizes
MEMBERS = (8, 1)
DEFAULT_STEPS = (150, 60)
# the worker count of the threaded rows, the presets'
WORKERS = 2
# numpy's own irfft2 reaches irfftn by a module-internal name, so no
# transform is counted twice
FFT_NAMES = ("rfft2", "rfftn", "irfft2", "irfftn")


def time_grid(n, members, steps, repeats):
    """(kernel, n, members, workers, steps, ffts, fft share, cold ms,
    [ms per repeat]) of both kernels on an n^2 grid, in ms per step, and
    of both at WORKERS workers when there are members to share out."""
    desk = validate_config(preset_config("desk"))
    grid = GridSpec(n, n, desk.grid.lx, desk.grid.ly)
    model = replace(desk.model, dt=desk.model.dt * grid.dx / desk.grid.dx)
    ics = _member_ics(desk.ic, desk.ensemble_size, desk.seed, desk.perturb_mean,
                      desk.perturb_std)
    states = [double_vortex_ic(ic, grid, model) for ic in ics[:members]]
    truth = double_vortex_ic(desk.ic, grid, model)
    targets = {"h": truth.h, "omega": vorticity_of(truth)}
    # each kernel, run for a given number of steps on a batch and its stop event
    kernels = [("_run_morph_batch", lambda batch, k, stop: _run_morph_batch(
                   batch, targets, replace(desk.morph, n_steps=k), stop=stop)),
               ("_integrate_batch", lambda batch, k, stop: _integrate_batch(
                   batch, k, model, stop=stop))]
    # (kernel, workers, run of k steps) of each case
    timed = [(name, 1, lambda k, kernel=kernel: kernel(states, k, None))
             for name, kernel in kernels]
    if members > 1:
        timed += [(name, WORKERS, lambda k, kernel=kernel: _run_batches(
                      lambda batch, stop: kernel(batch, k, stop), states, grid, WORKERS,
                      "member {}: {}"))
                  for name, kernel in kernels]

    def ms_per_step(run):
        t0 = time.perf_counter()
        run(steps)
        return 1e3 * (time.perf_counter() - t0) / steps

    cold = [ms_per_step(run) for *_, run in timed]
    ms = [[] for _ in timed]
    for _ in range(repeats):
        for row, (*_, run) in zip(ms, timed):
            row.append(ms_per_step(run))
    ffts = [fft_profile(run, steps, workers) for _, workers, run in timed]
    return [(kernel, n, members, workers, steps, *fft, first, row)
            for (kernel, workers, _), fft, first, row in zip(timed, ffts, cold, ms)]


def fft_profile(run, steps, workers):
    """(FFT calls per step, share of step time in them) of run(steps),
    less those of run(0), the set-up's, with np.fft's real 2-D transforms
    wrapped; the kernel makes its inverse ones through irfftn.  The share
    is of the time of `workers` threads, which run(steps) may use."""
    calls, spent = [0], [0.0]
    lock = threading.Lock()

    def wrapped(fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                with lock:
                    spent[0] += time.perf_counter() - t0
                    calls[0] += 1
        return timed

    originals = {name: getattr(np.fft, name) for name in FFT_NAMES}
    totals = []
    try:
        for name, fn in originals.items():
            setattr(np.fft, name, wrapped(fn))
        for k in (steps, 0):
            calls[0], spent[0] = 0, 0.0
            t0 = time.perf_counter()
            run(k)
            totals.append((calls[0], spent[0], time.perf_counter() - t0))
    finally:
        for name, fn in originals.items():
            setattr(np.fft, name, fn)
    (c1, f1, w1), (c0, f0, w0) = totals
    return (c1 - c0) / steps, (f1 - f0) / (workers * (w1 - w0))


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
    print(f"{'kernel':<17} {'grid':>7} {'members':>7} {'workers':>7} {'steps':>5} {'ffts':>5} "
          f"{'fft%':>5} {'cold':>8}  ms/step median [min, max]")
    for kernel, n, members, workers, steps, ffts, share, first, row in rows:
        print(f"{kernel:<17} {f'{n}^2':>7} {members:>7} {workers:>7} {steps:>5} {ffts:>5.1f} "
              f"{100 * share:>5.1f} {first:>8.3f}  "
              f"{np.median(row):.3f} [{min(row):.3f}, {max(row):.3f}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
