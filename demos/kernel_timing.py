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
`cpu` column is the process's user + system CPU time per step and `csw`
its voluntary context switches per step, from getrusage, each the median
over the repeats: at 2 workers, CPU time above the wall time is the
second thread's work, and the switches count the waits, mostly for the
GIL.  The `ffts`, `calls` and `fft%` columns come from one more pass, of
the run and of a run of no steps, with the kernel's transform pair
`spectral_core._rfft2` / `_irfft2` wrapped as
`tests/conftest.py::count_ffts` does: per step, of every batch, the 2-D
transforms (one per field and member, however they are stacked), the
calls that make them (one call transforms a whole stack) and their share
of the step time, of every thread, the set-up's excluded.  The same pass
gives the `ws MiB` column, the summed bytes of the arrays of the
kernel's `tsw_model._Workspace`, per batch: the memory a batch holds for
its whole run.  The other columns time unwrapped runs.  --grid and
--steps shrink the run.

    python3 demos/kernel_timing.py [--grid N M] [--steps S] [--repeats R]
"""

import argparse
import multiprocessing
import resource
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from liemorph import GridSpec, double_vortex_ic, spectral_core, tsw_model, vorticity_of
from liemorph.assimilation import _member_ics, _run_batches
from liemorph.cli_experiments import preset_config, validate_config
from liemorph.morph_engine import _run_morph_batch, _target_spectra
from liemorph.tsw_model import _integrate_batch

# members and default steps per run of the two grid sizes
MEMBERS = (8, 1)
DEFAULT_STEPS = (150, 60)
# the worker count of the threaded rows, the presets'
WORKERS = 2
# the transform pair every real 2-D transform of the kernels goes through
FFT_HELPERS = ("_rfft2", "_irfft2")


def time_grid(n, members, steps, repeats):
    """(kernel, n, members, workers, steps, ffts, calls, fft share, workspace
    MiB, cpu ms, csw, cold ms, [ms per repeat]) of both kernels on an n^2
    grid, per step but for the workspace, and of both at WORKERS workers
    when there are members to share out."""
    desk = validate_config(preset_config("desk"))
    grid = GridSpec(n, n, desk.grid.lx, desk.grid.ly)
    model = replace(desk.model, dt=desk.model.dt * grid.dx / desk.grid.dx)
    ics = _member_ics(desk.ic, desk.ensemble_size, desk.seed, desk.perturb_mean,
                      desk.perturb_std)
    states = [double_vortex_ic(ic, grid, model) for ic in ics[:members]]
    truth = double_vortex_ic(desk.ic, grid, model)
    observed = _target_spectra({"h": truth.h, "omega": vorticity_of(truth)}, grid)
    # each kernel, run for a given number of steps on a batch and its stop event
    kernels = [("_run_morph_batch", lambda batch, k, stop: _run_morph_batch(
                   batch, observed, replace(desk.morph, n_steps=k), stop=stop)),
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

    def per_step(run):
        # (wall ms, CPU ms, voluntary context switches) per step
        r0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
        run(steps)
        t1, r1 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
        cpu = (r1.ru_utime + r1.ru_stime) - (r0.ru_utime + r0.ru_stime)
        return 1e3 * (t1 - t0) / steps, 1e3 * cpu / steps, (r1.ru_nvcsw - r0.ru_nvcsw) / steps

    cold = [per_step(run)[0] for *_, run in timed]
    runs = [[] for _ in timed]
    for _ in range(repeats):
        for row, (*_, run) in zip(runs, timed):
            row.append(per_step(run))
    profiles = [profile(run, steps, workers) for _, workers, run in timed]
    return [(kernel, n, members, workers, steps, *prof,
             np.median([r[1] for r in row]), np.median([r[2] for r in row]),
             first, [r[0] for r in row])
            for (kernel, workers, _), prof, first, row in zip(timed, profiles, cold, runs)]


def profile(run, steps, workers):
    """(2-D transforms per step, calls per step, share of step time in
    them, MiB of the largest workspace) of run(steps), the first three less
    those of run(0), the set-up's, with the kernel's transform pair and
    its workspace class wrapped in every liemorph module that holds them.
    The share is of the time of `workers` threads, which run(steps) may
    use."""
    ffts, calls, spent, held_bytes = [0], [0], [0.0], []
    lock = threading.Lock()

    class Workspace(tsw_model._Workspace):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            with lock:
                held_bytes.append(sum(a.nbytes for a in vars(self).values()
                                      if isinstance(a, np.ndarray)))

    def wrapped(fn):
        def timed(x, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(x, *args, **kwargs)
            finally:
                with lock:
                    spent[0] += time.perf_counter() - t0
                    ffts[0] += x.size // (x.shape[-2] * x.shape[-1])
                    calls[0] += 1
        return timed

    # (name, original, stand-in) of each wrapped attribute, and (module,
    # name, original, stand-in) of each liemorph module attribute holding one
    swaps = [(name, getattr(spectral_core, name), wrapped(getattr(spectral_core, name)))
             for name in FFT_HELPERS] + [("_Workspace", tsw_model._Workspace, Workspace)]
    held = [(module, name, fn, stand_in)
            for key, module in list(sys.modules.items()) if key.split(".")[0] == "liemorph"
            for name, fn, stand_in in swaps if getattr(module, name, None) is fn]
    totals = []
    try:
        for module, name, _, stand_in in held:
            setattr(module, name, stand_in)
        for k in (steps, 0):
            ffts[0], calls[0], spent[0] = 0, 0, 0.0
            t0 = time.perf_counter()
            run(k)
            totals.append((ffts[0], calls[0], spent[0], time.perf_counter() - t0))
    finally:
        for module, name, fn, _ in held:
            setattr(module, name, fn)
    (n1, c1, f1, w1), (n0, c0, f0, w0) = totals
    return ((n1 - n0) / steps, (c1 - c0) / steps, (f1 - f0) / (workers * (w1 - w0)),
            max(held_bytes) / 2**20)


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
    print(f"{'kernel':<17} {'grid':>7} {'members':>7} {'workers':>7} {'steps':>5} {'ffts':>6} "
          f"{'calls':>5} {'fft%':>5} {'ws MiB':>7} {'cpu':>8} {'csw':>6} {'cold':>8}  "
          f"ms/step median [min, max]")
    for kernel, n, members, workers, steps, ffts, calls, share, mib, cpu, csw, first, row in rows:
        print(f"{kernel:<17} {f'{n}^2':>7} {members:>7} {workers:>7} {steps:>5} {ffts:>6.1f} "
              f"{calls:>5.1f} {100 * share:>5.1f} {mib:>7.3f} {cpu:>8.3f} {csw:>6.1f} "
              f"{first:>8.3f}  "
              f"{np.median(row):.3f} [{min(row):.3f}, {max(row):.3f}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
