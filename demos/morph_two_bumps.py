#!/usr/bin/env python3
"""Align a height bump with a shifted copy, once per transport law.

The tensor morph moves h as a 2-form density, so the velocity that walks
the bump toward its target cannot create or destroy mass; the drift stays
at machine precision.  The naive comparator advects h as a plain scalar
through the same velocity and leaks mass at every step.  Both step-by-step
traces can be kept with --out.
"""

import argparse
import os

import numpy as np

from liemorph import GridSpec, ModelParams, MorphParams, ScalarField, TSWState, run_morph


def wrapped_bump(grid, cx, cy, radius):
    x, y = grid.xy()
    dx = x - cx
    dx -= grid.lx * np.round(dx / grid.lx)
    dy = y - cy
    dy -= grid.ly * np.round(dy / grid.ly)
    return np.exp(-(dx**2 + dy**2) / (2.0 * radius**2))


def bump_state(grid, params, cx, cy):
    h = ScalarField(grid, params.h0 + 0.1 * wrapped_bump(grid, cx, cy, 400.0))
    theta = ScalarField.constant(grid, params.theta0)
    return TSWState(h, theta, ScalarField.zeros(grid), ScalarField.zeros(grid))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=400, help="morph steps (default 400)")
    ap.add_argument("--epsilon", type=float, default=20.0, help="virtual-time step")
    ap.add_argument("--out", default=None, help="directory for the trace CSVs")
    args = ap.parse_args(argv)

    grid = GridSpec(64, 64, 5000.0, 5000.0)
    params = ModelParams()
    state = bump_state(grid, params, 2300.0, 2500.0)
    target = bump_state(grid, params, 2700.0, 2500.0)
    targets = {"h": target.h}
    mp = MorphParams(epsilon=args.epsilon, n_steps=args.steps)

    print(f"bump at x = 2300 km morphing toward x = 2700 km, {args.steps} steps")
    traces = {}
    for label, naive in (("tensor", False), ("naive", True)):
        _, traces[label] = run_morph(state.copy(), targets, mp, naive=naive)

    print(f"{'step':>6} {'tensor mse_h':>14} {'naive mse_h':>14} "
          f"{'tensor mass drift':>18} {'naive mass drift':>18}")
    steps = traces["tensor"].column("step")
    for i in range(0, len(steps), max(1, args.steps // 8)):
        row = [steps[i]]
        for label in ("tensor", "naive"):
            row.append(traces[label].column("mse_h")[i])
        for label in ("tensor", "naive"):
            mass = traces[label].column("mass")
            row.append(abs(mass[i] - mass[0]) / abs(mass[0]))
        print(f"{row[0]:>6.0f} {row[1]:>14.6e} {row[2]:>14.6e} {row[3]:>18.3e} {row[4]:>18.3e}")

    drift = {}
    for label in ("tensor", "naive"):
        mass = traces[label].column("mass")
        drift[label] = abs(mass[-1] - mass[0]) / abs(mass[0])
        mse = traces[label].column("mse_h")
        print(f"{label}: mse_h {mse[0]:.3e} -> {mse[-1]:.3e}, "
              f"relative mass drift {drift[label]:.3e}")
    if drift["tensor"] > 0:
        ratio = drift["naive"] / drift["tensor"]
        print(f"the naive transport leaks {ratio:.1e} times more mass")
    else:
        print("the tensor transport shows no mass drift at all at this precision")

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for label in ("tensor", "naive"):
            path = os.path.join(args.out, f"trace_{label}.csv")
            traces[label].to_csv(path)
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
