#!/usr/bin/env python3
"""How large a model step the desk truth run can take.

The model step carries the rest-state gravity waves exactly, so dt is
bounded by the slower flow.  This runs the desk truth over the spin-up
horizon, 200 time units (a whole number of steps at every dt below), at
multiples of dt = 1, where a plain AB3 step's gravity-wave Courant number
is 0.40, and compares each final state with the same scheme at
dt = 0.25.  With --grid the steps scale with the grid spacing.  The error is the
largest over h, Theta, v1 and v2 of |a - b| / |b - mean(b)| in the
grid 2-norm.  Next to it stands the spread the filter has to correct:
member 0 of the desk ensemble against the truth, by the same measure.

    python3 demos/timestep_error.py [--grid N] [--time T]
"""

import argparse

import numpy as np

from liemorph import GridSpec, ModelParams, double_vortex_ic, integrate
from liemorph.assimilation import _member_ics
from liemorph.cli_experiments import preset_config, validate_config

MULTIPLIERS = (1, 2, 4, 5, 8)
OLD_DESK_DT = 1.0


def relative_error(state, ref):
    """Largest field 2-norm of state - ref over that of ref's anomaly."""
    return max(
        np.linalg.norm(a.values - b.values) / np.linalg.norm(b.values - b.values.mean())
        for a, b in zip(state.fields(), ref.fields())
    )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grid", type=int, default=None, help="grid points per side (desk: 64)")
    ap.add_argument("--time", type=float, default=200.0, help="horizon in time units")
    args = ap.parse_args(argv)

    desk = validate_config(preset_config("desk"))
    grid = desk.grid if args.grid is None else GridSpec(args.grid, args.grid, desk.grid.lx,
                                                        desk.grid.ly)
    # the desk step of the plain AB3 scheme, scaled with the grid spacing
    dt1 = OLD_DESK_DT * grid.dx / desk.grid.dx
    multiplier = desk.model.dt / OLD_DESK_DT

    def run(ic, dt):
        model = ModelParams(f=desk.model.f, kappa=desk.model.kappa, h0=desk.model.h0,
                            theta0=desk.model.theta0, dt=dt)
        return integrate(double_vortex_ic(ic, grid, model), round(args.time / dt), model)

    ref = run(desk.ic, dt1 / 4)
    print(f"{grid.nx}^2 truth run over {args.time:g} time units, against dt = {dt1 / 4:g}")
    print(f"{'x dt':>6} {'dt':>8} {'error':>10}")
    for m in MULTIPLIERS:
        mark = "  (preset)" if m == multiplier else ""
        print(f"{m:>6} {m * dt1:>8g} {relative_error(run(desk.ic, m * dt1), ref):>10.3e}{mark}")
    member = _member_ics(desk.ic, desk.ensemble_size, desk.seed, desk.perturb_mean,
                         desk.perturb_std)[0]
    dt = multiplier * dt1
    spread = relative_error(run(member, dt), run(desk.ic, dt))
    print(f"member 0 against the truth: {spread:.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
