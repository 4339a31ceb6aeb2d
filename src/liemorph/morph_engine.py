"""Iterative virtual-time morphing of a full TSW state toward observations.

Every prognostic field is transported by d(theta)/ds = -L_u theta with the
physically consistent tensor assignment: theta_h = h dx1^dx2 (2-form),
theta_Theta = Theta (0-form), theta_v = v1 dx1 + v2 dx2 (1-form, chosen so
vorticity is conserved).  The naive comparator transports all four fields
as 0-forms.  The displacement map itself is never materialized; each step
applies one epsilon-increment of the transport.

The kernel carries a member axis: `_run_morph_batch` morphs a batch of
states toward the same targets in lockstep, with the FFT calls of one
member per step, and `run_morph` is its batch of one.  A batch reports
the first failing step across its members (serial code would report the
first failing member).
"""

import csv
from dataclasses import dataclass

import numpy as np

from .displacement_solver import _combined_displacement_hat
from .forms import DiffForm, DisplacementField, _advect_hat, _transport_hat
from .spectral_core import ScalarField
from .tsw_model import (
    AB_COEFFS,
    InstabilityError,
    _ab_advance,
    _fields,
    _irfft_all,
    _rfft_all,
    _state,
    vorticity_of,
)

# Not called here: perfbench/tracing.py wraps these at this module's
# attributes, which are kept so that its spans still resolve.
from .displacement_solver import combine_displacements, displacement_from_2forms  # noqa: F401
from .forms import lie_derivative  # noqa: F401
from .spectral_core import hou_li_filter  # noqa: F401

__all__ = [
    "MorphParams",
    "ObservablePair",
    "MorphTrace",
    "morph_velocity",
    "morph_step",
    "naive_morph_step",
    "run_morph",
    "conserved_totals",
    "field_mse",
]

_OBSERVABLE_DEGREES = {"h": 2, "omega": 2}


@dataclass
class MorphParams:
    """Virtual-time morph controls.

    The reference experiment uses epsilon = 0.000033 with N = 10000 on the
    full-scale grid; epsilon trades off against the H1 normalization of the
    combined displacement, so scaled-down presets use larger values.
    n_steps = 0 is allowed as the degenerate no-op (pipelines reduce to the
    plain filter).
    """

    epsilon: float = 0.000033
    n_steps: int = 10000
    filter_a: float = 36.0
    ab_order: int = 5
    early_stop_patience: int | None = None

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.n_steps < 0:
            raise ValueError("n_steps must be nonnegative")
        if self.ab_order not in AB_COEFFS:
            raise ValueError(f"ab_order must be one of {sorted(AB_COEFFS)}")


@dataclass
class ObservablePair:
    """An observed field and its tensor assignment; target is theta_1."""

    name: str
    target: DiffForm

    def __post_init__(self):
        if self.name not in _OBSERVABLE_DEGREES:
            raise ValueError(f"unknown observable {self.name!r}")
        if self.target.degree != _OBSERVABLE_DEGREES[self.name]:
            raise ValueError(
                f"observable {self.name!r} must be a degree-"
                f"{_OBSERVABLE_DEGREES[self.name]} form"
            )


class MorphTrace:
    """Per-step morph diagnostics, serializable to CSV."""

    COLUMNS = ("step", "mse_h", "mse_omega", "mass", "vorticity_total", "buoyancy_integral")

    def __init__(self):
        self.rows = []

    def record(self, step, mse_h, mse_omega, totals):
        self.rows.append(
            (
                step,
                mse_h,
                mse_omega,
                totals["mass"],
                totals["vorticity"],
                totals["buoyancy_integral"],
            )
        )

    def __len__(self):
        return len(self.rows)

    def column(self, name):
        i = self.COLUMNS.index(name)
        return [row[i] for row in self.rows]

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.COLUMNS)
            for row in self.rows:
                writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _mse(a, b):
    # per member; the mean over the last two axes equals np.mean per member
    return np.mean((a - b) ** 2, axis=(-2, -1))


def field_mse(a, b):
    """Mean of squared pointwise differences."""
    if a.grid != b.grid:
        raise ValueError("grid mismatch")
    return float(_mse(a.values, b.values))


def _totals(vals, omega, area):
    # domain integrals by the mean-value quadrature, as domain_integral;
    # one value per member
    return {
        "mass": vals[0].mean(axis=(-2, -1)) * area,
        "vorticity": omega.mean(axis=(-2, -1)) * area,
        "buoyancy_integral": vals[1].mean(axis=(-2, -1)) * area,
    }


def conserved_totals(state):
    """Domain integrals of mass, vorticity and buoyancy."""
    vals = (state.h.values, state.theta.values)
    totals = _totals(vals, vorticity_of(state).values, state.grid.area)
    return {name: float(v) for name, v in totals.items()}


# The spectral kernel works on tsw_model's (vals, spec) state arrays, with
# or without a member axis; a displacement is held as its values `u`
# (2, nx, ny), or (2, B, nx, ny), and spectra `uh`.
_MORPH_ERRORS = ("non-finite field during morph", "positivity lost during morph")


def _vorticity(spec, grid):
    # (values, spectrum) of omega = dv2/dx - dv1/dy
    wh = grid._ikx_odd[:, None] * spec[3] - grid._iky_odd[None, :] * spec[2]
    return np.fft.irfft2(wh, s=grid.shape), wh


def _target_spectra(targets, grid):
    # (name, values, spectrum) of each target
    out = []
    for pair in targets:
        t = pair.target.components[0]
        if t.grid != grid:
            raise ValueError("grid mismatch")
        out.append((pair.name, t.values, np.fft.rfft2(t.values)))
    return out


def _velocity(observed, vals, spec, omega, grid, solver_params):
    """(u, uh) of the combined displacement toward the observed targets.

    observed holds (name, target values, target spectrum); omega is the
    state's (values, spectrum) vorticity.  The displacement solves and H1
    norms stay in Fourier space, per member; only u itself is transformed
    back.
    """
    if not observed:
        raise ValueError("morph_velocity needs at least one observable")
    obs = {"h": (vals[0], spec[0]), "omega": omega}
    uh = _combined_displacement_hat(
        [(th, *obs[name]) for name, _, th in observed], grid, solver_params
    )
    return _irfft_all(uh, grid), uh


def _naive_transport_hat(vals, spec, u, uh, grid):
    # every field dragged as a 0-form: d(theta)/ds = -u . grad(theta)
    return np.stack([-_advect_hat(s, u, grid) for s in spec])


def _step(vals, spec, u, uh, history, params, naive, step, grid):
    """One AB epsilon-step of d(theta)/ds = -L_u theta; the new (vals, spec)."""
    transport = _naive_transport_hat if naive else _transport_hat
    return _ab_advance(
        spec, transport(vals, spec, u, uh, grid), history, params.ab_order,
        params.epsilon, params.filter_a, grid, step, _MORPH_ERRORS,
    )


def morph_velocity(state, targets, solver_params=None):
    """Combined displacement toward the targets for the current state.

    Each observable contributes one closed-form 2-form solve (h directly,
    omega via the vorticity diagnostic); the fields are then H1-normalized
    and averaged.
    """
    g = state.grid
    observed = _target_spectra(targets, g)
    vals = _fields(state)
    spec = _rfft_all(vals)
    u, _ = _velocity(observed, vals, spec, _vorticity(spec, g), g, solver_params)
    return DisplacementField(ScalarField(g, u[0]), ScalarField(g, u[1]))


def _typed_step(state, u, params, history, step, naive):
    if u.grid != state.grid:
        raise ValueError("displacement grid mismatch")
    g = state.grid
    vals = _fields(state)
    uv = np.stack([u.u1.values, u.u2.values])
    history = [] if history is None else history
    vals, _ = _step(vals, _rfft_all(vals), uv, _rfft_all(uv), history, params, naive, step, g)
    return _state(vals, g, state.time)


def morph_step(state, u, params, history=None, step=None):
    """One epsilon-step of d(theta)/ds = -L_u theta for all prognostic tensors.

    Adams-Bashforth in virtual time up to params.ab_order with lower-order
    bootstrap (pass the same `history` list across calls; its entries are
    opaque); Hou-Li filter (a = 36 by default) on every field afterwards.
    Raises InstabilityError when a field turns non-finite or h or Theta
    non-positive.
    """
    return _typed_step(state, u, params, history, step, naive=False)


def naive_morph_step(state, u, params, history=None, step=None):
    """The composition comparator: every field transported as a 0-form."""
    return _typed_step(state, u, params, history, step, naive=True)


def run_morph(state, targets, params, solver_params=None, naive=False):
    """Iterate morph_velocity + morph_step n_steps times.

    Records per-step MSE of each observable against its target plus the
    conserved totals; the buoyancy integral is recorded but carries no
    conservation claim (a 0-form's integral is not transported invariantly
    unless u is divergence-free).  With early_stop_patience set, stops once
    every observed MSE has increased for that many consecutive steps.

    The loop runs on spectra: each field is transformed once per step, and
    the vorticity is computed once per state for the velocity and the
    trace.  It is `_run_morph_batch` with a batch of one.

    Returns:
        (final state, MorphTrace); the trace has one row per executed step
        plus the initial row.
    """
    return _run_morph_batch([state], targets, params, solver_params, naive)[0]


def _run_morph_batch(states, targets, params, solver_params=None, naive=False):
    """run_morph for states on one grid, advanced in lockstep; a list of
    (final state, MorphTrace) in the order of `states`.

    The members share every FFT call, so a step makes as many as one
    member's, and each member's state and trace equal its own `run_morph`
    bit for bit.  A member whose early-stop streak runs out leaves the
    batch: its values, spectra and AB history are sliced off the member
    axis.  An InstabilityError names the first failing step across the
    batch; its `member` is the lowest failing index in `states`.
    """
    g = states[0].grid
    observed = _target_spectra(targets, g)
    vals = np.stack([_fields(s) for s in states], axis=1)
    spec = _rfft_all(vals)
    active = np.arange(len(states))
    traces = [MorphTrace() for _ in states]
    finals = [None] * len(states)

    def record(k, vals, spec, active):
        omega = _vorticity(spec, g)
        obs = {"h": vals[0], "omega": omega[0]}
        mses = {name: _mse(obs[name], t) for name, t, _ in observed}
        totals = _totals(vals, omega[0], g.area)
        nan = np.full(len(active), np.nan)
        for j, i in enumerate(active):
            traces[i].record(k, float(mses.get("h", nan)[j]), float(mses.get("omega", nan)[j]),
                             {name: float(v[j]) for name, v in totals.items()})
        return omega, mses

    def finish(vals, members):
        for j, i in enumerate(members):
            finals[i] = _state(vals[:, j], g, states[i].time)

    omega, cur = record(0, vals, spec, active)
    history = []
    worse_streak = np.zeros(len(states), dtype=int)
    for k in range(params.n_steps):
        u, uh = _velocity(observed, vals, spec, omega, g, solver_params)
        try:
            vals, spec = _step(vals, spec, u, uh, history, params, naive, k, g)
        except InstabilityError as err:
            err.member = int(active[err.member])
            raise
        prev = cur
        omega, cur = record(k + 1, vals, spec, active)
        if params.early_stop_patience is not None:
            worse = np.logical_and.reduce([cur[n] > prev[n] for n in cur])
            worse_streak = np.where(worse, worse_streak + 1, 0)
            done = worse_streak >= params.early_stop_patience
            if done.any():
                finish(vals[:, done], active[done])
                keep = ~done
                active, worse_streak = active[keep], worse_streak[keep]
                vals, spec = vals[:, keep], spec[:, keep]
                history[:] = [t[:, keep] for t in history]
                omega = tuple(w[keep] for w in omega)
                cur = {n: v[keep] for n, v in cur.items()}
                if not active.size:
                    break
    finish(vals, active)
    return list(zip(finals, traces))
