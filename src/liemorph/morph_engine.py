"""Iterative virtual-time morphing of a full TSW state toward observations.

Every prognostic field is transported by d(theta)/ds = -L_u theta with the
physically consistent tensor assignment: theta_h = h dx1^dx2 (2-form),
theta_Theta = Theta (0-form), theta_v = v1 dx1 + v2 dx2 (1-form, chosen so
vorticity is conserved).  The naive comparator transports all four fields
as 0-forms.  The displacement map itself is never materialized; each step
applies one epsilon-increment of the transport.

The targets are a dict, observed name -> ScalarField on the state's grid
(the shape of `ObsSet.fields`), checked once per run.  The kernel carries
a member axis: `_run_morph_batch` morphs a batch of states toward the
same targets in lockstep, with the FFT calls of one member per step, and
`run_morph` is its batch of one.  A batch reports the first failing step
across its members (serial code would report the first failing member).

The batch loop runs on one workspace (`tsw_model._Workspace`, which the
model's batch loop shares): arrays allocated once per batch and reused
by every step, into which the kernel helpers write through their `out=`
and scratch arguments.  The AB history is the workspace's own ring, an
array of shape (order, 4, B, nx, ny//2+1): each tendency is written
straight into its slot, and the AB sum is one pass over the ring.
Inverse transforms go through `spectral_core._irfft2`, which calls
np.fft.irfftn, since np.fft.irfft2 ignores `out`.  The typed functions
are batch-of-one runs: `morph_velocity` and `morph_step` each run one
step of the loop on a one-member workspace of their own, whose ring
`morph_step` seeds from its caller's history list.  Only where results
are stored and the order of the AB sum differ from a loop on fresh
arrays, so each member's result is the same bit for bit wherever it
sits in the batch.

`nudge` adds the same transport, times a strength, to the model tendency
and runs through the same batch loop.
"""

import csv
import io
from collections import namedtuple
from concurrent.futures import CancelledError
from dataclasses import dataclass

import numpy as np

from .displacement_solver import _combined_displacement_hat
from .forms import DisplacementField, _advect_hat, _transport_hat
from .spectral_core import ScalarField, _is_int, _is_real
from .tsw_model import (
    _MODEL_ERRORS,
    AB_COEFFS,
    InstabilityError,
    _ab_advance,
    _grad_theta,
    _irfft_all,
    _state,
    _tendency_hat,
    _vorticity,
    _Workspace,
    vorticity_of,
)

# Not called here: perfbench/tracing.py wraps these at this module's
# attributes, which are kept so that its spans still resolve.
from .displacement_solver import combine_displacements, displacement_from_2forms  # noqa: F401
from .forms import lie_derivative  # noqa: F401
from .spectral_core import hou_li_filter  # noqa: F401

__all__ = [
    "MorphParams",
    "MorphTrace",
    "morph_velocity",
    "morph_step",
    "run_morph",
    "nudge",
    "conserved_totals",
    "field_mse",
]

# The observables by name: ScalarField in a TSWState and (values, spectrum)
# in a _Workspace.  The kernel solves every observable as a 2-form (h,
# omega), as `_combined_displacement_hat` assumes.  omega's row holds
# vorticity_of itself, so its calls stay outside perfbench's span on this
# module's attribute.
_Observable = namedtuple("_Observable", "of_state in_workspace")
_OBSERVABLES = {
    "h": _Observable(lambda state: state.h, lambda ws: (ws.vals[0], ws.spec[0])),
    "omega": _Observable(vorticity_of, lambda ws: (ws.omega, ws.omega_hat)),
}

# The conserved-totals ledger, named once: the keys of `conserved_totals`,
# the trace's last columns and the header of the emitted conserved_totals.csv.
_TOTALS = ("mass", "vorticity_total", "buoyancy_integral")


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
        if not (_is_real(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        if not (_is_int(self.n_steps) and self.n_steps >= 0):
            raise ValueError(f"n_steps must be a nonnegative integer, got {self.n_steps!r}")
        if not (_is_real(self.filter_a) and self.filter_a > 0):
            raise ValueError(f"filter_a must be positive and finite, got {self.filter_a!r}")
        if not (_is_int(self.ab_order) and self.ab_order in AB_COEFFS):
            raise ValueError(f"ab_order must be one of {sorted(AB_COEFFS)}, got {self.ab_order!r}")
        patience = self.early_stop_patience
        if patience is not None and not (_is_int(patience) and patience >= 1):
            raise ValueError(f"early_stop_patience must be None or an integer >= 1, got {patience!r}")


class MorphTrace:
    """Per-step morph diagnostics, serializable to CSV; unobserved names read nan."""

    COLUMNS = ("step", *(f"mse_{name}" for name in _OBSERVABLES), *_TOTALS)

    def __init__(self):
        self.rows = []

    def record(self, step, mses, totals):
        self.rows.append((step, *(mses.get(name, np.nan) for name in _OBSERVABLES),
                          *(totals[name] for name in _TOTALS)))

    def __len__(self):
        return len(self.rows)

    def column(self, name):
        i = self.COLUMNS.index(name)
        return [row[i] for row in self.rows]

    def csv_bytes(self):
        """The trace as CSV, with csv.writer's \\r\\n line endings."""
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(self.COLUMNS)
        for row in self.rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
        return buf.getvalue().encode()

    def to_csv(self, path):
        with open(path, "wb") as fh:
            fh.write(self.csv_bytes())


def _mse(a, b, tmp=None):
    # per member; the mean over the last two axes equals np.mean per member.
    # tmp, when given, is an array of a's shape for the squares
    sq = np.subtract(a, b, out=tmp)
    return np.mean(np.square(sq, out=sq), axis=(-2, -1))


def field_mse(a, b):
    """Mean of squared pointwise differences."""
    if a.grid != b.grid:
        raise ValueError("grid mismatch")
    return float(_mse(a.values, b.values))


def _totals(vals, omega, area):
    # domain integrals of h, omega and Theta by the mean-value quadrature,
    # as domain_integral; one value per member
    return {name: f.mean(axis=(-2, -1)) * area
            for name, f in zip(_TOTALS, (vals[0], omega, vals[1]))}


def conserved_totals(state):
    """Domain integrals of h, omega and Theta, keyed by mass,
    vorticity_total and buoyancy_integral."""
    vals = (state.h.values, state.theta.values)
    totals = _totals(vals, vorticity_of(state).values, state.grid.area)
    return {name: float(v) for name, v in totals.items()}


# The spectral kernel works on the (vals, spec) state arrays of a
# tsw_model `_Workspace`, which carry a member axis; a displacement is held
# as its values `u` (2, B, nx, ny).  The vorticity is computed once per
# state, by `_record`, and shared by the velocity, the v-transport and the
# trace.
_MORPH_ERRORS = ("non-finite field during morph", "positivity lost during morph")


def _target_spectra(targets, grid):
    # (name, values, spectrum) of each target, in the order of the dict
    if not targets:
        raise ValueError("a morph needs at least one target")
    if not targets.keys() <= _OBSERVABLES.keys():
        raise ValueError(f"targets must be among {list(_OBSERVABLES)}, got {list(targets)}")
    if not all(isinstance(t, ScalarField) and t.grid == grid for t in targets.values()):
        raise ValueError("targets must be ScalarFields on the state's grid")
    return [(name, t.values, np.fft.rfft2(t.values)) for name, t in targets.items()]


def _velocity(observed, grid, ws):
    """Values u of the combined displacement toward the observed targets,
    from the state of the _Workspace ws, into ws.u.

    observed holds (name, target values, target spectrum); ws.omega and
    ws.omega_hat hold the state's vorticity.  The displacement solves and
    H1 norms stay in Fourier space, per member, in the arrays of ws; only
    u itself is transformed back.
    """
    pairs = [(th, *_OBSERVABLES[name].in_workspace(ws)) for name, _, th in observed]
    uh = _combined_displacement_hat(pairs, grid, ws.uh, ws.forcing, (ws.r, ws.c), ws.dens)
    return _irfft_all(uh, grid, ws.u)


def _record(traces, k, observed, grid, ws):
    """Record row k in the trace of each member of the _Workspace ws, whose
    omega and omega_hat receive the state's vorticity; the per-member MSE
    of each observed name."""
    _vorticity(ws.spec, grid, (ws.omega, ws.omega_hat), ws.c[0])
    mses = {name: _mse(_OBSERVABLES[name].in_workspace(ws)[0], t, ws.r[0])
            for name, t, _ in observed}
    totals = _totals(ws.vals, ws.omega, grid.area)
    for j, trace in enumerate(traces):
        trace.record(k, {name: float(v[j]) for name, v in mses.items()},
                     {name: float(v[j]) for name, v in totals.items()})
    return mses


def _step(ws, u, params, naive, step, grid, drift=None):
    """One AB epsilon-step of d(theta)/ds = -L_u theta on the state of the
    _Workspace ws, whose omega holds the values of its vorticity.

    The tendency is written into the ring's slot and the new state over
    ws.vals and ws.spec.  The naive comparator drags every field as a
    0-form, d(theta)/ds = -u . grad(theta).  A drift (model, strength)
    adds the model tendency: see `nudge`.
    """
    vals, spec, tend, tmp = ws.vals, ws.spec, ws.slot(), (ws.r, ws.c)
    model, errors = None, _MORPH_ERRORS
    if drift is not None:
        (model, strength), errors = drift, _MODEL_ERRORS
        grad_th = _grad_theta(spec, grid, ws.grad_th, ws.c[0])
        push = _transport_hat(vals, spec, ws.omega, u, grid, grad_th, ws.spare, tmp)
        push *= strength
        _tendency_hat(vals, spec, model, grid, ws.omega, grad_th, tend, tmp)
        tend += push
    elif naive:
        for s, t in zip(spec, tend):
            _advect_hat(s, u, grid, None, t, tmp)
        np.negative(tend, out=tend)
    else:
        _transport_hat(vals, spec, ws.omega, u, grid, out=tend, tmp=tmp)
    _ab_advance(ws, params.epsilon, params.filter_a, grid, step, errors, model)


def morph_velocity(state, targets):
    """Combined displacement toward the targets for the current state.

    targets maps each observed name ("h", "omega") to its ScalarField on
    the state's grid; no target, an unknown name or a target off that
    grid raises a ValueError.  Each observable contributes one
    closed-form 2-form solve (h directly, omega via the vorticity
    diagnostic); the fields are then H1-normalized and averaged.  It is
    the velocity of one `_run_morph_batch` step with a batch of one.
    """
    g = state.grid
    observed = _target_spectra(targets, g)
    ws = _Workspace([state], 1, n_observed=len(observed))
    _vorticity(ws.spec, g, (ws.omega, ws.omega_hat), ws.c[0])
    u = _velocity(observed, g, ws)
    return DisplacementField(ScalarField(g, u[0, 0]), ScalarField(g, u[1, 0]))


def morph_step(state, u, params, history=None, step=None, naive=False):
    """One epsilon-step of d(theta)/ds = -L_u theta for all prognostic tensors.

    Adams-Bashforth in virtual time up to params.ab_order with lower-order
    bootstrap (pass the same `history` list across calls; its entries are
    opaque); Hou-Li filter (a = 36 by default) on every field afterwards.
    naive = True is the composition comparator: every field transported as
    a 0-form.  Raises InstabilityError when a field turns non-finite or h
    or Theta non-positive.  It is one `_run_morph_batch` step with a batch
    of one.
    """
    if u.grid != state.grid:
        raise ValueError("displacement grid mismatch")
    g = state.grid
    history = [] if history is None else history
    ws = _Workspace([state], params.ab_order, history=history)
    _vorticity(ws.spec, g, (ws.omega, ws.c[0]), ws.c[1])
    _step(ws, np.stack([u.u1.values, u.u2.values])[:, None], params, naive, step, g)
    ws.save(history)
    return _state(ws.vals[:, 0], g, state.time)


def run_morph(state, targets, params, naive=False):
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
    return _run_morph_batch([state], targets, params, naive)[0]


def _run_morph_batch(states, targets, params, naive=False, stop=None, drift=None):
    """run_morph for states on one grid, advanced in lockstep; a list of
    (final state, MorphTrace) in the order of `states`.

    The members share every FFT call, so a step makes as many as one
    member's, and each member's state and trace equal its own `run_morph`
    bit for bit.  A member whose early-stop streak runs out leaves the
    batch: its values, spectra and AB history are sliced off the member
    axis.  An InstabilityError names the first failing step across the
    batch; its `member` is the lowest failing index in `states`.  Once the
    threading.Event `stop` is set, the next step raises CancelledError.
    With drift = (model, strength) each step is `nudge`'s model step (see
    `_step`), and member time advances by model.dt per step.
    """
    g = states[0].grid
    observed = _target_spectra(targets, g)
    ws = _Workspace(states, params.ab_order, drift is not None, len(observed))
    active = np.arange(len(states))
    times = np.array([s.time for s in states])
    traces = [MorphTrace() for _ in states]
    finals = [None] * len(states)

    def finish(vals, members):
        for j, i in enumerate(members):
            finals[i] = _state(vals[:, j], g, times[i])

    cur = _record(traces, 0, observed, g, ws)
    worse_streak = np.zeros(len(states), dtype=int)
    for k in range(params.n_steps):
        if stop is not None and stop.is_set():
            raise CancelledError
        u = _velocity(observed, g, ws)
        try:
            _step(ws, u, params, naive, k, g, drift)
        except InstabilityError as err:
            err.member = int(active[err.member])
            raise
        if drift is not None:
            times[active] += drift[0].dt
        prev = cur
        cur = _record([traces[i] for i in active], k + 1, observed, g, ws)
        if params.early_stop_patience is not None:
            worse = np.logical_and.reduce([cur[n] > prev[n] for n in cur])
            worse_streak = np.where(worse, worse_streak + 1, 0)
            done = worse_streak >= params.early_stop_patience
            if done.any():
                finish(ws.vals[:, done], active[done])
                keep = ~done
                active, worse_streak = active[keep], worse_streak[keep]
                cur = {n: v[keep] for n, v in cur.items()}
                if not active.size:
                    break
                ws.keep(keep)
    finish(ws.vals, active)
    return list(zip(finals, traces))


def nudge(state, targets, model, strength, n_steps):
    """Integrate the model n_steps, nudged along the morph velocity.

    Each step adds strength times the morph's -L_u transport (the tensor
    types of morph_step) to the model tendency and takes ab3_step's update,
    through `_run_morph_batch` as a batch of one; strength = 0 is
    `integrate` bit for bit.  The tendency and the transport share the
    trace's vorticity and one grad(Theta): a step makes 16 rfft2 + 13
    irfft2 with h and omega targets.  Returns (final state, MorphTrace), a
    trace row per step plus the first.
    """
    params = MorphParams(epsilon=model.dt, n_steps=n_steps, filter_a=12.0, ab_order=3)
    return _run_morph_batch([state], targets, params, drift=(model, strength))[0]
