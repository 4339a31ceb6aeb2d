"""Thermal shallow water dynamics on the periodic grid.

Prognostic fields h (height), Theta (buoyancy), v1, v2 (velocity) obey

    dh/dt     = -div(h v)
    dTheta/dt = -(v . grad) Theta - kappa (h Theta - h0 Theta0)
    dv/dt     = -(v . grad) v - f zhat x v - grad(h Theta) + (h/2) grad(Theta)

in km / 100 s units.  Time stepping is Lawson's integrating-factor
Adams-Bashforth of order `_MODEL_AB_ORDER` with a lower-order bootstrap,
followed by the Hou-Li filter of exponent `_MODEL_FILTER_A` on every
prognostic field.  The inertia-gravity waves about the rest state (h0,
Theta0, v = 0), linear and per Fourier mode a 3 x 3 system in (h, v1,
v2), are propagated exactly by exp(L dt); only the remainder N =
tendency - L spec goes through the AB history.
`_tendency_hat` forms N in grid space, before the forward transforms:
the mass flux is (h - h0) v, the Bernoulli term h (Theta - Theta0) +
|v|^2 / 2 and the momentum's vorticity omega, not omega + f; so no L
spec is computed and subtracted again.  The gravity waves, ~7x faster
than the flow, do not bound dt: the remainder's Courant number does (see
`_stability_errors`).  The momentum is evaluated in
vector-invariant form, (v . grad) v + f zhat x v = grad(|v|^2 / 2) +
(omega + f) zhat x v, which needs the vorticity omega but no derivative
of v.  The step runs in Fourier space (6 rfft2 + 7 irfft2 per member,
in 9 calls) and shares `_ab_advance` with the morph, which has no linear
part and takes the plain AB step; the AB history holds opaque spectra.
The kernel carries a member axis: `_integrate_batch` advances a batch of
states in lockstep with the same 9 FFT calls per step, and `integrate`
is its batch of one.
The nudged model, `morph_engine.nudge`, is the same step, `_model_step`,
with a push: the morph's tensor transport added to this tendency.

Every step runs on a `_Workspace`: arrays allocated once per batch and
reused every step, into which the kernel helpers write through their
`out=` and scratch arguments.  The typed step functions are batch-of-one
runs on a workspace of their own.  The AB history is the workspace's
own ring, seeded from a typed step's history list: one (order, ...)
array whose slots the tendencies are written into, so the plain AB sum
is a single pass, the coefficient vector times the slots viewed as an
(order, n) float matrix, and the Lawson step's Horner sum takes turns
between the ring's next slot and one spare spectrum.  The transforms go
through `spectral_core._rfft2` and `_irfft2`, which call numpy's
pocketfft gufuncs straight; each inverse runs its complex pass in a
spectrum the step no longer needs (the AB sum, the free ring slot or the
spare), so a step allocates no spectrum-sized temporary.
"""

import functools
import math
from concurrent.futures import CancelledError
from dataclasses import dataclass

import numpy as np

from .forms import DisplacementField, _transport_hat
from .spectral_core import (ScalarField, _grad_hat, _hou_li, _irfft2, _is_int, _is_real, _rfft2,
                            _scratch, curl_2d)

# Not called here: perfbench/tracing.py wraps it at this module's
# attribute, which is kept so that its span still resolves.
from .spectral_core import hou_li_filter  # noqa: F401

__all__ = [
    "InstabilityError",
    "ModelParams",
    "VortexIC",
    "TSWState",
    "TSWTendency",
    "tendency",
    "ab3_step",
    "integrate",
    "double_vortex_ic",
    "vorticity_of",
    "AB_COEFFS",
]

# Adams-Bashforth coefficients, most recent tendency first; index = #steps
AB_COEFFS = {
    1: (1.0,),
    2: (3.0 / 2.0, -1.0 / 2.0),
    3: (23.0 / 12.0, -16.0 / 12.0, 5.0 / 12.0),
    4: (55.0 / 24.0, -59.0 / 24.0, 37.0 / 24.0, -9.0 / 24.0),
    5: (1901.0 / 720.0, -2774.0 / 720.0, 2616.0 / 720.0, -1274.0 / 720.0, 251.0 / 720.0),
}

# The model step, named once: Lawson AB of this order, then the Hou-Li
# filter of this exponent.  `morph_engine.nudge` takes the same step.
_MODEL_AB_ORDER = 3
_MODEL_FILTER_A = 12
# The order's stability bounds on the remainder, which `_stability_errors`
# tests a model against: AB3 is stable on the imaginary axis up to
# |lambda dt| ~ 0.72 and on the negative real axis down to -6/11.  The
# waves are propagated exactly.
_MODEL_COURANT_MAX = 0.72
_MODEL_DECAY_MAX = 6 / 11


def _stability_errors(params, ic, grid=None):
    """The model step's pre-flight, a list of messages: one per parameter
    of the ModelParams `params` that breaks one of the bounds above on the
    vortices of the VortexIC `ic`, whose amplitudes VortexIC keeps
    nonnegative, so h and Theta peak at the vortices.  Each begins
    with the parameter it names (`dt: ...`, `kappa: ...`), as the
    classes' own errors do, and names its largest stable value.  dt is
    checked on the GridSpec `grid`; with none, only kappa is.
    """
    # (parameter, its number, its value, its rate, the bound): the number,
    # value * rate or 0 when the value is 0, must not exceed the bound
    checks = []
    if grid is not None:
        # The step carries the gravity waves about the rest state exactly;
        # its remainder moves at most the peak flow speed plus the rise
        # of the gravity wave speed sqrt(h Theta) over the rest state's at
        # the vortex peak.  |grad(eta)| of a Gaussian bump peaks at
        # amplitude / (radius * sqrt(e)), and the geostrophic speed with it;
        # the sign of f only turns the flow around.  Python floats overflow
        # to inf and nan without a warning, and `not x <= bound` rejects both.
        vmax = params.theta0 / abs(params.f) * ic.amplitude / (ic.radius * math.sqrt(math.e))
        rest = math.sqrt(params.h0 * params.theta0)
        peak = math.sqrt((params.h0 + ic.amplitude) * params.theta0 * (1.0 + ic.theta_amplitude))
        rate = (vmax + peak - rest) * math.pi / min(grid.dx, grid.dy)
        checks.append(("dt", "remainder Courant number (max|v| + dc)*k_max*dt", params.dt, rate,
                       _MODEL_COURANT_MAX))
    # the Theta relaxation decays at rate kappa*h, and h peaks near
    # h0 + amplitude; kappa = 0 relaxes nothing however high h gets
    checks.append(("kappa", "relaxation number kappa*(h0 + ic.amplitude)*dt", params.kappa,
                   (params.h0 + ic.amplitude) * params.dt, _MODEL_DECAY_MAX))
    errors = []
    for name, number, value, rate, bound in checks:
        product = value * rate if value else 0.0
        if not product <= bound:
            # the largest stable value, bound / rate rounded down to 4
            # significant digits so that it passes, unless that is not
            # finite (an infinite rate floors 0 to nan)
            with np.errstate(all="ignore"):
                scale = 10.0 ** (np.floor(np.log10(bound / rate)) - 3)
                limit = np.floor(bound / rate / scale) * scale
            largest = f"; the largest stable {name} is {limit:.4g}" if _is_real(limit) else ""
            errors.append(f"{name}: {number} = {product:.3g} exceeds the AB{_MODEL_AB_ORDER} "
                          f"bound {bound:.4g}{largest}")
    return errors


class InstabilityError(RuntimeError):
    """A time step produced non-finite or non-positive prognostic fields.

    `step` is the failing step and, in a batched kernel, `member` the
    lowest failing index in the batch.
    """

    def __init__(self, message, step=None, member=None):
        super().__init__(message if step is None else f"step {step}: {message}")
        self.step = step
        self.member = member


@dataclass
class ModelParams:
    """Physical and numerical model parameters.

    The defaults are the reference model, which both presets of
    `cli_experiments.PRESETS` take, all but dt.  They are documented
    stand-ins sized to keep the double vortex coherent over the spin-up
    horizon: h0 = 1 km depth, Theta0 = 98 km/(100s)^2 (i.e. g), so the
    gravity wave speed is ~9.9 km per time unit; f matches 1e-4 1/s in the
    100 s time unit.  The step propagates those waves exactly, so dt is
    bounded by the flow: the desk preset runs dt = 5 on its 64^2 grid and
    the paper preset dt = 2 on its 256^2 grid.
    """

    f: float = 0.01
    kappa: float = 0.001
    h0: float = 1.0
    theta0: float = 98.0
    dt: float = 1.0

    def __post_init__(self):
        for name, v in vars(self).items():
            if not _is_real(v):
                raise ValueError(f"{name} must be a finite number, got {v!r}")
        # a negative kappa drives Theta away from Theta0 until it turns negative
        if self.kappa < 0:
            raise ValueError(f"kappa must be nonnegative, got {self.kappa!r}")
        for name in ("dt", "h0", "theta0"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.f == 0:
            raise ValueError("f must be nonzero: the initial velocity is Theta0/f * grad(eta)")


@dataclass
class VortexIC:
    """Double-vortex initial condition shape.

    The defaults but ox, oy are the reference vortex, which both presets
    of `cli_experiments.PRESETS` take.  ox, oy are the perturbed center
    offsets, measured in units of `radius` so that offsets drawn from
    `assimilation.CENTER_OFFSET`, N(0.1, 0.1^2), displace the vortices by a
    physically meaningful fraction of their size.  amplitude is the height
    anomaly relative to h0 and theta_amplitude Theta's relative to Theta0,
    both nonnegative; separation is the center-to-center distance, and
    radius^2, which the Gaussian profile divides by, is positive and finite.
    """

    ox: float = 0.0
    oy: float = 0.0
    amplitude: float = 0.1
    radius: float = 400.0
    separation: float = 1250.0
    theta_amplitude: float = 0.05

    def __post_init__(self):
        for name, v in vars(self).items():
            if not _is_real(v):
                raise ValueError(f"{name} must be a finite number, got {v!r}")
        for name in ("amplitude", "theta_amplitude"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)!r}")
        # `double_vortex_ic` divides by the radius's square: 0 makes 0/0 at
        # the vortex centres, and a float's ** raises OverflowError (* gives inf)
        square = float(self.radius) * float(self.radius)
        if not (self.radius > 0 and 0 < square < math.inf):
            raise ValueError(f"radius must be positive and its square positive and finite, "
                             f"got {self.radius!r}")


class TSWState:
    """Thermal shallow water state (h, Theta, v1, v2) on one grid."""

    def __init__(self, h, theta, v1, v2, time=0.0):
        grid = h.grid
        for fld, name in ((theta, "theta"), (v1, "v1"), (v2, "v2")):
            if fld.grid != grid:
                raise ValueError(f"{name} grid mismatch")
        for fld, name in ((h, "h"), (theta, "Theta")):
            low = fld.values.min()
            if low <= 0:
                raise InstabilityError(f"{name} must be strictly positive, min={low:.4g}")
        self.h = h
        self.theta = theta
        self.v1 = v1
        self.v2 = v2
        self.grid = grid
        self.time = float(time)

    @classmethod
    def rest(cls, grid, params):
        return cls(
            ScalarField.constant(grid, params.h0),
            ScalarField.constant(grid, params.theta0),
            ScalarField.zeros(grid),
            ScalarField.zeros(grid),
        )

    def fields(self):
        return (self.h, self.theta, self.v1, self.v2)

    def copy(self):
        return TSWState(
            self.h.copy(), self.theta.copy(), self.v1.copy(), self.v2.copy(), self.time
        )

    def min_diagnostics(self):
        """Positivity diagnostics: (min h, min Theta)."""
        return float(self.h.values.min()), float(self.theta.values.min())

    def __repr__(self):
        return f"TSWState(grid={self.grid!r}, time={self.time:.4g})"


@dataclass
class TSWTendency:
    """A TSWState-shaped increment (plain arrays, one per prognostic field)."""

    dh: np.ndarray
    dtheta: np.ndarray
    dv1: np.ndarray
    dv2: np.ndarray


# The spectral kernel.  A state is held as its values `vals` (4, nx, ny)
# and their rfft2 spectra `spec` (4, nx, ny//2+1), in the order h, Theta,
# v1, v2; a tendency is a spectrum of the same shape.  A batch of members
# adds a member axis after the field axis, vals (4, B, nx, ny): the
# arithmetic broadcasts over it, each FFT call transforms a whole stack
# (one field of all members, or all fields, or a derivative pair), and
# reductions run over the last two axes only.
_MODEL_ERRORS = ("non-finite field after AB step", "positivity lost")
_MORPH_ERRORS = ("non-finite field during morph", "positivity lost during morph")


def _fields(state):
    return np.stack([f.values for f in state.fields()])


def _state(vals, grid, time):
    return TSWState(*(ScalarField(grid, v) for v in vals), time=time)


def _vorticity(spec, grid, out=None, tmp=None):
    # (values, spectrum) of omega = dv2/dx - dv1/dy, written into the pair
    # `out` when given; tmp, when given, is a spectrum-shaped scratch array
    w, wh = (None, None) if out is None else out
    wh = np.multiply(grid._ikx_odd[:, None], spec[3], out=wh)
    tmp = np.multiply(grid._iky_odd[None, :], spec[2], out=tmp)
    wh -= tmp
    # tmp, free once subtracted, takes the inverse's complex pass
    return _irfft2(wh, grid.shape, w, tmp), wh


def _tendency_hat(vals, spec, params, grid, omega=None, grad_th=None, out=None, tmp=None):
    """rfft2 spectra (4, nx, ny//2+1) of the remainder N = tendency - L spec
    of (h, Theta, v1, v2).

    L spec is the part linear about the rest state (h0, Theta0, v = 0),
    the inertia-gravity waves that `_propagator` carries exactly.  N is
    formed in grid space, before the transforms: the mass flux is
    (h - h0) v, the Bernoulli term h (Theta - Theta0) + |v|^2 / 2, and the
    momentum takes omega where the full tendency takes omega + f.  This is
    the pseudo-spectral transform method: derivatives are taken on the
    state spectra, products on grid values, and each product is
    transformed once.  The momentum is in vector-invariant form (Sadourny
    1975),

        (v . grad) v + f zhat x v = grad(|v|^2 / 2) + (omega + f) zhat x v,

    so it needs only the vorticity omega, not the four derivatives of v:
    N_v = -grad(h (Theta - Theta0) + |v|^2 / 2) + omega (v2, -v1) + (h/2) grad(Theta).
    A call makes 6 rfft2 + 3 irfft2 (omega, grad Theta) in 8 calls; a
    caller that holds omega or grad(Theta) as values passes them in and
    saves those.
    The rows are written into `out` and the temporaries into the scratch
    `tmp` (see `_scratch`) when these are given; omega and grad_th are
    only read.
    """
    h, th, v1, v2 = vals
    ikx, iky = grid._ikx_odd[:, None], grid._iky_odd[None, :]
    r, c = _scratch(h.shape) if tmp is None else tmp
    if omega is None:
        omega, _ = _vorticity(spec, grid, tmp=c[0])
    thx, thy = _grad_hat(spec[1], grid, tmp=c) if grad_th is None else grad_th
    out = np.empty_like(spec) if out is None else out
    # the Bernoulli term's spectrum, kept in c[1] for both momentum rows
    bern = np.subtract(th, params.theta0, out=r[0])
    bern *= h
    for v in (v1, v2):
        bern += np.multiply(np.multiply(v, 0.5, out=r[1]), v, out=r[1])
    p_hat = _rfft2(bern, c[1])
    # -div((h - h0) v)
    eta = np.subtract(h, params.h0, out=r[0])
    flux = _rfft2(np.multiply(eta, v1, out=r[1]), out[0])
    flux *= ikx
    flux += np.multiply(iky, _rfft2(np.multiply(eta, v2, out=r[1]), c[0]), out=c[0])
    np.negative(flux, out=flux)
    # -(v . grad Theta) - kappa (h Theta - h0 Theta0)
    dth = np.multiply(v1, thx, out=r[0])
    dth += np.multiply(v2, thy, out=r[1])
    relax = np.multiply(h, th, out=r[1])
    relax -= params.h0 * params.theta0
    relax *= params.kappa
    np.negative(dth, out=dth)
    _rfft2(np.subtract(dth, relax, out=dth), out[1])
    # omega v2 + (h/2) dTheta/dx - d/dx(Bernoulli), and the v2 row alike
    dv1 = np.multiply(omega, v2, out=r[0])
    dv1 += np.multiply(np.multiply(h, 0.5, out=r[1]), thx, out=r[1])
    _rfft2(dv1, out[2])
    out[2] -= np.multiply(ikx, p_hat, out=c[0])
    dv2 = np.multiply(np.multiply(h, 0.5, out=r[0]), thy, out=r[0])
    dv2 -= np.multiply(omega, v1, out=r[1])
    _rfft2(dv2, out[3])
    out[3] -= np.multiply(iky, p_hat, out=c[0])
    return out


def _add_rest_wave(tend, spec, params, grid):
    # tend += L spec in place, the rest-state waves that `_tendency_hat`
    # leaves out (L of `_propagator`; it does not touch Theta)
    ikx, iky = grid._ikx_odd[:, None], grid._iky_odd[None, :]
    h, _, v1, v2 = spec
    tend[0] -= params.h0 * (ikx * v1 + iky * v2)
    tend[2] -= params.theta0 * ikx * h - params.f * v2
    tend[3] -= params.theta0 * iky * h + params.f * v1


@functools.lru_cache(maxsize=16)
def _propagator(grid, f, h0, theta0, dt):
    """exp(L dt) per rfft2 mode, a read-only (3, 3, nx, ny//2+1) array.

    L is the inertia-gravity operator about the rest state on (h, v1, v2):
    dh = -h0 div v, dv = -f zhat x v - theta0 grad h, with the odd
    derivatives.  Its eigenvalues are 0 and +-i omega, omega^2 = f^2 +
    h0 theta0 |k|^2, so L^3 = -omega^2 L and
    exp(L dt) = I + (sin(omega dt)/omega) L + ((1 - cos(omega dt))/omega^2) L^2.
    At k = 0 the h row is (1, 0, 0): the mean of h never moves.
    """
    a, b = np.broadcast_arrays(grid._ikx_odd[:, None], grid._iky_odd[None, :])
    # L, filled in place; c L^2 and then s L are formed in the result's own
    # buffer, so the only full-size arrays are L and the result
    lin = np.zeros((3, 3, *a.shape), dtype=complex)
    lin[0, 1], lin[0, 2], lin[1, 0], lin[2, 0] = -h0 * a, -h0 * b, -theta0 * a, -theta0 * b
    lin[1, 2], lin[2, 1] = f, -f
    w = np.sqrt(f * f + h0 * theta0 * (a.imag**2 + b.imag**2))
    s = np.sin(w * dt) / w
    c = 2.0 * (np.sin(0.5 * w * dt) / w) ** 2  # (1 - cos(w dt)) / w^2 without cancellation
    prop = np.einsum("ikxy,kjxy->ijxy", lin, lin)
    prop *= c
    lin *= s
    prop += lin
    for i in range(3):
        prop[i, i] += 1.0
    prop.flags.writeable = False
    return prop


def _hermitian(spec, tmp):
    # In place: the ky = 0 and Nyquist columns of an rfft2 spectrum hold
    # X(-kx) = conj X(kx) for a real field; keep that part only, so the
    # spectrum stays that of the values irfft2 makes of it.  tmp is a
    # complex array of spec's shape less its last axis.
    for j in (0, -1):
        col = spec[..., j]
        np.conjugate(col[..., :1], out=tmp[..., :1])
        np.conjugate(col[..., :0:-1], out=tmp[..., 1:])  # X(-kx), kx = 1 .. nx-1
        col += tmp
        col *= 0.5


def _propagate(prop, x, out):
    # prop applied to the (h, v1, v2) spectra of x, written into `out`
    # (not x); Theta passes unchanged.  out's Theta row holds the products
    # until Theta is copied into it.
    h, _, v1, v2 = x
    tmp = out[1]
    for i, row in zip((0, 2, 3), prop):
        np.multiply(row[0], h, out=out[i])
        out[i] += np.multiply(row[1], v1, out=tmp)
        out[i] += np.multiply(row[2], v2, out=tmp)
    out[1] = x[1]
    return out


class _Workspace:
    """The arrays of one batch loop, allocated once and reused every step.

    vals and spec hold the states (4, B, nx, ny) and their spectra, which
    each step overwrites; omega holds the vorticity's values and (r, c) the
    kernel's scratch (see `spectral_core._scratch`).  The AB history is
    ring, an (order, 4, B, nx, ny//2+1) array of the last `order` tendency
    spectra, and count, the number of tendencies written.  The caller writes
    the tendency of step n in place into `slot()`, slot n % order, and
    `_ab_advance` counts it; so keeping the history copies nothing, and once
    a step has read its oldest entry, `slot()` is free until the next
    tendency.  The newest `order` entries of `history`, a typed step's list
    of earlier tendencies (oldest first), fill the first slots.  A loop that
    takes the model's Lawson step (`model`) also holds grad_th, the values
    of grad(Theta), and spare, a spectrum of the state's shape for the
    Horner sum (and the nudge's transport).  The morph's loop (`morph`)
    also holds omega_hat, the vorticity's spectrum, and u, the values of
    the displacement; its spectra borrow `slot()`, free until the step's
    tendency, and its H1 densities r.  Every array ends in the axes
    (member, x, y), so `keep` slices them all alike.
    """

    def __init__(self, states, order, model=False, morph=False, history=()):
        self.vals = np.stack([_fields(s) for s in states], axis=1)
        self.spec = _rfft2(self.vals)
        members = self.vals.shape[1:]
        self.omega = np.empty(members)
        self.r, self.c = _scratch(members)
        self.ring = np.empty((order, *self.spec.shape), dtype=complex)
        self.count = 0
        for tend in history[-order:]:
            self.ring[self.count] = tend
            self.count += 1
        if model:
            self.grad_th = np.empty((2, *members))
            self.spare = np.empty_like(self.spec)
        if morph:
            self.omega_hat = np.empty_like(self.spec[0])
            self.u = np.empty((2, *members))

    def slot(self):
        """The ring slot the next tendency is written into."""
        return self.ring[self.count % len(self.ring)]

    def save(self, history):
        """Append a copy of the newest tendency to the list `history`, cut
        to its newest `order` entries."""
        history.append(self.ring[(self.count - 1) % len(self.ring)].copy())
        del history[: -len(self.ring)]

    def keep(self, mask):
        """Keep the members where `mask` is true, in every array, once; the
        copies are contiguous, as `_ab_sum` needs."""
        for name, arr in list(vars(self).items()):
            if isinstance(arr, np.ndarray):
                setattr(self, name, np.compress(mask, arr, axis=-3))


def _ab_sum(weights, rows, out):
    # out = sum_i weights[i] rows[i], in one pass: a vector-matrix product
    # of the float views.  Each row and `out` must be contiguous, since a
    # reshape that copied would lose the result.  einsum, not np.dot: the
    # BLAS product spins OpenBLAS threads, which ran it slower and less
    # steadily on a loaded 2-vCPU host.
    mat = rows.view(float).reshape(len(rows), -1, copy=False)
    np.einsum("i,ij->j", weights, mat, out=out.view(float).reshape(-1, copy=False))


def _ab_advance(ws, size, filter_a, grid, step, model=None):
    """One Adams-Bashforth step on the spectra of the _Workspace `ws`,
    shared by the model and the morph, and by the batch loops and the
    typed functions, which are batch-of-one runs.

    The caller has written the tendency into `ws.slot()`; the step counts
    it as the ring's newest entry, so repeated calls bootstrap the order up
    to the ring's length.  It advances ws.spec by `size` times the AB sum,
    applies the Hou-Li multiplier `filter_a` and transforms each field
    back once into ws.vals, both overwritten: one call per field in the
    plain step, one for the whole stack in the Lawson step.  The plain
    step forms size sum_j c_j T_{n-j} in one pass over the ring
    (`_ab_sum`).
    With the ModelParams `model` the step is Lawson's integrating-factor AB
    (Cox & Matthews 2002): the tendency is the remainder N = tendency -
    L spec of `_tendency_hat`, and the exact propagator E = exp(L size)
    carries the rest-state waves L spec,

        spec_new = E [spec + size sum_j c_j E^j N_{n-j}],

    so the gravity waves do not bound `size`.  Raises InstabilityError at
    `step` when a field turns non-finite or h or Theta non-positive, with
    the message prefixes `_MODEL_ERRORS` for the model's step and
    `_MORPH_ERRORS` for the morph's; it names the lowest failing member.
    """
    ring, spec, vals = ws.ring, ws.spec, ws.vals
    ws.count += 1
    # the filled slots' indices, oldest first
    slots = [n % len(ring) for n in range(max(ws.count - len(ring), 0), ws.count)]
    coeffs = AB_COEFFS[len(slots)]
    filt = _hou_li(grid, filter_a)
    if model is None:
        # the ring's filled slots are its first len(slots), in ring order
        weights = np.empty(len(slots))
        weights[slots] = coeffs[::-1]
        weights *= size
        rows, ab_sum = ring[: len(slots)], ws.c[0]
        # (spec + size * AB sum) * multiplier, then the inverse transform,
        # field by field: each field's arrays are still in cache.  ab_sum,
        # free once added, takes the inverse's complex pass.
        for f, (s, v) in enumerate(zip(spec, vals)):
            _ab_sum(weights, rows[:, f], ab_sum)
            np.add(ab_sum, s, out=s)
            s *= filt
            _irfft2(s, grid.shape, v, ab_sum)
    else:
        # size sum_j c_j E^j N_{n-j} by Horner's rule from the oldest entry,
        # in two buffers that take turns: the ring's next slot, free once
        # the oldest entry is read, and ws.spare; both are free again for
        # the inverse transforms' complex pass
        prop = _propagator(grid, model.f, model.h0, model.theta0, size)
        acc, other = ws.slot(), ws.spare
        weights = [size * c for c in coeffs[::-1]]
        np.multiply(ring[slots[0]], weights[0], out=acc)
        for w, i in zip(weights[1:], slots[1:]):
            _propagate(prop, acc, other)
            other += np.multiply(ring[i], w, out=acc)
            acc, other = other, acc
        acc += spec
        _propagate(prop, acc, spec)
        _hermitian(spec, other[..., 0])
        spec *= filt
        _irfft2(spec, grid.shape, vals, acc)
    # per member; the lowest failing member is reported, with its own minima
    finite = np.isfinite(vals).all(axis=(0, -2, -1))
    hmin, thmin = vals[0].min(axis=(-2, -1)), vals[1].min(axis=(-2, -1))
    failed = ~finite | (hmin <= 0) | (thmin <= 0)
    if failed.any():
        b = int(np.flatnonzero(failed)[0])
        nonfinite, positivity = _MORPH_ERRORS if model is None else _MODEL_ERRORS
        if not finite.flat[b]:
            raise InstabilityError(nonfinite, step=step, member=b)
        raise InstabilityError(f"{positivity}: min h={hmin.flat[b]:.4g}, "
                               f"min Theta={thmin.flat[b]:.4g}", step=step, member=b)


def tendency(state, params):
    """Instantaneous tendencies of (h, Theta, v1, v2), spectral derivatives."""
    vals = _fields(state)
    spec = _rfft2(vals)
    tend = _tendency_hat(vals, spec, params, state.grid)
    _add_rest_wave(tend, spec, params, state.grid)
    return TSWTendency(*_irfft2(tend, state.grid.shape, tmp=tend))


def _model_step(ws, params, grid, step, push=None):
    """One model step of the _Workspace `ws`, in place: the remainder
    tendency into the ring's slot, then the Lawson AB step.  With push =
    (u, strength) it is `morph_engine.nudge`'s step: strength times the
    morph's transport along the displacement values u joins the tendency,
    and both read the vorticity ws.omega holds and one grad(Theta)."""
    vals, spec, tend, tmp = ws.vals, ws.spec, ws.slot(), (ws.r, ws.c)
    if push is None:
        _vorticity(spec, grid, (ws.omega, ws.c[0]), ws.c[1])
    grad_th = _grad_hat(spec[1], grid, ws.grad_th, ws.c)
    _tendency_hat(vals, spec, params, grid, ws.omega, grad_th, tend, tmp)
    if push is not None:
        moved = _transport_hat(vals, spec, ws.omega, push[0], grid, grad_th, ws.spare, tmp)
        tend += np.multiply(moved, push[1], out=moved)
    _ab_advance(ws, params.dt, _MODEL_FILTER_A, grid, step, params)


def ab3_step(state, history, params, step=None):
    """Advance one dt by integrating-factor Adams-Bashforth (order =
    len(history)+1, capped at `_MODEL_AB_ORDER`).

    The rest-state gravity waves are propagated exactly, and the rest of
    the tendency goes through the AB history (see `_ab_advance`).
    `history` holds the previous remainders as opaque spectra, oldest
    first; it is updated in place (current remainder appended, stale
    entries dropped), so repeated calls bootstrap the order up to its cap.
    The Hou-Li filter of exponent `_MODEL_FILTER_A` is applied to every
    prognostic field after the update.  It is one step of
    `_integrate_batch` with a batch of one.
    """
    ws = _Workspace([state], _MODEL_AB_ORDER, model=True, history=history)
    _model_step(ws, params, state.grid, step)
    ws.save(history)
    return _state(ws.vals[:, 0], state.grid, state.time + params.dt)


def integrate(state, n_steps, params):
    """Run n_steps of the ab3_step scheme from a fresh tendency history.

    The loop runs on spectra: 6 rfft2 + 7 irfft2 per step in 9 calls (the
    vorticity and grad(Theta) back, one call each, six products forward,
    and the four fields back in one call); the wave propagator is a
    per-mode multiplier, computed once per grid and ModelParams.  It is
    `_integrate_batch` with a batch of one, and runs on that loop's
    workspace, allocated once per call.
    """
    return _integrate_batch([state], n_steps, params)[0]


def _integrate_batch(states, n_steps, params, stop=None):
    """integrate for states on one grid, advanced in lockstep; a list.

    The members share every FFT call, so a step makes 9 calls, of 6 rfft2
    + 7 irfft2 per member, whatever their number, and each member's
    result equals its own `integrate` bit for bit.  An InstabilityError names the first failing
    step across the batch; its `member` is the lowest failing index in
    `states`.  Once the threading.Event `stop` is set, the next step raises
    CancelledError.  The arrays of the loop are one `_Workspace`, which
    each step overwrites; the states returned are views of its values.
    """
    if not (_is_int(n_steps) and n_steps >= 0):
        raise ValueError(f"n_steps must be a nonnegative integer, got {n_steps!r}")
    g = states[0].grid
    ws = _Workspace(states, _MODEL_AB_ORDER, model=True)
    times = np.array([s.time for s in states])
    for k in range(n_steps):
        if stop is not None and stop.is_set():
            raise CancelledError
        _model_step(ws, params, g, k)
        times = times + params.dt
    return [_state(ws.vals[:, b], g, t) for b, t in enumerate(times)]


def _wrapped_gauss(x, y, cx, cy, radius, lx, ly):
    # periodized Gaussian via wrapped displacement; tails at the seam are
    # exponentially negligible for radius << domain
    dx = (x - cx + lx / 2.0) % lx - lx / 2.0
    dy = (y - cy + ly / 2.0) % ly - ly / 2.0
    return np.exp(-(dx**2 + dy**2) / (2.0 * radius**2))


def _vortex_centres(ic, grid):
    """The (x, y) centres in km of the two vortices of `double_vortex_ic`."""
    cx0, cy0 = grid.lx / 2.0 + ic.ox * ic.radius, grid.ly / 2.0 + ic.oy * ic.radius
    return (cx0 - ic.separation / 2.0, cy0), (cx0 + ic.separation / 2.0, cy0)


def double_vortex_ic(ic, grid, params):
    """Two Gaussian height anomalies in geostrophic balance.

    The construction is a documented stand-in with the perturbation
    interface (ox, oy): vortices sit at the domain center +- separation/2
    along x, both shifted by (ox, oy) * radius; Theta carries co-located
    anomalies; the velocity balances the height field with effective
    gravity Theta0: v = (Theta0/f) * (-deta/dy, deta/dx).  VortexIC keeps
    the amplitudes nonnegative, so h >= h0 > 0 and Theta >= Theta0 > 0.
    """
    x, y = grid.xy()
    bumps = sum(_wrapped_gauss(x, y, cx, cy, ic.radius, grid.lx, grid.ly)
                for cx, cy in _vortex_centres(ic, grid))

    h = params.h0 + ic.amplitude * bumps
    th = params.theta0 * (1.0 + ic.theta_amplitude * bumps)
    eta_x, eta_y = _grad_hat(_rfft2(h - params.h0), grid)
    coef = params.theta0 / params.f
    return _state((h, th, -coef * eta_y, coef * eta_x), grid, 0.0)


def vorticity_of(state):
    """Vorticity omega = dv2/dx - dv1/dy."""
    return curl_2d(DisplacementField(state.v1, state.v2))
