"""Thermal shallow water dynamics on the periodic grid.

Prognostic fields h (height), Theta (buoyancy), v1, v2 (velocity) obey

    dh/dt     = -div(h v)
    dTheta/dt = -(v . grad) Theta - kappa (h Theta - h0 Theta0)
    dv/dt     = -(v . grad) v - f zhat x v - grad(h Theta) + (h/2) grad(Theta)

in km / 100 s units.  Time stepping is Lawson's integrating-factor
Adams-Bashforth up to order 3 with a lower-order bootstrap, followed by
the Hou-Li filter (a = 12) on every prognostic field.  The inertia-gravity
waves about the rest state (h0, Theta0, v = 0), linear and per Fourier
mode a 3 x 3 system in (h, v1, v2), are propagated exactly by exp(L dt);
only the remainder N = tendency - L spec goes through the AB history.
`_tendency_hat` forms N in grid space, before the forward transforms:
the mass flux is (h - h0) v, the Bernoulli term h (Theta - Theta0) +
|v|^2 / 2 and the momentum's vorticity omega, not omega + f; so no L
spec is computed and subtracted again.  The gravity waves, ~7x faster
than the flow, do not bound dt: the remainder's Courant number does (see
`cli_experiments.validate_config`).  The momentum is evaluated in
vector-invariant form, (v . grad) v + f zhat x v = grad(|v|^2 / 2) +
(omega + f) zhat x v, which needs the vorticity omega but no derivative
of v.  The step runs in Fourier space (6 rfft2 + 7 irfft2 per step) and
shares `_ab_advance` with the morph, which has no linear part and takes
the plain AB step; the AB history holds opaque spectra.  The kernel carries a
member axis: `_integrate_batch` advances a batch of states in lockstep
with the same 13 FFT calls per step, and `integrate` is its batch of one.
The nudged model, this tendency plus the morph's tensor transport, is
`morph_engine.nudge`.

Every step runs on a `_Workspace`: arrays allocated once per batch and
reused every step, into which the kernel helpers write through their
`out=` and scratch arguments.  The typed step functions are batch-of-one
runs on a workspace of their own.  The AB history is the workspace's
own ring, seeded from a typed step's history list: one (order, ...)
array whose slots the tendencies are written into, so the plain AB sum
is a single pass, the coefficient vector times the slots viewed as an
(order, n) float matrix, and the Lawson step's Horner sum takes turns
between the ring's next slot and one spare spectrum.  Inverse transforms
call np.fft.irfftn through `spectral_core._irfft2`: np.fft.irfft2 drops
its `out` argument (numpy 2.4).
"""

import functools
from concurrent.futures import CancelledError
from dataclasses import dataclass

import numpy as np

from .forms import DisplacementField
from .spectral_core import (ScalarField, _deriv, _deriv_hat, _hou_li, _irfft2, _is_int, _is_real,
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
    5: (
        1901.0 / 720.0,
        -2774.0 / 720.0,
        2616.0 / 720.0,
        -1274.0 / 720.0,
        251.0 / 720.0,
    ),
}


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

    Defaults are documented stand-ins sized to keep the double vortex
    coherent over the spin-up horizon: h0 = 1 km depth, Theta0 = 98
    km/(100s)^2 (i.e. g), so the gravity wave speed is ~9.9 km per time
    unit; f matches 1e-4 1/s in the 100 s time unit.  The step propagates
    those waves exactly, so dt is bounded by the flow: the desk preset
    runs dt = 5 on its 64^2 grid and the paper preset dt = 2 on its 256^2
    grid.
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
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.h0 <= 0 or self.theta0 <= 0:
            raise ValueError("h0 and theta0 must be positive")
        if self.f == 0:
            raise ValueError("f must be nonzero: the initial velocity is Theta0/f * grad(eta)")


@dataclass
class VortexIC:
    """Double-vortex initial condition shape.

    ox, oy are the perturbed center offsets, measured in units of `radius`
    so that offsets drawn from N(0.1, 0.01) displace the vortices by a
    physically meaningful fraction of their size.  amplitude is the height
    anomaly relative to h0; separation is the center-to-center distance.
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
        if self.radius <= 0:
            raise ValueError("radius must be positive")


class TSWState:
    """Thermal shallow water state (h, Theta, v1, v2) on one grid."""

    def __init__(self, h, theta, v1, v2, time=0.0):
        grid = h.grid
        for fld, name in ((theta, "theta"), (v1, "v1"), (v2, "v2")):
            if fld.grid != grid:
                raise ValueError(f"{name} grid mismatch")
        if h.values.min() <= 0:
            raise InstabilityError(f"h must be strictly positive, min={h.values.min():.4g}")
        if theta.values.min() <= 0:
            raise InstabilityError(
                f"Theta must be strictly positive, min={theta.values.min():.4g}"
            )
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
# arithmetic broadcasts over it, each FFT call transforms one field of all
# members, and reductions run over the last two axes only.
_MODEL_ERRORS = ("non-finite field after AB step", "positivity lost")


def _rfft_all(vals):
    # the spectrum of each field
    out = np.empty((*vals.shape[:-1], vals.shape[-1] // 2 + 1), dtype=complex)
    for v, o in zip(vals, out):
        np.fft.rfft2(v, out=o)
    return out


def _irfft_all(spec, grid, out=None):
    # the values of each field, written into `out` when given
    out = np.empty((*spec.shape[:-2], *grid.shape)) if out is None else out
    for s, o in zip(spec, out):
        _irfft2(s, grid.shape, o)
    return out


def _fields(state):
    return np.stack([f.values for f in state.fields()])


def _state(vals, grid, time):
    return TSWState(*(ScalarField(grid, v) for v in vals), time=time)


def _vorticity(spec, grid, out=None, tmp=None):
    # (values, spectrum) of omega = dv2/dx - dv1/dy, written into the pair
    # `out` when given; tmp, when given, is a spectrum-shaped scratch array
    w, wh = (None, None) if out is None else out
    wh = np.multiply(grid._ikx_odd[:, None], spec[3], out=wh)
    wh -= np.multiply(grid._iky_odd[None, :], spec[2], out=tmp)
    return _irfft2(wh, grid.shape, w), wh


def _grad_theta(spec, grid, out=None, tmp=None):
    # values of dTheta/dx and dTheta/dy, written into the pair `out` when
    # given; tmp, when given, is a spectrum-shaped scratch array
    out = (None, None) if out is None else out
    return tuple(_deriv_hat(spec[1], grid, a, out[a], tmp) for a in (0, 1))


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
    A call makes 6 rfft2 + 3 irfft2 (omega, grad Theta); a caller that
    holds omega or grad(Theta) as values passes them in and saves those.
    The rows are written into `out` and the temporaries into the scratch
    `tmp` (see `_scratch`) when these are given; omega and grad_th are
    only read.
    """
    h, th, v1, v2 = vals
    ikx, iky = grid._ikx_odd[:, None], grid._iky_odd[None, :]
    r, c = _scratch(h.shape) if tmp is None else tmp
    if omega is None:
        omega, _ = _vorticity(spec, grid, tmp=c[0])
    thx, thy = _grad_theta(spec, grid, tmp=c[0]) if grad_th is None else grad_th
    out = np.empty_like(spec) if out is None else out
    # the Bernoulli term's spectrum, kept in c[1] for both momentum rows
    bern = np.subtract(th, params.theta0, out=r[0])
    bern *= h
    for v in (v1, v2):
        bern += np.multiply(np.multiply(v, 0.5, out=r[1]), v, out=r[1])
    p_hat = np.fft.rfft2(bern, out=c[1])
    # -div((h - h0) v)
    eta = np.subtract(h, params.h0, out=r[0])
    flux = np.fft.rfft2(np.multiply(eta, v1, out=r[1]), out=out[0])
    flux *= ikx
    flux += np.multiply(iky, np.fft.rfft2(np.multiply(eta, v2, out=r[1]), out=c[0]), out=c[0])
    np.negative(flux, out=flux)
    # -(v . grad Theta) - kappa (h Theta - h0 Theta0)
    dth = np.multiply(v1, thx, out=r[0])
    dth += np.multiply(v2, thy, out=r[1])
    relax = np.multiply(h, th, out=r[1])
    relax -= params.h0 * params.theta0
    relax *= params.kappa
    np.negative(dth, out=dth)
    np.fft.rfft2(np.subtract(dth, relax, out=dth), out=out[1])
    # omega v2 + (h/2) dTheta/dx - d/dx(Bernoulli), and the v2 row alike
    dv1 = np.multiply(omega, v2, out=r[0])
    dv1 += np.multiply(np.multiply(h, 0.5, out=r[1]), thx, out=r[1])
    np.fft.rfft2(dv1, out=out[2])
    out[2] -= np.multiply(ikx, p_hat, out=c[0])
    dv2 = np.multiply(np.multiply(h, 0.5, out=r[0]), thy, out=r[0])
    dv2 -= np.multiply(omega, v1, out=r[1])
    np.fft.rfft2(dv2, out=out[3])
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
    zero, fs = np.zeros(a.shape), np.full(a.shape, f)
    lin = np.array([[zero, -h0 * a, -h0 * b], [-theta0 * a, zero, fs], [-theta0 * b, -fs, zero]])
    w = np.sqrt(f * f + h0 * theta0 * (a.imag**2 + b.imag**2))
    s = np.sin(w * dt) / w
    c = 2.0 * (np.sin(0.5 * w * dt) / w) ** 2  # (1 - cos(w dt)) / w^2 without cancellation
    prop = s * lin + c * np.einsum("ikxy,kjxy->ijxy", lin, lin)
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
    Horner sum (and the nudge's transport).  The morph's loop (`n_observed`
    not None) also holds omega_hat, the vorticity's spectrum, u and uh the
    displacement, forcing the displacement of each observable and dens the
    H1 densities.  Every array ends in the axes (member, x, y), so `keep`
    slices them all alike.
    """

    def __init__(self, states, order, model=False, n_observed=None, history=()):
        self.vals = np.stack([_fields(s) for s in states], axis=1)
        self.spec = _rfft_all(self.vals)
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
        if n_observed is not None:
            self.omega_hat = np.empty_like(self.spec[0])
            self.u = np.empty((2, *members))
            self.uh = np.empty_like(self.spec[:2])
            self.forcing = np.empty((n_observed, *self.uh.shape), dtype=complex)
            self.dens = np.empty(self.uh.shape)

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


def _ab_advance(ws, size, filter_a, grid, step, errors, model=None):
    """One Adams-Bashforth step on the spectra of the _Workspace `ws`,
    shared by the model and the morph, and by the batch loops and the
    typed functions, which are batch-of-one runs.

    The caller has written the tendency into `ws.slot()`; the step counts
    it as the ring's newest entry, so repeated calls bootstrap the order up
    to the ring's length.  It advances ws.spec by `size` times the AB sum,
    applies the Hou-Li multiplier `filter_a` and transforms each field
    back once into ws.vals, both overwritten.  The plain step forms
    size sum_j c_j T_{n-j} in one pass over the ring (`_ab_sum`).
    With the ModelParams `model` the step is Lawson's integrating-factor AB
    (Cox & Matthews 2002): the tendency is the remainder N = tendency -
    L spec of `_tendency_hat`, and the exact propagator E = exp(L size)
    carries the rest-state waves L spec,

        spec_new = E [spec + size sum_j c_j E^j N_{n-j}],

    so the gravity waves do not bound `size`.  Raises InstabilityError at
    `step`, with the message prefixes `errors`, when a field turns
    non-finite or h or Theta non-positive; it names the lowest failing
    member.
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
        # field by field: each field's arrays are still in cache
        for f, (s, v) in enumerate(zip(spec, vals)):
            _ab_sum(weights, rows[:, f], ab_sum)
            np.add(ab_sum, s, out=s)
            s *= filt
            _irfft2(s, grid.shape, v)
    else:
        # size sum_j c_j E^j N_{n-j} by Horner's rule from the oldest entry,
        # in two buffers that take turns: the ring's next slot, free once
        # the oldest entry is read, and ws.spare
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
        _irfft_all(spec, grid, vals)
    # per member; the lowest failing member is reported, with its own minima
    finite = np.isfinite(vals).all(axis=(0, -2, -1))
    hmin, thmin = vals[0].min(axis=(-2, -1)), vals[1].min(axis=(-2, -1))
    failed = ~finite | (hmin <= 0) | (thmin <= 0)
    if failed.any():
        b = int(np.flatnonzero(failed)[0])
        nonfinite, positivity = errors
        if not finite.flat[b]:
            raise InstabilityError(nonfinite, step=step, member=b)
        raise InstabilityError(f"{positivity}: min h={hmin.flat[b]:.4g}, "
                               f"min Theta={thmin.flat[b]:.4g}", step=step, member=b)


def tendency(state, params):
    """Instantaneous tendencies of (h, Theta, v1, v2), spectral derivatives."""
    vals = _fields(state)
    spec = _rfft_all(vals)
    tend = _tendency_hat(vals, spec, params, state.grid)
    _add_rest_wave(tend, spec, params, state.grid)
    return TSWTendency(*_irfft_all(tend, state.grid))


def _model_step(ws, params, grid, step):
    """One model step of the _Workspace `ws`, in place: the remainder
    tendency into the ring's slot, then the Lawson AB3 step."""
    omega, _ = _vorticity(ws.spec, grid, (ws.omega, ws.c[0]), ws.c[1])
    grad_th = _grad_theta(ws.spec, grid, ws.grad_th, ws.c[0])
    _tendency_hat(ws.vals, ws.spec, params, grid, omega, grad_th, ws.slot(), (ws.r, ws.c))
    _ab_advance(ws, params.dt, 12, grid, step, _MODEL_ERRORS, params)


def ab3_step(state, history, params, step=None):
    """Advance one dt by integrating-factor Adams-Bashforth (order =
    len(history)+1, capped at 3).

    The rest-state gravity waves are propagated exactly, and the rest of
    the tendency goes through the AB history (see `_ab_advance`).
    `history` holds the previous remainders as opaque spectra, oldest
    first; it is updated in place (current remainder appended, stale
    entries dropped), so repeated calls bootstrap AB1 -> AB2 -> AB3.  The
    Hou-Li filter (a = 12) is applied to every prognostic field after the
    update.  It is one step of `_integrate_batch` with a batch of one.
    """
    ws = _Workspace([state], 3, model=True, history=history)
    _model_step(ws, params, state.grid, step)
    ws.save(history)
    return _state(ws.vals[:, 0], state.grid, state.time + params.dt)


def integrate(state, n_steps, params):
    """Run n_steps of the ab3_step scheme from a fresh tendency history.

    The loop runs on spectra: 6 rfft2 + 7 irfft2 per step (the vorticity
    and grad(Theta) back, six products forward, each field back once); the
    wave propagator is a per-mode multiplier, computed once per grid and
    ModelParams.  It is `_integrate_batch` with a batch of one, and runs
    on that loop's workspace, allocated once per call.
    """
    return _integrate_batch([state], n_steps, params)[0]


def _integrate_batch(states, n_steps, params, stop=None):
    """integrate for states on one grid, advanced in lockstep; a list.

    The members share every FFT call, so a step makes 6 rfft2 + 7 irfft2
    whatever their number, and each member's result equals its own
    `integrate` bit for bit.  An InstabilityError names the first failing
    step across the batch; its `member` is the lowest failing index in
    `states`.  Once the threading.Event `stop` is set, the next step raises
    CancelledError.  The arrays of the loop are one `_Workspace`, which
    each step overwrites; the states returned are views of its values.
    """
    if not (_is_int(n_steps) and n_steps >= 0):
        raise ValueError(f"n_steps must be a nonnegative integer, got {n_steps!r}")
    g = states[0].grid
    ws = _Workspace(states, 3, model=True)
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


def double_vortex_ic(ic, grid, params):
    """Two Gaussian height anomalies in geostrophic balance.

    The construction is a documented stand-in with the perturbation
    interface (ox, oy): vortices sit at the domain center +- separation/2
    along x, both shifted by (ox, oy) * radius; Theta carries co-located
    anomalies; the velocity balances the height field with effective
    gravity Theta0: v = (Theta0/f) * (-deta/dy, deta/dx).
    """
    x, y = grid.xy()
    cx0 = grid.lx / 2.0 + ic.ox * ic.radius
    cy0 = grid.ly / 2.0 + ic.oy * ic.radius
    bumps = _wrapped_gauss(
        x, y, cx0 - ic.separation / 2.0, cy0, ic.radius, grid.lx, grid.ly
    ) + _wrapped_gauss(x, y, cx0 + ic.separation / 2.0, cy0, ic.radius, grid.lx, grid.ly)

    h = params.h0 + ic.amplitude * bumps
    th = params.theta0 * (1.0 + ic.theta_amplitude * bumps)
    if h.min() <= 0 or th.min() <= 0:
        raise ValueError("initial condition must keep h and Theta positive")

    eta = ScalarField(grid, h - params.h0)
    coef = params.theta0 / params.f
    v1 = -coef * _deriv(eta.values, grid, 1)
    v2 = coef * _deriv(eta.values, grid, 0)
    return TSWState(
        ScalarField(grid, h),
        ScalarField(grid, th),
        ScalarField(grid, v1),
        ScalarField(grid, v2),
    )


def vorticity_of(state):
    """Vorticity omega = dv2/dx - dv1/dy."""
    return curl_2d(DisplacementField(state.v1, state.v2))
