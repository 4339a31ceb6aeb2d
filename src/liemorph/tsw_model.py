"""Thermal shallow water dynamics on the periodic grid.

Prognostic fields h (height), Theta (buoyancy), v1, v2 (velocity) obey

    dh/dt     = -div(h v)
    dTheta/dt = -(v . grad) Theta - kappa (h Theta - h0 Theta0)
    dv/dt     = -(v . grad) v - f zhat x v - grad(h Theta) + (h/2) grad(Theta)

in km / 100 s units.  Time stepping is Adams-Bashforth up to order 3 with a
lower-order bootstrap, followed by the Hou-Li filter (a = 12) on every
prognostic field.  The step runs in Fourier space (8 FFT pairs per step) and
shares `_ab_advance` with the morph; the AB history holds opaque spectra.
The kernel carries a member axis: `_integrate_batch` advances a batch of
states in lockstep with the same 8 FFT calls per step, and `integrate` is
its batch of one.
"""

from dataclasses import dataclass

import numpy as np

from .forms import DisplacementField, _transport_hat
from .spectral_core import ScalarField, _deriv, _deriv_hat, curl_2d

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
    "nudged_tendency",
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
    unit; f matches 1e-4 1/s in the 100 s time unit.
    """

    f: float = 0.01
    kappa: float = 0.001
    h0: float = 1.0
    theta0: float = 98.0
    dt: float = 1.0

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.h0 <= 0 or self.theta0 <= 0:
            raise ValueError("h0 and theta0 must be positive")


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
        """Positivity monitor: (min h, min Theta)."""
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
    return np.stack([np.fft.rfft2(v) for v in vals])


def _irfft_all(spec, grid):
    return np.stack([np.fft.irfft2(s, s=grid.shape) for s in spec])


def _fields(state):
    return np.stack([f.values for f in state.fields()])


def _state(vals, grid, time):
    return TSWState(*(ScalarField(grid, v) for v in vals), time=time)


def _tendency_hat(vals, spec, params, grid):
    """rfft2 spectra (4, nx, ny//2+1) of the tendencies of (h, Theta, v1, v2).

    The pseudo-spectral transform method: derivatives are taken on the
    state spectra, products on grid values, and each product is transformed
    once (6 irfft2 + 6 rfft2); -div(h v) and -grad(h Theta) are spectral.
    """
    h, th, v1, v2 = vals
    ikx, iky = grid._ikx_odd[:, None], grid._iky_odd[None, :]
    thx, thy, v1x, v1y, v2x, v2y = (_deriv_hat(s, grid, a) for s in spec[1:] for a in (0, 1))
    hth_hat = np.fft.rfft2(h * th)
    dth = -(v1 * thx + v2 * thy) - params.kappa * (h * th - params.h0 * params.theta0)
    dv1 = -(v1 * v1x + v2 * v1y) + params.f * v2 + 0.5 * h * thx
    dv2 = -(v1 * v2x + v2 * v2y) - params.f * v1 + 0.5 * h * thy
    del thx, thy, v1x, v1y, v2x, v2y  # freed before the transforms: a lower peak
    return np.stack([
        -(ikx * np.fft.rfft2(h * v1) + iky * np.fft.rfft2(h * v2)),
        np.fft.rfft2(dth),
        np.fft.rfft2(dv1) - ikx * hth_hat,
        np.fft.rfft2(dv2) - iky * hth_hat,
    ])


def _ab_advance(spec, tend, history, order, size, filter_a, grid, step, errors):
    """One Adams-Bashforth step on spectra, shared by the model and the morph.

    Appends `tend` to `history` (newest last, at most `order` kept, so
    repeated calls bootstrap the order), advances `spec` by `size` times the
    AB sum, applies the Hou-Li multiplier `filter_a` and transforms each
    field back once.  Raises InstabilityError at `step`, with the message
    prefixes `errors`, when a field turns non-finite or h or Theta
    non-positive; with a member axis it names the lowest failing member.
    Returns the new (vals, spec).
    """
    history.append(tend)
    del history[:-order]
    coeffs = AB_COEFFS[len(history)]
    # (spec + size * AB sum) * multiplier, in place to keep one temporary
    new = sum(c * t for c, t in zip(coeffs, reversed(history)))
    new *= size
    new += spec
    new *= grid.hou_li(filter_a)
    vals = _irfft_all(new, grid)
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
    return vals, new


def _state_tendency(state, params, u):
    # (spec, tendency spectra) of a typed state, nudged along u if given
    g = state.grid
    if u is not None and u.grid != g:
        raise ValueError("displacement grid mismatch")
    vals = _fields(state)
    spec = _rfft_all(vals)
    tend = _tendency_hat(vals, spec, params, g)
    if u is not None:
        uv = np.stack([u.u1.values, u.u2.values])
        tend += _transport_hat(vals, spec, uv, _rfft_all(uv), g)
    return spec, tend


def tendency(state, params):
    """Instantaneous tendencies of (h, Theta, v1, v2), spectral derivatives."""
    return TSWTendency(*_irfft_all(_state_tendency(state, params, None)[1], state.grid))


def nudged_tendency(state, params, u):
    """Model tendency plus the -L_u transport of each prognostic tensor.

    h is transported as a 2-form, Theta as a 0-form and v as a 1-form; the
    sign matches the morph update theta <- theta - eps * L_u theta, so the
    nudging drags the state along u.
    """
    return TSWTendency(*_irfft_all(_state_tendency(state, params, u)[1], state.grid))


def ab3_step(state, history, params, u=None, step=None):
    """Advance one dt by Adams-Bashforth (order = len(history)+1, capped at 3).

    `history` holds the previous tendencies as opaque spectra, oldest
    first; it is updated in place (current tendency appended, stale entries
    dropped), so repeated calls bootstrap AB1 -> AB2 -> AB3.  With a
    DisplacementField `u` the step follows nudged_tendency.  The Hou-Li
    filter (a = 12) is applied to every prognostic field after the update.
    """
    g = state.grid
    spec, tend = _state_tendency(state, params, u)
    vals, _ = _ab_advance(spec, tend, history, 3, params.dt, 12, g, step, _MODEL_ERRORS)
    return _state(vals, g, state.time + params.dt)


def integrate(state, n_steps, params, monitor=None):
    """Run n_steps of the ab3_step scheme from a fresh tendency history.

    The loop runs on spectra: 6 rfft2 + 10 irfft2 per step.  It is
    `_integrate_batch` with a batch of one.

    Args:
        monitor: optional callback (step, state) invoked after each step;
            receives the positivity diagnostics via state.min_diagnostics().
    """
    each = None if monitor is None else (lambda k, states: monitor(k, states[0]))
    return _integrate_batch([state], n_steps, params, each)[0]


def _integrate_batch(states, n_steps, params, monitor=None):
    """integrate for states on one grid, advanced in lockstep; a list.

    The members share every FFT call, so a step makes 6 rfft2 + 10 irfft2
    whatever their number, and each member's result equals its own
    `integrate` bit for bit.  An InstabilityError names the first failing
    step across the batch; its `member` is the lowest failing index in
    `states`.  monitor(step, states) is invoked after each step.
    """
    g = states[0].grid
    vals = np.stack([_fields(s) for s in states], axis=1)
    spec = _rfft_all(vals)
    times = np.array([s.time for s in states])
    history = []
    for k in range(n_steps):
        tend = _tendency_hat(vals, spec, params, g)
        vals, spec = _ab_advance(spec, tend, history, 3, params.dt, 12, g, k, _MODEL_ERRORS)
        times = times + params.dt
        if monitor is not None:
            monitor(k, [_state(vals[:, b], g, t) for b, t in enumerate(times)])
    return [_state(vals[:, b], g, t) for b, t in enumerate(times)]


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
