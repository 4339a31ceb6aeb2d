"""Thermal shallow water dynamics on the periodic grid.

Prognostic fields h (height), Theta (buoyancy), v1, v2 (velocity) obey

    dh/dt     = -div(h v)
    dTheta/dt = -(v . grad) Theta - kappa (h Theta - h0 Theta0)
    dv/dt     = -(v . grad) v - f zhat x v - grad(h Theta) + (h/2) grad(Theta)

in km / 100 s units.  Time stepping is Adams-Bashforth up to order 3 with a
lower-order bootstrap, followed by the Hou-Li filter (a = 12) on every
prognostic field.
"""

from dataclasses import dataclass, replace

import numpy as np

from .forms import DisplacementField, _transport_hat
from .spectral_core import ScalarField, _deriv, curl_2d, hou_li_filter

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
    """A time step produced non-finite or non-positive prognostic fields."""

    def __init__(self, message, step=None):
        super().__init__(message if step is None else f"step {step}: {message}")
        self.step = step


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


def tendency(state, params):
    """Instantaneous tendencies of (h, Theta, v1, v2), spectral derivatives."""
    g = state.grid
    h, th = state.h.values, state.theta.values
    v1, v2 = state.v1.values, state.v2.values

    dh = -(_deriv(h * v1, g, 0) + _deriv(h * v2, g, 1))

    dth = -(v1 * _deriv(th, g, 0) + v2 * _deriv(th, g, 1))
    dth -= params.kappa * (h * th - params.h0 * params.theta0)

    hth = h * th
    dv1 = (
        -(v1 * _deriv(v1, g, 0) + v2 * _deriv(v1, g, 1))
        + params.f * v2
        - _deriv(hth, g, 0)
        + 0.5 * h * _deriv(th, g, 0)
    )
    dv2 = (
        -(v1 * _deriv(v2, g, 0) + v2 * _deriv(v2, g, 1))
        - params.f * v1
        - _deriv(hth, g, 1)
        + 0.5 * h * _deriv(th, g, 1)
    )
    return TSWTendency(dh, dth, dv1, dv2)


def nudged_tendency(state, params, u):
    """Model tendency plus the -L_u transport of each prognostic tensor.

    h is transported as a 2-form, Theta as a 0-form and v as a 1-form; the
    sign matches the morph update theta <- theta - eps * L_u theta, so the
    nudging drags the state along u.
    """
    if u.grid != state.grid:
        raise ValueError("displacement grid mismatch")
    g = state.grid
    base = tendency(state, params)
    vals = [f.values for f in state.fields()]
    uv = (u.u1.values, u.u2.values)
    spec = [np.fft.rfft2(a) for a in vals]
    uh = [np.fft.rfft2(a) for a in uv]
    dh, dth, dv1, dv2 = (
        np.fft.irfft2(t, s=g.shape) for t in _transport_hat(vals, spec, uv, uh, g)
    )
    return TSWTendency(base.dh + dh, base.dtheta + dth, base.dv1 + dv1, base.dv2 + dv2)


def _ab_combine(history, dt):
    """Weighted Adams-Bashforth sum of the stored tendencies (newest last)."""
    coeffs = AB_COEFFS[len(history)]
    parts = zip(coeffs, reversed(history))
    c0, t0 = next(parts)
    acc = [c0 * arr for arr in (t0.dh, t0.dtheta, t0.dv1, t0.dv2)]
    for c, t in parts:
        acc[0] += c * t.dh
        acc[1] += c * t.dtheta
        acc[2] += c * t.dv1
        acc[3] += c * t.dv2
    return [dt * a for a in acc]


def ab3_step(state, history, params, tendency_fn=tendency, step=None):
    """Advance one dt by Adams-Bashforth (order = len(history)+1, capped at 3).

    `history` holds previous TSWTendency records, oldest first; it is
    updated in place (current tendency appended, stale entries dropped), so
    repeated calls bootstrap AB1 -> AB2 -> AB3.  The Hou-Li filter (a = 12)
    is applied to every prognostic field after the update.
    """
    history.append(tendency_fn(state, params))
    del history[:-3]
    inc = _ab_combine(history, params.dt)
    g = state.grid
    new = []
    for fld, d in zip(state.fields(), inc):
        vals = fld.values + d
        if not np.all(np.isfinite(vals)):
            raise InstabilityError("non-finite field after AB step", step=step)
        new.append(hou_li_filter(ScalarField(g, vals), a=12))
    h, th = new[0], new[1]
    if h.values.min() <= 0 or th.values.min() <= 0:
        raise InstabilityError(
            f"positivity lost: min h={h.values.min():.4g}, "
            f"min Theta={th.values.min():.4g}",
            step=step,
        )
    return TSWState(*new, time=state.time + params.dt)


def integrate(state, n_steps, params, tendency_fn=tendency, monitor=None):
    """Run n_steps of ab3_step from a fresh tendency history.

    Args:
        monitor: optional callback (step, state) invoked after each step;
            receives the positivity diagnostics via state.min_diagnostics().
    """
    history = []
    for k in range(n_steps):
        state = ab3_step(state, history, params, tendency_fn=tendency_fn, step=k)
        if monitor is not None:
            monitor(k, state)
    return state


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


def perturbed_ic(base, ox, oy):
    """A copy of `base` with the center offsets replaced."""
    return replace(base, ox=float(ox), oy=float(oy))
