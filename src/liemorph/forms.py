"""Differential forms of degree 0, 1, 2 on the periodic grid.

Degree 0 is a function f, degree 1 is a1*dx1 + a2*dx2, degree 2 is a density
f*dx1^dx2.  The metric is flat, so the musical maps between 1-forms and
vector fields are the identity on components; `vector_to_oneform` and
`oneform_to_vector` keep that bookkeeping explicit.
"""

import numpy as np

from .spectral_core import (
    ScalarField,
    _check_finite,
    _deriv,
    _grad_hat,
    _h1_weight,
    _rfft2,
    _scratch,
    curl_2d,
    domain_integral,
    gradient,
)

__all__ = [
    "DiffForm",
    "DisplacementField",
    "lie_derivative",
    "exterior_derivative",
    "hodge_star",
    "codifferential",
    "h1_norm",
    "vector_to_oneform",
    "oneform_to_vector",
]

_COMPONENT_COUNT = {0: 1, 1: 2, 2: 1}


class DiffForm:
    """A degree-tagged differential form; components are ScalarFields."""

    def __init__(self, degree, components):
        if degree not in (0, 1, 2):
            raise ValueError(f"degree must be 0, 1 or 2, got {degree}")
        components = tuple(components)
        if len(components) != _COMPONENT_COUNT[degree]:
            raise ValueError(
                f"degree {degree} needs {_COMPONENT_COUNT[degree]} components, "
                f"got {len(components)}"
            )
        grid = components[0].grid
        for c in components:
            if c.grid != grid:
                raise ValueError("components on mismatched grids")
            _check_finite(c.values, "DiffForm component")
        self.degree = degree
        self.components = components
        self.grid = grid

    @classmethod
    def zero(cls, grid, degree):
        n = _COMPONENT_COUNT[degree]
        return cls(degree, tuple(ScalarField.zeros(grid) for _ in range(n)))

    @classmethod
    def from_scalar(cls, degree, f):
        """Wrap a ScalarField as a 0-form or a 2-form density."""
        if degree not in (0, 2):
            raise ValueError("from_scalar builds degree 0 or 2 only")
        return cls(degree, (f,))

    def __repr__(self):
        return f"DiffForm(degree={self.degree}, grid={self.grid!r})"


class DisplacementField:
    """A 2-component vector field u on the grid (length / virtual time)."""

    def __init__(self, u1, u2):
        if u1.grid != u2.grid:
            raise ValueError("components on mismatched grids")
        _check_finite(u1.values, "DisplacementField")
        _check_finite(u2.values, "DisplacementField")
        self.u1 = u1
        self.u2 = u2
        self.grid = u1.grid

    @classmethod
    def zeros(cls, grid):
        return cls(ScalarField.zeros(grid), ScalarField.zeros(grid))

    def __add__(self, other):
        return DisplacementField(self.u1 + other.u1, self.u2 + other.u2)

    def __sub__(self, other):
        return DisplacementField(self.u1 - other.u1, self.u2 - other.u2)

    def __mul__(self, c):
        return DisplacementField(self.u1 * c, self.u2 * c)

    __rmul__ = __mul__

    def __neg__(self):
        return DisplacementField(-self.u1, -self.u2)

    def __repr__(self):
        return f"DisplacementField(grid={self.grid!r})"


def vector_to_oneform(u):
    """Musical flat: identity on components in the flat metric."""
    return DiffForm(1, (u.u1, u.u2))


def oneform_to_vector(alpha):
    """Musical sharp: identity on components in the flat metric."""
    if alpha.degree != 1:
        raise ValueError("oneform_to_vector needs a 1-form")
    return DisplacementField(alpha.components[0], alpha.components[1])


def lie_derivative(theta, u):
    """Lie derivative L_u theta, spectral derivatives throughout.

    Degree 0: u . grad f.  Degree 2: div(f u).  Degree 1 with
    alpha = a1*dx1 + a2*dx2:
        (L_u alpha)_i = u . grad a_i + a1 * du1/dx_i + a2 * du2/dx_i.
    """
    if theta.grid != u.grid:
        raise ValueError("form and displacement on mismatched grids")
    g = theta.grid
    u1, u2 = u.u1.values, u.u2.values
    if theta.degree == 0:
        f = theta.components[0].values
        out = u1 * _deriv(f, g, 0) + u2 * _deriv(f, g, 1)
        return DiffForm(0, (ScalarField(g, out),))
    if theta.degree == 2:
        f = theta.components[0].values
        out = _deriv(f * u1, g, 0) + _deriv(f * u2, g, 1)
        return DiffForm(2, (ScalarField(g, out),))
    a1, a2 = theta.components[0].values, theta.components[1].values
    u1x, u1y = _deriv(u1, g, 0), _deriv(u1, g, 1)
    u2x, u2y = _deriv(u2, g, 0), _deriv(u2, g, 1)
    b1 = u1 * _deriv(a1, g, 0) + u2 * _deriv(a1, g, 1) + a1 * u1x + a2 * u2x
    b2 = u1 * _deriv(a2, g, 0) + u2 * _deriv(a2, g, 1) + a1 * u1y + a2 * u2y
    return DiffForm(1, (ScalarField(g, b1), ScalarField(g, b2)))


def exterior_derivative(theta):
    """d: 0-form -> 1-form (gradient components); 1-form -> 2-form (curl)."""
    if theta.degree == 2:
        raise ValueError("d of a 2-form vanishes in 2D; use DiffForm.zero")
    if theta.degree == 0:
        fx, fy = gradient(theta.components[0])
        return DiffForm(1, (fx, fy))
    a1, a2 = theta.components
    density = curl_2d(DisplacementField(a1, a2))
    return DiffForm(2, (density,))


def hodge_star(theta):
    """Hodge star for n = 2: 0-form <-> 2-form, (a1, a2) -> (-a2, a1)."""
    if theta.degree == 0:
        return DiffForm(2, theta.components)
    if theta.degree == 2:
        return DiffForm(0, theta.components)
    a1, a2 = theta.components
    return DiffForm(1, (-a2, a1))


def codifferential(theta):
    """Codifferential delta = -*d* on this flat 2D domain.

    The global sign is pinned by the adjointness identity
    integral(<df, alpha>) = integral(<f, delta alpha>), which is what every
    caller relies on; delta maps a function to 0.
    """
    if theta.degree == 0:
        return DiffForm.zero(theta.grid, 0)
    star = hodge_star(theta)
    dstar = exterior_derivative(star)
    out = hodge_star(dstar)
    return DiffForm(out.degree, tuple(-c for c in out.components))


def form_inner_integral(alpha, beta):
    """Domain integral of the pointwise inner product of two same-degree forms."""
    if alpha.degree != beta.degree:
        raise ValueError("degree mismatch")
    acc = sum(
        a.values * b.values for a, b in zip(alpha.components, beta.components)
    )
    return domain_integral(ScalarField(alpha.grid, acc))


def h1_norm(u):
    """sqrt of integral(|u|^2 + curl(u)^2 + div(u)^2), mean-value quadrature.

    Evaluated by Parseval from the two spectra, which equals the quadrature
    of the spectral curl and divergence up to rounding.
    """
    uh = _rfft2(np.stack([u.u1.values, u.u2.values]))
    return float(_h1_norm_hat(uh, u.grid))


def _h1_norm_hat(uh, grid, tmp=None):
    # h1_norm of each displacement whose two rfft2 spectra are stacked in
    # uh (2, ..., nx, ny//2+1): an array with one norm per member.  With
    # purely imaginary odd derivatives, |curl|^2 + |div|^2 of a mode is
    # k_odd^2 (|u1|^2 + |u2|^2), so the density is one weight times |u|^2.
    # tmp, when given, is a real array of uh's shape for the density.
    dens, sq = np.empty(uh.shape) if tmp is None else tmp
    np.square(uh[0].real, out=dens)
    for part in (uh[0].imag, uh[1].real, uh[1].imag):
        dens += np.square(part, out=sq)
    dens *= _h1_weight(grid)
    rows = dens.sum(axis=-2)
    # one dot per member: a batched (B, nk) @ (nk,) rounds differently
    w = grid._parseval_w
    dots = np.array([r @ w for r in rows.reshape(-1, w.size)]).reshape(rows.shape[:-1])
    n = grid.nx * grid.ny
    return np.sqrt(grid.area * dots / n**2)


def _advect_hat(fh, u, grid, grad, out, tmp):
    # spectrum of u . grad f, i.e. L_u of the 0-form f with spectrum fh,
    # written into `out`; grad, when not None, holds the values of grad f.
    # Of the scratch tmp = (r, c) of `_scratch` it uses r, and c too
    # without grad.
    r, c = tmp
    fx, fy = _grad_hat(fh, grid, r, c) if grad is None else grad
    prod = np.multiply(u[0], fx, out=r[0])
    prod += np.multiply(u[1], fy, out=r[1])
    return _rfft2(prod, out)


def _transport_hat(vals, spec, omega, u, grid, grad_th=None, out=None, tmp=None):
    """rfft2 spectra of -L_u theta for the four TSW prognostic tensors.

    h is a 2-form (-div(h u)), Theta a 0-form (-u . grad Theta) and
    v = (v1, v2) a 1-form, transported by Cartan's formula
    L_u v = d(i_u v) + i_u dv:

        -L_u v = -grad(u . v) + omega (u2, -u1),  omega = curl v,

    so the curl of the v-rows is the 2-form transport -div(omega u) of the
    vorticity, and a step needs no derivative of u or v.  vals are the
    values of (h, Theta, v1, v2) and spec their spectra (spec[0] is not
    read), omega the values of curl v and u the displacement's two
    components, stacked; grad_th, when given, holds the values of
    grad Theta.  6 rfft2 in 4 calls, since h u and omega (u2, u1) are
    each transformed as one stack; plus 2 irfft2 in 1 call without
    grad_th.  The rows are written into `out` and the temporaries into
    the scratch `tmp` (see `_scratch`) when these are given.
    """
    h, _, v1, v2 = vals
    u1, u2 = u
    ikx, iky = grid._ikx_odd[:, None], grid._iky_odd[None, :]
    out = np.empty_like(spec) if out is None else out
    r, c = _scratch(h.shape) if tmp is None else tmp
    # the Theta row first, while all of the scratch is free
    np.negative(_advect_hat(spec[1], u, grid, grad_th, out[1], (r, c)), out=out[1])
    # -(ikx rfft(h u1) + iky rfft(h u2))
    hu = _rfft2(np.multiply(h, u, out=r), c)
    dh = np.multiply(ikx, hu[0], out=out[0])
    dh += np.multiply(iky, hu[1], out=c[1])
    np.negative(dh, out=dh)
    uv = np.multiply(u1, v1, out=r[0])
    uv += np.multiply(u2, v2, out=r[1])
    uv_hat = _rfft2(uv, c[0])
    # rfft(omega u2) - ikx uv_hat and -(rfft(omega u1) + iky uv_hat)
    _rfft2(np.multiply(omega, u[::-1], out=r), out[2:])
    out[2] -= np.multiply(ikx, uv_hat, out=c[1])
    out[3] += np.multiply(iky, uv_hat, out=c[1])
    np.negative(out[3], out=out[3])
    return out
