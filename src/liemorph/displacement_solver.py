"""Displacement fields from pairs of same-type tensor fields.

The closed-form path solves the boundary-free Euler-Lagrange equation
(a0 - a1*Lap) u = W f grad(g) on spectra, for 0-form and 2-form pairs
alike: only f and g depend on the degree.  The generalized optical flow
path handles any degree by conjugate gradients on the normal equations.
The sign convention everywhere is that u points from theta2 toward theta1,
i.e. transporting theta2 one infinitesimal step along u decreases the
residual against theta1.
"""

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .forms import DiffForm, DisplacementField, _h1_norm_hat, h1_norm, lie_derivative
from .spectral_core import ScalarField, _deriv, _grad_hat, _irfft2, _is_int, _is_real, _rfft2

__all__ = [
    "SolverParams",
    "PREFACTOR",
    "displacement_from_0forms",
    "displacement_from_2forms",
    "combine_displacements",
    "generalized_optical_flow",
]

# Global positive prefactor of the closed-form solves.  The Euler-Lagrange
# derivation yields 1; the explicit u_h/u_omega formulas carry a 2.  The
# combined displacement is H1-normalized, so the choice is unobservable
# downstream; we keep the literal 2 and test the invariance.
PREFACTOR = 2.0

# default H1-norm threshold below which a displacement counts as zero
_TOL_NORM_PER_AREA = 1e-14


@dataclass
class SolverParams:
    """Regularization weights, localization weight and CG controls.

    a0 and a1 are both 1 in the reference experiments; W, when present,
    localizes the observation term and must lie in [0, 1] pointwise.
    """

    a0: float = 1.0
    a1: float = 1.0
    weight: ScalarField | None = None
    cg_tol: float = 1e-10
    cg_max_iter: int = 500

    def __post_init__(self):
        if not (_is_real(self.a0) and self.a0 > 0):
            raise ValueError(f"a0 must be positive on the boundary-free domain, got {self.a0!r}")
        if not (_is_real(self.a1) and self.a1 >= 0):
            raise ValueError(f"a1 must be nonnegative and finite, got {self.a1!r}")
        if not _is_real(self.cg_tol):
            raise ValueError(f"cg_tol must be a finite number, got {self.cg_tol!r}")
        if not _is_int(self.cg_max_iter):
            raise ValueError(f"cg_max_iter must be an integer, got {self.cg_max_iter!r}")
        if self.weight is not None:
            w = self.weight.values
            if w.min() < 0 or w.max() > 1:
                raise ValueError("weight W must lie in [0, 1] pointwise")


# the parameters of a solve that is given none
_DEFAULT_PARAMS = SolverParams()


@functools.lru_cache(maxsize=16)
def _solve_multiplier(grid, a0, a1, prefactor):
    """prefactor / (a0 + a1 k^2) of each rfft2 mode, the closed-form solve's
    real multiplier, read-only; computed once per grid, weights and
    prefactor, and shared by equal grids."""
    mult = prefactor / (a0 + a1 * grid._k2_r)
    mult.flags.writeable = False
    return mult


def _weight_values(params, grid):
    if params.weight is None:
        return 1.0
    if params.weight.grid != grid:
        raise ValueError("weight on mismatched grid")
    return params.weight.values


def displacement_from_0forms(theta1, theta2, params=None):
    """u = 2 (a0 - a1*Lap)^-1 [W (theta2 - theta1) grad(theta2)].

    The residual sign makes u point toward theta1: for theta1 a copy of
    theta2 shifted in +x, the forcing is (positive) grad(theta2)^2 times the
    shift to first order, so u1 integrates positive over the feature.
    """
    return _closed_form(theta1, theta2, 0, params)


def displacement_from_2forms(theta1, theta2, params=None):
    """u = 2 (a0 - a1*Lap)^-1 [W theta2 grad(theta1 - theta2)]."""
    return _closed_form(theta1, theta2, 2, params)


def _closed_form(theta1, theta2, degree, params):
    # the closed-form displacement between two forms of the given degree
    if theta1.degree != degree or theta2.degree != degree:
        raise ValueError(f"displacement_from_{degree}forms needs degree-{degree} forms")
    if theta1.grid != theta2.grid:
        raise ValueError("forms on mismatched grids")
    g = theta1.grid
    t1, t2 = theta1.components[0].values, theta2.components[0].values
    if degree == 0:
        f, gh = t2 - t1, _rfft2(t2)
    else:
        f, gh = t2, _rfft2(t1) - _rfft2(t2)
    uh = _closed_form_hat(f, gh, g, params or _DEFAULT_PARAMS)
    return DisplacementField(*(ScalarField(g, c) for c in _irfft2(uh, g.shape, tmp=uh)))


def _closed_form_hat(f, gh, grid, params, out=None, tmp=None):
    # stacked spectra of PREFACTOR (a0 - a1*Lap)^-1 [W f grad(g)] from f's
    # values and g's spectrum (f and g by degree as in _closed_form),
    # written into `out` when given; tmp is the scratch of `_scratch`, of
    # which it uses r.  The gradient goes into r with `out` as its complex
    # scratch, then one forward transform of W f grad(g) into `out`.
    r = np.empty((2, *f.shape)) if tmp is None else tmp[0]
    out = np.empty((2, *gh.shape), dtype=complex) if out is None else out
    forcing = _grad_hat(gh, grid, r, out)
    # W f, with f itself when no weight is set: 1.0 * f would copy it
    forcing *= f if params.weight is None else _weight_values(params, grid) * f
    _rfft2(forcing, out)
    # PREFACTOR * forcing / (a0 + a1 k^2), as one real multiplier: numpy's
    # complex division by a real divisor multiplies by its reciprocal too,
    # and with a power-of-two PREFACTOR the product rounds the same
    out *= _solve_multiplier(grid, params.a0, params.a1, PREFACTOR)
    return out


def _combined_displacement_hat(pairs, grid, out, field, tmp):
    """Stacked spectra of the combined displacement toward 2-form targets.

    The Fourier-space equivalent of `combine_displacements` over
    `displacement_from_2forms(theta1, theta2)` for each pair, with the H1
    norms taken by Parseval; theta2 may carry a member axis, and each
    member is normalized and averaged on its own.  The result goes into
    `out` and the temporaries into the scratch `tmp` (see `_scratch`).
    Each pair is solved into `field`, normed and added before the next is
    solved into it, and its H1 densities go into the start of tmp's r,
    free once the solve's forcing is transformed; so the combination
    holds one displacement, whatever the number of pairs.

    Args:
        pairs: (theta1 spectrum, theta2 values, theta2 spectrum) per
            observable, rfft2 layout.
    """
    dens = tmp[0].reshape(-1)[: field.size].reshape(field.shape)
    solved = (_closed_form_hat(t2, np.subtract(t1h, t2h, out=tmp[1][0]), grid, _DEFAULT_PARAMS,
                               field, tmp) for t1h, t2, t2h in pairs)
    return _normalized_mean(((u, _h1_norm_hat(u, grid, dens)) for u in solved),
                            _TOL_NORM_PER_AREA * grid.area, out)


def _normalized_mean(pairs, tol_norm, out):
    """(1/m) sum u_i / n_i over the m (u_i, n_i) pairs with n_i >= tol_norm,
    per member, written into `out`.

    Each u_i is a stacked (2, ..., nx, ny) array, scaled in place by 1 /
    n_i, and n_i holds one value per member; the pairs are taken one at a
    time, so the next u may be made in the buffer of the last.  A member
    with m = 0 gets zeros.  Each member sees the serial order of
    operations: u * (1/n), a sequential sum from zero, then * (1/m).
    """
    out.fill(0.0)
    count = np.zeros(out.shape[1:-2])
    for u, n in pairs:
        kept = n >= tol_norm
        u *= (1.0 / np.where(kept, n, 1.0))[..., None, None]
        # a mask costs twice an unmasked add, so none when every member is kept
        np.add(out, u, out=out, where=True if kept.all() else kept[..., None, None])
        count += kept
    out *= (1.0 / np.maximum(count, 1.0))[..., None, None]
    return out


def combine_displacements(fields, tol_norm=None):
    """Mean of the H1-normalized inputs: (1/m) sum u_i / ||u_i||_1.

    Inputs with ||u||_1 below tol_norm (default 1e-14 * domain area)
    contribute nothing and are excluded from the count m; if all inputs are
    below it the result is the zero field, so perfect alignment is a fixed
    point.
    """
    fields = list(fields)
    if not fields:
        raise ValueError("combine_displacements needs a nonempty list")
    grid = fields[0].grid
    for u in fields:
        if u.grid != grid:
            raise ValueError("displacements on mismatched grids")
    if tol_norm is None:
        tol_norm = _TOL_NORM_PER_AREA * grid.area
    pairs = ((np.stack([u.u1.values, u.u2.values]), np.float64(h1_norm(u))) for u in fields)
    mean = _normalized_mean(pairs, tol_norm, np.empty((2, *grid.shape)))
    return DisplacementField(ScalarField(grid, mean[0]), ScalarField(grid, mean[1]))


def _lie_adjoint(theta, phi):
    """Adjoint of u -> L_u theta under the domain inner product.

    Degree 0: L* phi = phi grad(theta).  Degree 2: L* phi = -theta grad(phi).
    Degree 1: (L* phi)_j = sum_i phi_i d(a_i)/dx_j - div(a_j phi).
    """
    g = theta.grid
    if theta.degree == 0:
        t = theta.components[0].values
        p = phi.components[0].values
        return p * _deriv(t, g, 0), p * _deriv(t, g, 1)
    if theta.degree == 2:
        t = theta.components[0].values
        p = phi.components[0].values
        return -t * _deriv(p, g, 0), -t * _deriv(p, g, 1)
    a1, a2 = theta.components[0].values, theta.components[1].values
    p1, p2 = phi.components[0].values, phi.components[1].values
    out1 = (
        p1 * _deriv(a1, g, 0)
        + p2 * _deriv(a2, g, 0)
        - _deriv(a1 * p1, g, 0)
        - _deriv(a1 * p2, g, 1)
    )
    out2 = (
        p1 * _deriv(a1, g, 1)
        + p2 * _deriv(a2, g, 1)
        - _deriv(a2 * p1, g, 0)
        - _deriv(a2 * p2, g, 1)
    )
    return out1, out2


def lie_operator_adjoint(theta, phi):
    """Public wrapper for the L* adjoint; phi has theta's degree."""
    if theta.grid != phi.grid or theta.degree != phi.degree:
        raise ValueError("adjoint needs matching grid and degree")
    out1, out2 = _lie_adjoint(theta, phi)
    g = theta.grid
    return DisplacementField(ScalarField(g, out1), ScalarField(g, out2))


def generalized_optical_flow(theta, theta_t, params=None):
    """Minimize int W|theta_t + L_u theta|^2 + a0|u|^2 + a1(|du|^2 + |delta u|^2).

    The data term is the transport residual: a field advected by u changes
    at rate -L_u theta, so theta_t + L_u theta vanishes on an exact flow and
    a bump translating at speed c recovers u1 = c, not -c.  Solved by
    conjugate gradients on the normal equations
    L* W L u + (a0 - a1*Lap) u = -L* W theta_t; the a1 penalty term is the
    Hodge Laplacian of the flat 1-form, which is -Lap componentwise.
    Non-convergence is reported as a warning with the final residual; the
    returned field is the last iterate either way.
    """
    # imported here: the pipeline never runs CG, and scipy.sparse costs
    # start-up time and memory
    from scipy.sparse.linalg import LinearOperator, cg

    params = params or _DEFAULT_PARAMS
    if theta.grid != theta_t.grid or theta.degree != theta_t.degree:
        raise ValueError("forms must share grid and degree")
    g = theta.grid
    n = g.nx * g.ny
    w = _weight_values(params, g)

    def unpack(vec):
        u1 = ScalarField(g, vec[:n].reshape(g.shape))
        u2 = ScalarField(g, vec[n:].reshape(g.shape))
        return DisplacementField(u1, u2)

    def weighted(phi):
        comps = tuple(ScalarField(g, w * c.values) for c in phi.components)
        return DiffForm(phi.degree, comps)

    # the regularizer a0 - a1*Lap on spectra, as the closed form's symbol
    symbol = params.a0 + params.a1 * g._k2_r

    def apply_normal(vec):
        lu = lie_derivative(theta, unpack(vec))
        reg = _irfft2(_rfft2(vec.reshape(2, *g.shape)) * symbol, g.shape)
        return (np.stack(_lie_adjoint(theta, weighted(lu))) + reg).ravel()

    b1, b2 = _lie_adjoint(theta, weighted(theta_t))
    b = -np.concatenate([b1.ravel(), b2.ravel()])
    if not np.any(b):
        return DisplacementField.zeros(g)
    op = LinearOperator((2 * n, 2 * n), matvec=apply_normal)
    sol, info = cg(op, b, rtol=params.cg_tol, atol=0.0, maxiter=params.cg_max_iter)
    if info > 0:
        res = np.linalg.norm(b - apply_normal(sol)) / np.linalg.norm(b)
        warnings.warn(
            f"generalized_optical_flow CG stopped at {info} iterations, "
            f"relative residual {res:.3e}",
            RuntimeWarning,
        )
    return unpack(sol)
