"""Dense brute-force oracles used to pin the spectral implementations.

Everything here is written against explicit matrices (numpy.linalg on
O(N) x O(N) systems), never against the library's FFT paths, so a test
that compares the two is an honest independent check.  The differentiation
matrices are the classical periodic ones: the cotangent first-derivative
matrix (identical to the FFT derivative with a zeroed Nyquist mode) and
the trigonometric second-derivative matrix (which keeps the Nyquist k^2).
Sizes are kept small (<= 32x32 grids) because the dense operators are
(2 n^2)^2.  The model's wave propagator is checked against
scipy.linalg.expm of the 3 x 3 operator at each Fourier mode, applied
through numpy's full complex fft2.

The Lie derivative is checked against the finite pushforward under a
closed-form map of the torus (`AnalyticMap`), whose off-grid values come
from scipy.ndimage's periodic bicubic splines, not from any FFT.
"""

import functools

import numpy as np


def dense_d1(n, length):
    """Periodic spectral first-derivative matrix on n points over [0, length)."""
    if n % 2:
        raise ValueError("even n only")
    h = 2.0 * np.pi / n
    m = np.arange(n)
    diff = m[:, None] - m[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        d = 0.5 * (-1.0) ** diff / np.tan(diff * h / 2.0)
    np.fill_diagonal(d, 0.0)
    return d * (2.0 * np.pi / length)


def dense_d2(n, length):
    """Periodic spectral second-derivative matrix on n points over [0, length)."""
    if n % 2:
        raise ValueError("even n only")
    h = 2.0 * np.pi / n
    m = np.arange(n)
    diff = m[:, None] - m[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        d = -((-1.0) ** diff) / (2.0 * np.sin(diff * h / 2.0) ** 2)
    np.fill_diagonal(d, -np.pi**2 / (3.0 * h**2) - 1.0 / 6.0)
    return d * (2.0 * np.pi / length) ** 2


def dense_dx(grid):
    """d/dx1 on C-order raveled (nx, ny) values."""
    return np.kron(dense_d1(grid.nx, grid.lx), np.eye(grid.ny))


def dense_dy(grid):
    """d/dx2 on C-order raveled (nx, ny) values."""
    return np.kron(np.eye(grid.nx), dense_d1(grid.ny, grid.ly))


def dense_laplacian(grid):
    return np.kron(dense_d2(grid.nx, grid.lx), np.eye(grid.ny)) + np.kron(
        np.eye(grid.nx), dense_d2(grid.ny, grid.ly)
    )


def dense_helmholtz_matrix(grid, a0=1.0, a1=1.0):
    n = grid.nx * grid.ny
    return a0 * np.eye(n) - a1 * dense_laplacian(grid)


def dense_el_displacement(theta1, theta2, degree, grid, a0=1.0, a1=1.0, weight=None):
    """Brute-force Euler-Lagrange solve for the closed-form displacement.

    Solves (a0 - a1*Lap) u_i = forcing_i with dense matrices; the forcing is
    w*(theta2 - theta1)*grad(theta2) for 0-forms and
    w*theta2*grad(theta1 - theta2) for 2-forms.  No prefactor: callers
    compare up to the library's documented global constant.
    Returns (u1, u2) as (nx, ny) arrays.
    """
    t1, t2 = theta1.ravel(), theta2.ravel()
    w = np.ones_like(t1) if weight is None else weight.ravel()
    dx, dy = dense_dx(grid), dense_dy(grid)
    if degree == 0:
        f1 = w * (t2 - t1) * (dx @ t2)
        f2 = w * (t2 - t1) * (dy @ t2)
    elif degree == 2:
        f1 = w * t2 * (dx @ (t1 - t2))
        f2 = w * t2 * (dy @ (t1 - t2))
    else:
        raise ValueError("closed form exists for degrees 0 and 2 only")
    a = dense_helmholtz_matrix(grid, a0, a1)
    u1 = np.linalg.solve(a, f1)
    u2 = np.linalg.solve(a, f2)
    return u1.reshape(grid.shape), u2.reshape(grid.shape)


def dense_lie_matrix(theta, grid):
    """The Lie-derivative operator u -> L_u theta as a dense matrix.

    theta is a (degree, components) pair with components as (nx, ny)
    arrays.  The matrix maps the stacked vector (u1, u2) of length 2n to
    the stacked residual components (length n for degrees 0 and 2, 2n for
    degree 1).
    """
    degree, comps = theta
    n = grid.nx * grid.ny
    dx, dy = dense_dx(grid), dense_dy(grid)
    if degree == 0:
        f = comps[0].ravel()
        return np.hstack([np.diag(dx @ f), np.diag(dy @ f)])
    if degree == 2:
        f = comps[0].ravel()
        return np.hstack([dx @ np.diag(f), dy @ np.diag(f)])
    a1v, a2v = comps[0].ravel(), comps[1].ravel()
    d = (dx, dy)
    comp_list = (a1v, a2v)
    blocks = []
    for i in range(2):
        row = []
        for j in range(2):
            block = np.diag(d[j] @ comp_list[i]) + np.diag(comp_list[j]) @ d[i]
            row.append(block)
        blocks.append(row)
    return np.block(blocks)


def dense_gof_solve(theta, theta_t, grid, a0=1.0, a1=1.0, weight=None):
    """Dense normal-equation solve of the generalized optical flow.

    Minimizes |W^(1/2) (theta_t + L u)|^2 + a0|u|^2 + a1|grad u|^2 over the
    grid, i.e. solves (L^T W L + a0 I - a1 Lap) u = -L^T W theta_t.
    theta and theta_t are (degree, components) pairs of (nx, ny) arrays.
    Returns (u1, u2) as (nx, ny) arrays.
    """
    n = grid.nx * grid.ny
    lmat = dense_lie_matrix(theta, grid)
    tt = np.concatenate([c.ravel() for c in theta_t[1]])
    wdiag = np.ones(lmat.shape[0])
    if weight is not None:
        w = weight.ravel()
        wdiag = np.concatenate([w] * (lmat.shape[0] // n))
    lap = dense_laplacian(grid)
    a = (
        lmat.T @ (wdiag[:, None] * lmat)
        + a0 * np.eye(2 * n)
        - a1 * np.block([[lap, np.zeros((n, n))], [np.zeros((n, n)), lap]])
    )
    b = -lmat.T @ (wdiag * tt)
    sol = np.linalg.solve(a, b)
    return sol[:n].reshape(grid.shape), sol[n:].reshape(grid.shape)


def explicit_covariance_gain(z, y, r_diag):
    """Kalman gain from the fully assembled joint covariance.

    z is the n x Ne state matrix, y the d x Ne predicted-observation
    matrix (raw values, means removed here).  Builds the complete
    (n+d) x (n+d) sample covariance and slices it, the formulation the
    observation-space code path must reproduce.
    """
    ne = z.shape[1]
    nz = z.shape[0]
    a = np.vstack([z - z.mean(axis=1, keepdims=True), y - y.mean(axis=1, keepdims=True)])
    p = a @ a.T / (ne - 1)
    p_zy = p[:nz, nz:]
    p_yy = p[nz:, nz:]
    return p_zy @ np.linalg.inv(p_yy + np.diag(r_diag))


class AnalyticMap:
    """A closed-form diffeomorphism of the torus with its inverse.

    Args:
        forward: closure (x, y) -> (x', y').
        inverse: closure for the inverse map.
        jacobian_of_inverse: closure returning the 2x2 matrix entries
            m[i][j] = d(T^-1)_i / dx_j as arrays.
    """

    def __init__(self, forward, inverse, jacobian_of_inverse):
        self.forward = forward
        self.inverse = inverse
        self.jacobian_of_inverse = jacobian_of_inverse

    def check_inverse(self, grid, tol=1e-9):
        """Verify forward(inverse(x)) = x (mod periods) on the grid points."""
        x, y = grid.xy()
        xi, yi = self.inverse(x, y)
        xf, yf = self.forward(xi, yi)
        ex = np.abs((xf - x + grid.lx / 2) % grid.lx - grid.lx / 2)
        ey = np.abs((yf - y + grid.ly / 2) % grid.ly - grid.ly / 2)
        err = max(ex.max(), ey.max())
        scale = max(grid.lx, grid.ly)
        if err > tol * scale:
            raise ValueError(
                f"map inverse fails round-trip on the grid: err={err:.3e}"
            )


def rotation_map(angle, cx, cy):
    """Rotation by `angle` about (cx, cy)."""
    c, s = np.cos(angle), np.sin(angle)

    def fwd(x, y):
        dx, dy = x - cx, y - cy
        return cx + c * dx - s * dy, cy + s * dx + c * dy

    def inv(x, y):
        dx, dy = x - cx, y - cy
        return cx + c * dx + s * dy, cy - s * dx + c * dy

    def jac(x, y):
        one = np.ones_like(np.asarray(x, dtype=float))
        return ((c * one, s * one), (-s * one, c * one))

    return AnalyticMap(fwd, inv, jac)


def translation_map(tx, ty):
    """Translation by (tx, ty)."""

    def fwd(x, y):
        return x + tx, y + ty

    def inv(x, y):
        return x - tx, y - ty

    def jac(x, y):
        one = np.ones_like(np.asarray(x, dtype=float))
        zero = np.zeros_like(one)
        return ((one, zero), (zero, one))

    return AnalyticMap(fwd, inv, jac)


def periodic_interpolate(f, xq, yq):
    """Evaluate a ScalarField at off-grid points by periodic bicubic splines."""
    from scipy.ndimage import map_coordinates

    g = f.grid
    coords = np.stack([np.asarray(xq) / g.dx, np.asarray(yq) / g.dy])
    return map_coordinates(f.values, coords, order=3, mode="grid-wrap")


def pushforward(theta, amap, check=True):
    """Push theta forward under the map: the pull-back by its inverse.

    Degree 0: f(T^-1(x)).  Degree 2: f(T^-1(x)) * det J_{T^-1}(x).
    Degree 1: b_i(x) = sum_j a_j(T^-1(x)) * d(T^-1)_j/dx_i.
    Off-grid values come from periodic bicubic interpolation.
    """
    from liemorph import DiffForm, ScalarField

    grid = theta.grid
    if check:
        amap.check_inverse(grid)
    x, y = grid.xy()
    xi, yi = amap.inverse(x, y)

    def at_src(comp):
        return periodic_interpolate(comp, xi, yi)

    if theta.degree == 0:
        return DiffForm(0, (ScalarField(grid, at_src(theta.components[0])),))
    if theta.degree == 2:
        m = amap.jacobian_of_inverse(x, y)
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if np.any(det <= 0):
            raise ValueError("map must be orientation-preserving (det J > 0)")
        return DiffForm(2, (ScalarField(grid, at_src(theta.components[0]) * det),))
    m = amap.jacobian_of_inverse(x, y)
    a1, a2 = (at_src(c) for c in theta.components)
    b1 = a1 * m[0][0] + a2 * m[1][0]
    b2 = a1 * m[0][1] + a2 * m[1][1]
    return DiffForm(1, (ScalarField(grid, b1), ScalarField(grid, b2)))


def shear_map_x(eps, a, da):
    """AnalyticMap for (x, y) -> (x + eps*a(y), y), exactly invertible.

    a and da are callables of y.  This is the map x -> x + eps*u with
    u = (a(y), 0), the displacement used in the first-order consistency
    tests.
    """

    def fwd(x, y):
        return x + eps * a(y), y

    def inv(x, y):
        return x - eps * a(y), y

    def jac(x, y):
        one = np.ones_like(np.asarray(x, dtype=float))
        zero = np.zeros_like(one)
        return ((one, -eps * da(y)), (zero, one))

    return AnalyticMap(fwd, inv, jac)


def compressive_map_x(eps, a, da):
    """AnalyticMap for (x, y) -> (x + eps*a(x), y), inverted by Newton.

    The Jacobian determinant 1/(1 + eps*da(x)) is not 1, so degree-2
    pushforwards exercise the density factor.  Requires eps*|da| < 1.
    """

    def fwd(x, y):
        return x + eps * a(x), y

    def solve_back(xq):
        x = np.asarray(xq, dtype=float).copy()
        for _ in range(60):
            resid = x + eps * a(x) - xq
            x -= resid / (1.0 + eps * da(x))
            if np.max(np.abs(resid)) < 1e-15:
                break
        return x

    def inv(x, y):
        return solve_back(x), np.asarray(y, dtype=float)

    def jac(x, y):
        xs = solve_back(x)
        one = np.ones_like(xs)
        zero = np.zeros_like(xs)
        return ((1.0 / (1.0 + eps * da(xs)), zero), (zero, one))

    return AnalyticMap(fwd, inv, jac)


def random_band_limited(grid, seed, modes=3, amplitude=1.0, offset=0.0):
    """Random smooth periodic field: a few low Fourier modes, fixed seed."""
    rng = np.random.default_rng(seed)
    x, y = grid.xy()
    vals = np.full(grid.shape, float(offset))
    for _ in range(modes):
        kx = rng.integers(-3, 4)
        ky = rng.integers(-3, 4)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amp = amplitude * rng.uniform(0.3, 1.0)
        vals += amp * np.cos(
            2.0 * np.pi * (kx * x / grid.lx + ky * y / grid.ly) + phase
        )
    return vals


def interior_weight(grid):
    """A valid localization weight, strictly inside [0, 1]."""
    from liemorph import ScalarField

    x, y = grid.xy()
    vals = 0.5 + 0.35 * np.cos(2.0 * np.pi * x / grid.lx) * np.cos(2.0 * np.pi * y / grid.ly)
    return ScalarField(grid, vals)


def quadrature_h1_norm(u):
    """H1 norm by the mean-value quadrature of the spectral curl and
    divergence, the formula `h1_norm` evaluates by Parseval."""
    from liemorph import ScalarField, curl_2d, divergence, domain_integral

    w = curl_2d(u).values
    d = divergence(u).values
    dens = u.u1.values**2 + u.u2.values**2 + w**2 + d**2
    return float(np.sqrt(domain_integral(ScalarField(u.grid, dens))))


def composed_morph_velocity(state, targets):
    """The morph velocity composed from physical-space operators.

    Per observable, u = PREFACTOR (I - Lap)^-1 [theta2 grad(theta1 - theta2)]
    with theta2 the state's h or vorticity; the fields are divided by their
    quadrature H1 norms (dropped below 1e-14 * area) and averaged.
    Default solver parameters (a0 = a1 = 1, no weight) only.
    """
    from liemorph import DisplacementField, gradient, inverse_helmholtz, vorticity_of
    from liemorph.displacement_solver import PREFACTOR

    kept = []
    for name, target in targets.items():
        t2 = state.h if name == "h" else vorticity_of(state)
        gx, gy = gradient(target - t2)
        u = DisplacementField(
            inverse_helmholtz(t2 * gx) * PREFACTOR, inverse_helmholtz(t2 * gy) * PREFACTOR
        )
        n = quadrature_h1_norm(u)
        if n >= 1e-14 * state.grid.area:
            kept.append(u * (1.0 / n))
    if not kept:
        return DisplacementField.zeros(state.grid)
    acc = kept[0]
    for u in kept[1:]:
        acc = acc + u
    return acc * (1.0 / len(kept))


def composed_transport(state, u):
    """-L_u of the TSW tensors (h 2-form, Theta 0-form, v 1-form) from
    `lie_derivative` on typed forms, as four value arrays."""
    from liemorph import DiffForm, DisplacementField, lie_derivative, vector_to_oneform

    lh = lie_derivative(DiffForm.from_scalar(2, state.h), u)
    lth = lie_derivative(DiffForm.from_scalar(0, state.theta), u)
    lv = lie_derivative(vector_to_oneform(DisplacementField(state.v1, state.v2)), u)
    return [-c.values for c in lh.components + lth.components + lv.components]


def composed_morph_step(state, u, params, history, naive=False):
    """One morph step composed from `lie_derivative` on typed forms: the
    tensor triple (h 2-form, Theta 0-form, v 1-form) or, with naive, four
    0-forms; Adams-Bashforth on the values; `hou_li_filter` per field."""
    from liemorph import DiffForm, ScalarField, TSWState, hou_li_filter, lie_derivative
    from liemorph.tsw_model import AB_COEFFS

    if naive:
        tend = [
            -lie_derivative(DiffForm.from_scalar(0, f), u).components[0].values
            for f in state.fields()
        ]
    else:
        tend = composed_transport(state, u)
    history.append(tend)
    del history[: -params.ab_order]
    coeffs = AB_COEFFS[len(history)]
    new = []
    for i, fld in enumerate(state.fields()):
        inc = sum(c * t[i] for c, t in zip(coeffs, reversed(history)))
        vals = fld.values + params.epsilon * inc
        new.append(hou_li_filter(ScalarField(state.grid, vals), a=params.filter_a))
    return TSWState(*new, time=state.time)


def composed_run_morph(state, targets, params, naive=False):
    """params.n_steps of composed_morph_velocity + composed_morph_step."""
    history = []
    for _ in range(params.n_steps):
        u = composed_morph_velocity(state, targets)
        state = composed_morph_step(state, u, params, history, naive=naive)
    return state


def composed_tendency(state, params):
    """The TSW tendencies of (h, Theta, v1, v2) as value arrays, each
    derivative taken by its own `gradient` on grid values."""
    from liemorph import ScalarField, gradient

    g = state.grid
    h, th, v1, v2 = (f.values for f in state.fields())

    def grad(a):
        return [c.values for c in gradient(ScalarField(g, a))]

    hv1x, _ = grad(h * v1)
    _, hv2y = grad(h * v2)
    thx, thy = grad(th)
    v1x, v1y = grad(v1)
    v2x, v2y = grad(v2)
    hthx, hthy = grad(h * th)
    dh = -(hv1x + hv2y)
    dth = -(v1 * thx + v2 * thy) - params.kappa * (h * th - params.h0 * params.theta0)
    dv1 = -(v1 * v1x + v2 * v1y) + params.f * v2 - hthx + 0.5 * h * thx
    dv2 = -(v1 * v2x + v2 * v2y) - params.f * v1 - hthy + 0.5 * h * thy
    return [dh, dth, dv1, dv2]


def rest_wave_matrix(a, b, params):
    """The inertia-gravity operator about rest on (h, v1, v2) at one mode,
    a 3 x 3 matrix; a, b are i kx, i ky: dh = -h0 div v,
    dv = -f zhat x v - theta0 grad h."""
    f, h0, th0 = params.f, params.h0, params.theta0
    return np.array([[0.0, -h0 * a, -h0 * b], [-th0 * a, 0.0, f], [-th0 * b, -f, 0.0]])


def stacked_propagator(grid, f, h0, theta0, dt):
    """`tsw_model._propagator` as first written: L stacked from its nine
    blocks, then I + s L + c L^2 from full-size temporaries."""
    a, b = np.broadcast_arrays(grid._ikx_odd[:, None], grid._iky_odd[None, :])
    zero, fs = np.zeros(a.shape), np.full(a.shape, f)
    lin = np.array([[zero, -h0 * a, -h0 * b], [-theta0 * a, zero, fs], [-theta0 * b, -fs, zero]])
    w = np.sqrt(f * f + h0 * theta0 * (a.imag**2 + b.imag**2))
    s = np.sin(w * dt) / w
    c = 2.0 * (np.sin(0.5 * w * dt) / w) ** 2
    prop = s * lin + c * np.einsum("ikxy,kjxy->ijxy", lin, lin)
    for i in range(3):
        prop[i, i] += 1.0
    return prop


@functools.lru_cache(maxsize=4)
def _expm_table(grid, f, h0, theta0, dt):
    from scipy.linalg import expm

    from liemorph import ModelParams

    params = ModelParams(f=f, h0=h0, theta0=theta0, dt=dt)
    # odd derivatives: the Nyquist wavenumbers act as zero
    kx, ky = grid.kx.copy(), grid.ky.copy()
    kx[grid.nx // 2] = ky[grid.ny // 2] = 0.0
    table = np.empty((grid.nx, grid.ny, 3, 3), dtype=complex)
    for i, a in enumerate(1j * kx):
        for j, b in enumerate(1j * ky):
            table[i, j] = expm(rest_wave_matrix(a, b, params) * dt)
    return table


def expm_wave_table(grid, params, dt):
    """exp(L dt) of `rest_wave_matrix` by scipy.linalg.expm at every
    full-fft2 mode, (nx, ny, 3, 3)."""
    return _expm_table(grid, params.f, params.h0, params.theta0, dt)


def expm_propagate(fields, table):
    """A (nx, ny, 3, 3) mode table applied to the (h, v1, v2) values of the
    four arrays (h, Theta, v1, v2) by full fft2; Theta passes unchanged."""
    hv = np.stack([np.fft.fft2(fields[i]) for i in (0, 2, 3)])
    out = np.fft.ifft2(np.einsum("xyij,jxy->ixy", table, hv)).real
    return [out[0], fields[1], out[1], out[2]]


def composed_rest_wave(state, params):
    """L applied to the state as values, from `gradient` and `divergence`:
    (-h0 div v, 0, f v2 - theta0 dh/dx, -f v1 - theta0 dh/dy)."""
    from liemorph import DisplacementField, divergence, gradient

    hx, hy = (c.values for c in gradient(state.h))
    div = divergence(DisplacementField(state.v1, state.v2)).values
    v1, v2 = state.v1.values, state.v2.values
    return [-params.h0 * div, np.zeros(state.grid.shape),
            params.f * v2 - params.theta0 * hx, -params.f * v1 - params.theta0 * hy]


def composed_ab3_step(state, history, params, u=None):
    """One model step composed on typed fields: Lawson's integrating-factor
    Adams-Bashforth up to order 3.  The remainder N = `composed_tendency`
    (plus `composed_transport` along u) minus `composed_rest_wave` goes
    through the AB history; exp(L dt) from scipy.linalg.expm propagates the
    rest-state waves, x_new = E [x + dt sum_j c_j E^j N_{n-j}]; then
    `hou_li_filter(a=12)` per field."""
    from liemorph import ScalarField, TSWState, hou_li_filter
    from liemorph.tsw_model import AB_COEFFS

    tend = composed_tendency(state, params)
    if u is not None:
        tend = [a + b for a, b in zip(tend, composed_transport(state, u))]
    tend = [a - b for a, b in zip(tend, composed_rest_wave(state, params))]
    history.append(tend)
    del history[:-3]
    coeffs = AB_COEFFS[len(history)]
    table = expm_wave_table(state.grid, params, params.dt)
    inc = [np.zeros(state.grid.shape) for _ in range(4)]
    for j, (c, t) in enumerate(zip(coeffs, reversed(history))):
        for _ in range(j):
            t = expm_propagate(t, table)
        inc = [a + c * b for a, b in zip(inc, t)]
    vals = [f.values + params.dt * d for f, d in zip(state.fields(), inc)]
    vals = expm_propagate(vals, table)
    new = [hou_li_filter(ScalarField(state.grid, v), a=12) for v in vals]
    return TSWState(*new, time=state.time + params.dt)


def grid_symmetry(name):
    """A symmetry of the square periodic grid about the origin, by index
    permutation alone: "rotation", the quarter turn (x, y) -> (-y, x), or
    "reflection", x -> -x; cell (i, j) sits at (i dx, j dy).

    Returns (state map, targets map, sign).  A field f becomes f o T^-1
    and the velocity turns as a vector.  The reflection reverses the
    orientation, so sign is -1: it multiplies the vorticity, and the
    Coriolis parameter f under which the moved state evolves.
    """
    from liemorph import ScalarField, TSWState

    if name == "rotation":
        def move(a):  # f(y, -x): [i, j] <- [j, -i]
            return np.roll(np.rot90(a), 1, axis=0)

        def turn(v1, v2):
            return -move(v2), move(v1)

        sign = 1.0
    else:
        def move(a):  # f(-x, y): [i, j] <- [-i, j]
            return np.roll(a[::-1], 1, axis=0)

        def turn(v1, v2):
            return -move(v1), move(v2)

        sign = -1.0

    def state(s):
        h, th, v1, v2 = (f.values for f in s.fields())
        moved = (move(h), move(th), *turn(v1, v2))
        return TSWState(*(ScalarField(s.grid, a) for a in moved), time=s.time)

    def targets(t):
        return {k: ScalarField(f.grid, (sign if k == "omega" else 1.0) * move(f.values))
                for k, f in t.items()}

    return state, targets, sign
