"""Differential forms: Lie derivatives, exterior calculus, pushforwards.

The sign-sensitive pieces (the codifferential, the degree-1 pushforward)
are pinned by integral identities rather than by convention tables:
adjointness of d and delta, and exactness of a 90-degree rotation on a
rotationally symmetric vector field.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liemorph import (
    AnalyticMap,
    DiffForm,
    DisplacementField,
    GridSpec,
    ScalarField,
    codifferential,
    curl_2d,
    domain_integral,
    exterior_derivative,
    gradient,
    h1_norm,
    hodge_star,
    lie_derivative,
    oneform_to_vector,
    pushforward,
    rotation_map,
    translation_map,
    vector_to_oneform,
)
from liemorph.forms import _transport_hat, form_inner_integral, periodic_interpolate
from liemorph.spectral_core import _h1_weight

from oracles import quadrature_h1_norm, random_band_limited, shear_map_x

TWO_PI = 2.0 * np.pi


def random_form(grid, degree, seed, amplitude=1.0):
    if degree == 1:
        return DiffForm(
            1,
            (
                ScalarField(grid, random_band_limited(grid, seed, amplitude=amplitude)),
                ScalarField(grid, random_band_limited(grid, seed + 1, amplitude=amplitude)),
            ),
        )
    return DiffForm(
        degree,
        (ScalarField(grid, random_band_limited(grid, seed, amplitude=amplitude)),),
    )


def random_displacement(grid, seed, amplitude=1.0):
    return DisplacementField(
        ScalarField(grid, random_band_limited(grid, seed, amplitude=amplitude)),
        ScalarField(grid, random_band_limited(grid, seed + 7, amplitude=amplitude)),
    )


class TestDiffForm:
    def test_component_count_enforced(self, grid_small):
        f = ScalarField.zeros(grid_small)
        with pytest.raises(ValueError):
            DiffForm(0, (f, f))
        with pytest.raises(ValueError):
            DiffForm(1, (f,))
        with pytest.raises(ValueError):
            DiffForm(3, (f,))

    def test_zero_and_from_scalar(self, grid_small):
        z = DiffForm.zero(grid_small, 1)
        assert z.degree == 1 and len(z.components) == 2
        assert not z.components[0].values.any()
        f = ScalarField.constant(grid_small, 2.0)
        assert DiffForm.from_scalar(2, f).degree == 2

    def test_musical_isomorphisms_are_identity_on_components(self, grid_small):
        u = random_displacement(grid_small, 1)
        alpha = vector_to_oneform(u)
        back = oneform_to_vector(alpha)
        assert np.array_equal(back.u1.values, u.u1.values)
        assert np.array_equal(back.u2.values, u.u2.values)


class TestLieDerivative:
    def test_degree0_constant_is_zero(self, grid_small):
        theta = DiffForm.from_scalar(0, ScalarField.constant(grid_small, 5.0))
        u = random_displacement(grid_small, 2)
        out = lie_derivative(theta, u)
        assert np.max(np.abs(out.components[0].values)) == 0.0

    def test_degree0_is_advection(self, grid_small):
        theta = random_form(grid_small, 0, 3)
        u = random_displacement(grid_small, 4)
        gx, gy = gradient(theta.components[0])
        expected = u.u1.values * gx.values + u.u2.values * gy.values
        out = lie_derivative(theta, u)
        assert np.allclose(out.components[0].values, expected, atol=1e-12)

    def test_degree1_constant_form_analytic(self, grid_small):
        """alpha = dx1, u = (sin(2*pi*y/ly), 0): the only surviving term is
        a1 * du1/dx_i, so the answer is (0, 2*pi/ly * cos(2*pi*y/ly))."""
        g = grid_small
        alpha = DiffForm(
            1, (ScalarField.constant(g, 1.0), ScalarField.zeros(g))
        )
        ky = TWO_PI / g.ly
        u = DisplacementField(
            ScalarField.from_function(g, lambda x, y: np.sin(ky * y)),
            ScalarField.zeros(g),
        )
        out = lie_derivative(alpha, u)
        _, y = g.xy()
        assert np.max(np.abs(out.components[0].values)) <= 1e-12
        assert np.allclose(out.components[1].values, ky * np.cos(ky * y), atol=1e-12)

    def test_degree2_is_divergence_form(self, grid_small):
        theta = random_form(grid_small, 2, 5)
        u = random_displacement(grid_small, 6)
        f = theta.components[0]
        flux = DisplacementField(
            ScalarField(grid_small, f.values * u.u1.values),
            ScalarField(grid_small, f.values * u.u2.values),
        )
        from liemorph import divergence

        expected = divergence(flux).values
        out = lie_derivative(theta, u)
        assert np.allclose(out.components[0].values, expected, atol=1e-12)

    def test_degree2_integral_is_conserved(self, grid_small):
        """The divergence form integrates to zero: transport moves mass
        around without creating it."""
        theta = random_form(grid_small, 2, 7, amplitude=2.0)
        u = random_displacement(grid_small, 8)
        out = lie_derivative(theta, u)
        assert abs(domain_integral(out.components[0])) <= 1e-12

    def test_mismatched_grids_rejected(self, grid_small, grid16):
        theta = random_form(grid_small, 0, 9)
        u = DisplacementField.zeros(grid16)
        with pytest.raises(ValueError):
            lie_derivative(theta, u)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), alpha=st.floats(-2.0, 2.0))
    def test_bilinear(self, seed, alpha):
        g = GridSpec(16, 12, 3.0, 2.0)
        for degree in (0, 1, 2):
            theta_a = random_form(g, degree, seed)
            theta_b = random_form(g, degree, seed + 100)
            u = random_displacement(g, seed + 200)
            combo = DiffForm(
                degree,
                tuple(
                    ca * alpha + cb
                    for ca, cb in zip(theta_a.components, theta_b.components)
                ),
            )
            lhs = lie_derivative(combo, u)
            rhs_a = lie_derivative(theta_a, u)
            rhs_b = lie_derivative(theta_b, u)
            for lc, ra, rb in zip(lhs.components, rhs_a.components, rhs_b.components):
                assert np.allclose(lc.values, alpha * ra.values + rb.values, atol=1e-12)
            # linearity in u with theta fixed
            v = random_displacement(g, seed + 300)
            lhs_u = lie_derivative(theta_a, u * alpha + v)
            for lc, ra, rv in zip(
                lhs_u.components,
                lie_derivative(theta_a, u).components,
                lie_derivative(theta_a, v).components,
            ):
                assert np.allclose(lc.values, alpha * ra.values + rv.values, atol=1e-12)


def transport_case(grid, values):
    """(vals, spec, omega, u) of the morph kernel for the stacked values of
    (h, Theta, v1, v2, u1, u2); omega = curl v by the odd derivatives."""
    vals, u = values[:4], values[4:]
    spec = np.stack([np.fft.rfft2(v) for v in vals])
    wh = grid._ikx_odd[:, None] * spec[3] - grid._iky_odd[None, :] * spec[2]
    return vals, spec, np.fft.irfft2(wh, s=grid.shape), u


class TestTransportKernel:
    """`_transport_hat`, the morph's -L_u on the TSW tensors, with v
    transported by Cartan's formula."""

    def test_vorticity_transport_is_conservative(self, grid64, rng):
        """The curl of the v-rows is the 2-form transport -div(omega u),
        exactly up to rounding, also for fields with content up to the
        grid scale."""
        g = grid64
        vals, spec, omega, u = transport_case(g, rng.standard_normal((6, *g.shape)))
        t = _transport_hat(vals, spec, omega, u, g)
        ikx, iky = g._ikx_odd[:, None], g._iky_odd[None, :]
        curl = ikx * t[3] - iky * t[2]
        ref = -(ikx * np.fft.rfft2(omega * u[0]) + iky * np.fft.rfft2(omega * u[1]))
        assert np.max(np.abs(curl - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_matches_lie_derivative_on_band_limited_fields(self, grid64):
        """Without aliasing, the Cartan form of the v-rows and the other
        rows equal -lie_derivative of each tensor to rounding."""
        g = grid64
        values = np.stack([random_band_limited(g, s) for s in range(6)])
        vals, spec, omega, u = transport_case(g, values)
        got = [np.fft.irfft2(t, s=g.shape) for t in _transport_hat(vals, spec, omega, u, g)]
        disp = DisplacementField(ScalarField(g, u[0]), ScalarField(g, u[1]))
        fields = [ScalarField(g, v) for v in vals]
        ref = [lie_derivative(DiffForm.from_scalar(2, fields[0]), disp),
               lie_derivative(DiffForm.from_scalar(0, fields[1]), disp),
               lie_derivative(DiffForm(1, fields[2:]), disp)]
        ref = [-c.values for form in ref for c in form.components]
        for a, b in zip(got, ref):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


class TestExteriorCalculus:
    def test_d_of_function_is_gradient(self, grid_small):
        f = random_form(grid_small, 0, 10)
        out = exterior_derivative(f)
        gx, gy = gradient(f.components[0])
        assert np.array_equal(out.components[0].values, gx.values)
        assert np.array_equal(out.components[1].values, gy.values)

    def test_d_of_velocity_oneform_is_curl(self, grid_small):
        u = random_displacement(grid_small, 11)
        alpha = vector_to_oneform(u)
        out = exterior_derivative(alpha)
        assert out.degree == 2
        assert np.allclose(out.components[0].values, curl_2d(u).values, atol=1e-14)

    def test_d_squared_is_zero(self, grid_small):
        f = random_form(grid_small, 0, 12)
        ddf = exterior_derivative(exterior_derivative(f))
        assert np.max(np.abs(ddf.components[0].values)) <= 1e-10

    def test_d_of_twoform_rejected(self, grid_small):
        with pytest.raises(ValueError):
            exterior_derivative(random_form(grid_small, 2, 13))

    def test_double_star_on_oneform_is_minus_identity(self, grid_small):
        alpha = random_form(grid_small, 1, 14)
        ss = hodge_star(hodge_star(alpha))
        for c, sc in zip(alpha.components, ss.components):
            assert np.array_equal(sc.values, -c.values)

    def test_star_roundtrip_even_degrees(self, grid_small):
        f = random_form(grid_small, 0, 15)
        assert hodge_star(f).degree == 2
        ss = hodge_star(hodge_star(f))
        assert ss.degree == 0
        assert np.array_equal(ss.components[0].values, f.components[0].values)

    def test_codifferential_of_constant_oneform_is_zero(self, grid_small):
        alpha = DiffForm(
            1,
            (
                ScalarField.constant(grid_small, 2.0),
                ScalarField.constant(grid_small, -1.0),
            ),
        )
        out = codifferential(alpha)
        assert out.degree == 0
        assert np.max(np.abs(out.components[0].values)) == 0.0

    def test_codifferential_of_function_is_zero(self, grid_small):
        out = codifferential(random_form(grid_small, 0, 16))
        assert not out.components[0].values.any()

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_adjointness_pins_the_sign(self, seed):
        """integral(<d f, alpha>) = integral(<f, delta alpha>) and the same
        one degree up; this is the identity that fixes delta's sign."""
        g = GridSpec(16, 12, 3.0, 2.0)
        f = random_form(g, 0, seed)
        alpha = random_form(g, 1, seed + 50)
        lhs = form_inner_integral(exterior_derivative(f), alpha)
        rhs = form_inner_integral(f, codifferential(alpha))
        assert abs(lhs - rhs) <= 1e-10
        beta = random_form(g, 2, seed + 60)
        lhs2 = form_inner_integral(exterior_derivative(alpha), beta)
        rhs2 = form_inner_integral(alpha, codifferential(beta))
        assert abs(lhs2 - rhs2) <= 1e-10

    def test_hodge_laplacian_is_componentwise_laplacian(self, grid_small):
        """(d delta + delta d) on a 1-form equals minus the scalar Laplacian
        applied to each component (flat torus)."""
        alpha = random_form(grid_small, 1, 17)
        lap = exterior_derivative(codifferential(alpha))
        lap2 = codifferential(exterior_derivative(alpha))
        total = [
            a.values + b.values
            for a, b in zip(lap.components, lap2.components)
        ]
        for comp, src in zip(total, alpha.components):
            gx, gy = gradient(src)
            gxx = gradient(gx)[0].values
            gyy = gradient(gy)[1].values
            assert np.allclose(comp, -(gxx + gyy), atol=1e-10)


class TestH1Norm:
    def test_zero_field(self, grid_small):
        assert h1_norm(DisplacementField.zeros(grid_small)) == 0.0

    def test_weight_is_read_only(self, grid_small):
        with pytest.raises(ValueError):
            _h1_weight(grid_small)[0, 0] = 0.0

    def test_constant_field(self, grid_small):
        c = -2.5
        u = DisplacementField(
            ScalarField.constant(grid_small, c), ScalarField.zeros(grid_small)
        )
        assert h1_norm(u) == pytest.approx(abs(c) * np.sqrt(grid_small.area), rel=1e-12)

    def test_single_mode_closed_form(self):
        """u = (sin(2*pi*x/lx), 0): |u|^2 and div^2 each integrate to
        (lx*ly/2) and (lx*ly/2)*k^2, curl is 0."""
        g = GridSpec(64, 64, 1.0, 1.0)
        k = TWO_PI / g.lx
        u = DisplacementField(
            ScalarField.from_function(g, lambda x, y: np.sin(k * x)),
            ScalarField.zeros(g),
        )
        expected = np.sqrt((g.lx * g.ly / 2.0) * (1.0 + k**2))
        assert h1_norm(u) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("nyquist", [False, True])
    def test_parseval_matches_quadrature(self, grid_small, nyquist):
        """The Parseval evaluation equals the quadrature of the spectral
        curl and divergence, also with content in the Nyquist rows and
        columns (which the odd derivatives drop)."""
        g = grid_small
        vals = [random_band_limited(g, s, modes=4) for s in (61, 62)]
        if nyquist:
            i, j = np.indices(g.shape)
            vals[0] = vals[0] + 0.7 * (-1.0) ** i + 0.3 * (-1.0) ** (i + j)
            vals[1] = vals[1] - 0.5 * (-1.0) ** j
        u = DisplacementField(ScalarField(g, vals[0]), ScalarField(g, vals[1]))
        assert h1_norm(u) == pytest.approx(quadrature_h1_norm(u), rel=1e-13)


class TestAnalyticMap:
    def test_check_inverse_accepts_rotation(self, grid16):
        rot = rotation_map(0.7, 0.5, 0.5)
        rot.check_inverse(grid16)

    def test_check_inverse_rejects_broken_map(self, grid16):
        broken = AnalyticMap(
            lambda x, y: (x + 0.3, y),
            lambda x, y: (x, y),  # not the inverse
            lambda x, y: (
                (np.ones_like(x), np.zeros_like(x)),
                (np.zeros_like(x), np.ones_like(x)),
            ),
        )
        with pytest.raises(ValueError):
            broken.check_inverse(grid16)

    def test_translation_round_trip(self, grid16):
        t = translation_map(0.3, -0.1)
        x, y = grid16.xy()
        xf, yf = t.forward(x, y)
        xb, yb = t.inverse(xf, yf)
        assert np.allclose(xb, x, atol=1e-12)
        assert np.allclose(yb, y, atol=1e-12)


class TestPushforward:
    def test_identity_map_fixes_fields(self, grid64):
        ident = translation_map(0.0, 0.0)
        for degree in (0, 1, 2):
            theta = random_form(grid64, degree, 20 + degree)
            out = pushforward(theta, ident)
            for c, oc in zip(theta.components, out.components):
                assert np.max(np.abs(oc.values - c.values)) <= 1e-8

    def test_degree0_translation_matches_sampling(self):
        g = GridSpec(64, 64, 2.0, 2.0)
        theta = DiffForm.from_scalar(
            0,
            ScalarField.from_function(
                g, lambda x, y: np.cos(TWO_PI * x / 2.0) * np.sin(TWO_PI * y / 2.0)
            ),
        )
        # translate by exactly four grid cells: nodes map to nodes
        t = translation_map(4 * g.dx, 0.0)
        out = pushforward(theta, t)
        expected = np.roll(theta.components[0].values, 4, axis=0)
        assert np.allclose(out.components[0].values, expected, atol=1e-9)

    def test_degree1_rotation_symmetry_vs_naive(self):
        """A rotationally symmetric vector field is fixed by a 90-degree
        rotation about its center only if the components co-rotate; naive
        per-component composition visibly breaks the field.  The bump is
        narrow enough (sigma = 0.12 on a half-width of 1) that its seam
        tail sits below the comparison tolerance."""
        g = GridSpec(64, 64, 2.0, 2.0)
        cx = cy = 1.0  # grid point; 90-degree rotations map nodes to nodes
        x, y = g.xy()
        dxw = (x - cx + 1.0) % 2.0 - 1.0
        dyw = (y - cy + 1.0) % 2.0 - 1.0
        bump = np.exp(-(dxw**2 + dyw**2) / (2 * 0.12**2))
        v = DiffForm(
            1, (ScalarField(g, -dyw * bump), ScalarField(g, dxw * bump))
        )
        rot = rotation_map(np.pi / 2.0, cx, cy)
        out = pushforward(v, rot)
        scale = np.max(np.abs(v.components[0].values))
        for c, oc in zip(v.components, out.components):
            assert np.max(np.abs(oc.values - c.values)) <= 1e-8 * scale

        xi, yi = rot.inverse(x, y)
        naive = [
            periodic_interpolate(c, xi, yi) for c in v.components
        ]
        worst = max(
            np.max(np.abs(n - c.values)) for n, c in zip(naive, v.components)
        )
        assert worst > 0.5 * scale

    def test_degree2_mass_conserved_under_quarter_turn(self):
        """90-degree rotations are honest torus diffeomorphisms (generic
        angles are not: they do not preserve the period lattice)."""
        g = GridSpec(64, 64, 2.0, 2.0)
        theta = random_form(g, 2, 23, amplitude=1.0)
        out = pushforward(theta, rotation_map(np.pi / 2.0, 1.0, 1.0))
        assert domain_integral(out.components[0]) == pytest.approx(
            domain_integral(theta.components[0]), abs=1e-10
        )

    def test_degree2_mass_conserved_under_translation(self):
        """Fractional-cell translation interpolates everywhere; the spline
        has unit DC gain, so the mean survives."""
        g = GridSpec(64, 64, 2.0, 2.0)
        theta = random_form(g, 2, 29, amplitude=1.0)
        out = pushforward(theta, translation_map(0.37 * g.dx, -1.61 * g.dy))
        assert domain_integral(out.components[0]) == pytest.approx(
            domain_integral(theta.components[0]), abs=1e-9
        )

    def test_degree2_mass_conserved_under_compression(self):
        """Non-isometric map: the Jacobian determinant must compensate the
        area change exactly."""
        from oracles import compressive_map_x

        g = GridSpec(128, 128, 2.0, 2.0)
        x, y = g.xy()
        density = 1.0 + 0.5 * np.cos(TWO_PI * x / 2.0) * np.cos(TWO_PI * y / 2.0)
        theta = DiffForm.from_scalar(2, ScalarField(g, density))
        amap = compressive_map_x(
            0.2,
            lambda x: np.sin(TWO_PI * x / 2.0),
            lambda x: TWO_PI / 2.0 * np.cos(TWO_PI * x / 2.0),
        )
        out = pushforward(theta, amap)
        assert domain_integral(out.components[0]) == pytest.approx(
            domain_integral(theta.components[0]), abs=1e-6
        )

    def test_degree1_vorticity_conserved(self):
        """Total curl of any periodic 1-form vanishes identically (it is the
        integral of an exact 2-form), so both sides here are spectral zeros.
        The test pins that pushforward does not manufacture circulation out
        of roundoff; the substantive conservation check is the mass test."""
        g = GridSpec(64, 64, 2.0, 2.0)
        alpha = random_form(g, 1, 24)
        before = domain_integral(exterior_derivative(alpha).components[0])
        out = pushforward(alpha, translation_map(0.37 * g.dx, 0.61 * g.dy))
        after = domain_integral(exterior_derivative(out).components[0])
        assert abs(before) <= 1e-12
        assert after == pytest.approx(before, abs=1e-10)

    def test_naturality_d_commutes_with_pushforward(self):
        """d(T* f) matches T*(df) up to bicubic interpolation error, which
        scales like dx^4 times the fourth derivative of the bump.  A shear
        map keeps the Jacobian non-trivial so the cotangent factor on the
        1-form side actually matters."""
        g = GridSpec(128, 128, 2.0, 2.0)
        x, y = g.xy()
        dxw = (x - 1.0 + 1.0) % 2.0 - 1.0
        dyw = (y - 1.0 + 1.0) % 2.0 - 1.0
        f = DiffForm.from_scalar(
            0, ScalarField(g, np.exp(-(dxw**2 + dyw**2) / (2 * 0.2**2)))
        )
        amap = shear_map_x(
            0.1,
            lambda y: np.sin(TWO_PI * y / 2.0),
            lambda y: TWO_PI / 2.0 * np.cos(TWO_PI * y / 2.0),
        )
        lhs = exterior_derivative(pushforward(f, amap))
        rhs = pushforward(exterior_derivative(f), amap)
        scale = np.max(np.abs(rhs.components[0].values))
        for lc, rc in zip(lhs.components, rhs.components):
            assert np.max(np.abs(lc.values - rc.values)) <= 1e-3 * scale

    def test_orientation_reversal_rejected_for_densities(self):
        g = GridSpec(32, 32, 1.0, 1.0)
        flip = AnalyticMap(
            lambda x, y: (np.mod(-x, 1.0), y),
            lambda x, y: (np.mod(-x, 1.0), y),
            lambda x, y: (
                (-np.ones_like(x), np.zeros_like(x)),
                (np.zeros_like(x), np.ones_like(x)),
            ),
        )
        theta = random_form(g, 2, 25)
        with pytest.raises(ValueError):
            pushforward(theta, flip, check=False)


def test_first_order_consistency_degree0():
    """Pushforward under x -> x + eps*u agrees with theta - eps*L_u theta
    to second order in eps (halving eps quarters the gap)."""
    g = GridSpec(256, 256, 1.0, 1.0)
    theta = DiffForm.from_scalar(
        0,
        ScalarField.from_function(
            g, lambda x, y: np.sin(TWO_PI * x) * np.cos(TWO_PI * y)
        ),
    )
    a = lambda y: 0.3 * np.sin(TWO_PI * y)
    da = lambda y: 0.3 * TWO_PI * np.cos(TWO_PI * y)
    u = DisplacementField(
        ScalarField.from_function(g, lambda x, y: a(y)), ScalarField.zeros(g)
    )
    lie = lie_derivative(theta, u)
    errs = []
    for eps in (1e-2, 5e-3):
        pushed = pushforward(theta, shear_map_x(eps, a, da))
        approx = theta.components[0].values - eps * lie.components[0].values
        diff = pushed.components[0].values - approx
        errs.append(np.sqrt(np.mean(diff**2)))
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.9
