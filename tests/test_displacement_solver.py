"""Tests for the displacement solvers.

Every nontrivial comparison here runs against the dense oracles in
oracles.py, which rebuild the Euler-Lagrange and normal equations with
explicit differentiation matrices instead of FFTs.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liemorph import (
    DiffForm,
    DisplacementField,
    GridSpec,
    ScalarField,
    SolverParams,
    combine_displacements,
    displacement_from_0forms,
    displacement_from_2forms,
    domain_integral,
    exterior_derivative,
    generalized_optical_flow,
    h1_norm,
    lie_derivative,
)
from liemorph.displacement_solver import (
    PREFACTOR,
    _closed_form_hat,
    _solve_multiplier,
    lie_operator_adjoint,
)
from liemorph.spectral_core import _scratch
from liemorph.forms import form_inner_integral
from oracles import dense_el_displacement, dense_gof_solve, interior_weight, random_band_limited

TWO_PI = 2.0 * np.pi


def scalar_form(degree, grid, seed, amplitude=0.3, offset=1.0):
    vals = random_band_limited(grid, seed, amplitude=amplitude, offset=offset)
    return DiffForm.from_scalar(degree, ScalarField(grid, vals))


def random_form(grid, degree, seed, amplitude=0.3, offset=0.0):
    ncomp = 2 if degree == 1 else 1
    comps = tuple(
        ScalarField(
            grid,
            random_band_limited(grid, seed + 7 * i, amplitude=amplitude, offset=offset),
        )
        for i in range(ncomp)
    )
    return DiffForm(degree, comps)


def random_displacement(grid, seed, amplitude=0.5):
    return DisplacementField(
        ScalarField(grid, random_band_limited(grid, seed, amplitude=amplitude)),
        ScalarField(grid, random_band_limited(grid, seed + 1, amplitude=amplitude)),
    )


def vec_inner(u, v):
    g = u.grid
    prod = u.u1.values * v.u1.values + u.u2.values * v.u2.values
    return domain_integral(ScalarField(g, prod))


class TestClosedFormDegree0:
    def test_identical_inputs_give_zero(self, grid16):
        theta = scalar_form(0, grid16, 31)
        u = displacement_from_0forms(theta, theta)
        assert np.max(np.abs(u.u1.values)) == 0.0
        assert np.max(np.abs(u.u2.values)) == 0.0

    def test_constant_target_gives_zero(self, grid16):
        """The forcing is proportional to grad(theta2), so a flat target
        produces no displacement no matter how far theta1 sits from it."""
        theta1 = scalar_form(0, grid16, 32)
        theta2 = DiffForm.from_scalar(0, ScalarField(grid16, np.full(grid16.shape, 2.5)))
        u = displacement_from_0forms(theta1, theta2)
        assert np.max(np.abs(u.u1.values)) == 0.0

    def test_two_mode_closed_form(self):
        """theta2 = c + d2 sin(x), theta1 = theta2 + d1 cos(x) forces
        -d1 d2 cos(x)^2, and (1 - Lap)^-1 splits the mean from the 2x mode:
        u1 = -PREFACTOR * (d1 d2 / 2) (1 + cos(2x)/5)."""
        g = GridSpec(32, 32, TWO_PI, TWO_PI)
        d1, d2 = 0.05, 0.3
        theta2 = DiffForm.from_scalar(
            0, ScalarField.from_function(g, lambda x, y: 1.0 + d2 * np.sin(x))
        )
        theta1 = DiffForm.from_scalar(
            0,
            ScalarField.from_function(
                g, lambda x, y: 1.0 + d2 * np.sin(x) + d1 * np.cos(x)
            ),
        )
        u = displacement_from_0forms(theta1, theta2)
        x, _ = g.xy()
        expected = -PREFACTOR * 0.5 * d1 * d2 * (1.0 + np.cos(2 * x) / 5.0)
        assert np.max(np.abs(u.u1.values - expected)) <= 1e-12
        assert np.max(np.abs(u.u2.values)) <= 1e-14

    def test_shifted_bump_points_toward_theta1(self):
        g = GridSpec(64, 64, 2.0, 2.0)
        sig2 = 2 * 0.25**2

        def bump(x, y, cx):
            dxw = (x - cx + 1.0) % 2.0 - 1.0
            dyw = (y - 1.0 + 1.0) % 2.0 - 1.0
            return np.exp(-(dxw**2 + dyw**2) / sig2)

        theta2 = DiffForm.from_scalar(
            0, ScalarField.from_function(g, lambda x, y: bump(x, y, 1.0))
        )
        theta1 = DiffForm.from_scalar(
            0, ScalarField.from_function(g, lambda x, y: bump(x, y, 1.1))
        )
        u = displacement_from_0forms(theta1, theta2)
        assert domain_integral(u.u1) > 0.0

    def test_rejects_wrong_degree(self, grid16):
        theta = scalar_form(2, grid16, 35)
        with pytest.raises(ValueError):
            displacement_from_0forms(theta, theta)

    def test_rejects_mismatched_grids(self, grid16):
        other = GridSpec(16, 16, 2.0, 2.0)
        with pytest.raises(ValueError):
            displacement_from_0forms(
                scalar_form(0, grid16, 36), scalar_form(0, other, 36)
            )


class TestClosedFormDegree2:
    def test_identical_inputs_give_zero(self, grid16):
        theta = scalar_form(2, grid16, 41)
        u = displacement_from_2forms(theta, theta)
        assert np.max(np.abs(u.u1.values)) == 0.0
        assert np.max(np.abs(u.u2.values)) == 0.0

    def test_single_mode_closed_form(self):
        """theta2 = 1, theta1 = 1 + d sin(kx): the forcing is d k cos(kx)
        and the screened inverse gives u1 = PREFACTOR d k cos(kx)/(1+k^2)."""
        g = GridSpec(32, 32, TWO_PI, TWO_PI)
        d, k = 0.1, 1.0
        theta2 = DiffForm.from_scalar(2, ScalarField(g, np.ones(g.shape)))
        theta1 = DiffForm.from_scalar(
            2, ScalarField.from_function(g, lambda x, y: 1.0 + d * np.sin(k * x))
        )
        u = displacement_from_2forms(theta1, theta2)
        x, _ = g.xy()
        expected = PREFACTOR * d * k * np.cos(k * x) / (1.0 + k**2)
        assert np.max(np.abs(u.u1.values - expected)) <= 1e-10
        assert np.max(np.abs(u.u2.values)) <= 1e-14

    def test_matches_dense_oracle(self, grid16):
        theta1 = scalar_form(2, grid16, 42)
        theta2 = scalar_form(2, grid16, 43)
        w = interior_weight(grid16)
        params = SolverParams(weight=w)
        u = displacement_from_2forms(theta1, theta2, params)
        d1, d2 = dense_el_displacement(
            theta1.components[0].values,
            theta2.components[0].values,
            2,
            grid16,
            weight=w.values,
        )
        scale = max(np.max(np.abs(d1)), np.max(np.abs(d2)))
        assert np.max(np.abs(u.u1.values - PREFACTOR * d1)) <= 1e-8 * scale
        assert np.max(np.abs(u.u2.values - PREFACTOR * d2)) <= 1e-8 * scale

    def test_prefactor_is_two(self):
        assert PREFACTOR == 2.0

    def test_rejects_wrong_degree(self, grid16):
        theta = scalar_form(0, grid16, 44)
        with pytest.raises(ValueError):
            displacement_from_2forms(theta, theta)


class TestClosedForm:
    """What the 0-form and 2-form solves share: one Euler-Lagrange solve
    on spectra, with only the forcing's factors keyed by degree."""

    @pytest.mark.parametrize("degree", [0, 2])
    def test_off_default_matches_dense_oracle(self, grid16, degree):
        solve = displacement_from_0forms if degree == 0 else displacement_from_2forms
        theta1 = scalar_form(degree, grid16, 33)
        theta2 = scalar_form(degree, grid16, 34)
        w = interior_weight(grid16)
        params = SolverParams(a0=2.0, a1=0.5, weight=w)
        u = solve(theta1, theta2, params)
        d1, d2 = dense_el_displacement(
            theta1.components[0].values,
            theta2.components[0].values,
            degree,
            grid16,
            a0=2.0,
            a1=0.5,
            weight=w.values,
        )
        scale = max(np.max(np.abs(d1)), np.max(np.abs(d2)))
        assert np.max(np.abs(u.u1.values - PREFACTOR * d1)) <= 1e-8 * scale
        assert np.max(np.abs(u.u2.values - PREFACTOR * d2)) <= 1e-8 * scale

    @pytest.mark.parametrize("degree, expected", [(0, (3, 4, 4)), (2, (4, 4, 5))])
    def test_fft_counts_are_locked(self, grid16, count_ffts, degree, expected):
        """Both solves make the gradient's two irfft2, the forcing's two
        rfft2 and the displacement's two irfft2, one call each (stacks of
        two); the 0-form solve transforms theta2 alone (3 rfft2 + 4 irfft2
        in 4 calls), the 2-form solve both fields (4 + 4 in 5 calls)."""
        solve = displacement_from_0forms if degree == 0 else displacement_from_2forms
        theta1 = scalar_form(degree, grid16, 35)
        theta2 = scalar_form(degree, grid16, 36)
        counts = count_ffts()
        solve(theta1, theta2)
        assert (counts["rfft2"], counts["irfft2"], counts["calls"]) == expected


    @pytest.mark.parametrize("a0, a1", [(1.0, 1.0), (2.0, 0.5)])
    def test_solve_multiplier_is_cached_and_read_only(self, a0, a1):
        """One multiplier per grid, weights and prefactor, equal bit for bit
        to the expression it caches, shared by equal grids and read-only."""
        grid = GridSpec(64, 32, 5000.0, 3000.0)
        mult = _solve_multiplier(grid, a0, a1, PREFACTOR)
        assert np.array_equal(mult, PREFACTOR / (a0 + a1 * grid._k2_r))
        assert _solve_multiplier(GridSpec(64, 32, 5000.0, 3000.0), a0, a1, PREFACTOR) is mult
        with pytest.raises(ValueError):
            mult[0, 0] = 0.0

    def test_unweighted_solve_copies_no_field(self):
        """Unweighted, a solve into preallocated `out` and scratch allocates
        no field-sized array.  What it allocates is numpy's ufunc buffer for
        the products with the broadcast multipliers, np.getbufsize()
        complex elements (128 KiB) whatever the batch size.  On a batch of
        8 at 64^2 the peak measured 132,528 B; the bound leaves 4 KiB above
        the buffer.  With np.fft.irfftn's complex temporary, one
        spectrum's bytes, it measured 272,776 B, and a copy of f for W f
        adds f.nbytes (262,144 B)."""
        grid = GridSpec(64, 64, 5000.0, 5000.0)
        f = np.stack([random_band_limited(grid, 40 + i, offset=1.0) for i in range(8)])
        gh = np.fft.rfft2(np.stack([random_band_limited(grid, 50 + i) for i in range(8)]))
        out, tmp, params = np.empty((2, *gh.shape), dtype=complex), _scratch(f.shape), SolverParams()
        _closed_form_hat(f, gh, grid, params, out, tmp)  # fills the grid's lazy caches
        tracemalloc.start()
        try:
            _closed_form_hat(f, gh, grid, params, out, tmp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * np.getbufsize() + 4096


class TestGeneralizedOpticalFlow:
    def test_zero_tendency_returns_exact_zero(self, grid16):
        theta = random_form(grid16, 1, 51)
        theta_t = DiffForm(
            1, (ScalarField.zeros(grid16), ScalarField.zeros(grid16))
        )
        u = generalized_optical_flow(theta, theta_t)
        assert np.max(np.abs(u.u1.values)) == 0.0
        assert np.max(np.abs(u.u2.values)) == 0.0

    def test_translating_bump_recovers_positive_velocity(self):
        """A bump moving at speed c in +x has theta_t = -c theta_x; the
        regularized flow estimate underestimates c but must keep its sign
        over the feature."""
        g = GridSpec(64, 64, 2.0, 2.0)
        c = 0.7
        x, y = g.xy()
        dxw = (x - 1.0 + 1.0) % 2.0 - 1.0
        dyw = (y - 1.0 + 1.0) % 2.0 - 1.0
        theta = DiffForm.from_scalar(
            0, ScalarField(g, np.exp(-(dxw**2 + dyw**2) / (2 * 0.25**2)))
        )
        theta_x = exterior_derivative(theta).components[0]
        theta_t = DiffForm.from_scalar(0, ScalarField(g, -c * theta_x.values))
        u = generalized_optical_flow(theta, theta_t)
        w = theta_x.values**2
        est = np.sum(u.u1.values * w) / np.sum(w)
        assert 0.3 * c < est < c
        # the y-velocity must cancel over the feature by mirror symmetry
        assert abs(np.sum(u.u2.values * w) / np.sum(w)) <= 1e-8 * c

    @staticmethod
    def check_dense_oracle(grid, degree, a0, a1):
        theta = random_form(grid, degree, 52, amplitude=0.5, offset=1.0)
        theta_t = random_form(grid, degree, 53, amplitude=0.2)
        w = interior_weight(grid)
        params = SolverParams(a0=a0, a1=a1, weight=w, cg_tol=1e-12, cg_max_iter=2000)
        u = generalized_optical_flow(theta, theta_t, params)
        d1, d2 = dense_gof_solve(
            (degree, [c.values for c in theta.components]),
            (degree, [c.values for c in theta_t.components]),
            grid,
            a0=a0,
            a1=a1,
            weight=w.values,
        )
        scale = max(np.max(np.abs(d1)), np.max(np.abs(d2)))
        assert np.max(np.abs(u.u1.values - d1)) <= 1e-6 * scale
        assert np.max(np.abs(u.u2.values - d2)) <= 1e-6 * scale

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_matches_dense_oracle(self, grid16, degree):
        self.check_dense_oracle(grid16, degree, a0=1.0, a1=1.0)

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_off_default_matches_dense_oracle(self, grid16, degree):
        """Unequal a0 and a1, so that the regularizer's two terms cannot
        trade places unseen."""
        self.check_dense_oracle(grid16, degree, a0=2.0, a1=0.5)

    @settings(max_examples=15, deadline=None)
    @given(
        degree=st.sampled_from([0, 1, 2]),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_adjoint_identity(self, degree, seed):
        """<L_u theta, phi> = <u, L* phi> for the inner products actually
        used by the normal equations."""
        g = GridSpec(16, 12, 3.0, 2.0)
        theta = random_form(g, degree, seed, amplitude=0.7, offset=0.5)
        phi = random_form(g, degree, seed + 1000)
        u = random_displacement(g, seed + 2000)
        lhs = form_inner_integral(lie_derivative(theta, u), phi)
        rhs = vec_inner(u, lie_operator_adjoint(theta, phi))
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))

    def test_linear_in_tendency(self, grid16):
        theta = random_form(grid16, 0, 54, amplitude=0.5, offset=1.0)
        ta = random_form(grid16, 0, 55, amplitude=0.3)
        tb = random_form(grid16, 0, 56, amplitude=0.3)
        al, be = 1.7, -0.6
        combo = DiffForm.from_scalar(
            0,
            ScalarField(
                grid16,
                al * ta.components[0].values + be * tb.components[0].values,
            ),
        )
        params = SolverParams(cg_tol=1e-12, cg_max_iter=2000)
        u_ab = generalized_optical_flow(theta, combo, params)
        u_a = generalized_optical_flow(theta, ta, params)
        u_b = generalized_optical_flow(theta, tb, params)
        ref = al * u_a + be * u_b
        scale = max(np.max(np.abs(ref.u1.values)), np.max(np.abs(ref.u2.values)))
        assert np.max(np.abs(u_ab.u1.values - ref.u1.values)) <= 1e-8 * scale
        assert np.max(np.abs(u_ab.u2.values - ref.u2.values)) <= 1e-8 * scale

    def test_unit_weight_matches_default(self, grid16):
        theta = random_form(grid16, 2, 57, amplitude=0.5, offset=1.0)
        theta_t = random_form(grid16, 2, 58, amplitude=0.2)
        ones = ScalarField(grid16, np.ones(grid16.shape))
        u_def = generalized_optical_flow(theta, theta_t)
        u_one = generalized_optical_flow(theta, theta_t, SolverParams(weight=ones))
        assert np.array_equal(u_def.u1.values, u_one.u1.values)
        assert np.array_equal(u_def.u2.values, u_one.u2.values)

    def test_zero_weight_gives_zero(self, grid16):
        theta = random_form(grid16, 0, 59, amplitude=0.5, offset=1.0)
        theta_t = random_form(grid16, 0, 60, amplitude=0.2)
        zeros = ScalarField.zeros(grid16)
        u = generalized_optical_flow(theta, theta_t, SolverParams(weight=zeros))
        assert np.max(np.abs(u.u1.values)) == 0.0
        assert np.max(np.abs(u.u2.values)) == 0.0

    def test_warns_when_cg_stalls(self, grid16):
        theta = random_form(grid16, 1, 61, amplitude=0.7, offset=1.0)
        theta_t = random_form(grid16, 1, 62, amplitude=0.3)
        with pytest.warns(RuntimeWarning, match="CG stopped"):
            generalized_optical_flow(
                theta, theta_t, SolverParams(cg_tol=1e-14, cg_max_iter=2)
            )

    def test_rejects_mismatched_degree(self, grid16):
        theta = random_form(grid16, 0, 63)
        theta_t = random_form(grid16, 2, 64)
        with pytest.raises(ValueError):
            generalized_optical_flow(theta, theta_t)


class TestCombineDisplacements:
    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            combine_displacements([])

    def test_all_zero_gives_zero(self, grid16):
        z = DisplacementField.zeros(grid16)
        out = combine_displacements([z, z, z])
        assert np.max(np.abs(out.u1.values)) == 0.0

    def test_single_input_is_normalized(self, grid16):
        u = random_displacement(grid16, 71)
        out = combine_displacements([u])
        assert h1_norm(out) == pytest.approx(1.0, rel=1e-12)
        n = h1_norm(u)
        assert np.allclose(out.u1.values, u.u1.values / n, atol=1e-14)

    def test_mean_of_normalized_pair(self, grid16):
        ua = random_displacement(grid16, 72)
        ub = random_displacement(grid16, 73)
        out = combine_displacements([ua, ub])
        ref = 0.5 * (ua * (1.0 / h1_norm(ua)) + ub * (1.0 / h1_norm(ub)))
        assert np.allclose(out.u1.values, ref.u1.values, atol=1e-14)
        assert np.allclose(out.u2.values, ref.u2.values, atol=1e-14)

    def test_tiny_inputs_excluded_from_count(self, grid16):
        """A member already aligned contributes nothing rather than a
        normalized noise field."""
        ua = random_displacement(grid16, 74)
        tiny = ua * 1e-18
        out = combine_displacements([ua, tiny])
        ref = combine_displacements([ua])
        assert np.allclose(out.u1.values, ref.u1.values, atol=1e-15)

    def test_tol_norm_override(self, grid16):
        ua = random_displacement(grid16, 75)
        out = combine_displacements([ua], tol_norm=1e9)
        assert np.max(np.abs(out.u1.values)) == 0.0

    def test_rejects_mismatched_grids(self, grid16):
        other = GridSpec(16, 16, 2.0, 2.0)
        with pytest.raises(ValueError):
            combine_displacements(
                [DisplacementField.zeros(grid16), DisplacementField.zeros(other)]
            )


class TestSolverParams:
    def test_defaults(self):
        p = SolverParams()
        assert p.a0 == 1.0 and p.a1 == 1.0 and p.weight is None

    def test_rejects_nonpositive_a0(self):
        with pytest.raises(ValueError):
            SolverParams(a0=0.0)

    def test_rejects_negative_a1(self):
        with pytest.raises(ValueError):
            SolverParams(a1=-1.0)

    def test_rejects_weight_outside_unit_interval(self, grid16):
        high = ScalarField(grid16, np.full(grid16.shape, 1.5))
        with pytest.raises(ValueError):
            SolverParams(weight=high)
        low = ScalarField(grid16, np.full(grid16.shape, -0.1))
        with pytest.raises(ValueError):
            SolverParams(weight=low)


class TestDisplacementField:
    def test_rejects_mismatched_component_grids(self, grid16):
        other = GridSpec(16, 16, 2.0, 2.0)
        with pytest.raises(ValueError):
            DisplacementField(ScalarField.zeros(grid16), ScalarField.zeros(other))

    def test_arithmetic(self, grid16):
        ua = random_displacement(grid16, 81)
        ub = random_displacement(grid16, 82)
        s = ua + ub - 2.0 * ua
        assert np.allclose(s.u1.values, ub.u1.values - ua.u1.values, atol=1e-15)
        neg = -ua
        assert np.array_equal(neg.u2.values, -ua.u2.values)
