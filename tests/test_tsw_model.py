"""Tests for the thermal shallow water model.

Analytic single-mode states isolate each term of the tendency; the time
stepper is checked by self-convergence against a finer-dt reference, and
the spectral kernel against the typed composition in oracles.py.
"""

import numpy as np
import pytest

from liemorph import (
    DisplacementField,
    GridSpec,
    InstabilityError,
    ModelParams,
    ScalarField,
    TSWState,
    VortexIC,
    conserved_totals,
    divergence,
    domain_integral,
    double_vortex_ic,
    field_mse,
    integrate,
    nudged_tendency,
    vorticity_of,
)
from liemorph.tsw_model import AB_COEFFS, _integrate_batch, ab3_step, tendency
from oracles import composed_integrate, random_band_limited

TWO_PI = 2.0 * np.pi


@pytest.fixture
def params():
    return ModelParams()


@pytest.fixture
def grid_km():
    return GridSpec(64, 64, 5000.0, 5000.0)


def rest_plus(grid, params, dh=None, dth=None, v1=None, v2=None):
    zero = np.zeros(grid.shape)
    return TSWState(
        ScalarField(grid, params.h0 + (zero if dh is None else dh)),
        ScalarField(grid, params.theta0 + (zero if dth is None else dth)),
        ScalarField(grid, zero if v1 is None else v1),
        ScalarField(grid, zero if v2 is None else v2),
    )


class TestTendencyTerms:
    def test_rest_state_has_zero_tendency(self, grid_km, params):
        t = tendency(TSWState.rest(grid_km, params), params)
        for arr in (t.dh, t.dtheta, t.dv1, t.dv2):
            assert np.max(np.abs(arr)) == 0.0

    def test_height_perturbation_drives_gravity_term(self, grid_km, params):
        """With v = 0 and flat Theta the momentum source collapses to
        -Theta0 grad h, and the relaxation pulls Theta down by
        kappa*Theta0*eta."""
        k = TWO_PI * 3.0 / grid_km.lx
        x, _ = grid_km.xy()
        eta = 0.01 * np.sin(k * x)
        t = tendency(rest_plus(grid_km, params, dh=eta), params)
        assert np.max(np.abs(t.dh)) == 0.0
        assert np.allclose(t.dtheta, -params.kappa * params.theta0 * eta, atol=1e-13)
        expected = -params.theta0 * 0.01 * k * np.cos(k * x)
        assert np.max(np.abs(t.dv1 - expected)) <= 1e-12
        assert np.max(np.abs(t.dv2)) <= 1e-15

    def test_uniform_flow_feels_coriolis_only(self, grid_km, params):
        c = 0.3
        t = tendency(rest_plus(grid_km, params, v1=np.full(grid_km.shape, c)), params)
        assert np.max(np.abs(t.dh)) == 0.0
        assert np.max(np.abs(t.dtheta)) == 0.0
        assert np.max(np.abs(t.dv1)) <= 1e-15
        assert np.allclose(t.dv2, -params.f * c, atol=1e-15)

    def test_buoyancy_gradient_half_term(self, grid_km, params):
        """For constant h the pressure and buoyancy terms combine to
        -h0/2 grad Theta; the factor separates h grad(h Theta) from the
        plain shallow water force."""
        k = TWO_PI * 2.0 / grid_km.ly
        _, y = grid_km.xy()
        b = 0.5 * np.sin(k * y)
        t = tendency(rest_plus(grid_km, params, dth=b), params)
        expected = -0.5 * params.h0 * 0.5 * k * np.cos(k * y)
        assert np.max(np.abs(t.dv2 - expected)) <= 1e-12
        assert np.max(np.abs(t.dv1)) <= 1e-15
        assert np.allclose(t.dtheta, -params.kappa * params.h0 * b, atol=1e-13)

    def test_mass_tendency_integrates_to_zero(self, grid_km, params):
        h = params.h0 + 0.2 * random_band_limited(grid_km, 91)
        v1 = 0.5 * random_band_limited(grid_km, 92)
        v2 = 0.5 * random_band_limited(grid_km, 93)
        state = rest_plus(grid_km, params, dh=h - params.h0, v1=v1, v2=v2)
        t = tendency(state, params)
        total = domain_integral(ScalarField(grid_km, t.dh))
        scale = domain_integral(ScalarField(grid_km, np.abs(t.dh)))
        assert abs(total) <= 1e-12 * scale


class TestVorticity:
    def test_single_mode_components(self, grid_km, params):
        kx = TWO_PI * 2.0 / grid_km.lx
        ky = TWO_PI * 3.0 / grid_km.ly
        x, y = grid_km.xy()
        state = rest_plus(
            grid_km, params, v1=np.sin(ky * y), v2=np.sin(kx * x)
        )
        om = vorticity_of(state)
        expected = kx * np.cos(kx * x) - ky * np.cos(ky * y)
        assert np.max(np.abs(om.values - expected)) <= 1e-12

    def test_rest_state_zero(self, grid_km, params):
        om = vorticity_of(TSWState.rest(grid_km, params))
        assert np.max(np.abs(om.values)) == 0.0


class TestNudgedTendency:
    def test_zero_displacement_matches_plain_tendency(self, grid_km, params):
        state = rest_plus(
            grid_km,
            params,
            dh=0.1 * random_band_limited(grid_km, 94),
            dth=random_band_limited(grid_km, 95),
            v1=0.5 * random_band_limited(grid_km, 96),
            v2=0.5 * random_band_limited(grid_km, 97),
        )
        base = tendency(state, params)
        nud = nudged_tendency(state, params, DisplacementField.zeros(grid_km))
        assert np.array_equal(nud.dh, base.dh)
        assert np.array_equal(nud.dtheta, base.dtheta)
        assert np.array_equal(nud.dv1, base.dv1)
        assert np.array_equal(nud.dv2, base.dv2)

    def test_transport_increment_conserves_mass(self, grid_km, params):
        state = rest_plus(
            grid_km,
            params,
            dh=0.1 * random_band_limited(grid_km, 98),
            v1=0.5 * random_band_limited(grid_km, 99),
        )
        u = DisplacementField(
            ScalarField(grid_km, 20.0 * random_band_limited(grid_km, 100)),
            ScalarField(grid_km, 20.0 * random_band_limited(grid_km, 101)),
        )
        diff = nudged_tendency(state, params, u).dh - tendency(state, params).dh
        total = domain_integral(ScalarField(grid_km, diff))
        scale = domain_integral(ScalarField(grid_km, np.abs(diff)))
        assert abs(total) <= 1e-12 * scale

    def test_rest_state_single_mode_displacement(self, grid_km, params):
        """At rest only the 2-form transport acts: dh = -h0 div u; Theta is
        flat and v vanishes, so their Lie transports are exactly zero."""
        k = TWO_PI * 4.0 / grid_km.lx
        x, _ = grid_km.xy()
        amp = 50.0
        u = DisplacementField(
            ScalarField(grid_km, amp * np.sin(k * x)), ScalarField.zeros(grid_km)
        )
        t = nudged_tendency(TSWState.rest(grid_km, params), params, u)
        expected = -params.h0 * amp * k * np.cos(k * x)
        assert np.max(np.abs(t.dh - expected)) <= 1e-11
        assert np.max(np.abs(t.dtheta)) == 0.0
        assert np.max(np.abs(t.dv1)) == 0.0
        assert np.max(np.abs(t.dv2)) == 0.0

    def test_rejects_mismatched_grid(self, grid_km, params):
        other = GridSpec(32, 32, 5000.0, 5000.0)
        with pytest.raises(ValueError):
            nudged_tendency(
                TSWState.rest(grid_km, params), params, DisplacementField.zeros(other)
            )


def band_limited_displacement(grid, amplitude, seed):
    return DisplacementField(
        ScalarField(grid, amplitude * random_band_limited(grid, seed)),
        ScalarField(grid, amplitude * random_band_limited(grid, seed + 1)),
    )


class TestSpectralKernel:
    def test_integrate_fft_count(self, grid_km, params, count_ffts):
        """4 rfft2 once, then 6 rfft2 + 10 irfft2 (8 pairs) per step."""
        state = double_vortex_ic(VortexIC(), grid_km, params)
        counts = count_ffts()
        integrate(state, 5, params)
        assert (counts["rfft2"], counts["irfft2"]) == (4 + 6 * 5, 10 * 5)

    def test_batch_fft_count_equals_one_member(self, grid_km, params, count_ffts):
        """A batch of 8 shares every call: one model step makes the
        4 + 6 rfft2 and 10 irfft2 of a batch of one."""
        states = [double_vortex_ic(VortexIC(ox=0.1 * i), grid_km, params) for i in range(8)]
        counts = count_ffts()
        for batch in (states[:1], states):
            _integrate_batch(batch, 1, params)
            assert (counts["rfft2"], counts["irfft2"]) == (10, 10)
            counts.update(rfft2=0, irfft2=0)

    def test_nudged_ab3_step_fft_count(self, grid_km, params, count_ffts):
        """The plain step's 10 + 10, 2 rfft2 of u and the tensor
        transport's 5 rfft2 + 10 irfft2."""
        state = double_vortex_ic(VortexIC(), grid_km, params)
        u = band_limited_displacement(grid_km, 5.0, 104)
        counts = count_ffts()
        ab3_step(state, [], params, u=u)
        assert (counts["rfft2"], counts["irfft2"]) == (17, 20)

    @pytest.mark.parametrize("path", ["integrate", "ab3_step", "nudged"])
    def test_matches_composed_reference(self, grid_km, params, path):
        """The kernel agrees with the typed composition (per-derivative
        tendency, lie_derivative transport, Adams-Bashforth on values,
        hou_li_filter per field) to 1e-12 per field over 10 steps."""
        state = double_vortex_ic(VortexIC(ox=0.3, oy=-0.2), grid_km, params)
        u = band_limited_displacement(grid_km, 5.0, 104) if path == "nudged" else None
        if path == "integrate":
            got = integrate(state, 10, params)
        else:
            got, history = state, []
            for k in range(10):
                got = ab3_step(got, history, params, u=u, step=k)
        ref = composed_integrate(state, 10, params, u)
        assert got.time == ref.time
        for a, b in zip(got.fields(), ref.fields()):
            scale = np.max(np.abs(b.values))
            assert np.max(np.abs(a.values - b.values)) <= 1e-12 * scale


class TestTimeStepping:
    def test_ab3_step_fft_count(self, grid_km, params, count_ffts):
        """From a typed state: 4 rfft2 of the state, then 6 irfft2 of the
        derivatives, 6 rfft2 of the products and 4 irfft2 back."""
        state = double_vortex_ic(VortexIC(), grid_km, params)
        counts = count_ffts()
        ab3_step(state, [], params)
        assert (counts["rfft2"], counts["irfft2"]) == (10, 10)

    def test_rest_is_exact_fixed_point(self, grid_km, params):
        out = integrate(TSWState.rest(grid_km, params), 100, params)
        assert np.max(np.abs(out.h.values - params.h0)) == 0.0
        assert np.max(np.abs(out.theta.values - params.theta0)) == 0.0
        assert np.max(np.abs(out.v1.values)) == 0.0
        assert out.time == pytest.approx(100.0)

    def test_self_convergence_is_second_order(self, grid_km):
        """Halving dt quarters the error.  The scheme is AB3 once the
        history fills, but the AB1/AB2 bootstrap contributes a fixed
        O(dt^2) starting error, which caps the global order at 2."""
        base = double_vortex_ic(VortexIC(), grid_km, ModelParams())
        horizon = 16.0
        sols = {}
        for dt in (2.0, 1.0, 0.5, 0.125):
            sols[dt] = integrate(base.copy(), int(horizon / dt), ModelParams(dt=dt))
        ref = sols[0.125]

        def err(s):
            return max(
                np.max(np.abs(a.values - b.values)) / np.max(np.abs(b.values))
                for a, b in zip(s.fields(), ref.fields())
            )

        e2, e1, e05 = err(sols[2.0]), err(sols[1.0]), err(sols[0.5])
        assert 3.2 <= e2 / e1 <= 5.5
        assert 3.2 <= e1 / e05 <= 5.5

    def test_mass_conserved_over_long_run(self, params):
        g = GridSpec(32, 32, 5000.0, 5000.0)
        base = double_vortex_ic(VortexIC(), g, params)
        mass0 = conserved_totals(base)["mass"]
        out = integrate(base, 1000, params)
        drift = abs(conserved_totals(out)["mass"] - mass0) / abs(mass0)
        assert drift <= 1e-10

    def test_integration_is_deterministic(self, params):
        g = GridSpec(32, 32, 5000.0, 5000.0)
        a = integrate(double_vortex_ic(VortexIC(), g, params), 50, params)
        b = integrate(double_vortex_ic(VortexIC(), g, params), 50, params)
        for fa, fb in zip(a.fields(), b.fields()):
            assert np.array_equal(fa.values, fb.values)

    def test_monitor_sees_every_step(self, grid_km, params):
        seen = []
        integrate(
            TSWState.rest(grid_km, params),
            5,
            params,
            monitor=lambda k, s: seen.append((k, s.time)),
        )
        assert [k for k, _ in seen] == [0, 1, 2, 3, 4]
        assert [t for _, t in seen] == pytest.approx([1.0, 2.0, 3.0, 4.0, 5.0])

    def test_history_caps_at_three(self, grid_km, params):
        state = TSWState.rest(grid_km, params)
        history = []
        for k in range(5):
            state = ab3_step(state, history, params, step=k)
            assert len(history) == min(k + 1, 3)

    def test_blowup_raises_instability_with_step(self):
        g = GridSpec(32, 32, 5000.0, 5000.0)
        base = double_vortex_ic(VortexIC(), g, ModelParams())
        with pytest.raises(InstabilityError) as exc:
            integrate(base, 50, ModelParams(dt=1e5))
        assert exc.value.step is not None

    def test_ab_coefficients_are_consistent(self):
        """Every Adams-Bashforth rule reproduces constants exactly."""
        for order, coeffs in AB_COEFFS.items():
            assert sum(coeffs) == pytest.approx(1.0, abs=1e-12)
        assert AB_COEFFS[3] == pytest.approx((23 / 12, -16 / 12, 5 / 12))


class TestInitialCondition:
    def test_double_vortex_mass_and_buoyancy(self, grid_km, params):
        ic = VortexIC()
        state = double_vortex_ic(ic, grid_km, params)
        tot = conserved_totals(state)
        gauss = TWO_PI * ic.radius**2
        assert tot["mass"] == pytest.approx(
            params.h0 * grid_km.area + 2 * ic.amplitude * gauss, rel=1e-10
        )
        assert tot["buoyancy_integral"] == pytest.approx(
            params.theta0 * (grid_km.area + 2 * ic.theta_amplitude * gauss), rel=1e-10
        )

    def test_geostrophic_velocity_is_divergence_free(self, grid_km, params):
        state = double_vortex_ic(VortexIC(), grid_km, params)
        div = divergence(DisplacementField(state.v1, state.v2))
        scale = np.max(np.abs(vorticity_of(state).values))
        assert np.max(np.abs(div.values)) <= 1e-12 * scale

    def test_offsets_shift_the_centroid(self, grid_km, params):
        ic = VortexIC(ox=1.0, oy=-0.5)
        state = double_vortex_ic(ic, grid_km, params)
        eta = state.h.values - params.h0
        x, y = grid_km.xy()
        cx = np.sum(x * eta) / np.sum(eta)
        cy = np.sum(y * eta) / np.sum(eta)
        assert cx == pytest.approx(grid_km.lx / 2.0 + 1.0 * ic.radius, rel=1e-3)
        assert cy == pytest.approx(grid_km.ly / 2.0 - 0.5 * ic.radius, rel=1e-3)

    def test_rejects_negative_depth(self, grid_km, params):
        with pytest.raises(ValueError):
            double_vortex_ic(VortexIC(amplitude=-1.2), grid_km, params)


class TestStateAndDiagnostics:
    def test_state_rejects_mismatched_grids(self, grid_km, params):
        other = GridSpec(32, 32, 5000.0, 5000.0)
        with pytest.raises(ValueError):
            TSWState(
                ScalarField.constant(grid_km, 1.0),
                ScalarField.constant(other, 1.0),
                ScalarField.zeros(grid_km),
                ScalarField.zeros(grid_km),
            )

    def test_state_rejects_nonpositive_h(self, grid_km):
        with pytest.raises(InstabilityError):
            TSWState(
                ScalarField.zeros(grid_km),
                ScalarField.constant(grid_km, 1.0),
                ScalarField.zeros(grid_km),
                ScalarField.zeros(grid_km),
            )

    def test_copy_is_independent(self, grid_km, params):
        a = TSWState.rest(grid_km, params)
        b = a.copy()
        b.h.values[3, 4] += 0.5
        assert a.h.values[3, 4] == params.h0

    def test_min_diagnostics(self, grid_km, params):
        state = TSWState.rest(grid_km, params)
        assert state.min_diagnostics() == (params.h0, params.theta0)

    def test_conserved_totals_at_rest(self, grid_km, params):
        tot = conserved_totals(TSWState.rest(grid_km, params))
        assert tot["mass"] == pytest.approx(params.h0 * grid_km.area, rel=1e-14)
        assert tot["buoyancy_integral"] == pytest.approx(
            params.theta0 * grid_km.area, rel=1e-14
        )
        assert abs(tot["vorticity"]) <= 1e-12

    def test_field_mse_zero_for_identical(self, grid16):
        f = ScalarField(grid16, random_band_limited(grid16, 102))
        assert field_mse(f, f) == 0.0

    def test_field_mse_constant_offset(self, grid16):
        f = ScalarField(grid16, random_band_limited(grid16, 103))
        shifted = ScalarField(grid16, f.values + 0.3)
        assert field_mse(f, shifted) == pytest.approx(0.09, rel=1e-12)

    def test_field_mse_checkerboard(self, grid16):
        base = np.ones(grid16.shape)
        mask = (np.indices(grid16.shape).sum(axis=0) % 2).astype(float)
        other = base + 3.0 * mask - 1.0 * (1.0 - mask)
        assert field_mse(ScalarField(grid16, base), ScalarField(grid16, other)) == (
            pytest.approx(5.0, rel=1e-14)
        )

    def test_field_mse_rejects_grid_mismatch(self, grid16):
        other = GridSpec(16, 16, 2.0, 2.0)
        with pytest.raises(ValueError):
            field_mse(ScalarField.zeros(grid16), ScalarField.zeros(other))


class TestModelParams:
    def test_defaults_positive(self):
        p = ModelParams()
        assert p.dt > 0 and p.h0 > 0 and p.theta0 > 0

    @pytest.mark.parametrize(
        "kwargs", [{"dt": 0.0}, {"dt": -1.0}, {"h0": 0.0}, {"theta0": -2.0}]
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)
