"""Tests for the thermal shallow water model.

Analytic single-mode states isolate each term of the tendency; the time
stepper is checked by self-convergence against a finer-dt reference, and
the spectral kernel against the typed composition in oracles.py.
"""

import threading
import tracemalloc
from concurrent.futures import CancelledError
from dataclasses import replace

import numpy as np
import pytest

from liemorph import (
    MorphParams,
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
    nudge,
    vorticity_of,
)
from liemorph.cli_experiments import preset_config
from liemorph.forms import _transport_hat
from liemorph.morph_engine import _run_morph_batch, _target_spectra
from liemorph.spectral_core import _irfft2, _rfft2
from liemorph.tsw_model import (
    _MODEL_AB_ORDER,
    _MODEL_FILTER_A,
    AB_COEFFS,
    TSWTendency,
    _ab_advance,
    _add_rest_wave,
    _fields,
    _integrate_batch,
    _propagator,
    _stability_errors,
    _tendency_hat,
    _vorticity,
    _Workspace,
    ab3_step,
    tendency,
)
from oracles import (
    composed_ab3_step,
    composed_morph_velocity,
    composed_rest_wave,
    composed_tendency,
    expm_propagate,
    expm_wave_table,
    random_band_limited,
    stacked_propagator,
)

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


def nudged_tendency(state, params, u):
    """The tendency `nudge` advances at unit strength along a fixed u: the
    kernel's model remainder plus its tensor transport, as values, with the
    rest-state waves that the step propagates exactly added back."""
    g = state.grid
    vals = _fields(state)
    spec = _rfft2(vals)
    uv = np.stack([u.u1.values, u.u2.values])
    omega, _ = _vorticity(spec, g)
    tend = _tendency_hat(vals, spec, params, g) + _transport_hat(vals, spec, omega, uv, g)
    _add_rest_wave(tend, spec, params, g)
    return TSWTendency(*_irfft2(tend, g.shape))


def vortex_targets(grid, params):
    """h and omega targets of the unshifted double vortex."""
    truth = double_vortex_ic(VortexIC(), grid, params)
    return {"h": truth.h, "omega": vorticity_of(truth)}


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
            nudge(TSWState.rest(grid_km, params), vortex_targets(other, params), params, 1.0, 1)


class TestSpectralKernel:
    def test_integrate_fft_count(self, grid_km, params, count_ffts):
        """4 rfft2 once, in one call, then 6 rfft2 + 7 irfft2 (6.5 pairs)
        per step in 9 calls: the vorticity's irfft2 (1 call), grad(Theta)'s
        2 irfft2 (1 call, `_grad_hat`), the six products' rfft2 (6 calls)
        and the 4 fields back (1 call, the whole stack)."""
        state = double_vortex_ic(VortexIC(), grid_km, params)
        counts = count_ffts()
        integrate(state, 5, params)
        assert (counts["rfft2"], counts["irfft2"]) == (4 + 6 * 5, 7 * 5)
        assert counts["calls"] == 1 + 9 * 5

    def test_batch_fft_count_equals_one_member(self, grid_km, params, count_ffts):
        """A batch of 8 shares every call: one model step makes the 1 + 9
        calls of a batch of one, each transforming the 8 members' slices
        where the batch of one transforms one."""
        states = [double_vortex_ic(VortexIC(ox=0.1 * i), grid_km, params) for i in range(8)]
        counts = count_ffts()
        for batch in (states[:1], states):
            _integrate_batch(batch, 1, params)
            b = len(batch)
            assert (counts["rfft2"], counts["irfft2"], counts["calls"]) == (10 * b, 7 * b, 10)
            counts.update(rfft2=0, irfft2=0, calls=0)

    def test_nudge_fft_count(self, grid_km, params, count_ffts):
        """Per step, with h and omega targets: the velocity solve's 4 rfft2
        + 6 irfft2, the model tendency's 6 rfft2 and the tensor transport's
        6, one grad(Theta) (2 irfft2) shared by both, the AB update's 4
        irfft2 and the trace vorticity's 1, which the tendency and the
        v-transport reuse: 16 + 13 in all; plus 6 rfft2 of the state and
        targets and one vorticity irfft2 at the start.  In calls, per step:
        the velocity's 5 (per observable one `_grad_hat` and one forcing
        stack, then u's stack back), grad(Theta)'s 1, the tendency's 6,
        the transport's 4 (h u and omega (u2, u1) each one stack), the
        AB update's 1 and the vorticity's 1, 18 in all; at the start 2 for
        the targets, 1 for the state's stack and 1 for its vorticity."""
        state = double_vortex_ic(VortexIC(ox=0.3, oy=-0.2), grid_km, params)
        targets = vortex_targets(grid_km, params)
        counts = count_ffts()
        nudge(state, targets, params, 1.0, 5)
        assert (counts["rfft2"], counts["irfft2"]) == (6 + 16 * 5, 1 + 13 * 5)
        assert counts["calls"] == 4 + 18 * 5

    def test_nudge_batch_equals_single_nudges(self, grid_km, params):
        """A drift batch of 3 in `_run_morph_batch` advances each member as
        its own `nudge` call does, bit for bit, time and trace included;
        once `stop` is set it ends before a step."""
        states = [double_vortex_ic(VortexIC(ox=0.3 * i, oy=-0.2), grid_km, params)
                  for i in range(3)]
        targets, strength = vortex_targets(grid_km, params), 100.0
        mp = MorphParams(epsilon=params.dt, n_steps=4, filter_a=12.0, ab_order=3)
        observed = _target_spectra(targets, grid_km)
        batch = _run_morph_batch(states, observed, mp, drift=(params, strength))
        for state, (got, trace) in zip(states, batch):
            ref, ref_trace = nudge(state, targets, params, strength, 4)
            assert got.time == ref.time == 4 * params.dt
            for a, b in zip(got.fields(), ref.fields()):
                assert np.array_equal(a.values, b.values)
            assert trace.rows == ref_trace.rows and len(trace) == 5
        stop = threading.Event()
        stop.set()
        with pytest.raises(CancelledError):
            _run_morph_batch(states, observed, mp, stop=stop, drift=(params, strength))

    def test_vector_invariant_tendency_matches_composed(self, grid_km, params):
        """On a band-limited state, where no product aliases, the
        vector-invariant momentum and the per-derivative advective form of
        `oracles.composed_tendency` agree to rounding."""
        state = rest_plus(
            grid_km,
            params,
            dh=0.1 * random_band_limited(grid_km, 110),
            dth=random_band_limited(grid_km, 111),
            v1=0.5 * random_band_limited(grid_km, 112),
            v2=0.5 * random_band_limited(grid_km, 113),
        )
        got = tendency(state, params)
        ref = composed_tendency(state, params)
        for a, b in zip((got.dh, got.dtheta, got.dv1, got.dv2), ref):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_remainder_is_tendency_less_rest_wave(self, grid_km, params):
        """`_tendency_hat` forms the remainder N = tendency - L spec in grid
        space; on a band-limited state it equals the typed tendency less
        the rest-state waves of `oracles.composed_rest_wave`, row by row,
        and so does the composed tendency less them (measured 3.6e-13),
        which no kernel code computes."""
        state = rest_plus(
            grid_km,
            params,
            dh=0.1 * random_band_limited(grid_km, 120),
            dth=random_band_limited(grid_km, 121),
            v1=0.5 * random_band_limited(grid_km, 122),
            v2=0.5 * random_band_limited(grid_km, 123),
        )
        vals = _fields(state)
        got = _irfft2(_tendency_hat(vals, _rfft2(vals), params, grid_km), grid_km.shape)
        full = tendency(state, params)
        rest = composed_rest_wave(state, params)
        for total in ((full.dh, full.dtheta, full.dv1, full.dv2),
                      composed_tendency(state, params)):
            for a, t, lin in zip(got, total, rest):
                ref = t - lin
                assert np.max(np.abs(a - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_model_loop_memory_budget(self, grid_km, params):
        """The model loop's workspace keeps its traced peak within 8.1x the
        bytes of the batch's states (8 members at 64^2; measured 8.05x,
        8.19x while each inverse transform allocated a spectrum-sized
        temporary, 8.45x on fresh arrays every step).  The workspace is
        7.9x of it and one numpy ufunc buffer (128 KiB, 0.13x) the rest.
        The propagator and Hou-Li caches are filled first."""
        states = [double_vortex_ic(VortexIC(ox=0.1 * i), grid_km, params) for i in range(8)]
        _integrate_batch(states, 2, params)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _integrate_batch(states, 5, params)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        state_bytes = sum(f.values.nbytes for s in states for f in s.fields())
        assert peak <= 8.1 * state_bytes

    def test_zero_strength_nudge_equals_integrate(self, grid_km, params):
        state = double_vortex_ic(VortexIC(ox=0.3, oy=-0.2), grid_km, params)
        got, trace = nudge(state, vortex_targets(grid_km, params), params, 0.0, 10)
        ref = integrate(state, 10, params)
        assert got.time == ref.time and len(trace) == 11
        for a, b in zip(got.fields(), ref.fields()):
            assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("path", ["integrate", "ab3_step", "nudged"])
    def test_matches_composed_reference(self, grid_km, params, path):
        """The kernel agrees with the typed composition (per-derivative
        tendency, lie_derivative transport, physical-space morph velocity,
        Adams-Bashforth on values, hou_li_filter per field) to 1e-12 per
        field over 10 steps.  The nudge strength moves the fields ~0.1 km per
        step, so the transport is well above the tolerance."""
        state = double_vortex_ic(VortexIC(ox=0.3, oy=-0.2), grid_km, params)
        targets, strength = vortex_targets(grid_km, params), 100.0
        if path == "integrate":
            got = integrate(state, 10, params)
        elif path == "ab3_step":
            got, history = state, []
            for k in range(10):
                got = ab3_step(got, history, params, step=k)
        else:
            got, _ = nudge(state, targets, params, strength, 10)
            plain = integrate(state, 10, params)
            assert np.max(np.abs(got.h.values - plain.h.values)) > 1e-6
        ref, history = state, []
        for _ in range(10):
            u = composed_morph_velocity(ref, targets) * strength if path == "nudged" else None
            ref = composed_ab3_step(ref, history, params, u)
        assert got.time == ref.time
        for a, b in zip(got.fields(), ref.fields()):
            scale = np.max(np.abs(b.values))
            assert np.max(np.abs(a.values - b.values)) <= 1e-12 * scale


def old_gravity_dt(grid, params):
    """The largest dt of the plain AB3 model step: Courant number
    sqrt(h0 theta0) k_max dt = 0.72."""
    return 0.72 / (np.sqrt(params.h0 * params.theta0) * np.pi / min(grid.dx, grid.dy))


def raised_cosine_bump(grid, cx, cy):
    """A bump of height 1 at (cx, cy) with Fourier modes |m| <= 4 only,
    where the Hou-Li filter is 1 to 1e-9 per step."""
    x, y = grid.xy()
    return ((1 + np.cos(TWO_PI * (x - cx) / grid.lx))
            * (1 + np.cos(TWO_PI * (y - cy) / grid.ly)) / 4) ** 4


class TestPropagator:
    def test_matches_expm_per_mode(self, params):
        """At 5x the plain-AB3 gravity-wave dt, where omega dt reaches 3.6,
        the cached closed-form exp(L dt) equals scipy.linalg.expm of
        `oracles.rest_wave_matrix` at every rfft2 mode to 1e-12."""
        g = GridSpec(16, 16, 5000.0, 5000.0)
        dt = 5 * old_gravity_dt(g, params)
        prop = _propagator(g, params.f, params.h0, params.theta0, dt)
        assert prop is _propagator(g, params.f, params.h0, params.theta0, dt)
        assert not prop.flags.writeable
        table = expm_wave_table(g, params, dt)[:, : g.ny // 2 + 1]
        got = np.moveaxis(prop, (0, 1), (2, 3))
        err = np.abs(got - table).max(axis=(2, 3)) / np.abs(table).max(axis=(2, 3))
        assert err.max() <= 1e-12
        # the mean of h never moves
        assert np.array_equal(got[0, 0, 0], [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("nx, ny, f, dt", [(16, 16, 0.01, 5.0), (32, 8, -0.02, 0.25),
                                               (64, 64, 0.01, 2.0)])
    def test_in_place_construction_matches_the_stacked_one(self, nx, ny, f, dt):
        """The propagator built in its own buffer equals, bit for bit, the
        one stacked from full-size temporaries (`oracles.stacked_propagator`):
        only the order of a commutative addition differs."""
        g = GridSpec(nx, ny, 5000.0, 3000.0)
        prop = _propagator(g, f, 1.0, 98.0, dt)
        ref = stacked_propagator(g, f, 1.0, 98.0, dt)
        assert np.array_equal(prop, ref)
        assert prop.tobytes() == ref.tobytes()

    def test_linear_waves_propagate_exactly(self, grid_km):
        """A bump of 1e-6 h0 at rest, 10 steps at 20x the plain-AB3
        gravity-wave dt (omega dt up to 14 per step), ends where exp(L t)
        of `oracles.expm_wave_table` takes it: within 5e-6 of each field's
        anomaly amplitude.  What is left is the model's quadratic
        nonlinearity: the part odd in the amplitude, half the difference
        of the runs from +-1e-6, agrees to 1e-7.  (Rounding of the
        h0 Theta0 background in the products puts a floor of ~1e-8
        under it.)  kappa = 0, since the relaxation is not part of L."""
        params = ModelParams(kappa=0.0, dt=20 * old_gravity_dt(grid_km, ModelParams()))
        bump = raised_cosine_bump(grid_km, 2000.0, 2700.0)
        eps, n = 1e-6, 10

        def run(amp):
            state = rest_plus(grid_km, params, dh=amp * params.h0 * bump)
            out = integrate(state, n, params)
            return [f.values - b for f, b in zip(out.fields(), (params.h0, params.theta0, 0, 0))]

        zero = np.zeros(grid_km.shape)
        ref = expm_propagate([eps * params.h0 * bump, zero, zero, zero],
                             expm_wave_table(grid_km, params, n * params.dt))
        plus, minus = run(eps), run(-eps)
        assert np.max(np.abs(plus[1])) == 0.0
        for i in (0, 2, 3):
            scale = np.max(np.abs(ref[i]))
            assert np.max(np.abs(plus[i] - ref[i])) <= 5e-6 * scale
            assert np.max(np.abs((plus[i] - minus[i]) / 2 - ref[i])) <= 1e-7 * scale


class TestTimeStepping:
    def test_ab3_step_fft_count(self, grid_km, params, count_ffts):
        """From a typed state: 4 rfft2 of the state, then 3 irfft2 of
        omega and grad(Theta), 6 rfft2 of the products and 4 irfft2 back;
        in calls, 1 for the state's stack and the model step's 9."""
        state = double_vortex_ic(VortexIC(), grid_km, params)
        counts = count_ffts()
        ab3_step(state, [], params)
        assert (counts["rfft2"], counts["irfft2"], counts["calls"]) == (10, 7, 10)

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

    def test_member_is_the_truth_translated(self, grid_km):
        """A member spun up from the offset (0.3, -0.2) radii at the desk dt
        equals the truth run shifted spectrally by that offset, to 1e-8 of
        each field's anomaly amplitude: the step is translation-equivariant
        up to the aliasing of its products."""
        params = ModelParams(dt=5.0)
        ic = VortexIC(ox=0.3, oy=-0.2)
        member = integrate(double_vortex_ic(ic, grid_km, params), 40, params)
        truth = integrate(double_vortex_ic(VortexIC(), grid_km, params), 40, params)
        sx, sy = ic.ox * ic.radius, ic.oy * ic.radius
        phase = np.exp(-1j * (grid_km.kx[:, None] * sx + grid_km.ky[None, :] * sy))
        assert member.time == truth.time == 200.0
        for a, b in zip(member.fields(), truth.fields()):
            shifted = np.fft.ifft2(np.fft.fft2(b.values) * phase).real
            scale = np.max(np.abs(shifted - shifted.mean()))
            assert np.max(np.abs(a.values - shifted)) <= 1e-8 * scale

    def test_mass_conserved_over_long_run(self, params):
        g = GridSpec(32, 32, 5000.0, 5000.0)
        base = double_vortex_ic(VortexIC(), g, params)
        mass0 = conserved_totals(base)["mass"]
        out = integrate(base, 1000, params)
        drift = abs(conserved_totals(out)["mass"] - mass0) / abs(mass0)
        assert drift <= 1e-10

    def test_long_run_at_the_preset_step(self):
        """300 steps of the 32^2 grid at dt = 10, the desk preset's Courant
        number, keep positivity and mass.  `integrate` passes each step's
        spectra on without a transform; a rounding-level part of its ky = 0
        and Nyquist columns that is not Hermitian, invisible to irfft2,
        grew under the explicit -L of the remainder until it lost
        positivity at step 128."""
        g = GridSpec(32, 32, 5000.0, 5000.0)
        params = ModelParams(dt=10.0)
        base = double_vortex_ic(VortexIC(), g, params)
        out = integrate(base, 300, params)
        mass0 = conserved_totals(base)["mass"]
        assert abs(conserved_totals(out)["mass"] - mass0) <= 1e-10 * mass0

    def test_integration_is_deterministic(self, params):
        g = GridSpec(32, 32, 5000.0, 5000.0)
        a = integrate(double_vortex_ic(VortexIC(), g, params), 50, params)
        b = integrate(double_vortex_ic(VortexIC(), g, params), 50, params)
        for fa, fb in zip(a.fields(), b.fields()):
            assert np.array_equal(fa.values, fb.values)

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

    @pytest.mark.parametrize("model", [True, False], ids=["model", "morph"])
    def test_non_finite_field_names_step_and_member(self, grid_km, params, model):
        """A tendency that has turned non-finite in members 1 and 2 of
        three stops the AB step with the stage's message, naming the step
        and the lowest failing member."""
        ws = _Workspace([TSWState.rest(grid_km, params)] * 3, _MODEL_AB_ORDER,
                        model=model, morph=not model)
        ws.slot()[...] = 0.0
        ws.slot()[:, 1:] = np.nan
        with pytest.raises(InstabilityError) as exc:
            _ab_advance(ws, params.dt, _MODEL_FILTER_A, grid_km, 7, params if model else None)
        stage = "after AB step" if model else "during morph"
        assert str(exc.value) == f"step 7: non-finite field {stage}"
        assert (exc.value.step, exc.value.member) == (7, 1)

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

    @pytest.mark.parametrize("h, theta, name, low", [(0.0, 1.0, "h", 0), (1.0, -0.5, "Theta", -0.5)])
    def test_state_rejects_nonpositive_fields(self, grid_km, h, theta, name, low):
        with pytest.raises(InstabilityError) as exc:
            TSWState(
                ScalarField.constant(grid_km, h),
                ScalarField.constant(grid_km, theta),
                ScalarField.zeros(grid_km),
                ScalarField.zeros(grid_km),
            )
        assert str(exc.value) == f"{name} must be strictly positive, min={low}"
        assert exc.value.step is None

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
        assert abs(tot["vorticity_total"]) <= 1e-12

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


def preset_model(name):
    """The ModelParams, VortexIC and GridSpec of a preset's config."""
    raw = preset_config(name)
    ic = VortexIC(**{k: v for k, v in raw["ic"].items() if "perturb" not in k})
    g = raw["grid"]
    return ModelParams(**raw["model"]), ic, GridSpec(g["nx"], g["ny"], g["lx"], g["ly"])


class TestStabilityPreflight:
    """`_stability_errors` tests a model and its vortices against the
    model step's AB3 bounds, one message per rejected parameter."""

    @pytest.mark.parametrize("name", ["desk", "paper"])
    def test_presets_pass(self, name):
        assert _stability_errors(*preset_model(name)) == []

    def test_desk_at_dt_20_names_the_largest_stable_dt(self):
        model, ic, grid = preset_model("desk")
        assert _stability_errors(replace(model, dt=20.0), ic, grid) == [
            "dt: remainder Courant number (max|v| + dc)*k_max*dt = 1.79 exceeds the AB3 "
            "bound 0.72; the largest stable dt is 8.045"]

    def test_without_a_grid_only_kappa_is_checked(self):
        model, ic, grid = preset_model("desk")
        model = replace(model, dt=1e5)
        assert [e.split(":")[0] for e in _stability_errors(model, ic, grid)] == ["dt", "kappa"]
        assert _stability_errors(model, ic) == [
            "kappa: relaxation number kappa*(h0 + ic.amplitude)*dt = 110 exceeds the AB3 "
            "bound 0.5455; the largest stable kappa is 4.958e-06"]
