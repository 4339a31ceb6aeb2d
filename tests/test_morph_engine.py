"""Tests for the virtual-time morph engine.

The contrast cases (tensor transport vs 0-form composition) carry the
main conservation claims; fixed points and the H1 normalization are
checked exactly.
"""

import csv
import tracemalloc

import numpy as np
import pytest

import liemorph.displacement_solver
from liemorph import (
    DiffForm,
    DisplacementField,
    GridSpec,
    InstabilityError,
    ModelParams,
    MorphParams,
    ScalarField,
    TSWState,
    VortexIC,
    conserved_totals,
    domain_integral,
    double_vortex_ic,
    morph_engine,
    morph_step,
    morph_velocity,
    nudge,
    run_morph,
    vorticity_of,
)
from liemorph.displacement_solver import SolverParams, _closed_form_hat
from liemorph.morph_engine import MorphTrace, _run_morph_batch, _target_spectra
from liemorph.tsw_model import _MODEL_AB_ORDER, _Workspace
from oracles import (
    composed_morph_step,
    composed_morph_velocity,
    composed_run_morph,
    grid_symmetry,
    random_band_limited,
)

TWO_PI = 2.0 * np.pi


@pytest.fixture
def grid_km():
    return GridSpec(64, 64, 5000.0, 5000.0)


@pytest.fixture
def params():
    return ModelParams()


def wrapped_bump(grid, cx, cy, radius):
    x, y = grid.xy()
    dx = (x - cx + grid.lx / 2.0) % grid.lx - grid.lx / 2.0
    dy = (y - cy + grid.ly / 2.0) % grid.ly - grid.ly / 2.0
    return np.exp(-(dx**2 + dy**2) / (2.0 * radius**2))


def bump_state(grid, params, cx=2500.0):
    return TSWState(
        ScalarField(grid, params.h0 + 0.1 * wrapped_bump(grid, cx, 2500.0, 400.0)),
        ScalarField.constant(grid, params.theta0),
        ScalarField.zeros(grid),
        ScalarField.zeros(grid),
    )


def small_bump_state(grid, params, cx):
    """Bumps at (cx, 1) in every field, for grids a few units across."""
    bump = wrapped_bump(grid, cx, 1.0, 0.4)
    return TSWState(
        ScalarField(grid, params.h0 + 0.1 * bump),
        ScalarField(grid, params.theta0 * (1.0 + 0.01 * bump)),
        ScalarField(grid, 0.05 * bump),
        ScalarField(grid, -0.03 * wrapped_bump(grid, cx, 1.2, 0.4)),
    )


def band_limited_state(grid, params, seed):
    """All content within |k| <= 3 modes, far below the filter knee."""
    return TSWState(
        ScalarField(grid, params.h0 + 0.1 * random_band_limited(grid, seed)),
        ScalarField(grid, params.theta0 * (1.0 + 0.01 * random_band_limited(grid, seed + 1))),
        ScalarField(grid, 0.5 * random_band_limited(grid, seed + 2)),
        ScalarField(grid, 0.5 * random_band_limited(grid, seed + 3)),
    )


def h_target(grid, values):
    return {"h": ScalarField(grid, values)}


def single_mode_u(grid, amplitude, m=4):
    k = TWO_PI * m / grid.lx
    x, _ = grid.xy()
    return DisplacementField(
        ScalarField(grid, amplitude * np.sin(k * x)), ScalarField.zeros(grid)
    ), k


class TestMorphVelocity:
    def test_aligned_observables_give_exact_zero(self, grid_km, params):
        state = band_limited_state(grid_km, params, 111)
        targets = {"h": state.h, "omega": vorticity_of(state)}
        u = morph_velocity(state, targets)
        assert np.max(np.abs(u.u1.values)) == 0.0
        assert np.max(np.abs(u.u2.values)) == 0.0

    def test_velocity_points_toward_shifted_target(self, grid_km, params):
        state = bump_state(grid_km, params, cx=2500.0)
        target = params.h0 + 0.1 * wrapped_bump(grid_km, 2900.0, 2500.0, 400.0)
        u = morph_velocity(state, h_target(grid_km, target))
        assert domain_integral(u.u1) > 0.0

    def test_output_is_h1_normalized_mean(self, grid_km, params):
        from liemorph import h1_norm

        state = bump_state(grid_km, params)
        target = params.h0 + 0.1 * wrapped_bump(grid_km, 2900.0, 2500.0, 400.0)
        u = morph_velocity(state, h_target(grid_km, target))
        assert h1_norm(u) == pytest.approx(1.0, rel=1e-12)

    def test_empty_targets_rejected(self, grid_km, params):
        with pytest.raises(ValueError):
            morph_velocity(bump_state(grid_km, params), {})


class TestMorphStep:
    def test_zero_velocity_rest_state_bit_exact(self, grid_km, params):
        state = TSWState.rest(grid_km, params)
        out = morph_step(state, DisplacementField.zeros(grid_km), MorphParams(epsilon=10.0))
        for a, b in zip(out.fields(), state.fields()):
            assert np.array_equal(a.values, b.values)

    def test_zero_velocity_band_limited_state(self, grid_km, params):
        """Content at |k| <= 3 of 32 sees a filter multiplier that rounds
        to exactly 1, so only FFT roundtrip noise remains."""
        state = band_limited_state(grid_km, params, 112)
        out = morph_step(state, DisplacementField.zeros(grid_km), MorphParams(epsilon=10.0))
        for a, b in zip(out.fields(), state.fields()):
            scale = max(np.max(np.abs(b.values)), 1.0)
            assert np.max(np.abs(a.values - b.values)) <= 1e-13 * scale

    def test_ab1_step_matches_transport_formula(self, grid_km, params):
        """From rest, one step moves only h: h <- h0 - eps*h0*div(u), and
        the low single mode passes the filter unchanged."""
        eps = 10.0
        u, k = single_mode_u(grid_km, amplitude=5.0)
        out = morph_step(
            TSWState.rest(grid_km, params), u, MorphParams(epsilon=eps, ab_order=1)
        )
        x, _ = grid_km.xy()
        expected = params.h0 - eps * params.h0 * 5.0 * k * np.cos(k * x)
        assert np.max(np.abs(out.h.values - expected)) <= 1e-10
        assert np.array_equal(out.theta.values, np.full(grid_km.shape, params.theta0))
        assert np.max(np.abs(out.v1.values)) == 0.0
        assert np.max(np.abs(out.v2.values)) == 0.0

    def test_mass_conserved_for_any_velocity(self, grid_km, params):
        state = band_limited_state(grid_km, params, 113)
        u = DisplacementField(
            ScalarField(grid_km, random_band_limited(grid_km, 114)),
            ScalarField(grid_km, random_band_limited(grid_km, 115)),
        )
        mass0 = conserved_totals(state)["mass"]
        out = morph_step(state, u, MorphParams(epsilon=10.0))
        assert conserved_totals(out)["mass"] == pytest.approx(mass0, rel=1e-13)

    def test_naive_step_agrees_on_theta_only(self, grid_km, params):
        """Theta is a 0-form under both transports, so a single step from
        the same state produces identical Theta but different h."""
        state = band_limited_state(grid_km, params, 116)
        u, _ = single_mode_u(grid_km, amplitude=5.0)
        mp = MorphParams(epsilon=10.0)
        a = morph_step(state, u, mp)
        b = morph_step(state, u, mp, naive=True)
        assert np.array_equal(a.theta.values, b.theta.values)
        assert np.max(np.abs(a.h.values - b.h.values)) > 1e-6

    def test_naive_step_loses_mass_under_divergent_velocity(self, grid_km, params):
        state = bump_state(grid_km, params)
        u, _ = single_mode_u(grid_km, amplitude=30.0)
        mass0 = conserved_totals(state)["mass"]
        out = morph_step(state, u, MorphParams(epsilon=10.0), naive=True)
        rel = abs(conserved_totals(out)["mass"] - mass0) / mass0
        assert rel > 1e-9

    def test_blowup_raises_instability(self, grid_km, params):
        state = bump_state(grid_km, params)
        u, _ = single_mode_u(grid_km, amplitude=1e6)
        with pytest.raises(InstabilityError):
            morph_step(state, u, MorphParams(epsilon=10.0), step=7)

    def test_history_bootstraps_to_requested_order(self, grid_km, params):
        state = band_limited_state(grid_km, params, 117)
        u, _ = single_mode_u(grid_km, amplitude=10.0)
        history = []
        mp = MorphParams(epsilon=1.0, ab_order=3)
        for k in range(5):
            state = morph_step(state, u, mp, history=history, step=k)
            assert len(history) == min(k + 1, 3)

    def test_history_continues_at_a_lower_order(self, grid_km, params):
        """A history built at ab_order 5 for 6 steps and continued at
        ab_order 3 for 3 more: each step takes the newest entries of the
        list, as the composed reference does, to 1e-12 per field.  With
        the oldest entries, or a miscounted ring, it misses by 4e-9 or more."""
        member, targets = vortex_morph_case(grid_km, params)
        got, ref, got_history, ref_history = member, member, [], []
        for k, order in enumerate([5] * 6 + [3] * 3):
            mp = MorphParams(epsilon=1.0, ab_order=order)
            got = morph_step(got, morph_velocity(got, targets), mp, history=got_history, step=k)
            ref = composed_morph_step(ref, composed_morph_velocity(ref, targets), mp, ref_history)
            assert len(got_history) == len(ref_history) == min(k + 1, order)
        for a, b in zip(got.fields(), ref.fields()):
            scale = np.max(np.abs(b.values))
            assert np.max(np.abs(a.values - b.values)) <= 1e-12 * scale


class TestRunMorph:
    def test_trace_has_initial_row_plus_one_per_step(self, grid_km, params):
        state = bump_state(grid_km, params)
        target = params.h0 + 0.1 * wrapped_bump(grid_km, 2900.0, 2500.0, 400.0)
        _, trace = run_morph(
            state, h_target(grid_km, target), MorphParams(epsilon=10.0, n_steps=5)
        )
        assert len(trace) == 6
        assert trace.column("step") == [0, 1, 2, 3, 4, 5]

    def test_zero_steps_is_a_noop(self, grid_km, params):
        state = bump_state(grid_km, params)
        out, trace = run_morph(
            state, h_target(grid_km, state.h.values), MorphParams(epsilon=10.0, n_steps=0)
        )
        assert len(trace) == 1
        for a, b in zip(out.fields(), state.fields()):
            assert np.array_equal(a.values, b.values)

    def test_mse_decreases_toward_shifted_target(self, grid_km, params):
        state = bump_state(grid_km, params)
        target = params.h0 + 0.1 * wrapped_bump(grid_km, 2900.0, 2500.0, 400.0)
        _, trace = run_morph(
            state, h_target(grid_km, target), MorphParams(epsilon=10.0, n_steps=30)
        )
        mse = trace.column("mse_h")
        assert all(mse[i + 1] < mse[i] for i in range(10))
        assert mse[-1] < mse[0]

    def test_aligned_targets_are_a_fixed_point(self, grid_km, params):
        state = band_limited_state(grid_km, params, 118)
        targets = {"h": state.h, "omega": vorticity_of(state)}
        out, trace = run_morph(state, targets, MorphParams(epsilon=10.0, n_steps=20))
        assert max(trace.column("mse_h")) <= 1e-20
        for a, b in zip(out.fields(), state.fields()):
            scale = max(np.max(np.abs(b.values)), 1.0)
            assert np.max(np.abs(a.values - b.values)) <= 1e-12 * scale

    def test_mass_conserved_along_the_run(self, grid_km, params):
        state = bump_state(grid_km, params)
        target = params.h0 + 0.1 * wrapped_bump(grid_km, 2900.0, 2500.0, 400.0)
        _, trace = run_morph(
            state, h_target(grid_km, target), MorphParams(epsilon=10.0, n_steps=30)
        )
        mass = trace.column("mass")
        assert abs(mass[-1] - mass[0]) / abs(mass[0]) <= 1e-12

    def test_naive_run_drifts_mass(self, grid_km, params):
        state = bump_state(grid_km, params)
        target = params.h0 + 0.1 * wrapped_bump(grid_km, 2900.0, 2500.0, 400.0)
        _, trace = run_morph(
            state,
            h_target(grid_km, target),
            MorphParams(epsilon=10.0, n_steps=30),
            naive=True,
        )
        mass = trace.column("mass")
        assert abs(mass[-1] - mass[0]) / abs(mass[0]) > 1e-8

    def test_early_stop_cuts_a_diverging_run(self, grid_km, params):
        """An absurd epsilon overshoots, MSE climbs, and the patience
        counter ends the run well before n_steps."""
        state = bump_state(grid_km, params)
        target = params.h0 + 0.1 * wrapped_bump(grid_km, 2900.0, 2500.0, 400.0)
        _, trace = run_morph(
            state,
            h_target(grid_km, target),
            MorphParams(epsilon=3000.0, n_steps=60, early_stop_patience=3),
        )
        assert 4 <= len(trace) <= 20
        mse = trace.column("mse_h")
        assert all(mse[-i] > mse[-i - 1] for i in (1, 2, 3))

    def test_trajectory_invariant_to_solver_prefactor(
        self, grid_km, params, monkeypatch
    ):
        """The H1 normalization must absorb any global constant in the
        displacement solve; doubling it changes nothing, bit for bit."""
        target = params.h0 + 0.1 * wrapped_bump(grid_km, 2900.0, 2500.0, 400.0)
        mp = MorphParams(epsilon=10.0, n_steps=8)
        state = bump_state(grid_km, params)
        solve_args = (state.h.values, np.fft.rfft2(target) - np.fft.rfft2(state.h.values),
                      grid_km, SolverParams())
        u_hat = _closed_form_hat(*solve_args)
        f1, t1 = run_morph(state, h_target(grid_km, target), mp)
        monkeypatch.setattr(liemorph.displacement_solver, "PREFACTOR", 4.0)
        # the patched prefactor reaches the solve the morph makes
        assert np.array_equal(_closed_form_hat(*solve_args), 2.0 * u_hat)
        f2, t2 = run_morph(bump_state(grid_km, params), h_target(grid_km, target), mp)
        for a, b in zip(f1.fields(), f2.fields()):
            assert np.array_equal(a.values, b.values)
        assert t1.column("mse_h") == t2.column("mse_h")


def vortex_morph_case(grid, params):
    """A balanced double vortex shifted off its h and omega targets."""
    truth = double_vortex_ic(VortexIC(), grid, params)
    member = double_vortex_ic(VortexIC(ox=0.3, oy=-0.2), grid, params)
    targets = {"h": truth.h, "omega": vorticity_of(truth)}
    return member, targets


class TestSpectralKernel:
    @pytest.mark.parametrize("naive, expected", [(False, (106, 131, 154)), (True, (86, 191, 184))])
    def test_fft_counts_are_locked(self, grid_km, params, count_ffts, naive, expected):
        """Per step, with h and omega targets: 10 rfft2 + 13 irfft2 for the
        tensor transport (11.5 pairs), 8 + 19 for the naive one (13.5);
        plus 6 rfft2 of the state and targets and one vorticity irfft2 at
        the start.

        In calls, a tensor step makes 15: the velocity's 5 (per observable
        one `_grad_hat` and one forcing stack, then u's stack back), the
        transport's 5 (Theta's `_grad_hat` and advection, u . v, and h u
        and omega (u2, u1) as one stack each, which would be 7 one by one),
        the AB update's 4 (one per field) and the vorticity's 1.  A naive
        step makes 18, the transport's 5 being 4 advections of 2 calls.
        The start makes 4: 2 for the targets, 1 for the state's stack and
        1 for its vorticity."""
        member, targets = vortex_morph_case(grid_km, params)
        counts = count_ffts()
        run_morph(member, targets, MorphParams(epsilon=10.0, n_steps=10), naive=naive)
        assert (counts["rfft2"], counts["irfft2"], counts["calls"]) == expected
        assert (counts["rfft2"] + counts["irfft2"]) / 2 / 10 <= (14 if naive else 12)

    @pytest.mark.parametrize("naive, expected", [(False, (10, 7, 11)), (True, (8, 13, 14))])
    def test_typed_fft_counts_are_locked(self, grid_km, params, count_ffts, naive, expected):
        """From a typed state, with h and omega targets: morph_velocity
        makes 10 rfft2 + 7 irfft2 (4 + 2 rfft2 of the state and targets,
        the vorticity, the solves' 4 + 6) in 9 calls (the state's stack,
        the 2 targets, the vorticity, the velocity's 5); morph_step makes
        10 + 7 with the tensor transport and 8 + 13 with the naive one, the
        state's 4 rfft2 and its vorticity included, in 11 and 14 calls (2
        for the state and its vorticity, the transport's 5 or 8, the AB
        update's 4).  Their one-member workspaces add no transform."""
        member, targets = vortex_morph_case(grid_km, params)
        u = morph_velocity(member, targets)
        counts = count_ffts()
        morph_velocity(member, targets)
        assert (counts["rfft2"], counts["irfft2"], counts["calls"]) == (10, 7, 9)
        counts.update(rfft2=0, irfft2=0, calls=0)
        morph_step(member, u, MorphParams(epsilon=1.0), naive=naive)
        assert (counts["rfft2"], counts["irfft2"], counts["calls"]) == expected

    @pytest.mark.parametrize("naive, expected", [(False, (16, 14, 19)), (True, (14, 20, 22))])
    def test_batch_fft_count_equals_one_member(
        self, grid_km, params, count_ffts, naive, expected
    ):
        """A batch of 8 shares every call: one morph step, set-up included,
        makes the FFT calls of a batch of one, whose (rfft2, irfft2, calls)
        are `expected` (the start's 4 calls and a step's 15 or 18, as in
        `test_fft_counts_are_locked`)."""
        member, targets = vortex_morph_case(grid_km, params)
        states = [member] + [
            double_vortex_ic(VortexIC(ox=0.1 * i), grid_km, params) for i in range(7)
        ]
        counts = count_ffts()
        seen = []
        for batch in (states[:1], states):
            observed = _target_spectra(targets, grid_km)
            _run_morph_batch(batch, observed, MorphParams(epsilon=10.0, n_steps=1), naive=naive)
            seen.append((counts["rfft2"], counts["irfft2"], counts["calls"]))
            counts.update(rfft2=0, irfft2=0, calls=0)
        assert seen[0] == expected
        assert seen[1][2] == expected[2]

    @pytest.mark.parametrize("naive", [False, True])
    def test_morph_loop_memory_budget(self, grid_km, params, naive, workspace_maps):
        """The morph loop keeps its peak within 9.5x the bytes of the
        batch's states (8 members at 64^2, h and omega targets, AB5;
        measured 9.42x either way, 11.22x while the velocity held its
        spectra and H1 densities in arrays of its own, 11.35x while each
        inverse transform also allocated a spectrum-sized temporary).  The
        workspace is 9.21x of it, and one numpy ufunc buffer (128 KiB,
        0.13x) and the targets' spectra most of the rest.  tracemalloc does
        not see the workspace's memory map, which holds every array but
        the values (8.21x), so `workspace_maps` adds its bytes to the peak
        traced in the loop (1.2x).  The per-grid caches are filled first."""
        member, targets = vortex_morph_case(grid_km, params)
        states = [member] + [
            double_vortex_ic(VortexIC(ox=0.1 * i), grid_km, params) for i in range(7)
        ]

        def run(n_steps):
            _run_morph_batch(states, _target_spectra(targets, grid_km),
                             MorphParams(epsilon=10.0, n_steps=n_steps), naive=naive)

        run(2)
        maps = workspace_maps()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run(5)
            loop_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ((_, map_bytes, made_peak),) = maps
        peak = max(made_peak, map_bytes + loop_peak) - base
        state_bytes = sum(f.values.nbytes for s in states for f in s.fields())
        assert peak <= 9.5 * state_bytes

    @pytest.mark.parametrize("nudged", [False, True])
    def test_morph_workspace_holds_its_budget(self, grid_km, params, nudged):
        """A morph workspace holds the states' values and spectra, the
        vorticity's, the displacement's values u, the scratch (r, c) and
        the AB ring, plus grad(Theta) and a spare spectrum for the nudge's
        Lawson step: at B = 4, 64^2 and order 5, 9 (11) value fields and 27
        (31) spectra, each per member.  The velocity's spectra borrow the
        ring's slot and its H1 densities r; its own arrays, a displacement
        per observable, their mean and the densities, held 946,176 B more."""
        member, _ = vortex_morph_case(grid_km, params)
        ws = _Workspace([member] * 4, 5, model=nudged, morph=True)
        arrays = {name: a for name, a in vars(ws).items() if isinstance(a, np.ndarray)}
        names = {"vals", "spec", "omega", "omega_hat", "u", "r", "c", "ring"}
        assert arrays.keys() == names | ({"grad_th", "spare"} if nudged else set())
        values, spectrum = 8 * 4 * 64 * 64, 16 * 4 * 64 * 33
        expected = (9 + 2 * nudged) * values + (7 + 4 * 5 + 4 * nudged) * spectrum
        assert sum(a.nbytes for a in arrays.values()) == expected

    @pytest.mark.parametrize("naive, nudged", [(False, False), (True, False), (False, True)])
    def test_velocity_leaves_the_history_and_the_state(self, grid_km, params, monkeypatch,
                                                       naive, nudged):
        """Every step, the velocity writes no ring slot but `slot()`, whose
        entry the AB sum no longer reads, and none of vals, spec, omega and
        omega_hat; and its traced peak stays within numpy's ufunc buffer, so
        it allocates no array.  For the tensor and the naive morph at B = 4
        and the nudge's model ring, past the steps that fill the ring."""
        member, targets = vortex_morph_case(grid_km, params)
        observed = _target_spectra(targets, grid_km)
        states = [member] + [double_vortex_ic(VortexIC(ox=0.1 * i), grid_km, params)
                             for i in range(1, 1 if nudged else 4)]
        velocity, full = morph_engine._velocity, []

        def checked(observed, grid, ws):
            free, order = ws.count % len(ws.ring), len(ws.ring)
            held = [ws.ring[i] for i in range(order) if i != free]
            held += [ws.vals, ws.spec, ws.omega, ws.omega_hat]
            before = [a.copy() for a in held]
            tracemalloc.start()
            try:
                u = velocity(observed, grid, ws)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert all(np.array_equal(a, b) for a, b in zip(held, before))
            assert peak <= 16 * np.getbufsize() + 4096
            full.append(ws.count >= order)
            return u

        drift = (params, 0.5) if nudged else None
        order = _MODEL_AB_ORDER if nudged else 5
        # the per-grid caches are filled first
        _run_morph_batch(states, observed, MorphParams(n_steps=1, ab_order=order), naive,
                         drift=drift)
        monkeypatch.setattr(morph_engine, "_velocity", checked)
        mp = MorphParams(epsilon=1.0, n_steps=order + 3, ab_order=order)
        _run_morph_batch(states, observed, mp, naive, drift=drift)
        assert full == [False] * order + [True] * 3

    @pytest.mark.parametrize("naive, n_steps, patience, lengths", [
        (False, 20, None, [21, 21, 21]),
        (True, 20, None, [21, 21, 21]),
        (False, 30, 1, [15, 31, 31]),
    ])
    def test_batch_equals_serial_on_nonsquare_grid(self, grid_small, params, naive, n_steps,
                                                   patience, lengths):
        """A batch of 3 on the 16 x 12 grid: each member's state and trace
        equal its own run_morph bit for bit, wherever it sits in the batch.
        With early stopping member 0 leaves the batch mid-run, and the
        other two go on in a sliced workspace."""
        states = [small_bump_state(grid_small, params, cx) for cx in (1.0, 1.3, 1.9)]
        truth = small_bump_state(grid_small, params, 1.6)
        targets = {"h": truth.h, "omega": vorticity_of(truth)}
        mp = MorphParams(epsilon=0.01, n_steps=n_steps, early_stop_patience=patience)
        batch = _run_morph_batch(states, _target_spectra(targets, grid_small), mp, naive)
        assert [len(trace) for _, trace in batch] == lengths
        for state, (got, trace) in zip(states, batch):
            ref, ref_trace = run_morph(state, targets, mp, naive)
            for a, b in zip(got.fields(), ref.fields()):
                assert np.array_equal(a.values, b.values)
            assert trace.rows == ref_trace.rows

    @pytest.mark.parametrize("patience, maps_made", [(None, 1), (1, 2)])
    def test_batch_releases_its_maps(self, grid_small, params, workspace_maps, patience,
                                     maps_made):
        """Once `_run_morph_batch` returns, no map of its workspace is left:
        the first, nor, when member 0 stops early, the one `keep` made for
        the other two.  The states it returned still equal each member's
        own run_morph."""
        states = [small_bump_state(grid_small, params, cx) for cx in (1.0, 1.3, 1.9)]
        truth = small_bump_state(grid_small, params, 1.6)
        targets = {"h": truth.h, "omega": vorticity_of(truth)}
        mp = MorphParams(epsilon=0.01, n_steps=30, early_stop_patience=patience)
        maps = workspace_maps()
        batch = _run_morph_batch(states, _target_spectra(targets, grid_small), mp)
        assert len(maps) == maps_made and all(ref() is None for ref, _, _ in maps)
        for state, (got, _) in zip(states, batch):
            ref, _ = run_morph(state, targets, mp)
            for a, b in zip(got.fields(), ref.fields()):
                assert np.array_equal(a.values, b.values)

    def test_nudge_batch_releases_its_map(self, grid_km, params, workspace_maps):
        """The same for a drift batch, whose workspace holds the model's
        arrays and the morph's."""
        member, targets = vortex_morph_case(grid_km, params)
        mp = MorphParams(epsilon=params.dt, n_steps=3, filter_a=12.0, ab_order=_MODEL_AB_ORDER)
        maps = workspace_maps()
        ((got, _),) = _run_morph_batch([member], _target_spectra(targets, grid_km), mp,
                                       drift=(params, 1.0))
        assert len(maps) == 1 and maps[0][0]() is None
        ref, _ = nudge(member, targets, params, 1.0, 3)
        for a, b in zip(got.fields(), ref.fields()):
            assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("naive", [False, True])
    def test_matches_composed_reference(self, grid_km, params, naive):
        """The kernel agrees with the typed composition (physical-space
        velocity, lie_derivative triple, Adams-Bashforth, hou_li_filter) to
        1e-12 per field over 10 steps.

        Longer horizons are not gated at this tolerance because the morph
        amplifies rounding.  Measured on a desk member (64^2, epsilon 10,
        500 steps), a 1e-15 relative change of the input h moved the
        composed code's final h by 8e-8 and v by 2e-8 relative, and the
        kernel's final fields differed from the composed ones by 7e-8 and
        2e-8.  At 128^2 (dt 0.5, 100 steps) the same perturbation moved h
        by 2.1e-6 and the kernel differed by 2.3e-6.
        """
        member, targets = vortex_morph_case(grid_km, params)
        mp = MorphParams(epsilon=10.0, n_steps=10)
        got, _ = run_morph(member, targets, mp, naive=naive)
        ref = composed_run_morph(member, targets, mp, naive=naive)
        for a, b in zip(got.fields(), ref.fields()):
            scale = np.max(np.abs(b.values))
            assert np.max(np.abs(a.values - b.values)) <= 1e-12 * scale


    @pytest.mark.parametrize("naive", [False, True])
    @pytest.mark.parametrize("symmetry", ["rotation", "reflection"])
    def test_commutes_with_the_grid_symmetry(self, grid_km, params, symmetry, naive):
        """A member and its targets moved together by a quarter turn or a
        reflection (omega negated under the reflection) morph into the
        moved morph, per field, to 1e-13 relative over 50 steps on the
        desk grid.  Measured: 1.0e-15 (turn) and 4.0e-16 (reflection) for
        the tensor morph, 1.4e-15 and 3.0e-16 for the naive one.  The
        turn without the vector's sign misses by 2, and the reflection
        with omega's target not negated by 5e-3."""
        move, move_targets, _ = grid_symmetry(symmetry)
        member, targets = vortex_morph_case(grid_km, params)
        mp = MorphParams(epsilon=10.0, n_steps=50)
        got, _ = run_morph(move(member), move_targets(targets), mp, naive=naive)
        ref = move(run_morph(member, targets, mp, naive=naive)[0])
        for a, b in zip(got.fields(), ref.fields()):
            assert np.max(np.abs(a.values - b.values)) <= 1e-13 * np.max(np.abs(b.values))


class TestMorphTrace:
    def test_csv_roundtrip_preserves_floats(self, tmp_path, grid_km, params):
        state = bump_state(grid_km, params)
        target = params.h0 + 0.1 * wrapped_bump(grid_km, 2900.0, 2500.0, 400.0)
        _, trace = run_morph(
            state, h_target(grid_km, target), MorphParams(epsilon=10.0, n_steps=3)
        )
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(MorphTrace.COLUMNS)
        assert len(rows) == len(trace) + 1
        got = [float(r[1]) for r in rows[1:]]
        assert got == trace.column("mse_h")


    def test_unobserved_name_reads_nan(self, tmp_path, grid_km, params):
        """An h-only morph has no omega MSE: every mse_omega row is nan, in
        the trace and in its CSV."""
        state = bump_state(grid_km, params)
        target = params.h0 + 0.1 * wrapped_bump(grid_km, 2900.0, 2500.0, 400.0)
        _, trace = run_morph(
            state, h_target(grid_km, target), MorphParams(epsilon=10.0, n_steps=3)
        )
        assert len(trace) == 4
        assert all(np.isnan(trace.column("mse_omega")))
        assert not any(np.isnan(trace.column("mse_h")))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["mse_omega"] for r in rows] == ["nan"] * len(trace)


class TestValidation:
    def test_morph_params_rejects_bad_values(self):
        with pytest.raises(ValueError):
            MorphParams(epsilon=0.0)
        with pytest.raises(ValueError):
            MorphParams(n_steps=-1)
        with pytest.raises(ValueError):
            MorphParams(ab_order=7)

    def test_morph_params_allows_zero_steps(self):
        assert MorphParams(n_steps=0).n_steps == 0

    def test_targets_reject_unknown_name(self, grid_km, params):
        state = bump_state(grid_km, params)
        targets = {"h": state.h, "salinity": ScalarField.zeros(grid_km)}
        with pytest.raises(ValueError, match="salinity"):
            morph_velocity(state, targets)
        with pytest.raises(ValueError, match="salinity"):
            run_morph(state, targets, MorphParams(epsilon=10.0, n_steps=1))

    @pytest.mark.parametrize("target", [
        lambda g: DiffForm.from_scalar(2, ScalarField.zeros(g)),
        lambda g: np.zeros(g.shape),
        lambda g: ScalarField.zeros(GridSpec(32, 32, g.lx, g.ly)),
    ], ids=["DiffForm", "ndarray", "other-grid"])
    def test_targets_reject_non_scalar_fields(self, grid_km, params, target):
        state = bump_state(grid_km, params)
        targets = {"h": target(grid_km)}
        with pytest.raises(ValueError, match="ScalarFields"):
            morph_velocity(state, targets)
        with pytest.raises(ValueError, match="ScalarFields"):
            run_morph(state, targets, MorphParams(epsilon=10.0, n_steps=1))
