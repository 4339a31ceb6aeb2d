"""Tests for the ensemble Kalman filter and the morphed variant.

The analysis step is replicated end to end against the explicit joint
covariance oracle, including the perturbed-observation noise draw.
"""

import os
import threading
import tracemalloc
from concurrent.futures import CancelledError

import numpy as np
import pytest

from liemorph import assimilation, morph_engine
from liemorph import (
    DisplacementField,
    GridSpec,
    InstabilityError,
    ModelParams,
    MorphParams,
    ScalarField,
    TSWState,
    VortexIC,
    coarsen,
    conserved_totals,
    double_vortex_ic,
    enkf_analysis,
    generate_ensemble,
    integrate,
    kalman_gain,
    observe,
    refine,
    run_morph,
    vorticity_of,
)
from liemorph.assimilation import (
    Ensemble,
    ObsSet,
    _batch_size,
    _run_batches,
    _spin_up,
    _targets_from_obs,
    draw_center_offsets,
    morph_ensemble,
)
from liemorph.morph_engine import _run_morph_batch, _target_spectra
from liemorph.tsw_model import _integrate_batch
from oracles import explicit_covariance_gain, random_band_limited

TWO_PI = 2.0 * np.pi

FINE = GridSpec(64, 64, 5000.0, 5000.0)
COARSE = GridSpec(16, 16, 5000.0, 5000.0)


@pytest.fixture
def params():
    return ModelParams()


@pytest.fixture
def ensemble(params):
    return generate_ensemble(VortexIC(), FINE, 8, seed=1234, spinup_steps=20, params=params)


@pytest.fixture
def truth(params):
    return double_vortex_ic(VortexIC(ox=0.12, oy=0.08), FINE, params)


def band_limited_member(grid, params, seed):
    return TSWState(
        ScalarField(grid, params.h0 + 0.1 * random_band_limited(grid, seed)),
        ScalarField(grid, params.theta0 * (1.0 + 0.01 * random_band_limited(grid, seed + 1))),
        ScalarField(grid, 0.5 * random_band_limited(grid, seed + 2)),
        ScalarField(grid, 0.5 * random_band_limited(grid, seed + 3)),
    )


def state_vector(state, coarse):
    return np.concatenate([coarsen(f, coarse).values.ravel() for f in state.fields()])


class TestObserve:
    def test_rest_state_variances(self, params):
        obs = observe(TSWState.rest(FINE, params), COARSE)
        assert np.allclose(obs.fields["h"].values, params.h0, atol=1e-14)
        assert np.max(np.abs(obs.fields["omega"].values)) <= 1e-14
        assert obs.r["h"] == pytest.approx(0.01 * params.h0**2, rel=1e-12)
        assert obs.r["omega"] == 0.0

    def test_single_mode_variances_are_analytic(self, params):
        """A mode below the coarse Nyquist survives coarsening exactly, so
        r_h = 0.01 (h0^2 + A^2/2) and r_omega = 0.01 k^2 B^2 / 2."""
        k = TWO_PI * 3.0 / FINE.lx
        a_h, b_v = 0.2, 0.5
        x, _ = FINE.xy()
        truth = TSWState(
            ScalarField(FINE, params.h0 + a_h * np.cos(k * x)),
            ScalarField.constant(FINE, params.theta0),
            ScalarField.zeros(FINE),
            ScalarField(FINE, b_v * np.sin(k * x)),
        )
        obs = observe(truth, COARSE)
        assert obs.r["h"] == pytest.approx(0.01 * (params.h0**2 + a_h**2 / 2), rel=1e-12)
        assert obs.r["omega"] == pytest.approx(0.01 * (k * b_v) ** 2 / 2, rel=1e-10)

    def test_same_grid_observation_is_identity(self, params, truth):
        obs = observe(truth, FINE)
        assert np.allclose(obs.fields["h"].values, truth.h.values, atol=1e-12)
        assert np.allclose(
            obs.fields["omega"].values, vorticity_of(truth).values, atol=1e-12
        )


class TestObsSet:
    @pytest.fixture
    def field(self):
        return ScalarField.constant(COARSE, 1.0)

    def test_rejects_mismatched_names(self, field):
        with pytest.raises(ValueError, match="variances"):
            ObsSet(COARSE, {"h": field}, {"omega": 0.1})
        with pytest.raises(ValueError, match="variances"):
            ObsSet(COARSE, {"h": field, "omega": field}, {"h": 0.1})

    def test_rejects_unknown_name(self, field):
        with pytest.raises(ValueError, match="observables"):
            ObsSet(COARSE, {"h": field, "theta": field}, {"h": 0.1, "theta": 0.1})

    def test_rejects_empty_set(self):
        with pytest.raises(ValueError, match="at least one"):
            ObsSet(COARSE, {}, {})

    def test_rejects_field_off_the_obs_grid(self):
        with pytest.raises(ValueError, match="obs grid"):
            ObsSet(COARSE, {"h": ScalarField.constant(FINE, 1.0)}, {"h": 0.1})


class TestGenerateEnsemble:
    def test_same_seed_is_bit_identical(self, params):
        a = generate_ensemble(VortexIC(), FINE, 4, seed=9, spinup_steps=5, params=params)
        b = generate_ensemble(VortexIC(), FINE, 4, seed=9, spinup_steps=5, params=params)
        for ma, mb in zip(a.members, b.members):
            for fa, fb in zip(ma.fields(), mb.fields()):
                assert np.array_equal(fa.values, fb.values)
        assert a.rng_seed == 9

    def test_zero_spread_gives_identical_members(self, params):
        ens = generate_ensemble(
            VortexIC(), FINE, 4, seed=10, spinup_steps=0, params=params, perturb_std=0.0
        )
        ref = ens.members[0]
        for m in ens.members[1:]:
            for fa, fb in zip(m.fields(), ref.fields()):
                assert np.array_equal(fa.values, fb.values)

    def test_spinup_advances_time(self, params):
        ens = generate_ensemble(VortexIC(), FINE, 2, seed=11, spinup_steps=7, params=params)
        assert all(m.time == pytest.approx(7 * params.dt) for m in ens.members)

    def test_rejects_tiny_ensembles(self, params):
        with pytest.raises(ValueError):
            generate_ensemble(VortexIC(), FINE, 1, seed=12, spinup_steps=0, params=params)

    def test_offset_statistics(self):
        rng = np.random.default_rng(0)
        draws = draw_center_offsets(rng, 20000)
        assert draws.shape == (20000, 2)
        assert abs(draws.mean() - 0.1) <= 3.5e-3
        assert 0.09 <= draws.std() <= 0.11


class TestKalmanGain:
    def test_scalar_gain_formula(self):
        """One state equals one observation with anomalies (3,-1,-1,-1):
        sample variance 4, so K = 4/(4+r) exactly."""
        anom = np.array([[3.0, -1.0, -1.0, -1.0]])
        for r, expected in ((1.0, 0.8), (4.0, 0.5), (1e-12, 1.0)):
            k = kalman_gain(anom, anom, np.array([r]))
            assert k.shape == (1, 1)
            assert k[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_matches_explicit_covariance_oracle(self):
        rng = np.random.default_rng(123)
        ne = 6
        z = rng.normal(size=(20, ne))
        y = rng.normal(size=(8, ne))
        z -= z.mean(axis=1, keepdims=True)
        y -= y.mean(axis=1, keepdims=True)
        r_diag = np.linspace(0.5, 2.0, 8)
        lib = kalman_gain(z, y, r_diag)
        ref = explicit_covariance_gain(z, y, r_diag)
        assert np.max(np.abs(lib - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("ne, duplicate", [(20, False), (6, True)])
    def test_ensemble_space_gain_matches_oracle(self, ne, duplicate):
        """More members than observations (Ne = 20 > d = 8), and a
        rank-deficient ensemble with two identical members."""
        rng = np.random.default_rng(321)
        z = rng.normal(size=(20, ne))
        y = rng.normal(size=(8, ne))
        if duplicate:
            z[:, 1], y[:, 1] = z[:, 0], y[:, 0]
        r_diag = np.linspace(0.5, 2.0, 8)
        lib = kalman_gain(
            z - z.mean(axis=1, keepdims=True), y - y.mean(axis=1, keepdims=True), r_diag
        )
        ref = explicit_covariance_gain(z, y, r_diag)
        assert np.max(np.abs(lib - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_rejects_nonpositive_variance(self):
        """The ensemble-space form needs R^-1/2, so R must be positive."""
        anom = np.array([[3.0, -1.0, -1.0, -1.0]])
        with pytest.raises(ValueError, match="positive"):
            kalman_gain(anom, anom, np.array([0.0]))


class TestEnkfAnalysis:
    def test_rejects_zero_variance(self, params, ensemble):
        obs = observe(TSWState.rest(FINE, params), COARSE)
        with pytest.raises(ValueError):
            enkf_analysis(ensemble, obs, obs_noise_seed=1)

    def test_huge_r_returns_prior(self, ensemble, truth):
        """Scaling R by 1e12 shrinks the perturbed-observation update by
        about 1e-6 (the noise term decays like sqrt(R) against the R in
        the denominator), measured on the stacked coarse state vector."""
        obs = observe(truth, COARSE)
        inflated = ObsSet(COARSE, obs.fields, {name: r * 1e12 for name, r in obs.r.items()})
        post = enkf_analysis(ensemble, inflated, obs_noise_seed=3)
        worst = 0.0
        for before, after in zip(ensemble.members, post.members):
            vb = state_vector(before, COARSE)
            va = state_vector(after, COARSE)
            worst = max(worst, np.max(np.abs(va - vb)) / np.max(np.abs(vb)))
        assert worst <= 1e-6

    @pytest.mark.parametrize("names, per_member", [(("h", "omega"), 5), (("h",), 4), (("omega",), 5)],
                             ids=["h-omega", "h", "omega"])
    def test_coarsens_each_field_once_per_member(self, monkeypatch, ensemble, truth, names,
                                                 per_member):
        # the four state fields, and the vorticity only when it is observed;
        # the h observation reuses the coarse h of the state vector
        full = observe(truth, COARSE)
        obs = ObsSet(COARSE, {n: full.fields[n] for n in names}, {n: full.r[n] for n in names})
        calls, curls = [], []

        def counted(field, coarse):
            calls.append(field)
            return coarsen(field, coarse)

        def counted_curl(state):
            curls.append(state)
            return vorticity_of(state)

        monkeypatch.setattr(assimilation, "coarsen", counted)
        omega = morph_engine._OBSERVABLES["omega"]
        monkeypatch.setitem(morph_engine._OBSERVABLES, "omega", omega._replace(of_state=counted_curl))
        enkf_analysis(ensemble, obs, obs_noise_seed=3)
        assert len(calls) == per_member * len(ensemble)
        assert len(curls) == ("omega" in names) * len(ensemble)

    def test_identical_members_stay_exactly_put(self, params, truth):
        member = band_limited_member(FINE, params, 211)
        ens = Ensemble([member, member.copy()], rng_seed=0)
        obs = observe(truth, COARSE)
        post = enkf_analysis(ens, obs, obs_noise_seed=4)
        for before, after in zip(ens.members, post.members):
            for fa, fb in zip(after.fields(), before.fields()):
                assert np.array_equal(fa.values, fb.values)

    @pytest.mark.parametrize("names", [("h", "omega"), ("h",)], ids="-".join)
    def test_analysis_matches_explicit_replication(self, ensemble, truth, names):
        """Rebuild the whole perturbed-observation update with the joint
        covariance oracle and the same seeded noise draw, for each observed
        set."""
        full = observe(truth, COARSE)
        obs = ObsSet(COARSE, {n: full.fields[n] for n in names}, {n: full.r[n] for n in names})
        seed = 77
        post = enkf_analysis(ensemble, obs, obs_noise_seed=seed)

        nc = COARSE.nx * COARSE.ny
        ne = len(ensemble)
        operator = {"h": lambda m: m.h, "omega": vorticity_of}
        z = np.stack([state_vector(m, COARSE) for m in ensemble.members], axis=1)
        y = np.stack(
            [
                np.concatenate(
                    [coarsen(operator[n](m), COARSE).values.ravel() for n in names]
                )
                for m in ensemble.members
            ],
            axis=1,
        )
        r_diag = np.concatenate([np.full(nc, obs.r[n]) for n in names])
        gain = explicit_covariance_gain(
            z - z.mean(axis=1, keepdims=True), y - y.mean(axis=1, keepdims=True), r_diag
        )
        y_obs = np.concatenate([obs.fields[n].values.ravel() for n in names])
        noise = np.random.default_rng(seed).normal(0.0, 1.0, size=(len(names) * nc, ne))
        noise *= np.sqrt(r_diag)[:, None]
        dz = gain @ (y_obs[:, None] + noise - y)

        for i in (0, ne - 1):
            inc = ScalarField(COARSE, dz[:nc, i].reshape(COARSE.shape))
            expected = ensemble.members[i].h.values + refine(inc, FINE).values
            got = post.members[i].h.values
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(got - expected)) <= 1e-10 * scale

    def test_mean_height_moves_toward_truth(self, ensemble, truth):
        obs = observe(truth, COARSE)
        post = enkf_analysis(ensemble, obs, obs_noise_seed=77)

        def mean_h_mse(e):
            hbar = np.mean([m.h.values for m in e.members], axis=0)
            return float(np.mean((hbar - truth.h.values) ** 2))

        assert mean_h_mse(post) < mean_h_mse(ensemble)

    def test_same_seed_is_deterministic(self, ensemble, truth):
        obs = observe(truth, COARSE)
        a = enkf_analysis(ensemble, obs, obs_noise_seed=5)
        b = enkf_analysis(ensemble, obs, obs_noise_seed=5)
        for ma, mb in zip(a.members, b.members):
            for fa, fb in zip(ma.fields(), mb.fields()):
                assert np.array_equal(fa.values, fb.values)

    def test_absurd_observation_reports_failed_member(self, ensemble, truth):
        """An observation far outside the ensemble along an anomaly
        direction drives h negative; the error names the member."""
        hbar = np.mean([coarsen(m.h, COARSE).values for m in ensemble.members], axis=0)
        anom = coarsen(ensemble.members[1].h, COARSE).values - hbar
        obs0 = observe(truth, COARSE)
        bad = ObsSet(
            COARSE,
            {"h": ScalarField(COARSE, hbar - 400.0 * anom), "omega": obs0.fields["omega"]},
            {"h": 1e-10, "omega": obs0.r["omega"]},
        )
        with pytest.raises(InstabilityError, match="analysis member"):
            enkf_analysis(ensemble, bad, obs_noise_seed=5)

    def test_paper_grid_analysis_allocates_no_gain_matrix(self):
        """At 256^2 / 64^2 the state vector has n = 16384 values and the
        observation vector d = 8192, so an n x d gain alone is 1.07 GB.
        The ensemble-space analysis of 2 members stays under 64 MB."""
        fine = GridSpec(256, 256, 5000.0, 5000.0)
        coarse = GridSpec(64, 64, 5000.0, 5000.0)
        params = ModelParams(dt=0.25)
        ens = generate_ensemble(VortexIC(), fine, 2, seed=3, spinup_steps=2, params=params)
        obs = observe(double_vortex_ic(VortexIC(ox=0.12, oy=0.08), fine, params), coarse)
        tracemalloc.start()
        try:
            enkf_analysis(ens, obs, obs_noise_seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20


class TestMorphEnsemble:
    def test_aligned_band_limited_members_are_fixed(self, params):
        """Band-limited members below the coarse Nyquist see targets that
        reproduce their own diagnostics exactly, so the morph does not
        move them."""
        member = band_limited_member(FINE, params, 212)
        ens = Ensemble([member, member.copy()], rng_seed=0)
        obs = observe(member, COARSE)
        morphed, traces = morph_ensemble(ens, obs, MorphParams(epsilon=10.0, n_steps=5))
        for before, after in zip(ens.members, morphed.members):
            for fa, fb in zip(after.fields(), before.fields()):
                scale = max(np.max(np.abs(fb.values)), 1.0)
                assert np.max(np.abs(fa.values - fb.values)) <= 1e-12 * scale
        assert all(max(t.column("mse_h")) <= 1e-20 for t in traces)

    def test_traces_cover_every_member_and_step(self, ensemble, truth):
        obs = observe(truth, COARSE)
        _, traces = morph_ensemble(ensemble, obs, MorphParams(epsilon=10.0, n_steps=4))
        assert len(traces) == len(ensemble)
        assert all(len(t) == 5 for t in traces)

    def test_workers_do_not_change_results(self, ensemble, truth):
        obs = observe(truth, COARSE)
        mp = MorphParams(epsilon=10.0, n_steps=3)
        serial, _ = morph_ensemble(ensemble, obs, mp, workers=1)
        parallel, _ = morph_ensemble(ensemble, obs, mp, workers=2)
        for ma, mb in zip(serial.members, parallel.members):
            for fa, fb in zip(ma.fields(), mb.fields()):
                assert np.array_equal(fa.values, fb.values)

    def test_tensor_morph_conserves_member_mass_naive_does_not(
        self, ensemble, truth
    ):
        obs = observe(truth, COARSE)
        mp = MorphParams(epsilon=10.0, n_steps=10)
        tensor, _ = morph_ensemble(ensemble, obs, mp)
        naive, _ = morph_ensemble(ensemble, obs, mp, naive=True)
        m0 = conserved_totals(ensemble.members[0])["mass"]
        drift_tensor = abs(conserved_totals(tensor.members[0])["mass"] - m0) / m0
        drift_naive = abs(conserved_totals(naive.members[0])["mass"] - m0) / m0
        assert drift_tensor <= 1e-12
        assert drift_naive > 1e-10


class TestMorphedEnkf:
    def test_zero_morph_steps_equals_plain_enkf(self, ensemble, truth):
        obs = observe(truth, COARSE)
        plain = enkf_analysis(ensemble, obs, obs_noise_seed=6)
        morphed, traces = morph_ensemble(ensemble, obs, MorphParams(epsilon=10.0, n_steps=0))
        combo = enkf_analysis(morphed, obs, obs_noise_seed=6)
        for ma, mb in zip(combo.members, plain.members):
            for fa, fb in zip(ma.fields(), mb.fields()):
                assert np.array_equal(fa.values, fb.values)
        assert all(len(t) == 1 for t in traces)

    def test_pipeline_is_deterministic(self, ensemble, truth):
        obs = observe(truth, COARSE)
        mp = MorphParams(epsilon=10.0, n_steps=3)
        a = enkf_analysis(morph_ensemble(ensemble, obs, mp)[0], obs, obs_noise_seed=7)
        b = enkf_analysis(morph_ensemble(ensemble, obs, mp)[0], obs, obs_noise_seed=7)
        for ma, mb in zip(a.members, b.members):
            for fa, fb in zip(ma.fields(), mb.fields()):
                assert np.array_equal(fa.values, fb.values)


    def test_h_only_observations_run_through_morph_and_analysis(self, ensemble, truth):
        """An ObsSet of h alone morphs toward h, writes nan as its omega
        MSE and is analysed with one observed field."""
        full = observe(truth, COARSE)
        obs = ObsSet(COARSE, {"h": full.fields["h"]}, {"h": full.r["h"]})
        morphed, traces = morph_ensemble(ensemble, obs, MorphParams(epsilon=10.0, n_steps=20))
        assert all(len(t) == 21 and all(np.isnan(t.column("mse_omega"))) for t in traces)
        assert all(t.column("mse_h")[-1] < t.column("mse_h")[0] for t in traces)
        post = enkf_analysis(morphed, obs, obs_noise_seed=8)
        assert len(post) == len(ensemble)


class TestEnsembleContainer:
    def test_rejects_single_member(self, params):
        with pytest.raises(ValueError):
            Ensemble([TSWState.rest(FINE, params)], rng_seed=0)

    def test_rejects_mismatched_grids(self, params):
        with pytest.raises(ValueError):
            Ensemble(
                [TSWState.rest(FINE, params), TSWState.rest(COARSE, params)],
                rng_seed=0,
            )

    def test_len_and_grid(self, ensemble):
        assert len(ensemble) == 8
        assert ensemble.grid == FINE


def assert_same_state(a, b):
    assert a.time == b.time
    for fa, fb in zip(a.fields(), b.fields()):
        assert np.array_equal(fa.values, fb.values)


class TestMemberBatches:
    """Batched spin-up and morph equal the per-member kernels bit for bit."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_spinup_equals_per_member_integrate(self, params, workers):
        """8 members at 64^2 run as one batch of 8, or two of 4 on 2 workers."""
        ens = generate_ensemble(VortexIC(), FINE, 8, seed=1234, spinup_steps=20,
                                params=params, workers=workers)
        offsets = draw_center_offsets(np.random.default_rng(1234), 8)
        for member, (ox, oy) in zip(ens.members, offsets):
            ic = VortexIC(ox=float(ox), oy=float(oy))
            assert_same_state(member, integrate(double_vortex_ic(ic, FINE, params), 20, params))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("naive", [False, True])
    def test_morph_equals_per_member_run_morph(self, ensemble, truth, naive, workers):
        obs = observe(truth, COARSE)
        mp = MorphParams(epsilon=10.0, n_steps=10)
        morphed, traces = morph_ensemble(ensemble, obs, mp, naive=naive, workers=workers)
        targets = _targets_from_obs(obs, FINE)
        for member, got, trace in zip(ensemble.members, morphed.members, traces):
            ref, ref_trace = run_morph(member, targets, mp, naive=naive)
            assert_same_state(got, ref)
            assert trace.rows == ref_trace.rows

    def test_batches_share_one_transform_of_the_targets(self, ensemble, truth, count_ffts):
        """8 members at 64^2 make as many 2-D transforms as one batch of 8
        when they run as two batches of 4 on 2 workers: the targets are
        transformed once per morph, not once per batch."""
        obs, mp = observe(truth, COARSE), MorphParams(epsilon=10.0, n_steps=2)
        counts, seen = count_ffts(), []
        for workers in (1, 2):
            morph_ensemble(ensemble, obs, mp, workers=workers)
            seen.append(counts["rfft2"] + counts["irfft2"])
            counts.update(rfft2=0, irfft2=0, calls=0)
        assert seen[0] == seen[1]

    def test_early_stopped_members_leave_the_batch(self, ensemble, truth):
        """An overshooting epsilon stops the members at different steps;
        each one's state and trace still equal its own run_morph."""
        obs = observe(truth, COARSE)
        mp = MorphParams(epsilon=300.0, n_steps=40, early_stop_patience=2)
        morphed, traces = morph_ensemble(ensemble, obs, mp)
        assert len({len(t) for t in traces}) > 1
        assert max(len(t) for t in traces) < 41
        targets = _targets_from_obs(obs, FINE)
        for member, got, trace in zip(ensemble.members, morphed.members, traces):
            ref, ref_trace = run_morph(member, targets, mp)
            assert_same_state(got, ref)
            assert trace.rows == ref_trace.rows

    @pytest.mark.parametrize("workers", [1, 2])
    def test_morph_error_names_the_failing_member(self, ensemble, truth, workers):
        """Of three members only member 1 loses positivity within 4 steps
        (at step 3); the error is the one its own run_morph raises, and
        that error, with its step, is the cause."""
        obs = observe(truth, COARSE)
        mp = MorphParams(epsilon=3000.0, n_steps=4)
        with pytest.raises(InstabilityError) as alone:
            run_morph(ensemble.members[1], _targets_from_obs(obs, FINE), mp)
        assert alone.value.step == 3
        with pytest.raises(InstabilityError) as exc:
            morph_ensemble(Ensemble(ensemble.members[:3], rng_seed=0), obs, mp,
                           workers=workers)
        assert str(exc.value) == f"morph of member 1: {alone.value}"
        cause = exc.value.__cause__
        assert isinstance(cause, InstabilityError)
        assert (cause.step, str(cause)) == (3, str(alone.value))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_spinup_error_names_the_failing_member(self, params, workers):
        """A 30x anomaly in the middle of a batch fails at its own step,
        with its own minima; the error adds the batch's first member index
        (4 on 2 workers, where members 4 to 6 are the second batch)."""
        ics = [VortexIC(), VortexIC(amplitude=3.0), VortexIC(ox=0.2)]
        states = [double_vortex_ic(ic, FINE, params) for ic in ics]
        with pytest.raises(InstabilityError) as alone:
            integrate(states[1], 50, params)
        with pytest.raises(InstabilityError) as batch:
            _integrate_batch(states, 50, params)
        assert (batch.value.member, batch.value.step) == (1, alone.value.step)
        assert str(batch.value) == str(alone.value)
        with pytest.raises(InstabilityError) as job:
            _spin_up([VortexIC()] * 4 + ics, FINE, 50, params, workers)
        assert str(job.value) == f"member 5 spin-up failed: {alone.value}"
        cause = job.value.__cause__
        assert isinstance(cause, InstabilityError)
        assert (cause.step, str(cause)) == (alone.value.step, str(alone.value))

    def test_parallel_batches_stay_in_the_calling_process(
        self, ensemble, truth, params, monkeypatch
    ):
        """At 2 workers each stage runs two batches in this process, one on
        the calling thread and one on a pool thread."""
        calls = []
        for name in ("_integrate_batch", "_run_morph_batch"):
            kernel = getattr(assimilation, name)

            def recorded(*args, _kernel=kernel, _name=name, **kwargs):
                calls.append((_name, os.getpid(), threading.get_ident()))
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(assimilation, name, recorded)
        generate_ensemble(VortexIC(), FINE, 4, seed=1, spinup_steps=2, params=params,
                          workers=2)
        morph_ensemble(ensemble, observe(truth, COARSE), MorphParams(epsilon=10.0, n_steps=2),
                       workers=2)
        assert len(calls) == 4 and {pid for _, pid, _ in calls} == {os.getpid()}
        for name in ("_integrate_batch", "_run_morph_batch"):
            threads = [ident for n, _, ident in calls if n == name]
            assert len(threads) == 2 and threading.get_ident() in threads
            assert len(set(threads)) == 2

    def test_two_workers_take_turns_over_one_member_batches(
        self, ensemble, truth, monkeypatch
    ):
        """With one member a batch, 4 members make 4 batches: the calling
        thread runs batches 0 and 2, a pool thread 1 and 3, and the members
        come back in order, equal to one worker's."""
        monkeypatch.setattr(assimilation, "_BATCH_BYTES", 8 * FINE.nx * FINE.ny)
        runs = []
        kernel = assimilation._run_morph_batch

        def recorded(batch, *args, **kwargs):
            runs.append((batch[0].time, threading.get_ident()))
            return kernel(batch, *args, **kwargs)

        monkeypatch.setattr(assimilation, "_run_morph_batch", recorded)
        # each member's time tells the batches apart
        members = [TSWState(*m.fields(), time=float(i)) for i, m in enumerate(ensemble.members[:4])]
        ens = Ensemble(members, rng_seed=0)
        obs, mp = observe(truth, COARSE), MorphParams(epsilon=10.0, n_steps=3)
        serial, serial_traces = morph_ensemble(ens, obs, mp, workers=1)
        assert [ident for _, ident in runs] == [threading.get_ident()] * 4
        runs.clear()
        parallel, traces = morph_ensemble(ens, obs, mp, workers=2)
        by_thread = {}
        for t, ident in runs:
            by_thread.setdefault(ident, []).append(t)
        assert by_thread.pop(threading.get_ident()) == [0.0, 2.0]
        assert list(by_thread.values()) == [[1.0, 3.0]]
        for a, b in zip(serial.members, parallel.members):
            assert_same_state(a, b)
        assert [t.rows for t in traces] == [t.rows for t in serial_traces]
        assert [m.time for m in parallel.members] == [0.0, 1.0, 2.0, 3.0]

    def test_pool_has_no_more_workers_than_batches(self, monkeypatch):
        """The calling thread runs one share of the batches, so 3 batches
        ask a pool for 2 threads, however many workers are allowed."""
        asked = []

        class Inline:
            """Records the pool size and runs the jobs in the calling thread."""

            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(assimilation, "ThreadPoolExecutor", Inline)
        out = _run_batches(lambda batch, stop: [2 * x for x in batch], [0, 1, 2], FINE,
                           10**9, "member {}: {}")
        assert out == [0, 2, 4]
        assert asked == [2]
        assert _run_batches(lambda batch, stop: batch, [0, 1, 2], FINE, 1, "{}{}") == [0, 1, 2]
        assert asked == [2]

    def test_set_stop_ends_the_kernels_before_a_step(self, ensemble, truth, params):
        stop = threading.Event()
        stop.set()
        with pytest.raises(CancelledError):
            _integrate_batch(ensemble.members[:2], 2, params, stop=stop)
        observed = _target_spectra(_targets_from_obs(observe(truth, COARSE), FINE), FINE)
        with pytest.raises(CancelledError):
            _run_morph_batch(ensemble.members[:2], observed,
                             MorphParams(epsilon=10.0, n_steps=2), stop=stop)

    def test_first_error_stops_the_running_batches(self):
        """Member 0 fails while the batch of member 1 runs; that batch sees
        the stop event at once, not after its 30 s timeout."""
        started, seen = threading.Event(), []

        def kernel(batch, stop):
            if batch == [0]:
                started.wait(timeout=30)
                raise InstabilityError("blown up", step=1, member=0)
            started.set()
            seen.append(stop.wait(timeout=30))
            raise CancelledError

        with pytest.raises(InstabilityError, match="member 0: step 1: blown up"):
            _run_batches(kernel, [0, 1], FINE, 2, "member {}: {}")
        assert seen == [True]

    def test_lowest_failing_batch_wins_over_an_earlier_failure(self, monkeypatch):
        """One member a batch, 4 batches on 2 workers: the pool thread's
        batch 1 fails first, while the calling thread's batch 0 runs on.
        Batch 0 is not stopped and fails later; the error names member 0,
        and batches 2 and 3, after a failure, never start."""
        monkeypatch.setattr(assimilation, "_BATCH_BYTES", 8 * FINE.nx * FINE.ny)
        failed, ran, stopped = threading.Event(), [], []

        def kernel(batch, stop):
            ran.append(batch[0])
            if batch == [1]:
                failed.set()
                raise InstabilityError("second", step=1, member=0)
            assert failed.wait(timeout=30)
            stopped.append(stop.wait(timeout=0.2))
            raise InstabilityError("first", step=2, member=0)

        with pytest.raises(InstabilityError, match="member 0: step 2: first") as exc:
            _run_batches(kernel, [0, 1, 2, 3], FINE, 2, "member {}: {}")
        assert str(exc.value.__cause__) == "step 2: first"
        assert sorted(ran) == [0, 1]
        assert stopped == [False]

    def test_batch_size_rule(self):
        """One batched field stays within 256 KiB, and no worker is idle."""
        grids = {n: GridSpec(n, n, 5000.0, 5000.0) for n in (32, 64, 128, 256, 512)}
        assert [_batch_size(20, 1, grids[n]) for n in (64, 128, 256, 512)] == [8, 2, 1, 1]
        assert _batch_size(8, 2, grids[64]) == 4
        assert _batch_size(3, 2, grids[64]) == 2
        assert _batch_size(20, 1, grids[32]) == 20
        assert _batch_size(2, 2, grids[256]) == 1
