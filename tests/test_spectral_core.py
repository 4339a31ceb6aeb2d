"""Spectral core: grid validation, derivatives, filters, resampling.

The derivative and Helmholtz tests compare against analytic formulas and
against the dense differentiation matrices in oracles.py, which never
touch an FFT.
"""

import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liemorph import (
    GridSpec,
    ModelParams,
    MorphParams,
    ObsSet,
    ScalarField,
    SolverParams,
    TSWState,
    VortexIC,
    coarsen,
    curl_2d,
    divergence,
    domain_integral,
    double_vortex_ic,
    generate_ensemble,
    gradient,
    hou_li_filter,
    hou_li_multiplier,
    integrate,
    inverse_helmholtz,
    nudge,
    observe,
    refine,
    vorticity_of,
)
from liemorph.forms import DisplacementField
from liemorph.morph_engine import _run_morph_batch, _target_spectra
from liemorph.spectral_core import (_deriv, _grad_hat, _h1_weight, _hou_li, _irfft2, _is_int,
                                    _is_real, _resample_modes, _rfft2)
from liemorph.tsw_model import _integrate_batch

from oracles import (
    dense_dx,
    dense_dy,
    dense_helmholtz_matrix,
    random_band_limited,
)

TWO_PI = 2.0 * np.pi


class TestGridSpec:
    def test_basic_attributes(self):
        g = GridSpec(16, 12, 3.0, 2.0)
        assert g.shape == (16, 12)
        assert g.area == pytest.approx(6.0)
        x, y = g.xy()
        assert x.shape == (16, 12)
        assert x[0, 0] == 0.0 and y[0, 0] == 0.0
        assert x[1, 0] == pytest.approx(3.0 / 16)

    def test_rejects_odd_resolution(self):
        with pytest.raises(ValueError):
            GridSpec(15, 16, 1.0, 1.0)
        with pytest.raises(ValueError):
            GridSpec(16, 15, 1.0, 1.0)

    def test_rejects_tiny_or_negative(self):
        with pytest.raises(ValueError):
            GridSpec(2, 16, 1.0, 1.0)
        with pytest.raises(ValueError):
            GridSpec(16, 16, -1.0, 1.0)
        with pytest.raises(ValueError):
            GridSpec(16, 16, 1.0, 0.0)

    @pytest.mark.parametrize("count", [64.5, 64.0, "64"], ids=repr)
    def test_rejects_non_integer_counts(self, count):
        """A count is never truncated or parsed: 64.5 would build 64 points."""
        with pytest.raises(ValueError, match="nx must be an even integer"):
            GridSpec(count, 64, 5000.0, 5000.0)
        with pytest.raises(ValueError, match="ny must be an even integer"):
            GridSpec(64, count, 5000.0, 5000.0)

    def test_accepts_numpy_integer_counts(self):
        g = GridSpec(np.int64(64), np.int32(32), 5000.0, 5000.0)
        assert g.shape == (64, 32) and type(g.nx) is int
        assert g == GridSpec(64, 32, 5000.0, 5000.0)

    def test_equality_and_hash(self):
        a = GridSpec(16, 16, 1.0, 2.0)
        b = GridSpec(16, 16, 1.0, 2.0)
        c = GridSpec(16, 16, 1.0, 3.0)
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_wavenumbers_physical(self):
        g = GridSpec(8, 8, 4.0, 4.0)
        assert g.kx[1] == pytest.approx(TWO_PI / 4.0)


OBS_GRID = GridSpec(16, 16, 5000.0, 5000.0)

# Each parameter class, built from keyword arguments over valid defaults,
# with its real and its count arguments
PARAMETER_CLASSES = {
    "GridSpec": (lambda **kw: GridSpec(**{"nx": 64, "ny": 64, "lx": 5000.0, "ly": 5000.0, **kw}),
                 ("lx", "ly"), ("nx", "ny")),
    "ModelParams": (ModelParams, ("f", "kappa", "h0", "theta0", "dt"), ()),
    "VortexIC": (VortexIC, ("ox", "oy", "amplitude", "radius", "separation", "theta_amplitude"),
                 ()),
    "MorphParams": (MorphParams, ("epsilon", "filter_a"),
                    ("n_steps", "ab_order", "early_stop_patience")),
    "SolverParams": (SolverParams, ("a0", "a1", "cg_tol"), ("cg_max_iter",)),
    "ObsSet": (lambda r: ObsSet(OBS_GRID, {"h": ScalarField.constant(OBS_GRID, 1.0)}, {"h": r}),
               ("r",), ()),
}
NON_REALS = (True, "1", float("nan"), float("inf"))
NON_COUNTS = (True, 2.0, "2")

# Library functions with a count, an exponent or a strength argument, each
# called over valid defaults, with that argument and its bad values
LIBRARY_FUNCTIONS = {
    "generate_ensemble": (
        lambda workers: generate_ensemble(VortexIC(), OBS_GRID, 2, 0, 0, ModelParams(),
                                          workers=workers),
        "workers", (*NON_COUNTS, 0)),
    "integrate": (
        lambda n_steps: integrate(TSWState.rest(OBS_GRID, ModelParams()), n_steps, ModelParams()),
        "n_steps", (*NON_COUNTS, -1)),
    "hou_li_multiplier": (lambda a: hou_li_multiplier(OBS_GRID, a), "a", (*NON_REALS, 0.0)),
    "nudge": (
        lambda strength: nudge(TSWState.rest(OBS_GRID, ModelParams()),
                               {"h": ScalarField.constant(OBS_GRID, 1.0)}, ModelParams(),
                               strength, 1),
        "strength", NON_REALS),
}


class TestParameterTypes:
    """Every parameter class takes a finite real number or an integer count
    for each numeric argument, numpy scalars too, and raises a ValueError
    naming the argument for anything else; so do the library functions
    that take a count, an exponent or a strength."""

    @pytest.mark.parametrize("cls, arg, value", [
        pytest.param(cls, arg, value, id=f"{cls}-{arg}-{value!r}")
        for cls, (_, reals, counts) in PARAMETER_CLASSES.items()
        for args, values in ((reals, NON_REALS), (counts, NON_COUNTS))
        for arg in args for value in values
    ])
    def test_rejects_naming_the_argument(self, cls, arg, value):
        with pytest.raises(ValueError, match=rf"\b{arg}\b"):
            PARAMETER_CLASSES[cls][0](**{arg: value})

    @pytest.mark.parametrize("fn, value", [
        pytest.param(fn, value, id=f"{fn}-{value!r}")
        for fn, (_, _, values) in LIBRARY_FUNCTIONS.items() for value in values
    ])
    def test_library_functions_reject_naming_the_argument(self, fn, value):
        call, arg, _ = LIBRARY_FUNCTIONS[fn]
        with pytest.raises(ValueError, match=rf"\b{arg} must be"):
            call(value)

    def test_numpy_scalars_pass(self):
        f8, i8 = np.float64, np.int64
        assert GridSpec(i8(64), i8(32), f8(5000.0), f8(4000.0)) == GridSpec(64, 32, 5000.0, 4000.0)
        assert ModelParams(*map(f8, (0.01, 0.0, 1.0, 98.0, 5.0))) == ModelParams(
            0.01, 0.0, 1.0, 98.0, 5.0)
        assert VortexIC(*map(f8, (0.1, -0.2, 0.1, 400.0, 1250.0, 0.0))) == VortexIC(
            0.1, -0.2, 0.1, 400.0, 1250.0, 0.0)
        assert MorphParams(f8(10.0), i8(0), f8(36.0), i8(5), i8(2)) == MorphParams(
            10.0, 0, 36.0, 5, 2)
        assert SolverParams(f8(1.0), f8(0.0), None, f8(1e-10), i8(500)) == SolverParams(
            1.0, 0.0, None, 1e-10, 500)
        PARAMETER_CLASSES["ObsSet"][0](f8(0.0))

    @pytest.mark.parametrize("value, real, count", [
        (3, True, True), (np.int64(-2**63), True, True), (np.uint8(7), True, True),
        (2.5, True, False), (np.float32(2.5), True, False), (-1e308, True, False),
        (10**400, False, True), (float("nan"), False, False), (np.float32("inf"), False, False),
        (-np.inf, False, False), (True, False, False), (np.True_, False, False),
        ("1", False, False), (None, False, False), (1j, False, False),
    ], ids=repr)
    def test_predicates(self, value, real, count):
        # under the suite's warnings-as-errors: no overflow warning either
        assert (_is_real(value), _is_int(value)) == (real, count)


class TestScalarField:
    def test_shape_mismatch_rejected(self, grid_small):
        with pytest.raises(ValueError):
            ScalarField(grid_small, np.zeros((4, 4)))

    def test_nonfinite_rejected(self, grid_small):
        bad = np.zeros(grid_small.shape)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            ScalarField(grid_small, bad)

    def test_constructors(self, grid_small):
        z = ScalarField.zeros(grid_small)
        assert not z.values.any()
        c = ScalarField.constant(grid_small, 2.5)
        assert np.all(c.values == 2.5)
        f = ScalarField.from_function(grid_small, lambda x, y: x + y)
        x, y = grid_small.xy()
        assert np.array_equal(f.values, x + y)

    def test_arithmetic(self, grid_small):
        a = ScalarField.constant(grid_small, 2.0)
        b = ScalarField.constant(grid_small, 3.0)
        assert np.all((a + b).values == 5.0)
        assert np.all((a - b).values == -1.0)
        assert np.all((a * 2.0).values == 4.0)
        assert np.all((-a).values == -2.0)


class TestGradient:
    def test_constant_is_flat(self, grid_small):
        gx, gy = gradient(ScalarField.constant(grid_small, 7.0))
        assert np.max(np.abs(gx.values)) == 0.0
        assert np.max(np.abs(gy.values)) == 0.0

    def test_single_mode_analytic(self, grid64):
        k = TWO_PI / grid64.lx
        f = ScalarField.from_function(grid64, lambda x, y: np.sin(k * x))
        gx, gy = gradient(f)
        x, _ = grid64.xy()
        assert np.max(np.abs(gx.values - k * np.cos(k * x))) <= 1e-10
        assert np.max(np.abs(gy.values)) <= 1e-10

    def test_product_mode_analytic(self, grid_small):
        g = grid_small
        kx, ky = TWO_PI / g.lx, TWO_PI / g.ly
        f = ScalarField.from_function(g, lambda x, y: np.sin(kx * x) * np.sin(ky * y))
        gx, gy = gradient(f)
        x, y = g.xy()
        assert np.allclose(gx.values, kx * np.cos(kx * x) * np.sin(ky * y), atol=1e-12)
        assert np.allclose(gy.values, ky * np.sin(kx * x) * np.cos(ky * y), atol=1e-12)

    def test_matches_dense_matrix(self, grid_small):
        """FFT derivative equals the dense cotangent matrix, Nyquist content
        included (a grid delta excites every mode)."""
        g = grid_small
        delta = np.zeros(g.shape)
        delta[3, 5] = 1.0
        f = ScalarField(g, delta)
        gx, gy = gradient(f)
        assert np.allclose(gx.values, (dense_dx(g) @ delta.ravel()).reshape(g.shape), atol=1e-13)
        assert np.allclose(gy.values, (dense_dy(g) @ delta.ravel()).reshape(g.shape), atol=1e-13)

    def test_rejects_nonfinite(self, grid_small):
        """Values are a mutable array; operators re-check finiteness."""
        f = ScalarField.zeros(grid_small)
        f.values[1, 1] = np.inf
        with pytest.raises(ValueError):
            gradient(f)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_derivative_integrates_to_zero(self, seed):
        """Periodic integration by parts: any spectral derivative has zero
        domain integral."""
        g = GridSpec(16, 12, 3.0, 2.0)
        f = ScalarField(g, random_band_limited(g, seed))
        gx, gy = gradient(f)
        assert abs(domain_integral(gx)) <= 1e-12
        assert abs(domain_integral(gy)) <= 1e-12


class TestDivergenceCurl:
    def test_constant_field_divergence_free(self, grid_small):
        u = DisplacementField(
            ScalarField.constant(grid_small, 1.5),
            ScalarField.constant(grid_small, -2.5),
        )
        assert np.max(np.abs(divergence(u).values)) == 0.0
        assert np.max(np.abs(curl_2d(u).values)) == 0.0

    def test_divergence_single_mode(self, grid64):
        k = TWO_PI / grid64.lx
        u = DisplacementField(
            ScalarField.from_function(grid64, lambda x, y: np.sin(k * x)),
            ScalarField.zeros(grid64),
        )
        x, _ = grid64.xy()
        assert np.max(np.abs(divergence(u).values - k * np.cos(k * x))) <= 1e-10

    def test_divergence_of_streamfunction_flow(self, grid_small):
        psi = ScalarField(grid_small, random_band_limited(grid_small, 3))
        px, py = gradient(psi)
        u = DisplacementField(py, -px)
        assert np.max(np.abs(divergence(u).values)) <= 1e-10

    def test_curl_of_gradient(self, grid_small):
        f = ScalarField(grid_small, random_band_limited(grid_small, 4))
        gx, gy = gradient(f)
        assert np.max(np.abs(curl_2d(DisplacementField(gx, gy)).values)) <= 1e-10

    def test_curl_solid_rotation_analog(self, grid_small):
        """Periodic-safe stand-in for u = (-y, x): each component one
        sinusoid whose linearization at the origin is the solid rotation."""
        g = grid_small
        kx, ky = TWO_PI / g.lx, TWO_PI / g.ly
        u = DisplacementField(
            ScalarField.from_function(g, lambda x, y: -np.sin(ky * y) / ky),
            ScalarField.from_function(g, lambda x, y: np.sin(kx * x) / kx),
        )
        x, y = g.xy()
        expected = np.cos(kx * x) + np.cos(ky * y)
        assert np.allclose(curl_2d(u).values, expected, atol=1e-12)


class TestInverseHelmholtz:
    def test_constant_eigenfunction(self, grid_small):
        g = inverse_helmholtz(ScalarField.constant(grid_small, 3.0))
        assert np.allclose(g.values, 3.0, atol=1e-14)

    def test_single_mode_eigenfunction(self, grid64):
        k = TWO_PI / grid64.lx
        f = ScalarField.from_function(
            grid64, lambda x, y: (1.0 + k**2) * np.sin(k * x)
        )
        g = inverse_helmholtz(f)
        x, _ = grid64.xy()
        assert np.max(np.abs(g.values - np.sin(k * x))) <= 1e-12

    def test_round_trip(self, grid_small):
        """(I - Lap) applied densely to inverse_helmholtz(f) returns f."""
        f = random_band_limited(grid_small, 11)
        g = inverse_helmholtz(ScalarField(grid_small, f))
        back = dense_helmholtz_matrix(grid_small) @ g.values.ravel()
        assert np.max(np.abs(back.reshape(grid_small.shape) - f)) <= 1e-10

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), alpha=st.floats(-3.0, 3.0), beta=st.floats(-3.0, 3.0))
    def test_linearity(self, seed, alpha, beta):
        g = GridSpec(16, 12, 3.0, 2.0)
        f1 = ScalarField(g, random_band_limited(g, seed))
        f2 = ScalarField(g, random_band_limited(g, seed + 1))
        lhs = inverse_helmholtz(f1 * alpha + f2 * beta)
        rhs = inverse_helmholtz(f1) * alpha + inverse_helmholtz(f2) * beta
        assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-12


class TestHouLi:
    def test_zero_mode_untouched(self, grid_small):
        mult = hou_li_multiplier(grid_small, 12.0)
        assert mult[0, 0] == 1.0

    def test_nyquist_mode_value(self):
        """At (kxmax, 0) with a = 12 the multiplier is exactly exp(-36)."""
        g = GridSpec(64, 64, 5000.0, 5000.0)
        mult = hou_li_multiplier(g, 12.0)
        expected = 2.319522830243569e-16  # np.exp(-36.0)
        assert abs(mult[g.nx // 2, 0] - expected) <= 1e-18
        assert mult[g.nx // 2, 0] == np.exp(-36.0)

    def test_constant_unchanged(self, grid_small):
        for a in (2.0, 12.0, 36.0):
            f = ScalarField.constant(grid_small, 4.2)
            out = hou_li_filter(f, a)
            assert np.allclose(out.values, 4.2, atol=1e-14)

    def test_monotone_decay_along_axis(self, grid64):
        mult = hou_li_multiplier(grid64, 12.0)
        along_kx = mult[: grid64.nx // 2 + 1, 0]
        assert np.all(np.diff(along_kx) <= 0.0)
        along_ky = mult[0, :]
        assert np.all(np.diff(along_ky) <= 0.0)

    def test_rejects_nonpositive_exponent(self, grid_small):
        with pytest.raises(ValueError):
            hou_li_multiplier(grid_small, 0.0)
        with pytest.raises(ValueError):
            hou_li_filter(ScalarField.zeros(grid_small), -1.0)

    def test_grid_caches_read_only_multiplier(self, grid_small):
        _hou_li.cache_clear()
        _hou_li(grid_small, 12.0)
        copied = pickle.loads(pickle.dumps(grid_small))
        for g in (grid_small, copied):
            for a in (12.0, 36.0):
                cached = _hou_li(g, a)
                assert np.array_equal(cached, hou_li_multiplier(g, a))
                assert _hou_li(g, a) is cached
                with pytest.raises(ValueError):
                    cached[0, 0] = 0.5

    def test_grid_caches_fill_safely_from_threads(self):
        """More threads than cores race to fill a fresh grid's caches; every
        one reads the same read-only values."""
        _hou_li.cache_clear()
        _h1_weight.cache_clear()
        grid = GridSpec(64, 64, 5000.0, 5000.0)
        got = []

        def read():
            for _ in range(20):
                got.append((_hou_li(grid, 36.0), _h1_weight(grid)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 160
        fresh = GridSpec(64, 64, 5000.0, 5000.0)
        mult_ref = hou_li_multiplier(fresh, 36.0)
        kx, ky = fresh._ikx_odd.imag, fresh._iky_odd.imag
        weight_ref = 1.0 + (kx[:, None] ** 2 + ky[None, :] ** 2)
        for mult, weight in got:
            assert not mult.flags.writeable and not weight.flags.writeable
            assert np.array_equal(mult, mult_ref)
            assert np.array_equal(weight, weight_ref)

    def test_damps_highest_mode(self, grid_small):
        delta = np.zeros(grid_small.shape)
        delta[0, 0] = 1.0
        f = ScalarField(grid_small, delta)
        out = hou_li_filter(f, 12.0)
        # a delta spreads over all modes; filtering must shrink the energy
        assert np.sum(out.values**2) < np.sum(f.values**2)


class TestResampling:
    def test_constant_both_ways(self):
        fine = GridSpec(64, 64, 5.0, 5.0)
        coarse = GridSpec(16, 16, 5.0, 5.0)
        c = ScalarField.constant(fine, 1.25)
        assert np.allclose(coarsen(c, coarse).values, 1.25, atol=1e-14)
        c2 = ScalarField.constant(coarse, -0.5)
        assert np.allclose(refine(c2, fine).values, -0.5, atol=1e-14)

    def test_coarsen_refine_round_trip(self):
        coarse = GridSpec(16, 16, 2.0, 2.0)
        fine = GridSpec(64, 64, 2.0, 2.0)
        g = ScalarField(coarse, random_band_limited(coarse, 21, modes=5))
        back = coarsen(refine(g, fine), coarse)
        assert np.max(np.abs(back.values - g.values)) <= 1e-12

    def test_low_mode_survives_both_maps(self):
        coarse = GridSpec(16, 16, 2.0, 2.0)
        fine = GridSpec(64, 64, 2.0, 2.0)
        kx, ky = 3, 2  # below the coarse Nyquist of 8
        f = ScalarField.from_function(
            fine,
            lambda x, y: np.cos(TWO_PI * (kx * x / 2.0 + ky * y / 2.0) + 0.3),
        )
        down = coarsen(f, coarse)
        expected_coarse = ScalarField.from_function(
            coarse,
            lambda x, y: np.cos(TWO_PI * (kx * x / 2.0 + ky * y / 2.0) + 0.3),
        )
        assert np.max(np.abs(down.values - expected_coarse.values)) <= 1e-12
        up = refine(down, fine)
        assert np.max(np.abs(up.values - f.values)) <= 1e-12

    def test_refine_preserves_integral(self):
        coarse = GridSpec(16, 16, 2.0, 2.0)
        fine = GridSpec(64, 64, 2.0, 2.0)
        g = ScalarField(coarse, random_band_limited(coarse, 31, offset=2.0))
        assert domain_integral(refine(g, fine)) == pytest.approx(
            domain_integral(g), abs=1e-12
        )

    def test_incompatible_grids_rejected(self):
        fine = GridSpec(64, 64, 2.0, 2.0)
        with pytest.raises(ValueError, match="nx 24 must divide the fine grid's nx 64"):
            coarsen(ScalarField.zeros(fine), GridSpec(24, 24, 2.0, 2.0))
        with pytest.raises(ValueError, match="lx 3.0 must equal the fine grid's lx 2.0"):
            coarsen(ScalarField.zeros(fine), GridSpec(16, 16, 3.0, 2.0))
        coarse = GridSpec(16, 16, 2.0, 2.0)
        with pytest.raises(ValueError, match="nx 16 must divide the fine grid's nx 40"):
            refine(ScalarField.zeros(coarse), GridSpec(40, 40, 2.0, 2.0))

    @staticmethod
    def ifft2_real(values, grid, new_grid):
        # the resampling as a view: the real part of the complex ifft2 array
        fh = np.fft.fft2(values) / (grid.nx * grid.ny)
        fh = _resample_modes(_resample_modes(fh, new_grid.nx, 0), new_grid.ny, 1)
        return np.fft.ifft2(fh * (new_grid.nx * new_grid.ny)).real

    @pytest.mark.parametrize("down", [True, False])
    @pytest.mark.parametrize("cnx, cny", [(16, 12), (16, 48), (64, 12), (64, 48)])
    def test_resampled_values_own_their_memory(self, down, cnx, cny):
        """coarsen and refine return values that own their memory, so a
        field does not pin the complex ifft2 array, twice its size; they
        are that array's real part bit for bit, laid out in its stride
        order (np.mean sums in memory order), whichever axes change."""
        fine, coarse = GridSpec(64, 48, 2.0, 1.5), GridSpec(cnx, cny, 2.0, 1.5)
        src, dst = (fine, coarse) if down else (coarse, fine)
        f = ScalarField(src, random_band_limited(src, 41, modes=5))
        got = (coarsen if down else refine)(f, dst).values
        ref = self.ifft2_real(f.values, src, dst)
        assert got.base is None and got.shape == dst.shape
        assert np.array_equal(got, ref)
        assert list(np.argsort(got.strides)) == list(np.argsort(ref.strides))

    def test_observation_variances_are_unchanged(self):
        """observe's variances, means over the coarsened values, equal
        those of the ifft2 array's real part bit for bit."""
        fine, coarse = GridSpec(64, 64, 5000.0, 5000.0), GridSpec(16, 16, 5000.0, 5000.0)
        params = ModelParams()
        truth = double_vortex_ic(VortexIC(ox=0.12, oy=0.08), fine, params)
        obs = observe(truth, coarse)
        for name, f in (("h", truth.h), ("omega", vorticity_of(truth))):
            ref = self.ifft2_real(f.values, fine, coarse)
            assert obs.r[name] == 0.01 * float(np.mean(ref**2))


def test_domain_integral_is_mean_times_area(grid_small):
    f = ScalarField.constant(grid_small, 3.0)
    assert domain_integral(f) == pytest.approx(3.0 * grid_small.area)


def test_operations_preserve_grid(grid_small):
    f = ScalarField(grid_small, random_band_limited(grid_small, 5))
    gx, gy = gradient(f)
    assert gx.grid == grid_small and gy.grid == grid_small
    assert inverse_helmholtz(f).grid == grid_small
    assert hou_li_filter(f, 12.0).grid == grid_small


def test_deriv_nyquist_mode_is_zeroed(grid_small):
    """Odd derivative of the pure Nyquist mode is 0, the standard
    pseudo-spectral convention (the alternative leaks an imaginary part)."""
    g = grid_small
    x, _ = g.xy()
    nyq = np.cos(np.pi * g.nx * x / g.lx)  # (-1)^i pattern along x
    d = _deriv(nyq, g, 0)
    assert np.max(np.abs(d)) <= 1e-12


class TestTransformPair:
    """`_rfft2` and `_irfft2` call numpy's private pocketfft gufuncs as
    np.fft.rfftn and irfftn do, with the same factors and axes, so their
    results equal numpy's public 2-D transforms bit for bit; on each numpy
    the project runs on, this is what guards the private module."""

    SHAPES = [(16, 12), (3, 16, 12), (2, 3, 64, 64)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_forward_equals_rfft2(self, shape):
        x = np.random.default_rng(1).standard_normal(shape)
        ref = np.fft.rfft2(x)
        assert _rfft2(x).tobytes() == ref.tobytes()
        out = np.empty_like(ref)
        assert _rfft2(x, out) is out
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_inverse_equals_irfft2(self, shape):
        xh = np.fft.rfft2(np.random.default_rng(2).standard_normal(shape))
        ref = np.fft.irfft2(xh, s=shape[-2:])
        kept = xh.copy()
        assert _irfft2(xh, shape[-2:]).tobytes() == ref.tobytes()
        out, tmp = np.empty(shape), np.empty_like(xh)
        assert _irfft2(xh, shape[-2:], out, tmp) is out
        assert out.tobytes() == ref.tobytes()
        assert xh.tobytes() == kept.tobytes()
        # the spectrum itself as the scratch: consumed, with the same result
        assert _irfft2(xh, shape[-2:], tmp=xh).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("shape", [(4, 3, 16, 16), (4, 4, 64, 64), (4, 1, 256, 256)])
    def test_a_stack_equals_its_slices(self, shape):
        """One call on a stack (4, B, nx, ny) transforms each field of each
        member bit for bit as a call on that slice alone, both ways; the
        kernels make one call per stack on this."""
        x = np.random.default_rng(3).standard_normal(shape)
        xh = _rfft2(x)
        back = _irfft2(xh, shape[-2:])
        for i in np.ndindex(shape[:-2]):
            assert xh[i].tobytes() == _rfft2(x[i]).tobytes()
            assert back[i].tobytes() == _irfft2(xh[i], shape[-2:]).tobytes()

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_grad_hat_equals_two_derivatives(self, n):
        """`_grad_hat`, the two odd derivatives of one spectrum from one
        inverse call, equals `_deriv` along each axis bit for bit, for a
        single field and for a stack of members."""
        g = GridSpec(n, n, 5000.0, 5000.0)
        f = np.random.default_rng(4).standard_normal((3, n, n))
        for x in (f[0], f):
            grad = _grad_hat(_rfft2(x), g)
            for axis in (0, 1):
                ref = np.stack([_deriv(v, g, axis) for v in x.reshape(-1, n, n)])
                assert grad[axis].tobytes() == ref.reshape(x.shape).tobytes()
        # into `out`, with the scratch `tmp`
        fh = _rfft2(f)
        out, tmp = np.empty((2, *f.shape)), np.empty((2, *fh.shape), dtype=complex)
        assert _grad_hat(fh, g, out, tmp) is out
        assert out.tobytes() == _grad_hat(fh, g).tobytes()

    def test_step_loops_call_no_numpy_nd_wrapper(self, monkeypatch):
        """The morph loop (tensor and naive), the model loop and the nudge
        make no call to np.fft's real n-D wrappers."""
        grid, params = GridSpec(16, 16, 5000.0, 5000.0), ModelParams(dt=5.0)
        truth = double_vortex_ic(VortexIC(), grid, params)
        states = [double_vortex_ic(VortexIC(ox=0.1 * i), grid, params) for i in (1, 2)]
        targets = {"h": truth.h, "omega": vorticity_of(truth)}
        calls = []
        for name in ("rfft2", "rfftn", "irfft2", "irfftn"):
            def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        morph = MorphParams(epsilon=10.0, n_steps=3)
        observed = _target_spectra(targets, grid)
        _run_morph_batch(states, observed, morph)
        _run_morph_batch(states, observed, morph, naive=True)
        _integrate_batch(states, 3, params)
        nudge(states[0], targets, params, 0.5, 3)
        assert calls == []
