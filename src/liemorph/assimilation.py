"""Twin-experiment data assimilation: observations, ensembles, EnKF.

Observations are the truth's h and vorticity spectrally projected to a
coarse grid, taken error-free but assigned the prescribed variances
r = 0.01 * mean(obs^2).  The analysis is a stochastic perturbed-observation
EnKF computed on the coarse grid; increments are refined spectrally back to
the fine grid.  The gain is formed in ensemble space (Evensen 2003; Hunt et
al. 2007): a thin SVD of the R^-1/2-scaled d x Ne observation anomalies
gives Ne x d weights W with K = Z_anom W, so the analysis costs
O((n + d) Ne^2) time and O((n + d) Ne) memory for n state and d observed
values, and no n x d or d x d matrix is ever formed.

Both per-member stages, the spin-up and the morph, run members in batches:
contiguous runs of members that advance in lockstep through the spectral
kernels (`tsw_model._integrate_batch`, `morph_engine._run_morph_batch`),
one FFT call per field for the whole batch.  A batch runs in-process with
workers = 1 and as one pool job otherwise; results do not depend on the
batching.  When a batch fails, the error names the lowest-index member
that failed at the batch's first failing step, where serial code named
the first failing member.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .morph_engine import ObservablePair, _run_morph_batch
from .forms import DiffForm
from .spectral_core import GridSpec, ScalarField, coarsen, refine
from .tsw_model import InstabilityError, TSWState, _integrate_batch, double_vortex_ic, vorticity_of

# Not called here: perfbench/tracing.py wraps it at this module's
# attribute, which is kept so that its span still resolves.
from .morph_engine import run_morph  # noqa: F401

__all__ = [
    "ObsSet",
    "Ensemble",
    "observe",
    "generate_ensemble",
    "draw_center_offsets",
    "kalman_gain",
    "enkf_analysis",
    "morphed_enkf",
]


@dataclass
class ObsSet:
    """Coarse-grid observations of h and omega with their variances."""

    grid: GridSpec
    h_obs: ScalarField
    omega_obs: ScalarField
    r_h: float
    r_omega: float

    def __post_init__(self):
        if self.h_obs.grid != self.grid or self.omega_obs.grid != self.grid:
            raise ValueError("observation fields must live on the obs grid")
        if self.r_h < 0 or self.r_omega < 0:
            raise ValueError("observation variances must be nonnegative")


@dataclass
class Ensemble:
    """A list of TSWState members plus the seed that generated them."""

    members: list
    rng_seed: int

    def __post_init__(self):
        if len(self.members) < 2:
            raise ValueError("need at least 2 members for covariance estimation")
        grid = self.members[0].grid
        for m in self.members:
            if m.grid != grid:
                raise ValueError("members on mismatched grids")

    @property
    def grid(self):
        return self.members[0].grid

    def __len__(self):
        return len(self.members)


def observe(truth, coarse):
    """Coarsen the truth's h and omega; r = 0.01 * mean(obs^2) per field."""
    h_obs = coarsen(truth.h, coarse)
    omega_obs = coarsen(vorticity_of(truth), coarse)
    r_h = 0.01 * float(np.mean(h_obs.values**2))
    r_omega = 0.01 * float(np.mean(omega_obs.values**2))
    return ObsSet(coarse, h_obs, omega_obs, r_h, r_omega)


def draw_center_offsets(rng, ne, mean=0.1, std=0.1):
    """Per-member (ox, oy) draws from N(mean, std^2); shape (ne, 2)."""
    return rng.normal(mean, std, size=(ne, 2))


# Largest batched field, in bytes: a batch holds at most this many bytes
# per (B, nx, ny) float64 field.  Measured on 2 vCPUs (numpy 2.4.6), in ms
# per member-step at B = 1 / 2 / 4 / 8: at 64^2 the morph took 3.03 / 2.15 /
# 1.98 / 1.92 and the model 1.34 / 1.20 / 0.93 / 1.07, as members share the
# per-call overhead; at 128^2 the morph took 8.58 / 8.95 / 9.02 / 9.63 and
# the model 4.21 / 4.12 / 4.29 / 4.76; at 256^2 (B = 1 / 2 / 4) the morph
# took 38.0 / 38.8 / 39.7 and the model 17.4 / 19.1 / 20.6, as larger
# batches fall out of cache.  So 8 members batch at 64^2, 2 at 128^2
# (within 4% of B = 1) and 1, the per-member kernel, at 256^2 and above.
_BATCH_BYTES = 2**18


def _batch_size(ne, workers, grid):
    # at most ceil(ne / workers), so that every worker gets a batch
    return min(math.ceil(ne / workers), max(1, _BATCH_BYTES // (8 * grid.nx * grid.ny)))


def _run_batches(job, batches, workers):
    """job(batch) for each batch, flattened into one list in member order;
    in-process with workers = 1, else one pool job per batch."""
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(job, batches))
    else:
        results = [job(b) for b in batches]
    return [r for batch in results for r in batch]


def _spin_up(args):
    ics, start, grid, spinup_steps, params = args
    states = [double_vortex_ic(ic, grid, params) for ic in ics]
    try:
        return _integrate_batch(states, spinup_steps, params)
    except InstabilityError as err:
        raise InstabilityError(f"member {start + err.member} spin-up failed: {err}") from err


def generate_ensemble(
    base_ic,
    grid,
    ne,
    seed,
    spinup_steps,
    params,
    perturb_mean=0.1,
    perturb_std=0.1,
    workers=1,
):
    """Spin up ne members from center-perturbed initial conditions.

    (ox, oy) are drawn from N(perturb_mean, perturb_std^2) with a seeded
    generator, so identical seeds give bit-identical ensembles.  Members
    spin up in batches (see the module docstring); workers > 1 runs the
    batches in separate processes with identical results.
    """
    if ne < 2:
        raise ValueError("need at least 2 members")
    rng = np.random.default_rng(seed)
    offsets = draw_center_offsets(rng, ne, perturb_mean, perturb_std)
    ics = [replace(base_ic, ox=float(ox), oy=float(oy)) for ox, oy in offsets]
    size = _batch_size(ne, workers, grid)
    batches = [
        (ics[i : i + size], i, grid, spinup_steps, params) for i in range(0, ne, size)
    ]
    return Ensemble(_run_batches(_spin_up, batches, workers), rng_seed=seed)


def _gain_weights(y_anom, r_diag):
    """Ne x d weights W of the gain K = z_anom @ W, in ensemble space.

    With S = R^-1/2 y_anom / sqrt(Ne-1) = U diag(s) V^T (thin SVD),
    K = C_zy (C_yy + R)^-1 = z_anom V diag(s / (1 + s^2)) U^T R^-1/2
    / sqrt(Ne-1).  s / (1 + s^2) stays exact for huge s (tiny R), where an
    eigendecomposition of S^T S would lose the small eigenvalues.  R must
    be positive definite.
    """
    scale = 1.0 / (np.sqrt(r_diag) * np.sqrt(y_anom.shape[1] - 1))
    u, s, vt = np.linalg.svd(y_anom * scale[:, None], full_matrices=False)
    return (vt.T * (s / (1.0 + s * s))) @ (u.T * scale)


def kalman_gain(z_anom, y_anom, r_diag):
    """K = C_zy (C_yy + R)^-1 from anomaly matrices.

    z_anom is n x Ne, y_anom is d x Ne (means already removed), r_diag the
    positive diagonal of R.  Covariances use the 1/(Ne-1) estimator.  The
    gain is computed in ensemble space (see _gain_weights) in
    O((n + d) Ne^2) time; only the returned n x d matrix is of that size.
    """
    if np.any(r_diag <= 0):
        raise ValueError("observation variances must be positive")
    return z_anom @ _gain_weights(y_anom, r_diag)


def _member_obs_vector(state, coarse):
    # predicted observations, computed exactly as observe() does
    h = coarsen(state.h, coarse).values.ravel()
    w = coarsen(vorticity_of(state), coarse).values.ravel()
    return np.concatenate([h, w])


def _member_state_vector(state, coarse):
    return np.concatenate(
        [coarsen(f, coarse).values.ravel() for f in state.fields()]
    )


def enkf_analysis(ensemble, obs, obs_noise_seed):
    """Stochastic perturbed-observation EnKF analysis on the coarse grid.

    The coarse state vector stacks (h, Theta, v1, v2); the observation
    vector stacks (h, omega) diagnostics.  Analysis increments are refined
    spectrally to the fine grid and added to the members.
    """
    if obs.r_h <= 0 or obs.r_omega <= 0:
        raise ValueError(
            "observation variances must be positive (identically zero "
            "observations are rejected)"
        )
    coarse = obs.grid
    fine = ensemble.grid
    ne = len(ensemble)
    nc = coarse.nx * coarse.ny

    z = np.stack([_member_state_vector(m, coarse) for m in ensemble.members], axis=1)
    y = np.stack([_member_obs_vector(m, coarse) for m in ensemble.members], axis=1)
    z_anom = z - z.mean(axis=1, keepdims=True)
    y_anom = y - y.mean(axis=1, keepdims=True)

    r_diag = np.concatenate([np.full(nc, obs.r_h), np.full(nc, obs.r_omega)])
    weights = _gain_weights(y_anom, r_diag)

    y_obs = np.concatenate([obs.h_obs.values.ravel(), obs.omega_obs.values.ravel()])
    rng = np.random.default_rng(obs_noise_seed)
    noise = rng.normal(0.0, 1.0, size=(2 * nc, ne)) * np.sqrt(r_diag)[:, None]
    innovations = y_obs[:, None] + noise - y
    dz = z_anom @ (weights @ innovations)

    new_members = []
    for i, member in enumerate(ensemble.members):
        fields = []
        for k, fld in enumerate(member.fields()):
            inc_coarse = ScalarField(coarse, dz[k * nc : (k + 1) * nc, i].reshape(coarse.shape))
            fields.append(fld + refine(inc_coarse, fine))
        try:
            new_members.append(TSWState(*fields, time=member.time))
        except InstabilityError as err:
            raise InstabilityError(f"analysis member {i}: {err}") from err
    return Ensemble(new_members, rng_seed=ensemble.rng_seed)


def _targets_from_obs(obs, fine):
    return [
        ObservablePair("h", DiffForm.from_scalar(2, refine(obs.h_obs, fine))),
        ObservablePair("omega", DiffForm.from_scalar(2, refine(obs.omega_obs, fine))),
    ]


def _morph(args):
    members, start, targets, morph_params, solver_params, naive = args
    try:
        return _run_morph_batch(members, targets, morph_params, solver_params, naive)
    except InstabilityError as err:
        raise InstabilityError(f"morph of member {start + err.member}: {err}") from err


def morph_ensemble(
    ensemble, obs, morph_params, solver_params=None, naive=False, workers=1
):
    """Morph every member toward the observations (step 2-3 of the pipeline).

    Member morphs are independent and run in batches (see the module
    docstring); each member's state and trace equal its own `run_morph`.
    workers > 1 runs the batches in separate processes with identical
    results.  Returns the morphed ensemble and the per-member traces.
    """
    targets = _targets_from_obs(obs, ensemble.grid)
    members = ensemble.members
    size = _batch_size(len(members), workers, ensemble.grid)
    batches = [
        (members[i : i + size], i, targets, morph_params, solver_params, naive)
        for i in range(0, len(members), size)
    ]
    results = _run_batches(_morph, batches, workers)
    morphed = Ensemble([st for st, _ in results], rng_seed=ensemble.rng_seed)
    traces = [tr for _, tr in results]
    return morphed, traces


def morphed_enkf(
    ensemble,
    obs,
    morph_params,
    obs_noise_seed,
    solver_params=None,
    naive=False,
    workers=1,
):
    """Morph every member toward the observations, then run the plain EnKF.

    Returns the analysis ensemble and the per-member morph traces.
    """
    morphed, traces = morph_ensemble(
        ensemble, obs, morph_params, solver_params, naive=naive, workers=workers
    )
    analysis = enkf_analysis(morphed, obs, obs_noise_seed)
    return analysis, traces
