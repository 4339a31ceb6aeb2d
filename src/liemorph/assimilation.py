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
whose FFT calls each transform a stack of the whole batch's fields.  The batches are shared out
among min(workers, batch count) threads of the calling process: the
calling thread runs one share and a plain `threading.Thread` each other
share, with no pool, so workers = 1 runs them one after another in the
calling thread.  Results do not depend on the batching or the worker
count.  When batches fail,
the error is that of the lowest-index failing batch; it names the
lowest-index member that failed at the batch's first failing step, where
serial code named the first failing member, and is chained to the
kernel's own error.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, replace
from threading import Event, Thread

import numpy as np

from .morph_engine import _OBSERVABLES, _run_morph_batch, _target_spectra
from .spectral_core import GridSpec, ScalarField, _is_int, _is_real, coarsen, refine
from .tsw_model import InstabilityError, TSWState, _integrate_batch, double_vortex_ic

# A perfbench span's attribute (tests/test_reachability.py, REFERENCE)
from .morph_engine import run_morph  # noqa: F401

__all__ = [
    "ObsSet",
    "Ensemble",
    "observe",
    "generate_ensemble",
    "draw_center_offsets",
    "CENTER_OFFSET",
    "kalman_gain",
    "enkf_analysis",
]


@dataclass
class ObsSet:
    """Coarse-grid observations by name: name -> ScalarField and name -> variance."""

    grid: GridSpec
    fields: dict
    r: dict

    def __post_init__(self):
        if not self.fields:
            raise ValueError("an observation set needs at least one observed field")
        if self.r.keys() != self.fields.keys():
            raise ValueError("observation variances must name the observed fields")
        if not self.fields.keys() <= _OBSERVABLES.keys():
            raise ValueError(f"observables must be among {list(_OBSERVABLES)}")
        if any(f.grid != self.grid for f in self.fields.values()):
            raise ValueError("observation fields must live on the obs grid")
        if not all(_is_real(r) and r >= 0 for r in self.r.values()):
            raise ValueError(f"observation variances r must be finite and >= 0, got {self.r}")


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


def _observed(state, coarse, names):
    # the observation operator: each named observable of the state, coarsened
    return {name: coarsen(_OBSERVABLES[name].of_state(state), coarse) for name in names}


def observe(truth, coarse):
    """Coarsen the truth's h and omega; r = 0.01 * mean(obs^2) per field."""
    fields = _observed(truth, coarse, _OBSERVABLES)
    r = {name: 0.01 * float(np.mean(f.values**2)) for name, f in fields.items()}
    return ObsSet(coarse, fields, r)


# The reference draw of the members' vortex center offsets (ox, oy), in
# units of VortexIC.radius: N(mean, std^2) in each coordinate.
CENTER_OFFSET = namedtuple("CenterOffset", "mean std")(mean=0.1, std=0.1)


def draw_center_offsets(rng, ne, mean=CENTER_OFFSET.mean, std=CENTER_OFFSET.std):
    """Per-member (ox, oy) draws from N(mean, std^2); shape (ne, 2)."""
    return rng.normal(mean, std, size=(ne, 2))


# Largest batched field, in bytes: a batch holds at most this many bytes
# per (B, nx, ny) float64 field.  Measured on 2 vCPUs (numpy 2.4.6), one
# thread, median ms per member-step over 10 interleaved rounds at B = 1 /
# 2 / 4 / 8: 64^2 morph 1.03 / 1.24 / 0.96 / 0.99, model 0.72 / 0.67 /
# 0.63 / 0.69; 128^2 morph 4.46 / 5.09 / 4.95 / 4.77, model 2.93 / 3.95 /
# 3.44 / 3.68; 256^2 (B = 1 / 2 / 4) morph 21.3 / 25.7 / 22.3, model 17.1
# / 18.9 / 18.3.  Quartiles spread 10-30%, and 12 alternating pairs a
# size found no other size better for both kernels.  So 8 members batch
# at 64^2, 2 at 128^2 and 1, the per-member kernel, at 256^2 and above.
_BATCH_BYTES = 2**18


def _batch_size(ne, workers, grid):
    # at most ceil(ne / workers), so that every worker gets a batch
    return min(math.ceil(ne / workers), max(1, _BATCH_BYTES // (8 * grid.nx * grid.ny)))


def _run_batches(kernel, items, grid, workers, failure):
    """kernel(batch, stop) for each batch of items, flattened into one list
    in member order.

    The batches are dealt into T = min(workers, batch count) shares, share
    t taking batches t, t + T, ... in order.  The calling thread runs share
    0 and starts one thread for each of the others, which it joins, so one
    share starts no thread.  The kernels spend their time in numpy FFTs
    and ufuncs, which release the GIL at these array sizes, so threads run
    batches in parallel without a second interpreter.  Batches share no mutable
    state; the per-grid multiplier caches they share are deterministic
    and read-only.  An InstabilityError of batch member j is re-raised as
    failure.format(start + j, error), chained to it.

    Each batch has its own stop event.  A failing batch sets the events
    of the batches after it, which then end at their next step with a
    `tsw_model.Cancelled` that no one reads, or never start; the batches
    before it run to their end, and the error raised in the calling thread,
    once every thread has ended, is that of the lowest-index failing batch,
    whichever share ran it.  Only the calling thread receives an interrupt,
    so on its way out it sets every event before it joins the threads:
    after an interrupt the other shares end at their next step, not at
    their last.
    """
    if not (_is_int(workers) and workers >= 1):
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    size = _batch_size(len(items), workers, grid)
    starts = range(0, len(items), size)
    shares = min(workers, len(starts))
    stops = [Event() for _ in starts]
    results, errors = [None] * len(starts), {}

    def job(b):
        start = starts[b]
        try:
            return kernel(items[start : start + size], stops[b])
        except InstabilityError as err:
            raise InstabilityError(failure.format(start + err.member, err)) from err

    def run_share(first):
        for b in range(first, len(starts), shares):
            if stops[b].is_set():
                return
            try:
                results[b] = job(b)
            except Exception as err:
                errors[b] = err
                for later in stops[b + 1 :]:
                    later.set()
                return

    threads = []
    try:
        for first in range(1, shares):
            thread = Thread(target=run_share, args=(first,))
            thread.start()
            threads.append(thread)
        run_share(0)
        for thread in threads:
            thread.join()
    finally:
        for stop in stops:
            stop.set()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return [r for batch in results for r in batch]


def _spin_up(ics, grid, spinup_steps, params, workers):
    """Spin up one member from each initial condition, in batches."""

    def kernel(batch, stop):
        return _integrate_batch([double_vortex_ic(ic, grid, params) for ic in batch],
                                spinup_steps, params, stop=stop)

    return _run_batches(kernel, ics, grid, workers, "member {} spin-up failed: {}")


def _member_ics(base_ic, ne, seed, perturb_mean, perturb_std):
    """base_ic with the seeded center offsets (ox, oy) of members 0..ne-1."""
    rng = np.random.default_rng(seed)
    offsets = draw_center_offsets(rng, ne, perturb_mean, perturb_std)
    return [replace(base_ic, ox=float(ox), oy=float(oy)) for ox, oy in offsets]


def generate_ensemble(
    base_ic,
    grid,
    ne,
    seed,
    spinup_steps,
    params,
    perturb_mean=CENTER_OFFSET.mean,
    perturb_std=CENTER_OFFSET.std,
    workers=1,
):
    """Spin up ne members from center-perturbed initial conditions.

    (ox, oy) are drawn from N(perturb_mean, perturb_std^2) with a seeded
    generator, so identical seeds give bit-identical ensembles.  Members
    spin up in batches (see the module docstring); workers > 1 runs the
    batches on up to that many threads with identical results.
    """
    if ne < 2:
        raise ValueError("need at least 2 members")
    ics = _member_ics(base_ic, ne, seed, perturb_mean, perturb_std)
    return Ensemble(_spin_up(ics, grid, spinup_steps, params, workers), rng_seed=seed)


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


def _stacked(fields):
    # the fields' values, raveled and stacked into one vector
    return np.concatenate([f.values.ravel() for f in fields])


def enkf_analysis(ensemble, obs, obs_noise_seed):
    """Stochastic perturbed-observation EnKF analysis on the coarse grid.

    The coarse state vector stacks (h, Theta, v1, v2); the observation
    vector stacks `obs.fields` in order.  Analysis increments are refined
    spectrally to the fine grid and added to the members.
    """
    if any(r <= 0 for r in obs.r.values()):
        raise ValueError(
            "observation variances must be positive (identically zero "
            "observations are rejected)"
        )
    coarse = obs.grid
    fine = ensemble.grid
    ne = len(ensemble)
    nc = coarse.nx * coarse.ny

    # predicted observations; the state vector reuses their coarse h, if observed
    observed = [_observed(m, coarse, obs.fields) for m in ensemble.members]
    y = np.stack([_stacked(o.values()) for o in observed], axis=1)
    z = np.stack([_stacked([o["h"] if "h" in o else coarsen(m.h, coarse),
                            *(coarsen(f, coarse) for f in (m.theta, m.v1, m.v2))])
                  for m, o in zip(ensemble.members, observed)], axis=1)
    z_anom = z - z.mean(axis=1, keepdims=True)
    y_anom = y - y.mean(axis=1, keepdims=True)

    r_diag = np.concatenate([np.full(nc, obs.r[name]) for name in obs.fields])
    weights = _gain_weights(y_anom, r_diag)

    y_obs = _stacked(obs.fields.values())
    rng = np.random.default_rng(obs_noise_seed)
    noise = rng.normal(0.0, 1.0, size=(r_diag.size, ne)) * np.sqrt(r_diag)[:, None]
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
    # the morph targets: each observed field refined to the fine grid
    return {name: refine(f, fine) for name, f in obs.fields.items()}


def morph_ensemble(ensemble, obs, morph_params, naive=False, workers=1):
    """Morph every member toward the observations (step 2-3 of the pipeline).

    Member morphs are independent and run in batches (see the module
    docstring); each member's state and trace equal its own `run_morph`.
    The targets are refined and transformed once, and every batch reads
    that one copy of their spectra.  workers > 1 runs the batches on up to
    that many threads with identical results.  Returns the morphed
    ensemble, which the morphed EnKF passes to `enkf_analysis`, and the
    per-member traces.
    """
    observed = _target_spectra(_targets_from_obs(obs, ensemble.grid), ensemble.grid)
    results = _run_batches(
        lambda batch, stop: _run_morph_batch(batch, observed, morph_params, naive, stop),
        ensemble.members, ensemble.grid, workers, "morph of member {}: {}",
    )
    morphed = Ensemble([st for st, _ in results], rng_seed=ensemble.rng_seed)
    traces = [tr for _, tr in results]
    return morphed, traces

