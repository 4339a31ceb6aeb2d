"""Checks of one run's written outputs, read back from disk.

- the manifest lists exactly the files present, with matching sizes and
  SHA-256 digests;
- every dumped field is finite, and every h and Theta field is positive;
- over each member's morph, mass drifts by at most 1e-10 of the mass and
  total vorticity by at most 1e-10 of the circulation scale
  max|omega_prior| * lx * ly (acceptance criterion 1's definition).

The posterior MSE is reported, never gated: at paper shape it does not
fall today.
"""

import csv
import hashlib
import json
import os

import numpy as np

DRIFT_TOL = 1e-10
POSITIVE_FIELDS = ("h", "theta")


def _read(out_dir, rel):
    with open(os.path.join(out_dir, rel), "rb") as fh:
        return fh.read()


def _field(out_dir, base):
    meta = json.loads(_read(out_dir, base + ".json"))
    values = np.frombuffer(_read(out_dir, base + ".f64"), dtype="<f8")
    return meta, values


def _trace_columns(out_dir, rel):
    with open(os.path.join(out_dir, rel), newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}


def check_outputs(out_dir):
    """Return (errors, facts) for the outputs in out_dir.

    facts holds what the metrics need: the manifest bytes, the emitted
    size and file count, the metrics.csv rows and the morph traces.
    """
    errors = []
    manifest_bytes = _read(out_dir, "manifest.json")
    listed = {e["path"]: e for e in json.loads(manifest_bytes)["files"]}
    present = set()
    for dirpath, _, names in os.walk(out_dir):
        for name in names:
            present.add(os.path.relpath(os.path.join(dirpath, name), out_dir))
    present.discard("manifest.json")
    if present != set(listed):
        errors.append(f"manifest lists {len(listed)} files, {len(present)} present")
    for rel, entry in sorted(listed.items()):
        if rel not in present:
            continue
        blob = _read(out_dir, rel)
        if len(blob) != entry["bytes"] or hashlib.sha256(blob).hexdigest() != entry["sha256"]:
            errors.append(f"{rel}: size or digest differs from the manifest")

    for rel in sorted(listed):
        if not (rel.startswith("fields/") and rel.endswith(".json")):
            continue
        meta, values = _field(out_dir, rel[:-5])
        if values.size != meta["nx"] * meta["ny"]:
            errors.append(f"{rel}: {values.size} values for {meta['nx']}x{meta['ny']}")
        elif not np.all(np.isfinite(values)):
            errors.append(f"{rel}: non-finite values")
        elif meta["name"] in POSITIVE_FIELDS and values.min() <= 0:
            errors.append(f"{rel}: min {values.min():.4g} not positive")

    traces = {}
    for rel in sorted(listed):
        if not rel.startswith("traces/morph_m"):
            continue
        member = int(rel[len("traces/morph_m"):-len(".csv")])
        cols = _trace_columns(out_dir, rel)
        traces[member] = cols
        meta, omega = _field(out_dir, f"fields/prior_omega_m{member:02d}")
        circulation = np.max(np.abs(omega)) * meta["lx"] * meta["ly"]
        mass, vort = cols["mass"], cols["vorticity_total"]
        mass_drift = np.max(np.abs(mass - mass[0])) / abs(mass[0])
        vort_drift = np.max(np.abs(vort - vort[0])) / circulation
        if not mass_drift <= DRIFT_TOL:
            errors.append(f"{rel}: mass drift {mass_drift:.3e}")
        if not vort_drift <= DRIFT_TOL:
            errors.append(f"{rel}: vorticity drift {vort_drift:.3e}")

    with open(os.path.join(out_dir, "metrics.csv"), newline="") as fh:
        mse = {(r["stage"], r["variable"], r["kind"]): float(r["value"])
               for r in csv.DictReader(fh)}
    facts = {
        "manifest": manifest_bytes,
        "emit_bytes": sum(e["bytes"] for e in listed.values()) + len(manifest_bytes),
        "emit_files": len(listed) + 1,
        "metrics": mse,
        "traces": traces,
    }
    return errors, facts
