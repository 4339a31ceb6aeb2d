"""liemorph benchmark: closed-loop pipeline runs of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Pipeline runs go one at a time, each in
a fresh process (perfbench/pipeline.py), and the next starts only when the
previous one has ended and its outputs are checked; new runs start until
S seconds have passed, at least one.  Every run uses the same seed, so its
outputs must equal the others' byte for byte.  With --trace 0, three
set-up-only processes are timed as well, and the end-to-end metrics are
printed.  With --trace 1, one untraced run is followed by one with layer
spans, FFT counts and members morphed serially, and the per-layer metrics
are printed.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.

The program is imported from src/ of the checkout; the benchmark exits
with code 2 when it is missing.  Outputs go to .perfbench/ in the
checkout, which only this benchmark uses.
"""

import argparse
import fcntl
import hashlib
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCH_DIR = ROOT / ".perfbench"

SETUP_PROBES = 3
DEADLINE_S = 170.0  # every run must end within 180 s
POLL_S = 0.1

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed with the end-to-end metrics but left out of their JSON, whose
# metrics must be nonzero on every workload and steady across seeds (see
# NOTES.md for the measured spreads): fail_frac is 0 on working code (the
# JSON carries it as failed/attempted), morph_steps_per_s has no value on
# desk-plain, the stage rates and analysis_s of one run swing with the
# host's speed, and the posterior MSEs are fixed by the seed and spread
# over seeds.  All but fail_frac are also reported with the per-layer
# metrics, from the untraced run.
UNBOUNDED = {
    "model_steps_per_s": "1/s", "morph_steps_per_s": "1/s", "analysis_s": "s",
    "posterior_h_mse": "1", "posterior_theta_mse": "1", "posterior_omega_mse": "1",
}
PER_LAYER = {
    **UNBOUNDED,
    "spectral_core.fft_pairs_per_morph_step": "count",
    "spectral_core.fft_bytes_per_morph_step": "B",
    "spectral_core.fft_pairs_per_model_step": "count",
    "spectral_core.hou_li_filter_s": "s",
    "spectral_core.coarsen_refine_s": "s",
    "forms.lie_derivative_s": "s",
    "forms.lie_derivative_calls": "count",
    "forms.h1_norm_s": "s",
    "displacement_solver.solve_s": "s",
    "displacement_solver.combine_s": "s",
    "morph_engine.velocity_s": "s",
    "morph_engine.diagnostics_s": "s",
    "morph_engine.update_s": "s",
    "morph_engine.useful_step_frac": "1",
    "morph_engine.mse_h_ratio": "1",
    "tsw_model.ab3_step_s": "s",
    "tsw_model.ab3_step_calls": "count",
    "assimilation.kalman_gain_s": "s",
    "assimilation.enkf_s": "s",
    "assimilation.enkf_rss_mb": "MB",
    "assimilation.spinup_s": "s",
    "assimilation.morph_ensemble_s": "s",
    "assimilation.morph_parallel_eff": "1",
    "cli_experiments.truth_s": "s",
    "cli_experiments.stage_outputs_s": "s",
    "cli_experiments.emit_s": "s",
    "cli_experiments.emit_mb": "MB",
    "cli_experiments.emit_files": "count",
    "trace.overhead_frac": "1",
}


def _blas():
    """(library, version, threads) of the BLAS numpy is linked against."""
    import ctypes

    info = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return info.get("name"), info.get("version"), threads


def machine_facts():
    import scipy

    with open("/proc/meminfo") as fh:
        mem_kb = int(next(line for line in fh if line.startswith("MemTotal")).split()[1])
    blas, blas_version, blas_threads = _blas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(mem_kb / 1024),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_version": blas_version,
        "blas_threads": blas_threads,
        "mp_start_method": multiprocessing.get_start_method(),
    }


def source_digest():
    h = hashlib.sha256()
    for d in (SRC / "liemorph", HERE):
        for p in sorted(d.glob("*.py")):
            h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _tree_rss_kb(pid):
    """Summed VmRSS of pid and its descendants (shared pages per process)."""
    total, todo = 0, [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/status") as fh:
                total += next((int(line.split()[1]) for line in fh
                               if line.startswith("VmRSS:")), 0)
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children") as fh:
                    todo += [int(c) for c in fh.read().split()]
        except (FileNotFoundError, ProcessLookupError):
            pass  # exited while being read
    return total


def spawn(run_dir, deadline, *args):
    """Run pipeline.py in a fresh process and wait for it.

    Returns (exit code, peak RSS in MB, result dict or None).  The peak is
    the larger of the highest summed RSS of the process tree seen while
    polling and the largest single process's peak RSS reported at exit.
    """
    run_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("LIEMORPH_MAX_WORKERS", None)  # the workload fixes the worker count
    peak_kb = 0
    with open(run_dir / "stderr.txt", "w") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "pipeline.py"), *args, "--spawned", repr(spawned)],
            cwd=run_dir, env=env, stdout=err, stderr=err, start_new_session=True,
        )
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    raise TimeoutError
                peak_kb = max(peak_kb, _tree_rss_kb(proc.pid))
                time.sleep(POLL_S)
        except BaseException as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            pid, status, usage = os.wait4(proc.pid, 0)
            if not isinstance(exc, TimeoutError):
                raise
        finally:
            proc.returncode = os.waitstatus_to_exitcode(status)
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # pool workers left behind
            except ProcessLookupError:
                pass
    peak_mb = max(peak_kb, usage.ru_maxrss) / 1024
    result_path = run_dir / "result.json"
    result = json.loads(result_path.read_text()) if proc.returncode == 0 and result_path.exists() else None
    return proc.returncode, peak_mb, result


def span_sum(result, name, field="total_s", parent=None):
    return sum(s[field] for s in result["spans"]
               if s["name"] == name and (parent is None or s["parent"] == parent))


def pipeline_run(workload, run_dir, seed, deadline, trace=False):
    """One checked pipeline run; returns a record with 'errors' and metrics."""
    args = [workload, "--seed", str(seed)]
    if trace:
        args += ["--trace", "--workers", "1"]
    rc, peak_mb, result = spawn(run_dir, deadline, *args)
    rec = {"dir": str(run_dir), "errors": [], "peak_rss_mb": peak_mb}
    if result is None:
        tail = (run_dir / "stderr.txt").read_text().strip().splitlines()[-1:]
        rec["errors"].append(f"exit code {rc}: {' '.join(tail)}")
        return rec
    try:
        errors, facts = checks.check_outputs(str(run_dir / "out"))
    except (OSError, ValueError, KeyError) as exc:
        rec["errors"].append(f"unreadable outputs: {exc!r}")
        return rec
    cfg = result["config"]
    traces = facts["traces"]
    morph_s = span_sum(result, "assimilation.morph_ensemble")
    morph_steps = sum(len(c["mass"]) - 1 for c in traces.values())
    model_s = span_sum(result, "cli_experiments.truth") + span_sum(result, "assimilation.generate_ensemble")
    rec.update(
        errors=errors, result=result, facts=facts, config=cfg, morph_s=morph_s,
        morph_steps=morph_steps,
        run_s=result["run_s"],
        setup_s=result["setup_s"],
        model_steps_per_s=(cfg["truth_steps"] + cfg["members"] * cfg["spinup_steps"]) / model_s,
        morph_steps_per_s=morph_steps / morph_s if morph_s else 0.0,
        analysis_s=span_sum(result, "assimilation.enkf_analysis"),
    )
    for var in ("h", "theta", "omega"):
        key = ("posterior", var, "mean_field_mse")
        if key in facts["metrics"]:
            rec[f"posterior_{var}_mse"] = facts["metrics"][key]
        else:
            errors.append(f"metrics.csv has no posterior {var} mean-field MSE")
    return rec


def _outputs_digest(manifest_bytes):
    # config.json is left out: it records the worker count, which the
    # traced run changes; every other output must match byte for byte
    files = [e for e in json.loads(manifest_bytes)["files"] if e["path"] != "config.json"]
    return hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest()


def check_determinism(runs, workload, seed):
    """Same seed, same outputs: across this invocation's runs and, through
    a digest stored in .perfbench/, across earlier invocations of the same
    code in this checkout."""
    store = BENCH_DIR / "manifests" / f"{workload}-{seed}-{source_digest()[:16]}.sha256"
    ok = [r for r in runs if "facts" in r]
    if not ok:
        return
    digests = [_outputs_digest(r["facts"]["manifest"]) for r in ok]
    reference = store.read_text().strip() if store.exists() else digests[0]
    for r, d in zip(ok, digests):
        if d != reference:
            r["errors"].append(f"manifest {d[:12]} differs from {reference[:12]} of the same seed")
    if not store.exists():
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(reference + "\n")


def layer_metrics(traced, untraced):
    res, facts, cfg = traced["result"], traced["facts"], traced["config"]
    spans = lambda name, field="self_s", parent=None: span_sum(res, name, field, parent)  # noqa: E731
    per = lambda x, n: x / n if n else 0.0  # noqa: E731
    run_morph = "morph_engine.run_morph"
    model_steps = spans("tsw_model.ab3_step", "calls")

    useful = steps = 0
    ratios = []
    for cols in facts["traces"].values():
        obj = cols["mse_h"] / cols["mse_h"][0] + cols["mse_omega"] / cols["mse_omega"][0]
        useful += int(np.sum(np.diff(obj) < 0))
        steps += len(obj) - 1
        ratios.append(cols["mse_h"][-1] / cols["mse_h"][0])

    mem = untraced[0]["result"]["memory_kb"].get("assimilation.enkf_analysis")
    untraced_run_s = statistics.median(r["run_s"] for r in untraced)
    untraced_morph_s = statistics.median(r["morph_s"] for r in untraced)
    workers = untraced[0]["config"]["workers"]
    if workers > 1 and untraced_morph_s:
        # the traced run morphs serially, so compare the stages around the morph
        overhead = (traced["run_s"] - traced["morph_s"]) / (untraced_run_s - untraced_morph_s) - 1
        parallel_eff = traced["morph_s"] / (workers * untraced_morph_s)
    else:
        overhead = traced["run_s"] / untraced_run_s - 1
        parallel_eff = 0.0
    return {
        **{name: statistics.median(r[name] for r in untraced) for name in UNBOUNDED},
        "spectral_core.fft_pairs_per_morph_step":
            per(spans(run_morph, "fft_calls") / 2, traced["morph_steps"]),
        "spectral_core.fft_bytes_per_morph_step":
            per(spans(run_morph, "fft_bytes"), traced["morph_steps"]),
        "spectral_core.fft_pairs_per_model_step":
            per(spans("tsw_model.ab3_step", "fft_calls") / 2, model_steps),
        "spectral_core.hou_li_filter_s": spans("spectral_core.hou_li_filter"),
        "spectral_core.coarsen_refine_s":
            spans("spectral_core.coarsen") + spans("spectral_core.refine"),
        "forms.lie_derivative_s": spans("forms.lie_derivative"),
        "forms.lie_derivative_calls": spans("forms.lie_derivative", "calls"),
        "forms.h1_norm_s": spans("forms.h1_norm"),
        "displacement_solver.solve_s": spans("displacement_solver.displacement_from_2forms"),
        "displacement_solver.combine_s": spans("displacement_solver.combine_displacements"),
        "morph_engine.velocity_s": spans("morph_engine.morph_velocity")
            + spans("tsw_model.vorticity_of", "total_s", "morph_engine.morph_velocity"),
        "morph_engine.diagnostics_s": sum(
            spans(name, "total_s", run_morph) for name in
            ("morph_engine.field_mse", "morph_engine.conserved_totals", "tsw_model.vorticity_of")),
        "morph_engine.update_s": spans(run_morph),
        "morph_engine.useful_step_frac": per(useful, steps),
        "morph_engine.mse_h_ratio": statistics.mean(ratios) if ratios else 0.0,
        "tsw_model.ab3_step_s": spans("tsw_model.ab3_step"),
        "tsw_model.ab3_step_calls": model_steps,
        "assimilation.kalman_gain_s": spans("assimilation.kalman_gain", "total_s"),
        "assimilation.enkf_s": spans("assimilation.enkf_analysis", "total_s"),
        # growth of the peak RSS during the call; 0 when it stays below an
        # earlier peak
        "assimilation.enkf_rss_mb": max(0, mem[2] - max(mem[0], mem[1])) / 1024 if mem else 0.0,
        "assimilation.spinup_s": spans("assimilation.generate_ensemble", "total_s"),
        "assimilation.morph_ensemble_s": traced["morph_s"],
        "assimilation.morph_parallel_eff": parallel_eff,
        "cli_experiments.truth_s": spans("cli_experiments.truth", "total_s"),
        "cli_experiments.stage_outputs_s": spans("cli_experiments.stage_outputs", "total_s"),
        "cli_experiments.emit_s": spans("cli_experiments.emit_outputs", "total_s"),
        "cli_experiments.emit_mb": facts["emit_bytes"] / 1e6,
        "cli_experiments.emit_files": facts["emit_files"],
        "trace.overhead_frac": overhead,
    }


def run(args):
    deadline = time.monotonic() + DEADLINE_S
    facts = machine_facts()
    print("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    work = BENCH_DIR / "runs" / args.workload
    shutil.rmtree(work, ignore_errors=True)

    setups = []
    if not args.trace:
        for i in range(SETUP_PROBES):
            rc, _, result = spawn(work / f"setup{i}", deadline, args.workload, "--setup-only")
            if result is None:
                print(f"set-up probe {i} failed with exit code {rc}", file=sys.stderr)
                return 1
            setups.append(result["setup_s"])

    runs = []
    loop_start = last = time.monotonic()
    # stop at --seconds, or earlier when one more run would pass the
    # deadline; the traced invocation needs one untraced run to compare with
    while not runs or (not args.trace and last - loop_start < args.seconds
                       and last + (last - loop_start) / len(runs) < deadline):
        runs.append(pipeline_run(args.workload, work / f"run{len(runs)}", args.seed, deadline))
        last = time.monotonic()
    traced = None
    if args.trace:
        traced = pipeline_run(args.workload, work / "traced", args.seed, deadline, trace=True)
    attempted = runs + ([traced] if traced else [])
    check_determinism(attempted, args.workload, args.seed)

    for r in attempted:
        for e in r["errors"]:
            print(f"check failed in {r['dir']}: {e}", file=sys.stderr)
    ok = [r for r in runs if not r["errors"]]
    failed = sum(1 for r in attempted if r["errors"])
    metrics, units = {}, {}
    if ok and not args.trace:
        units = dict(END_TO_END)
        metrics = {"setup_s": statistics.median(setups + [r["setup_s"] for r in ok])}
        for name in END_TO_END:
            metrics.setdefault(name, statistics.median(r[name] for r in ok))
        printed = dict(metrics, fail_frac=failed / len(attempted))
        for name in UNBOUNDED:
            printed[name] = statistics.median(r[name] for r in ok)
        printed_units = dict(END_TO_END, **UNBOUNDED, fail_frac="1")
    elif ok and traced and not traced["errors"]:
        units = PER_LAYER
        metrics = printed = layer_metrics(traced, ok)
        printed_units = PER_LAYER
        print("spans of the traced run (name < parent: calls, total s, self s, FFT calls):")
        for s in sorted(traced["result"]["spans"], key=lambda s: -s["total_s"]):
            print(f"  {s['name']} < {s['parent'] or '-'}: {s['calls']}, "
                  f"{s['total_s']:.4f}, {s['self_s']:.4f}, {s['fft_calls']}")
    else:
        printed, printed_units = {}, {}

    print(f"workload {args.workload}, seed {args.seed}: {len(attempted)} runs, {failed} failed")
    for name, value in printed.items():
        print(f"  {name:42s} {value:.6g} {printed_units[name]}")
    (work / "summary.json").write_text(json.dumps({
        "machine": facts, "workload": args.workload, "seed": args.seed,
        "setup_probes_s": setups, "metrics": metrics,
        "runs": [{k: v for k, v in r.items() if k not in ("result", "facts")} for r in attempted],
        "traced_spans": traced["result"]["spans"] if traced and "result" in traced else None,
    }, indent=1, default=str))
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": len(attempted),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if metrics else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "liemorph" / "cli_experiments.py").is_file():
        print(f"no liemorph sources under {SRC}", file=sys.stderr)
        return 2
    BENCH_DIR.mkdir(exist_ok=True)
    with open(BENCH_DIR / "lock", "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            print("another benchmark run is using this checkout", file=sys.stderr)
            return 2
        return run(args)


if __name__ == "__main__":
    sys.exit(main())
