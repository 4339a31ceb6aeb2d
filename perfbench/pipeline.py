"""One liemorph pipeline run of a benchmark workload, in a fresh process.

    python3 pipeline.py WORKLOAD --spawned T [--seed S] [--workers N]
                        [--trace] [--setup-only]

The working directory is the run's own: config.json, log.txt (the
program's output), out/ and result.json are written there.  The run goes
through the program's command line, `liemorph run config.json --seed S
--out out`, with stage spans installed from outside; --trace adds the
layer spans and FFT counts.  --setup-only stops after `liemorph validate
config.json`.  T is the time.monotonic() value the parent read just before
spawning this process, so set-up time includes interpreter start and
imports.  The output directory is relative because the emitted
config.json records it: an absolute path would change the manifest.
"""

import argparse
import contextlib
import json
import os
import sys
import time


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    import liemorph
    from liemorph import cli_experiments as ce

    src = os.path.join(root, "src", "liemorph")
    if os.path.dirname(os.path.abspath(liemorph.__file__)) != src:
        sys.exit(f"liemorph imported from {liemorph.__file__}, not from {src}")

    import tracing
    from workloads import workload_config

    tracer = tracing.Tracer()
    tracing.instrument(tracer, liemorph, layers=args.trace)

    with open("config.json", "w") as fh:
        json.dump(workload_config(args.workload, ce.preset_config), fh)
    if args.setup_only:
        argv = ["validate", "config.json"]
    else:
        argv = ["run", "config.json", "--seed", str(args.seed), "--out", "out"]
        if args.workers is not None:
            argv += ["--workers", str(args.workers)]

    with open("log.txt", "w") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        rc = ce.main(argv)
    end = time.monotonic()
    if rc != 0:
        sys.exit(f"liemorph {argv[0]} exited with {rc}; see log.txt")

    validated = tracer.last("cli_experiments.validate_config")[1]
    summary = tracer.summary()
    result = {
        "setup_s": validated - args.spawned,
        "run_s": end - validated,
        "config": None,
        "spans": summary["spans"],
        "memory_kb": summary["memory"],
    }
    if not args.setup_only:
        # re-validate the config the run wrote, after the timed region
        cfg = ce.validate_config(ce.load_config(os.path.join("out", "config.json")))
        result["config"] = {
            "members": cfg.ensemble_size, "truth_steps": cfg.truth_steps,
            "spinup_steps": cfg.spinup_steps, "workers": cfg.workers,
        }
    with open("result.json", "w") as fh:
        json.dump(result, fh, indent=1)


if __name__ == "__main__":
    main()
