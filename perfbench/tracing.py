"""In-memory spans around calls into liemorph, installed from outside.

A span is recorded by replacing a function at the module attribute its
callers look up (`module.name`), so the program's source is untouched.
Each span keeps its parent's index; self time is the span's duration
minus its children's.  Spans use time.monotonic, which is one clock for
every process on Linux, so a span can be compared with the time its
process was spawned.  numpy.fft calls are counted on the innermost open
span, with bytes computed from the input and output array sizes.

Limits of wrapping from outside: a function bound as a default argument
cannot be replaced.  `tsw_model.tendency` is such a default of `ab3_step`
and `integrate`, so its time is part of `tsw_model.ab3_step` self time.
Private helpers called by name inside one module (`_deriv`, `_ab_step`,
the `mses` closure of `run_morph`) are not wrapped either; their time
falls into the self time of the public function that calls them.
"""

import functools
import time

import numpy as np

# Stage boundaries, timed on every run (a handful of calls per run).
STAGES = (
    ("cli_experiments", "validate_config", "cli_experiments.validate_config"),
    ("cli_experiments", "integrate", "cli_experiments.truth"),
    ("cli_experiments", "generate_ensemble", "assimilation.generate_ensemble"),
    ("cli_experiments", "morph_ensemble", "assimilation.morph_ensemble"),
    ("cli_experiments", "enkf_analysis", "assimilation.enkf_analysis"),
    ("cli_experiments", "_stage_outputs", "cli_experiments.stage_outputs"),
    ("cli_experiments", "emit_outputs", "cli_experiments.emit_outputs"),
)

# Layer boundaries, wrapped only in the traced run.  Each entry names the
# module whose global the caller reads, not the module that defines it.
LAYERS = (
    ("assimilation", "run_morph", "morph_engine.run_morph"),
    ("assimilation", "kalman_gain", "assimilation.kalman_gain"),
    ("assimilation", "coarsen", "spectral_core.coarsen"),
    ("assimilation", "refine", "spectral_core.refine"),
    ("morph_engine", "morph_velocity", "morph_engine.morph_velocity"),
    ("morph_engine", "displacement_from_2forms", "displacement_solver.displacement_from_2forms"),
    ("morph_engine", "combine_displacements", "displacement_solver.combine_displacements"),
    ("morph_engine", "lie_derivative", "forms.lie_derivative"),
    ("morph_engine", "hou_li_filter", "spectral_core.hou_li_filter"),
    ("morph_engine", "field_mse", "morph_engine.field_mse"),
    ("morph_engine", "conserved_totals", "morph_engine.conserved_totals"),
    ("morph_engine", "vorticity_of", "tsw_model.vorticity_of"),
    ("displacement_solver", "h1_norm", "forms.h1_norm"),
    ("tsw_model", "ab3_step", "tsw_model.ab3_step"),
    ("tsw_model", "hou_li_filter", "spectral_core.hou_li_filter"),
)

FFT_FUNCTIONS = ("rfft2", "irfft2", "fft2", "ifft2")

# Span record fields.
NAME, PARENT, START, END, FFT_CALLS, FFT_BYTES, RSS = range(7)


def _status_kb(key):
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    return 0


class Tracer:
    """Spans and FFT counts of one process, kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, module, attr, name, memory=False):
        """Replace module.attr by a function that records a span per call.

        With memory=True the span also keeps (RSS before, peak RSS before,
        peak RSS after) in KiB; the peak is the process high-water mark.
        """
        fn = getattr(module, attr)
        spans, stack, clock = self.spans, self.stack, time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rss = (_status_kb("VmRSS"), _status_kb("VmHWM")) if memory else None
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, 0, 0, rss]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                if memory:
                    rec[RSS] = rss + (_status_kb("VmHWM"),)

        setattr(module, attr, traced)

    def count_ffts(self, fft_module):
        """Count calls and computed bytes of the 2-D transforms made inside
        a span (the few made outside, at set-up, are not counted)."""
        spans, stack = self.spans, self.stack
        for attr in FFT_FUNCTIONS:
            fn = getattr(fft_module, attr)

            def counted(a, *args, _fn=fn, **kwargs):
                out = _fn(a, *args, **kwargs)
                if stack:
                    rec = spans[stack[-1]]
                    rec[FFT_CALLS] += 1
                    rec[FFT_BYTES] += np.asarray(a).nbytes + out.nbytes
                return out

            setattr(fft_module, attr, functools.wraps(fn)(counted))

    def summary(self):
        """Aggregates per (span name, parent span name).

        Each entry has calls, total_s (inclusive), self_s, and the FFT
        calls and bytes made inside the span, children included.
        """
        spans = self.spans
        n = len(spans)
        child_s = [0.0] * n
        fft_calls = [s[FFT_CALLS] for s in spans]
        fft_bytes = [s[FFT_BYTES] for s in spans]
        # children always come after their parent
        for i in range(n - 1, -1, -1):
            p = spans[i][PARENT]
            if p >= 0:
                child_s[p] += spans[i][END] - spans[i][START]
                fft_calls[p] += fft_calls[i]
                fft_bytes[p] += fft_bytes[i]
        agg = {}
        for i, s in enumerate(spans):
            parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""
            a = agg.setdefault((s[NAME], parent), {
                "name": s[NAME], "parent": parent, "calls": 0, "total_s": 0.0,
                "self_s": 0.0, "fft_calls": 0, "fft_bytes": 0,
            })
            dur = s[END] - s[START]
            a["calls"] += 1
            a["total_s"] += dur
            a["self_s"] += dur - child_s[i]
            a["fft_calls"] += fft_calls[i]
            a["fft_bytes"] += fft_bytes[i]
        return {
            "spans": list(agg.values()),
            "memory": {s[NAME]: s[RSS] for s in spans if s[RSS] is not None},
        }

    def last(self, name):
        """(start, end) of the latest span with this name, or None."""
        for s in reversed(self.spans):
            if s[NAME] == name:
                return s[START], s[END]
        return None


def instrument(tracer, package, layers):
    """Install the stage spans, and with layers=True every layer span."""
    table = STAGES + (LAYERS if layers else ())
    for module, attr, name in table:
        tracer.wrap(getattr(package, module), attr, name,
                    memory=(attr == "enkf_analysis"))
    if layers:
        tracer.count_ffts(np.fft)
