"""What `src/liemorph/` keeps: the code the command line runs, and the
functions REFERENCE names.

One fresh interpreter, traced by `sys.settrace` and `threading.settrace`
from before `import liemorph`, runs `liemorph presets` (the listing and
both presets) and then `validate` and `run` of the desk preset as each
pipeline, at 4 members and 20 morph steps on the preset's 2 workers.  It
reports every function of `src/liemorph/` that it never entered, and
`sorted(sys.modules)` once every command has returned.

A function is a code object compiled from a module's source: functions,
methods and the functions nested in a function that was entered.  Code
objects are matched by file, first line and name, since Python 3.10 has
no `co_qualname`; methods that `dataclass` generates are compiled from no
file of the package and are not counted, nor are lambdas and
comprehensions.

Each never-entered function that stays is a REFERENCE entry, name ->
(kind, by), where `by` says why and is checked by kind:

- span: the name of the perfbench/tracing.py LAYERS span whose module
  attribute is this very function; nothing else keeps it.
- typed: a kernel's typed face (a batch of one, or the per-field form),
  kept as the reference the kernel is pinned to; `by` is the test that
  pins the two equal.
- oracle: a reference operator that tests check the kernels against; `by`
  is a test or `tests/oracles.py` function that uses it.
- boundary: a method or function of the typed API that a test, an oracle
  or a demo uses; `by` names that user.
- helper: a private function reached only through other entries; `by`
  lists them.
- waits: the ROADMAP item that decides its fate.
- unreached: a path no valid desk run takes; `by` says when it runs.

The guard fails on a never-entered function without an entry, and on an
entry that a run enters or that no longer exists; so once item 5 of the
ROADMAP re-points perfbench's spans, it names what has become deletable.
"""

import ast
import functools
import json
import os
import re
import subprocess
import sys
from importlib import import_module

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# The probe's run: argv[1] is a scratch directory, into which it writes
# the configs, the outputs and report.json.
PROBE = r"""
import json, os, sys, threading

entered = set()


def trace(frame, event, arg):
    entered.add(frame.f_code)


sys.settrace(trace)
threading.settrace(trace)
from liemorph.cli_experiments import PIPELINES, main, preset_config

work = sys.argv[1]
for argv in (["presets"], ["presets", "desk"], ["presets", "paper"]):
    assert main(argv) == 0, argv
for pipeline in PIPELINES:
    raw = preset_config("desk")
    raw["pipeline"] = pipeline
    raw["ensemble"]["size"] = 4
    raw["morph"]["n_steps"] = 20
    path = os.path.join(work, pipeline + ".json")
    with open(path, "w") as fh:
        json.dump(raw, fh)
    assert main(["validate", path]) == 0, pipeline
    assert main(["run", path, "--out", os.path.join(work, pipeline)]) == 0, pipeline
sys.settrace(None)
threading.settrace(None)

CO_OPTIMIZED = 1  # set on functions, not on class bodies
seen = {(c.co_filename, c.co_firstlineno, c.co_name) for c in entered}


def functions(code, prefix, parent_entered):
    for c in code.co_consts:
        if not hasattr(c, "co_consts") or c.co_name.startswith("<"):
            continue
        nested = code.co_flags & CO_OPTIMIZED
        name = prefix + (".<locals>." if nested else ".") + c.co_name
        if not c.co_flags & CO_OPTIMIZED:
            yield from functions(c, name, parent_entered)
            continue
        hit = (c.co_filename, c.co_firstlineno, c.co_name) in seen
        if parent_entered or not nested:
            yield name, hit
        yield from functions(c, name, hit)


report = {"functions": {}, "modules": sorted(sys.modules)}
for modname, module in sorted(sys.modules.items()):
    if modname.startswith("liemorph."):
        with open(module.__file__) as fh:
            code = compile(fh.read(), module.__file__, "exec")
        report["functions"].update(functions(code, modname[len("liemorph."):], True))
with open(os.path.join(work, "report.json"), "w") as fh:
    json.dump(report, fh)
"""

# name -> (kind, by), as the module docstring sets out.
REFERENCE = {
    "assimilation.kalman_gain": ("span", "assimilation.kalman_gain"),
    "cli_experiments.ConfigError.__init__": ("unreached", "raised by an invalid config"),
    "displacement_solver._weight_values": ("waits", 16),
    "displacement_solver.displacement_from_0forms": ("waits", 9),
    "displacement_solver.displacement_from_2forms": (
        "span", "displacement_solver.displacement_from_2forms"),
    "displacement_solver._closed_form": (
        "helper", ("displacement_solver.displacement_from_0forms",
                   "displacement_solver.displacement_from_2forms")),
    "displacement_solver.combine_displacements": (
        "span", "displacement_solver.combine_displacements"),
    "displacement_solver._lie_adjoint": ("waits", 11),
    "displacement_solver.lie_operator_adjoint": ("waits", 11),
    "displacement_solver.generalized_optical_flow": ("waits", 11),
    "forms.DiffForm.__init__": (
        "boundary", "tests/test_forms.py::TestDiffForm::test_component_count_enforced"),
    "forms.DiffForm.zero": (
        "boundary", "tests/test_forms.py::TestDiffForm::test_zero_and_from_scalar"),
    "forms.DiffForm.from_scalar": ("boundary", "tests/oracles.py::composed_transport"),
    "forms.DiffForm.__repr__": ("unreached", "a repr: tracebacks, failure messages, the REPL"),
    "forms.DisplacementField.zeros": ("boundary", "tests/oracles.py::composed_morph_velocity"),
    "forms.DisplacementField.__add__": ("boundary", "tests/oracles.py::composed_morph_velocity"),
    "forms.DisplacementField.__sub__": (
        "boundary", "tests/test_displacement_solver.py::TestDisplacementField::test_arithmetic"),
    "forms.DisplacementField.__mul__": ("boundary", "tests/oracles.py::composed_morph_velocity"),
    "forms.DisplacementField.__neg__": (
        "boundary", "tests/test_displacement_solver.py::TestDisplacementField::test_arithmetic"),
    "forms.DisplacementField.__repr__": (
        "unreached", "a repr: tracebacks, failure messages, the REPL"),
    "forms.vector_to_oneform": ("boundary", "tests/oracles.py::composed_transport"),
    "forms.oneform_to_vector": (
        "boundary",
        "tests/test_forms.py::TestDiffForm::test_musical_isomorphisms_are_identity_on_components"),
    "forms.lie_derivative": ("oracle", "tests/oracles.py::composed_transport"),
    "forms.exterior_derivative": (
        "oracle", "tests/test_forms.py::TestPushforward::test_degree1_vorticity_conserved"),
    "forms.hodge_star": (
        "oracle",
        "tests/test_forms.py::TestExteriorCalculus::test_double_star_on_oneform_is_minus_identity"),
    "forms.codifferential": (
        "oracle",
        "tests/test_forms.py::TestExteriorCalculus::test_hodge_laplacian_is_componentwise_laplacian"),
    "forms.form_inner_integral": (
        "oracle", "tests/test_forms.py::TestExteriorCalculus::test_adjointness_pins_the_sign"),
    "forms.h1_norm": ("typed", "tests/test_forms.py::TestH1Norm::test_parseval_matches_quadrature"),
    "morph_engine.MorphTrace.__len__": (
        "boundary",
        "tests/test_assimilation.py::TestMorphEnsemble::test_traces_cover_every_member_and_step"),
    "morph_engine.MorphTrace.column": ("boundary", "demos/morph_two_bumps.py"),
    "morph_engine.MorphTrace.to_csv": ("boundary", "demos/morph_two_bumps.py"),
    "morph_engine.field_mse": ("span", "morph_engine.field_mse"),
    "morph_engine.conserved_totals": (
        "oracle", "tests/test_acceptance.py::test_criterion_2_tensor_vs_naive_mass_drift"),
    "morph_engine.morph_velocity": (
        "typed", "tests/test_morph_engine.py::TestMorphStep::test_history_continues_at_a_lower_order"),
    "morph_engine.morph_step": (
        "typed", "tests/test_morph_engine.py::TestMorphStep::test_history_continues_at_a_lower_order"),
    "morph_engine.run_morph": (
        "typed", "tests/test_morph_engine.py::TestSpectralKernel::test_matches_composed_reference"),
    "spectral_core.GridSpec.__repr__": (
        "unreached", "a repr: tracebacks, failure messages, the REPL"),
    "spectral_core.ScalarField.zeros": ("boundary", "tests/test_morph_engine.py::bump_state"),
    "spectral_core.ScalarField.constant": ("boundary", "tests/test_morph_engine.py::bump_state"),
    "spectral_core.ScalarField.from_function": (
        "boundary", "tests/test_acceptance.py::test_criterion_4_spectral_identities"),
    "spectral_core.ScalarField.copy": (
        "boundary", "tests/test_tsw_model.py::TestStateAndDiagnostics::test_copy_is_independent"),
    "spectral_core.ScalarField.__sub__": (
        "boundary", "tests/oracles.py::composed_morph_velocity"),
    "spectral_core.ScalarField.__mul__": (
        "boundary", "tests/oracles.py::composed_morph_velocity"),
    "spectral_core.ScalarField.__neg__": (
        "boundary", "tests/test_displacement_solver.py::TestDisplacementField::test_arithmetic"),
    "spectral_core.ScalarField.__repr__": (
        "unreached", "a repr: tracebacks, failure messages, the REPL"),
    "spectral_core._scratch": ("helper", ("tsw_model.tendency",)),
    "spectral_core.gradient": ("oracle", "tests/oracles.py::composed_tendency"),
    "spectral_core.divergence": ("oracle", "tests/oracles.py::composed_rest_wave"),
    "spectral_core.inverse_helmholtz": ("oracle", "tests/oracles.py::composed_morph_velocity"),
    "spectral_core.hou_li_filter": ("oracle", "tests/oracles.py::composed_morph_step"),
    "spectral_core.domain_integral": ("oracle", "tests/oracles.py::quadrature_h1_norm"),
    "tsw_model.InstabilityError.__init__": (
        "unreached", "raised when a step blows up or a state loses positivity"),
    "tsw_model.TSWState.rest": (
        "boundary", "tests/test_tsw_model.py::TestTimeStepping::test_rest_is_exact_fixed_point"),
    "tsw_model.TSWState.copy": (
        "boundary", "tests/test_tsw_model.py::TestStateAndDiagnostics::test_copy_is_independent"),
    "tsw_model.TSWState.__repr__": ("unreached", "a repr: tracebacks, failure messages, the REPL"),
    "tsw_model._add_rest_wave": ("helper", ("tsw_model.tendency",)),
    "tsw_model._Workspace.save": ("helper", ("tsw_model.ab3_step", "morph_engine.morph_step")),
    "tsw_model._Workspace.keep": (
        "unreached", "early stop; it never fired at desk in 200 morph steps at patience 1"),
    "tsw_model.tendency": (
        "typed",
        "tests/test_tsw_model.py::TestSpectralKernel::test_vector_invariant_tendency_matches_composed"),
    "tsw_model.ab3_step": (
        "typed", "tests/test_tsw_model.py::TestSpectralKernel::test_matches_composed_reference"),
}

# No command loads scipy (imported only by generalized_optical_flow's CG),
# concurrent.futures or the logging it imports (the batches run on plain
# threads), or a process pool.
FORBIDDEN = ("scipy", "concurrent", "logging")


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    work = tmp_path_factory.mktemp("reachability")
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", PROBE, str(work)], env=env, capture_output=True,
                   text=True, check=True, timeout=120)
    with open(work / "report.json", encoding="utf-8") as fh:
        return json.load(fh)


def resolve(name):
    """The function `module.qualname` names in liemorph."""
    module, *path = name.split(".")
    obj = import_module(f"liemorph.{module}")
    for attr in path:
        obj = vars(obj)[attr]
    return obj


@functools.lru_cache(maxsize=None)
def parsed(path):
    """(text, module body) of a file under the repository root."""
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        text = fh.read()
    return text, ast.parse(text).body


def source_of(ref):
    """The source of a demo file, or of the def or class that
    `path::Name[::name]` names in a file under the repository root."""
    path, *names = ref.split("::")
    text, body = parsed(path)
    node = None
    for name in names:
        node = next((n for n in body if getattr(n, "name", None) == name), None)
        assert node is not None, ref
        body = node.body
    if node is None:
        return text
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return "\n".join(text.splitlines()[first - 1:node.end_lineno])


def test_every_never_entered_function_is_in_reference(report):
    never = [name for name, hit in report["functions"].items() if not hit]
    assert [name for name in never if name not in REFERENCE] == []


def test_reference_names_only_never_entered_functions(report):
    functions = report["functions"]
    assert [name for name in REFERENCE if name not in functions] == [], "gone from src/"
    assert [name for name in REFERENCE if functions.get(name)] == [], "entered by a run"


def test_no_command_loads_scipy_a_thread_pool_logging_or_multiprocessing(report):
    """sys.modules only grows, so none after the last command is none
    after each."""
    tops = {name.split(".")[0] for name in report["modules"]}
    assert "liemorph.cli_experiments" in report["modules"]
    assert sorted(t for t in tops if t in FORBIDDEN or "multiprocessing" in t) == []


def test_span_entries_are_perfbench_layers(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    from tracing import LAYERS

    for name, (kind, by) in REFERENCE.items():
        if kind == "span":
            rows = [(module, attr) for module, attr, span in LAYERS if span == by]
            assert rows, f"{name}: no LAYERS span {by}"
            for module, attr in rows:
                assert getattr(import_module(f"liemorph.{module}"), attr) is resolve(name), name


def test_reference_reasons_resolve():
    with open(os.path.join(ROOT, "ROADMAP.md"), encoding="utf-8") as fh:
        roadmap = fh.read()
    for name, (kind, by) in REFERENCE.items():
        short = name.rsplit(".", 1)[-1]
        if kind in ("typed", "oracle", "boundary"):
            text = source_of(by)
            # an operator method is used through its operator
            assert short.startswith("__") or re.search(rf"\b{short}\b", text), (name, by)
        elif kind == "helper":
            assert all(user in REFERENCE and REFERENCE[user][0] != "helper" for user in by), name
        elif kind == "waits":
            assert re.search(rf"^{by}\. \*\*", roadmap, re.M), (name, by)
        elif kind == "unreached":
            assert by, name
        else:
            # its LAYERS row is checked above
            assert kind == "span", name
