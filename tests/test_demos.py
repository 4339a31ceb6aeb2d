"""Smoke tests of the demos: each runs as a script and still prints what
the README says it shows."""

import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_demo(name, *args, returncode=0):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name), *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == returncode, out.stderr
    return out.stdout if returncode == 0 else out.stderr


def test_readme_lists_exactly_the_demos():
    """The README's demo block names each script in demos/ once, and no
    other, so adding or deleting a demo cannot leave it stale."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        block = fh.read().split("## Demos", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    listed = re.findall(r"^python3 demos/(\S+\.py)\b", block, re.M)
    on_disk = [n for n in os.listdir(os.path.join(ROOT, "demos")) if n.endswith(".py")]
    assert sorted(listed) == sorted(on_disk)


def test_morph_two_bumps_tensor_keeps_mass_naive_leaks():
    out = run_demo("morph_two_bumps.py")
    drift = dict(re.findall(r"^(tensor|naive): .*relative mass drift (\S+)$", out, re.M))
    assert drift.keys() == {"tensor", "naive"}, out
    assert float(drift["tensor"]) <= 1e-12
    assert float(drift["naive"]) > 1e-9


def test_desk_twin_prints_each_variable_and_keeps_mass():
    # which filter wins is not asserted: it moves with the analysis time
    out = run_demo("desk_twin.py")
    rows = re.findall(r"^\s*(h|theta|v|omega)(?:\s+\S+){3}$", out, re.M)
    assert rows == ["h", "theta", "v", "omega"], out
    drift = re.search(r"^worst member mass drift across 8 morphs of 500 steps: (\S+)$", out, re.M)
    assert drift and float(drift.group(1)) <= 1e-10, out


def test_timestep_error_preset_is_a_tenth_of_the_spread():
    out = run_demo("timestep_error.py")
    rows = re.findall(r"^\s+(\d+)\s+\S+\s+(\S+)(  \(preset\))?$", out, re.M)
    assert [m for m, _, _ in rows] == ["1", "2", "4", "5", "8"], out
    preset = [float(err) for _, err, mark in rows if mark]
    spread = float(re.search(r"^member 0 against the truth: (\S+)$", out, re.M).group(1))
    assert len(preset) == 1, out
    assert preset[0] <= spread / 10


@pytest.mark.parametrize("grid, time, marked", [("8", "320", []), ("256", "10", ["2"])])
def test_timestep_error_marks_the_row_of_the_preset_on_its_grid(grid, time, marked):
    """A grid no preset runs marks no row; on the paper preset's grid the
    mark sits on its dt, not on the desk step scaled to the grid."""
    out = run_demo("timestep_error.py", "--grid", grid, "--time", time)
    rows = re.findall(r"^\s+(\d+)\s+(\S+)\s+\S+(  \(preset\))?$", out, re.M)
    assert [m for m, _, _ in rows] == ["1", "2", "4", "5", "8"], out
    assert [dt for _, dt, mark in rows if mark] == marked, out
    assert re.search(r"^member 0 against the truth: \S+$", out, re.M), out


def test_kernel_timing_prints_a_row_per_kernel_and_size():
    """A morph step makes 10 rfft2 + 13 irfft2 per member with h and omega
    targets, in 15 calls, and a model step 6 + 7 in 9, whatever the grid
    and batch size: the 8 members' transforms share the calls of one.  At
    2 workers the 8 members run as two batches of 4, each making its own
    calls.  The workspace column is the bytes of one batch's arrays: the
    morph's 9 value fields and 27 spectra per member (AB5), the model's 9
    and 22 (AB3).  Each row also carries the CPU time and the voluntary
    context switches per step."""
    out = run_demo("kernel_timing.py", "--grid", "8", "16", "--steps", "2", "--repeats", "2")
    rows = re.findall(r"^(\S+)\s+(\d+)\^2\s+(\d+)\s+(\d+)\s+(\d+)\s+(\S+)\s+(\S+)\s+(\S+)"
                      r"\s+(\S+)\s+(\S+)\s+(\S+)\s+(\S+)\s+(\S+) \[(\S+), (\S+)\]$", out, re.M)
    assert [r[:5] for r in rows] == [
        ("_run_morph_batch", "8", "8", "1", "2"), ("_integrate_batch", "8", "8", "1", "2"),
        ("_run_morph_batch", "8", "8", "2", "2"), ("_integrate_batch", "8", "8", "2", "2"),
        ("_run_morph_batch", "16", "1", "1", "2"), ("_integrate_batch", "16", "1", "1", "2"),
    ], out
    assert [float(r[5]) for r in rows] == [184, 104, 184, 104, 23, 13], out
    assert [float(r[6]) for r in rows] == [15, 9, 30, 18, 15, 9], out
    # (members per batch, n) of each row, and the bytes of a value field
    # and of a spectrum per member
    batches = [(8, 8), (8, 8), (4, 8), (4, 8), (1, 16), (1, 16)]
    fields = [(9, 27), (9, 22)] * 3
    expected = [b * (v * 8 * n * n + s * 16 * n * (n // 2 + 1)) / 2**20
                for (b, n), (v, s) in zip(batches, fields)]
    assert [float(r[8]) for r in rows] == [round(x, 3) for x in expected], out
    for *_, cpu, csw, cold, median, low, high in rows:
        assert float(cpu) > 0 and float(csw) >= 0
        assert float(cold) > 0
        assert 0 < float(low) <= float(median) <= float(high)


@pytest.mark.parametrize("name, args", [
    ("kernel_timing.py", ("--grid", "6", "9")),
    ("kernel_timing.py", ("--grid", "2", "8")),
    ("timestep_error.py", ("--grid", "7")),
    ("timestep_error.py", ("--time", "0")),
    ("timestep_error.py", ("--time", "-5")),
    ("timestep_error.py", ("--time", "30")),
])
def test_demos_reject_bad_arguments(name, args):
    """Odd or tiny grids and horizons that are not a positive whole number of
    every step exit 2 with a usage error, before any compute."""
    err = run_demo(name, *args, returncode=2)
    assert "error:" in err and "Traceback" not in err, err
