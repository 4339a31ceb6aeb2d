"""Smoke tests of the demos: each runs as a script and still prints what
the README says it shows."""

import os
import re
import subprocess
import sys


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_demo(name, *args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name), *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_morph_two_bumps_tensor_keeps_mass_naive_leaks():
    out = run_demo("morph_two_bumps.py")
    drift = dict(re.findall(r"^(tensor|naive): .*relative mass drift (\S+)$", out, re.M))
    assert drift.keys() == {"tensor", "naive"}, out
    assert float(drift["tensor"]) <= 1e-12
    assert float(drift["naive"]) > 1e-9


def test_pushforward_orders_are_two():
    out = run_demo("pushforward_orders.py")
    # rows "eps  gap  order"; the first row of each case has no order
    orders = re.findall(r"^\s+\S+\s+\S+\s+(\d\.\d{3})$", out, re.M)
    assert len(orders) == 6, out
    assert orders == ["2.000"] * 6


def test_timestep_error_preset_is_a_tenth_of_the_spread():
    out = run_demo("timestep_error.py")
    rows = re.findall(r"^\s+(\d+)\s+\S+\s+(\S+)(  \(preset\))?$", out, re.M)
    assert [m for m, _, _ in rows] == ["1", "2", "4", "5", "8"], out
    preset = [float(err) for _, err, mark in rows if mark]
    spread = float(re.search(r"^member 0 against the truth: (\S+)$", out, re.M).group(1))
    assert len(preset) == 1, out
    assert preset[0] <= spread / 10


def test_kernel_timing_prints_a_row_per_kernel_and_size():
    out = run_demo("kernel_timing.py", "--grid", "8", "16", "--steps", "2", "--repeats", "2")
    rows = re.findall(r"^(\S+)\s+(\d+)\^2\s+(\d+)\s+(\d+)\s+(\S+) \[(\S+), (\S+)\]$", out, re.M)
    assert [r[:4] for r in rows] == [
        ("_run_morph_batch", "8", "8", "2"), ("_integrate_batch", "8", "8", "2"),
        ("_run_morph_batch", "16", "1", "2"), ("_integrate_batch", "16", "1", "2"),
    ], out
    for *_, median, low, high in rows:
        assert 0 < float(low) <= float(median) <= float(high)
