"""Smoke tests of the experiment scripts: each runs at its smallest passing
size in a fresh interpreter, exits 0 and writes its reports."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# id, script, arguments, report paths relative to --out
CASES = [
    ("stationary_game.py", "stationary_game.py", ["--dim", "2", "--resolution", "16"], ["report.json"]),
    ("manufactured_convergence.py", "manufactured_convergence.py", ["--dim", "2"], ["report.json"]),
    (
        "identity_audits.py",
        "identity_audits.py",
        [],
        ["bochner-check/report.json", "bernstein-audit/report.json", "constants/report.json"],
    ),
    (
        "amplitude_sweeps.py",
        "amplitude_sweeps.py",
        ["--kind", "gradient", "--resolution", "8"],
        ["gradient/report.json"],
    ),
    # the maximal sweep forces 64^3 whatever --resolution asks
    ("amplitude_sweeps.py-maximal", "amplitude_sweeps.py", ["--kind", "maximal"], ["maximal/report.json"]),
]


@pytest.mark.parametrize("script,args,reports", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_script_runs_and_writes_its_reports(tmp_path, script, args, reports):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), "--out", str(tmp_path), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for rel in reports:
        assert (tmp_path / rel).is_file(), rel
