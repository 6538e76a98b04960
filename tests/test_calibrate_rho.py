"""Smoke test of the rho calibration study (tools/calibrate_rho.py): a
two-configuration grid over two corpus problems, run as a script, and a
grid point out of range, a repeated grid value or family, and an unknown
corpus name refused before anything is solved."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "calibrate_rho.py")


def test_two_configurations_over_two_problems():
    done = subprocess.run(
        [sys.executable, SCRIPT, "--rho", "2,1000", "--alpha", "0.5",
         "--family", "hs-corpus", "--problems", "HS035,HS044"],
        capture_output=True, text=True, timeout=60, check=True)
    lines = done.stdout.splitlines()
    assert lines[0] == "4 instances, 2 configurations"
    rows = {tuple(line.split()[1:3]): [float(v) for v in line.split()[3:]]
            for line in lines if line.startswith("profile ")
            and not line.startswith("profile metric")}
    assert set(rows) == {(metric, config) for metric in ("ni", "nf0", "nf", "cpu_seconds")
                         for config in ("rho=2,alpha=0.5", "rho=1000,alpha=0.5")}
    for values in rows.values():
        # area, the fractions at tau <= 1, 1.25, 2, 4, and the solved fraction
        assert len(values) == 6
        assert all(0.0 <= v <= 1.0 for v in values)
        fractions = values[1:]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0
    # HS035 a/b and HS044-a take the same path under both; HS044-b takes 35
    # iterations under rho = 2 and 10 under rho = 1000.
    assert rows[("ni", "rho=1000,alpha=0.5")] == [1.0] * 6
    assert rows[("ni", "rho=2,alpha=0.5")] == [0.75, 0.75, 0.75, 0.75, 1.0, 1.0]
    assert "rho=2,alpha=0.5 4/60/218/2590" in " ".join(done.stdout.split())
    assert lines[-1] == "selected: rho=1000,alpha=0.5"


# rho = 0.5 is checked as a SolverOptions at parse time, so the paper's
# configuration is not solved first.  A repeated family once ran the whole
# study and then died in bench.profile_metric; a repeated rho solved and
# printed the same configuration twice.
@pytest.mark.parametrize("changed,message", [
    ({"--rho": "2,0.5"}, "rho must be finite and exceed 1, got 0.5"),
    ({"--rho": "2,2.0"}, "--rho names 2.0 more than once"),
    ({"--alpha": "0.5,0.25,0.5"}, "--alpha names 0.5 more than once"),
    ({"--family": "hs-corpus,hs-corpus"}, "--family names hs-corpus more than once"),
    ({"--problems": "HS35,HS035"}, "unknown corpus problem ['HS35']"),
    ({"--family": "convex-n20"}, "--problems selects corpus problems, but --family leaves out"),
], ids=["rho-out-of-range", "repeated-rho", "repeated-alpha", "repeated-family",
        "unknown-problem", "problems-without-corpus"])
def test_bad_grid_is_refused_before_any_solve(changed, message):
    flags = {"--rho": "2", "--alpha": "0.5", "--family": "hs-corpus",
             "--problems": "HS035", **changed}
    done = subprocess.run(
        [sys.executable, SCRIPT, *(item for pair in flags.items() for item in pair)],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert f"error: {message}" in done.stderr
    assert "solved" not in done.stderr and "Traceback" not in done.stderr
