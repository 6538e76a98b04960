"""Smoke test of the rho calibration study (tools/calibrate_rho.py): a
two-configuration grid over two corpus problems, run as a script, and a
grid point out of range refused before anything is solved."""

import os
import subprocess
import sys

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


def test_grid_point_out_of_range_is_refused_before_any_solve():
    # rho = 0.5 is checked as a SolverOptions at parse time, so the paper's
    # configuration is not solved first.
    done = subprocess.run(
        [sys.executable, SCRIPT, "--rho", "2,0.5", "--alpha", "0.5",
         "--family", "hs-corpus", "--problems", "HS035"],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "error: rho must be finite and exceed 1, got 0.5" in done.stderr
    assert "solved" not in done.stderr and "Traceback" not in done.stderr
