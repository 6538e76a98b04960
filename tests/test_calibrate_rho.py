"""Smoke test of the rho calibration study (tools/calibrate_rho.py): a
two-configuration grid over two corpus problems, run as a script, a grid
point out of range, a repeated grid value or family, an unknown corpus
name and an ``--alpha`` flag refused before anything is solved, and one program per
``--problems`` name across the two logit families."""

import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "calibrate_rho.py")


def test_two_configurations_over_two_problems():
    done = subprocess.run(
        [sys.executable, SCRIPT, "--rho", "2,1000",
         "--family", "hs-corpus", "--problems", "HS035,HS044"],
        capture_output=True, text=True, timeout=60, check=True)
    lines = done.stdout.splitlines()
    assert lines[0] == "4 instances, 2 configurations"
    rows = {tuple(line.split()[1:3]): [float(v) for v in line.split()[3:]]
            for line in lines if line.startswith("profile ")
            and not line.startswith("profile metric")}
    assert set(rows) == {(metric, config) for metric in ("ni", "nf0", "nf", "cpu_seconds")
                         for config in ("rho=2", "rho=1000")}
    for values in rows.values():
        # area, the fractions at tau <= 1, 1.25, 2, 4, and the solved fraction
        assert len(values) == 6
        assert all(0.0 <= v <= 1.0 for v in values)
        fractions = values[1:]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0
    # HS035 a/b and HS044-a take the same path under both; HS044-b takes 35
    # iterations under rho = 2 and 10 under rho = 1000.
    assert rows[("ni", "rho=1000")] == [1.0] * 6
    assert rows[("ni", "rho=2")] == [0.75, 0.75, 0.75, 0.75, 1.0, 1.0]
    assert "rho=2 4/60/104/1468" in " ".join(done.stdout.split())
    assert lines[-1] == "selected: rho=1000"


# rho = 0.5 is checked as a SolverOptions at parse time, so the paper's
# configuration is not solved first.  A repeated family once ran the whole
# study and then died in bench.profile_metric; a repeated rho solved and
# printed the same configuration twice.  The merit fraction is the engine
# constant ALPHA, so the study has no alpha axis.
@pytest.mark.parametrize("changed,message", [
    ({"--rho": "2,0.5"}, "rho must be finite and exceed 1, got 0.5"),
    ({"--rho": "2,2.0"}, "argument --rho: repeated value in '2,2.0'"),
    ({"--alpha": "0.5"}, "unrecognized arguments: --alpha 0.5"),
    ({"--family": "hs-corpus,hs-corpus"},
     "argument --family: repeated value in 'hs-corpus,hs-corpus'"),
    ({"--problems": "HS35,HS035"},
     "--problems names ['HS35'] match no instance of ['hs-corpus']"),
    ({"--family": "convex-n20"},
     "--problems names ['HS035'] match no instance of ['convex-n20']"),
], ids=["rho-out-of-range", "repeated-rho", "alpha-is-not-a-flag", "repeated-family",
        "unknown-problem", "problems-without-corpus"])
def test_bad_grid_is_refused_before_any_solve(changed, message):
    flags = {"--rho": "2", "--family": "hs-corpus", "--problems": "HS035", **changed}
    done = subprocess.run(
        [sys.executable, SCRIPT, *(item for pair in flags.items() for item in pair)],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert f"error: {message}" in done.stderr
    assert "solved" not in done.stderr and "Traceback" not in done.stderr


# The logit-5k family (5 000 samples) once named its instances as logit-eq
# (50 000 samples) does, so one name selected two different programs.
@pytest.mark.parametrize("name,family,samples", [
    ("logit-n10-s0", "logit-eq", 50_000), ("logit-n10-s0-5k", "logit-5k", 5_000),
])
def test_each_logit_name_selects_one_program(monkeypatch, name, family, samples):
    # The script's shared setup module, found on tools/ as a script finds
    # it, pins the BLAS thread variables and extends sys.path on import;
    # monkeypatch restores both.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", [os.path.join(ROOT, "tools"), *sys.path])
    spec = importlib.util.spec_from_file_location("calibrate_rho", SCRIPT)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    args = tool.parse_args(["--family", "logit-5k,logit-eq", "--problems", name])
    (chosen_family, inst), = args.instances
    assert (chosen_family, inst.name, inst.problem.name) == (family, name, name)
    expected, _ = tool.workloads.logit_problem(0, samples=samples)
    assert inst.problem.f0(inst.x0) == expected.f0(inst.x0)
