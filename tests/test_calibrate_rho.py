"""Smoke test of the rho calibration study (tools/calibrate_rho.py): the
whole grid over two corpus problems, run as a script, a repeated or
unknown name and an ``--alpha`` flag refused before anything is solved,
and one program per ``--problems`` name across the two logit families."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "calibrate_rho.py")


def test_every_configuration_over_two_problems():
    done = subprocess.run(
        [sys.executable, SCRIPT, "--problems", "HS035,HS044"],
        capture_output=True, text=True, timeout=60, check=True)
    lines = done.stdout.splitlines()
    assert lines[0] == "4 instances, 7 configurations"
    rows = {tuple(line.split()[1:3]): [float(v) for v in line.split()[3:]]
            for line in lines if line.startswith("profile ")
            and not line.startswith("profile metric")}
    configs = ("rho=2", "rho=5", "rho=10", "rho=20", "rho=50", "rho=100", "rho=1000")
    assert set(rows) == {(metric, config) for metric in ("ni", "nf0", "nf", "cpu_seconds")
                         for config in configs}
    for values in rows.values():
        # area, the fractions at tau <= 1, 1.25, 2, 4, and the solved fraction
        assert len(values) == 6
        assert all(0.0 <= v <= 1.0 for v in values)
        fractions = values[1:]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0
    # HS035 a/b and HS044-a take the same path under every rho; HS044-b
    # takes 35 iterations under rho = 2 and 10 from rho = 50 on.  The rule
    # picks the first configuration of the grid with the largest areas.
    assert rows[("ni", "rho=1000")] == [1.0] * 6
    assert rows[("ni", "rho=2")] == [0.75, 0.75, 0.75, 0.75, 1.0, 1.0]
    assert rows[("ni", "rho=20")] == [0.756, 0.75, 0.75, 0.75, 1.0, 1.0]
    assert rows[("ni", "rho=50")] == [1.0] * 6
    text = " ".join(done.stdout.split())
    assert "rho=2 4/60/104/1468 0/0/0/0 0/0/0/0 0/0/0/0 0/0/0/0" in text
    assert "rho=20 4/59/100/1418" in text
    assert "rho=1000 4/35/52/698" in text
    assert lines[-1] == "selected: rho=50"


# The merit fraction is the engine constant ALPHA, so the study has no
# alpha axis.
@pytest.mark.parametrize("changed,message", [
    ({"--alpha": "0.5"}, "unrecognized arguments: --alpha 0.5"),
    ({"--problems": "HS035,HS035"}, "argument --problems: repeated value in 'HS035,HS035'"),
    ({"--problems": "HS35,HS035"}, "--problems names ['HS35'] match no instance"),
], ids=["alpha-is-not-a-flag", "repeated-problem", "unknown-problem"])
def test_bad_grid_is_refused_before_any_solve(changed, message):
    flags = {"--problems": "HS035", **changed}
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
def test_each_logit_name_selects_one_program(load_tool, name, family, samples):
    tool = load_tool("calibrate_rho")

    (chosen_family, inst), = tool.instances(["--problems", name])
    assert (chosen_family, inst.name, inst.problem.name) == (family, name, name)
    expected, _ = tool.workloads.logit_problem(0, samples=samples)
    assert inst.problem.f0(inst.x0) == expected.f0(inst.x0)
