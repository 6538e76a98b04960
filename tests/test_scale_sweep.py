"""Smoke test of the objective-scale sweep (tools/scale_sweep.py) on two
problems at two scales, run as a script, and its usage errors."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "scale_sweep.py")


def _run(*args, check=True):
    return subprocess.run([sys.executable, SCRIPT, *args], capture_output=True,
                          text=True, timeout=120, check=check)


def test_two_problems_at_two_scales():
    # At f0 x 1e-6, HS024-a passes the solver's certificate at a point off
    # the reference, and convex-n20-s0 ends degenerate; both solve at scale 1.
    lines = _run("--exponents=-6,0", "--problems", "HS024,convex-n20-s0").stdout.splitlines()
    assert lines == [
        "| f0 × | converged at the reference (of 2) | other exits |",
        "|-----:|------:|-------------|",
        "| 1e-6 | 0 | 1 `degenerate`; HS024-a `converged` but fail the check |",
        "| 1 | 2 | — |",
    ]


@pytest.mark.parametrize("args, error", [
    (("--exponents", "0,0"), "repeated value"),
    (("--problems", "HS035,HS24"), "--problems names ['HS24'] match no instance"),
    (("--exponents=-400",), "10^-400 is not a positive finite float"),
    (("--exponents=400",), "10^400 is not a positive finite float"),
])
def test_usage_errors_exit_two(args, error):
    done = _run(*args, check=False)
    assert done.returncode == 2
    assert done.stdout == ""
    assert error in done.stderr
