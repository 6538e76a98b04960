"""The objective-scale sweep (tools/scale_sweep.py), run as a script: its
whole table, two problems at every scale, and its usage errors."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "scale_sweep.py")


def _run(*args, check=True):
    return subprocess.run([sys.executable, SCRIPT, *args], capture_output=True,
                          text=True, timeout=120, check=check)


def test_two_problems_at_every_scale():
    # At f0 x 1e-6, HS024-a passes the solver's certificate at a point off
    # the reference, and convex-n20-s0 ends degenerate; both solve at scale 1.
    lines = _run("--problems", "HS024,convex-n20-s0").stdout.splitlines()
    assert lines == [
        "| f0 × | converged at the reference (of 2) | other exits |",
        "|-----:|------:|-------------|",
        "| 1e-6 | 0 | 1 `degenerate`; HS024-a `converged` but fail the check |",
        "| 1e-4 | 1 | 1 `degenerate` |",
        "| 1e-2 | 2 | — |",
        "| 1 | 2 | — |",
        "| 1e2 | 1 | 1 `degenerate` |",
        "| 1e4 | 0 | 2 `degenerate` |",
        "| 1e6 | 1 | 1 `degenerate` |",
    ]


def test_default_table():
    # Every exit of the 28 instances at the seven scales.
    assert _run().stdout.splitlines() == [
        "| f0 × | converged at the reference (of 28) | other exits |",
        "|-----:|------:|-------------|",
        "| 1e-6 | 0 | 26 `degenerate`; HS024-a, HS031-a `converged` but fail the check |",
        "| 1e-4 | 19 | 8 `degenerate`; HS044-b `converged` but fail the check |",
        "| 1e-2 | 25 | 2 `degenerate`; HS034-b `converged` but fail the check |",
        "| 1 | 28 | — |",
        "| 1e2 | 20 | 8 `degenerate` |",
        "| 1e4 | 9 | 17 `degenerate`; 2 `max_iterations` |",
        "| 1e6 | 4 | 24 `degenerate` |",
    ]


@pytest.mark.parametrize("args, error", [
    (("--problems", "HS035,HS035"), "repeated value"),
    (("--problems", "HS035,HS24"), "--problems names ['HS24'] match no instance"),
])
def test_usage_errors_exit_two(args, error):
    done = _run(*args, check=False)
    assert done.returncode == 2
    assert done.stdout == ""
    assert error in done.stderr
