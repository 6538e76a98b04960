"""Smoke test of the robustness sweep (tools/robustness_sweep.py) on a tiny
slice, run as a script, and its usage errors."""

import os
import subprocess
import sys

import numpy as np
import pytest

from isqp import corpus

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "robustness_sweep.py")


def _run(*args, check=True):
    return subprocess.run([sys.executable, SCRIPT, *args], capture_output=True,
                          text=True, timeout=120, check=check)


def test_tiny_slice_prints_counts_per_problem_seed_and_family():
    lines = _run("--seeds", "0,1", "--draws", "2", "--problems", "HS035,HS012",
                 "--planted", "1").stdout.splitlines()
    assert lines == [
        "HS012           4 converged=4",
        "HS035           4 converged=4",
        "seed 0          4 converged=4",
        "seed 1          4 converged=4",
        "corpus          8 converged=8",
        "planted-e0      1 converged=1",
        "planted-e2      1 converged=1",
    ]


def test_starts_are_consecutive_draws_of_one_generator():
    # A slice solves the starts that the sweep over every problem draws:
    # each problem's draws follow those of the problems before it.
    sys.path.insert(0, os.path.join(ROOT, "tools"))
    try:
        import robustness_sweep
    finally:
        sys.path.pop(0)
    drawn = list(robustness_sweep.starts(3, 2))
    names = corpus.list_problems()
    assert [(name, draw) for name, draw, _ in drawn] == [
        (name, draw) for name in names for draw in range(2)]
    bases = {name: next(iter(corpus.get_problem(name).starts.values())) for name in names}
    steps = np.concatenate([x0 - bases[name] for name, _, x0 in drawn])
    expected = np.random.default_rng(3).standard_normal(steps.size)
    assert np.allclose(steps, expected, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("args, error", [
    (("--seeds", "0,0"), "repeated value"),
    (("--seeds", "0", "--problems", "HS035,HS999"), "unknown problems: HS999"),
])
def test_usage_errors_exit_two(args, error):
    done = _run(*args, check=False)
    assert done.returncode == 2
    assert error in done.stderr
