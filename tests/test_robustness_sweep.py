"""Smoke test of the robustness sweep (tools/robustness_sweep.py) on two
problems, run as a script, with the format of its last line, its usage
errors, the pinned degenerate exits of its seed 0 on HS024, HS031, HS033
and HS037, and runs that each QP stop test decides."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest

from isqp import corpus, engine

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "robustness_sweep.py")


def _run(*args, check=True):
    return subprocess.run([sys.executable, SCRIPT, *args], capture_output=True,
                          text=True, timeout=120, check=check)


def test_tiny_slice_prints_counts_per_problem_seed_and_family():
    lines = _run("--problems", "HS035,HS012").stdout.splitlines()
    assert re.fullmatch("iterates [0-9a-f]{64}", lines.pop())
    assert lines == [
        "HS012         120 converged=120",
        "HS035         120 converged=120",
        "seed 0         60 converged=60",
        "seed 1         60 converged=60",
        "seed 2         60 converged=60",
        "seed 3         60 converged=60",
        "corpus        240 converged=240",
        "planted-e0     20 converged=20",
        "planted-e2     20 converged=20",
    ]


@pytest.fixture
def sweep(load_tool):
    """tools/robustness_sweep.py, imported as a module."""
    return load_tool("robustness_sweep")


def test_starts_are_consecutive_draws_of_one_generator(sweep):
    # A slice solves the starts that the sweep over every problem draws:
    # each problem's draws follow those of the problems before it.
    drawn = list(sweep.starts(3))
    names = corpus.list_problems()
    assert [(name, draw) for name, draw, _ in drawn] == [
        (name, draw) for name in names for draw in range(sweep.DRAWS)]
    bases = {name: next(iter(corpus.get_problem(name).starts.values())) for name in names}
    steps = np.concatenate([x0 - bases[name] for name, _, x0 in drawn])
    expected = np.random.default_rng(3).standard_normal(steps.size)
    assert np.allclose(steps, expected, rtol=0.0, atol=1e-12)


# Each usage error exits 2 before anything is solved.
@pytest.mark.parametrize("args, error", [
    (("--problems", "HS035,HS035"), "repeated value"),
    pytest.param(("--problems", "HS035,HS999"), "--problems names ['HS999'] match no instance",
                 id="args1-unknown problems: HS999"),  # fixed: the case keeps its name
])
def test_usage_errors_exit_two(args, error):
    done = _run(*args, check=False)
    assert done.returncode == 2
    assert done.stdout == ""
    assert error in done.stderr


# Seed 0's degenerate exits on HS024 and HS031, by (problem, draw): the run's
# iteration count k and its message.  Each ends at k = 1 on an
# ill-conditioned curvature matrix; the other 57 draws of the two problems
# converge.
SEED0_DEGENERATE = {
    ("HS024", 1): (1, "solve residual 3.046e-06 exceeds tolerance"),
    ("HS024", 18): (1, "solve residual 2.339e-10 exceeds tolerance"),
    ("HS031", 13): (1, "active-set loop exceeded 500 iterations"),
}


def test_seed_zero_pins_the_degenerate_exits_of_hs024_and_hs031(sweep):
    statuses = {}
    degenerate = {}
    for name, draw, x0 in sweep.starts(0):
        if name not in ("HS024", "HS031"):
            continue
        report = engine.solve(corpus.get_problem(name).problem, x0)
        statuses[name, draw] = report.status
        if report.status is engine.SolveStatus.DEGENERATE:
            degenerate[name, draw] = (report.ni, report.message)
    assert degenerate == SEED0_DEGENERATE
    assert len(statuses) == 60
    assert all(status is engine.SolveStatus.CONVERGED
               for key, status in statuses.items() if key not in SEED0_DEGENERATE)


# Seed 0's degenerate exits on HS033 and HS037, keyed as above; the other
# 54 draws of the two problems converge.
SEED0_DEGENERATE_HS033_HS037 = {
    ("HS033", 2): (15, "QP stationarity residual 1.269e-06"),
    ("HS033", 7): (61, "QP stationarity residual 5.464e-05"),
    ("HS033", 21): (11, "QP stationarity residual 4.561e-04"),
    ("HS033", 23): (6, "QP stationarity residual 3.987e-04"),
    ("HS033", 29): (3, "solve residual 4.150e-08 exceeds tolerance"),
    ("HS037", 11): (15, "blended direction lost descent: slope 1.660e-08, slope_d1 "
                        "4.746e-04, beta 0.000e+00, |d0| 3.296e-06, phi 0.000e+00"),
}


def test_seed_zero_pins_the_degenerate_exits_of_hs033_and_hs037(sweep):
    statuses = {}
    degenerate = {}
    for name, draw, x0 in sweep.starts(0):
        if name not in ("HS033", "HS037"):
            continue
        report = engine.solve(corpus.get_problem(name).problem, x0)
        statuses[name, draw] = report.status
        if report.status is engine.SolveStatus.DEGENERATE:
            degenerate[name, draw] = (report.ni, report.message)
    assert degenerate == SEED0_DEGENERATE_HS033_HS037
    assert len(statuses) == 60
    assert all(status is engine.SolveStatus.CONVERGED for key, status in statuses.items()
               if key not in SEED0_DEGENERATE_HS033_HS037)


# Runs that each of the QP loop's three stop tests decides, by (seed,
# problem, draw): status and iteration count.  Every one converges; with
# the stall test off, the flat-step test never computed, or the tiny step
# not absorbed into d, each of its runs ends degenerate instead.
QP_STOP_TESTS = {
    "stuck": {(0, "HS030", 3): 17, (0, "HS030", 6): 10, (0, "HS030", 11): 16},
    "flat": {(0, "HS036", 9): 10, (0, "HS037", 7): 14, (0, "HS037", 8): 18},
    "tiny_norm": {(1, "HS037", 1): 18, (2, "HS033", 26): 11, (3, "HS033", 28): 7,
                  (3, "HS037", 7): 18},
}


@pytest.mark.parametrize("test", sorted(QP_STOP_TESTS))
def test_runs_that_each_qp_stop_test_decides(test, sweep):
    pinned = QP_STOP_TESTS[test]
    ended = {}
    for seed in sorted({seed for seed, _, _ in pinned}):
        for name, draw, x0 in sweep.starts(seed):
            if (seed, name, draw) in pinned:
                report = engine.solve(corpus.get_problem(name).problem, x0)
                ended[seed, name, draw] = (report.status, report.ni)
    assert ended == {key: (engine.SolveStatus.CONVERGED, ni) for key, ni in pinned.items()}
