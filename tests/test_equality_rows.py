"""Equality rows on real problems: Hock-Schittkowski problems with equality
constraints, each typed in from Hock & Schittkowski (1981) with analytic
gradients and solved from its published start under default options.

Every program is normalized as the corpus normalizes it: inequality rows
``f_i <= 0`` first (general rows, then simple bounds), equality rows
``f_i = 0`` after them.  A start is held as the entry's start "a" when the
reformulation (``f_eq <= 0``) holds there, and as "b" otherwise.  The
problems are kept out of ``corpus``: the benchmark's hs-corpus workload
runs every corpus entry, so a new entry there would move its counters.

HS051 also guards the push of the feasibility direction on equality rows:
pushed by |d0|**tau + phi**sigma, the correction's own shift, it ends as a
fixed point at k = 9 with KKT residual 1.4e-7, short of the tolerance.
"""

import math

import numpy as np
import pytest

from isqp import corpus, engine, model


def _entry(name, n, m_ineq, m_eq, f0, g0, f, gf, x0, fv):
    problem = model.NlpProblem(n=n, m_ineq=m_ineq, m_eq=m_eq, f0=f0, f=f,
                               grad_f0=g0, grad_f=gf, name=name)
    x0 = np.asarray(x0, dtype=float)
    counters = model.EvalCounters()
    feasible = model.point_values(problem, x0, counters).phi == 0.0
    return corpus.CorpusEntry(name=name, problem=problem,
                              x0_feasible=x0 if feasible else None,
                              x0_infeasible=None if feasible else x0,
                              fv_candidates=(fv,))


# HS006: min (1 - x1)^2  s.t. 10 (x2 - x1^2) = 0; start (-1.2, 1), minimum 0
# at (1, 1).
def _hs006():
    return _entry(
        "HS006", 2, 0, 1,
        lambda x: (1.0 - x[0]) ** 2,
        lambda x: np.array([-2.0 * (1.0 - x[0]), 0.0]),
        lambda x: np.array([10.0 * (x[1] - x[0] ** 2)]),
        lambda x: np.array([[-20.0 * x[0]], [10.0]]),
        [-1.2, 1.0], 0.0)


# HS039: min -x1  s.t. x2 - x1^3 - x3^2 = 0, x1^2 - x2 - x4^2 = 0;
# start (2, 2, 2, 2), minimum -1 at (1, 1, 0, 0).
def _hs039():
    return _entry(
        "HS039", 4, 0, 2,
        lambda x: -x[0],
        lambda x: np.array([-1.0, 0.0, 0.0, 0.0]),
        lambda x: np.array([x[1] - x[0] ** 3 - x[2] ** 2, x[0] ** 2 - x[1] - x[3] ** 2]),
        lambda x: np.array([[-3.0 * x[0] ** 2, 2.0 * x[0]],
                            [1.0, -1.0],
                            [-2.0 * x[2], 0.0],
                            [0.0, -2.0 * x[3]]]),
        [2.0, 2.0, 2.0, 2.0], -1.0)


# HS040: min -x1 x2 x3 x4  s.t. x1^3 + x2^2 - 1 = 0, x1^2 x4 - x3 = 0,
# x4^2 - x2 = 0; start (0.8, 0.8, 0.8, 0.8), minimum -0.25 at
# (2^(-1/3), 2^(-1/2), 2^(-11/12), 2^(-1/4)).
def _hs040():
    return _entry(
        "HS040", 4, 0, 3,
        lambda x: -x[0] * x[1] * x[2] * x[3],
        lambda x: -np.array([x[1] * x[2] * x[3], x[0] * x[2] * x[3],
                             x[0] * x[1] * x[3], x[0] * x[1] * x[2]]),
        lambda x: np.array([x[0] ** 3 + x[1] ** 2 - 1.0, x[0] ** 2 * x[3] - x[2],
                            x[3] ** 2 - x[1]]),
        lambda x: np.array([[3.0 * x[0] ** 2, 2.0 * x[0] * x[3], 0.0],
                            [2.0 * x[1], 0.0, -1.0],
                            [0.0, -1.0, 0.0],
                            [0.0, x[0] ** 2, 2.0 * x[3]]]),
        [0.8, 0.8, 0.8, 0.8], -0.25)


# HS051: min (x1 - x2)^2 + (x2 + x3 - 2)^2 + (x4 - 1)^2 + (x5 - 1)^2
# s.t. x1 + 3 x2 - 4 = 0, x3 + x4 - 2 x5 = 0, x2 - x5 = 0;
# start (2.5, 0.5, 2, -1, 0.5), minimum 0 at (1, 1, 1, 1, 1).
def _hs051():
    jac = np.array([[1.0, 0.0, 0.0],
                    [3.0, 0.0, 1.0],
                    [0.0, 1.0, 0.0],
                    [0.0, 1.0, 0.0],
                    [0.0, -2.0, -1.0]])
    return _entry(
        "HS051", 5, 0, 3,
        lambda x: ((x[0] - x[1]) ** 2 + (x[1] + x[2] - 2.0) ** 2 + (x[3] - 1.0) ** 2
                   + (x[4] - 1.0) ** 2),
        lambda x: np.array([2.0 * (x[0] - x[1]),
                            -2.0 * (x[0] - x[1]) + 2.0 * (x[1] + x[2] - 2.0),
                            2.0 * (x[1] + x[2] - 2.0),
                            2.0 * (x[3] - 1.0),
                            2.0 * (x[4] - 1.0)]),
        lambda x: np.array([x[0] + 3.0 * x[1] - 4.0, x[2] + x[3] - 2.0 * x[4], x[1] - x[4]]),
        lambda x: jac,
        [2.5, 0.5, 2.0, -1.0, 0.5], 0.0)


# HS077: min (x1 - 1)^2 + (x1 - x2)^2 + (x3 - 1)^2 + (x4 - 1)^4 + (x5 - 1)^6
# s.t. x1^2 x4 + sin(x4 - x5) - 2 sqrt2 = 0, x2 + x3^4 x4^2 - 8 - sqrt2 = 0;
# start (2, 2, 2, 2, 2), minimum 0.24150513.
def _hs077():
    root2 = math.sqrt(2.0)
    return _entry(
        "HS077", 5, 0, 2,
        lambda x: ((x[0] - 1.0) ** 2 + (x[0] - x[1]) ** 2 + (x[2] - 1.0) ** 2
                   + (x[3] - 1.0) ** 4 + (x[4] - 1.0) ** 6),
        lambda x: np.array([2.0 * (x[0] - 1.0) + 2.0 * (x[0] - x[1]),
                            -2.0 * (x[0] - x[1]),
                            2.0 * (x[2] - 1.0),
                            4.0 * (x[3] - 1.0) ** 3,
                            6.0 * (x[4] - 1.0) ** 5]),
        lambda x: np.array([x[0] ** 2 * x[3] + math.sin(x[3] - x[4]) - 2.0 * root2,
                            x[1] + x[2] ** 4 * x[3] ** 2 - 8.0 - root2]),
        lambda x: np.array([[2.0 * x[0] * x[3], 0.0],
                            [0.0, 1.0],
                            [0.0, 4.0 * x[2] ** 3 * x[3] ** 2],
                            [x[0] ** 2 + math.cos(x[3] - x[4]), 2.0 * x[2] ** 4 * x[3]],
                            [-math.cos(x[3] - x[4]), 0.0]]),
        [2.0, 2.0, 2.0, 2.0, 2.0], 0.24150513)


# HS078: min x1 x2 x3 x4 x5  s.t. x1^2 + ... + x5^2 - 10 = 0,
# x2 x3 - 5 x4 x5 = 0, x1^3 + x2^3 + 1 = 0; start (-2, 1.5, 2, -1, -1),
# minimum -2.91970041.
def _hs078():
    def g0(x):
        return np.array([np.prod(np.delete(x, i)) for i in range(5)])

    return _entry(
        "HS078", 5, 0, 3,
        lambda x: float(np.prod(x)),
        g0,
        lambda x: np.array([x @ x - 10.0, x[1] * x[2] - 5.0 * x[3] * x[4],
                            x[0] ** 3 + x[1] ** 3 + 1.0]),
        lambda x: np.array([[2.0 * x[0], 0.0, 3.0 * x[0] ** 2],
                            [2.0 * x[1], x[2], 3.0 * x[1] ** 2],
                            [2.0 * x[2], x[1], 0.0],
                            [2.0 * x[3], -5.0 * x[4], 0.0],
                            [2.0 * x[4], -5.0 * x[3], 0.0]]),
        [-2.0, 1.5, 2.0, -1.0, -1.0], -2.91970041)


# HS071: min x1 x4 (x1 + x2 + x3) + x3  s.t. x1 x2 x3 x4 - 25 >= 0,
# x1^2 + x2^2 + x3^2 + x4^2 - 40 = 0, 1 <= x <= 5; start (1, 5, 5, 1),
# minimum 17.0140173.
def _hs071():
    def f(x):
        bounds = np.ravel([[1.0 - xi, xi - 5.0] for xi in x])
        return np.concatenate(([25.0 - np.prod(x)], bounds, [x @ x - 40.0]))

    def gf(x):
        cols = np.zeros((4, 10))
        cols[:, 0] = -np.array([np.prod(np.delete(x, i)) for i in range(4)])
        for i in range(4):
            cols[i, 1 + 2 * i] = -1.0
            cols[i, 2 + 2 * i] = 1.0
        cols[:, 9] = 2.0 * x
        return cols

    return _entry(
        "HS071", 4, 9, 1,
        lambda x: x[0] * x[3] * (x[0] + x[1] + x[2]) + x[2],
        lambda x: np.array([x[3] * (2.0 * x[0] + x[1] + x[2]), x[0] * x[3],
                            x[0] * x[3] + 1.0, x[0] * (x[0] + x[1] + x[2])]),
        f, gf, [1.0, 5.0, 5.0, 1.0], 17.0140173)


SOLVED = {entry.name: entry for entry in (
    _hs006(), _hs039(), _hs040(), _hs051(), _hs077(), _hs078())}
ALL = {**SOLVED, "HS071": _hs071()}


@pytest.mark.parametrize("name", sorted(ALL))
def test_analytic_gradients_match_central_differences(name):
    corpus.verify_gradients(ALL[name])


@pytest.mark.parametrize("name,label", [
    ("HS006", "a"), ("HS039", "a"), ("HS051", "a"),
    ("HS040", "b"), ("HS071", "b"), ("HS077", "b"), ("HS078", "b"),
])
def test_published_start_label(name, label):
    assert list(ALL[name].starts) == [label]


@pytest.mark.parametrize("name", sorted(SOLVED))
def test_converges_to_the_reference_from_the_published_start(name):
    entry = SOLVED[name]
    (x0,) = entry.starts.values()
    options = engine.SolverOptions()
    report = engine.solve(entry.problem, x0, options)
    assert report.status is engine.SolveStatus.CONVERGED, report.message
    assert report.kkt_residual <= options.kkt_tol
    ref = entry.fv_reference
    assert abs(report.fv - ref) <= max(1e-6, 1e-7 * abs(ref))


def test_hs071_start_has_dependent_active_gradients():
    # At (1, 5, 5, 1) the product row, four bounds and the violated
    # equality all have fbar = 0: six rows in four variables, so the
    # multiplier estimate's normal matrix is singular.  The paper assumes
    # independent active gradients, so the run ends degenerate at k = 0.
    entry = ALL["HS071"]
    report = engine.solve(entry.problem, entry.x0_infeasible)
    assert report.status is engine.SolveStatus.DEGENERATE
    assert report.ni == 0
    assert report.message == "constraint gradients are dependent; multiplier estimate failed"
