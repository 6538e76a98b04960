"""A problem family with a planted solution, including rows that are active
at the solution with a zero multiplier, where strict complementarity fails.

The objective is 0.5 x'Qx + g'x with g = -Q x* - A'mu, and each row is
A_i (x - x*) + 0.5 (x - x*)'P_i (x - x*) - s_i with P_i positive
semidefinite.  Rows with s_i = 0 are active at x*: the first ``strong``
inequalities carry a positive multiplier, the next ``weak`` a zero one, and
the remaining inequalities have s_i > 0.  Equality rows follow, with s_i = 0
and multipliers of either sign.  The KKT conditions then hold at x* with
multipliers mu, and x* is a strict local minimizer: Q is at least the
identity and outweighs sum_i |mu_i| P_i.
"""

import numpy as np
import pytest

from isqp import engine, model


def planted_problem(seed, n=10, m_ineq=12, m_eq=0, strong=2, weak=2):
    """Returns (problem, x0, x*, mu) for one seed of the family."""
    rng = np.random.default_rng(seed)
    m = m_ineq + m_eq
    x_star = rng.standard_normal(n)
    a = rng.standard_normal((m, n))
    p = []
    for _ in range(m):
        b = rng.standard_normal((n, n))
        p.append(0.1 * (b @ b.T) / np.linalg.norm(b @ b.T, 2))  # spectral norm 0.1
    s = np.zeros(m)
    s[strong + weak:m_ineq] = rng.uniform(0.5, 2.0, m_ineq - strong - weak)
    mu = np.zeros(m)
    mu[:strong] = rng.uniform(0.5, 2.0, strong)
    mu[m_ineq:] = rng.uniform(-2.0, 2.0, m_eq)
    b = rng.standard_normal((n, n))
    q = np.eye(n) + b @ b.T / n
    g = -q @ x_star - a.T @ mu

    def rows(x):
        dx = x - x_star
        return a @ dx + 0.5 * np.array([dx @ pi @ dx for pi in p]) - s

    def row_gradients(x):
        dx = x - x_star
        return np.column_stack([a[i] + p[i] @ dx for i in range(m)])

    problem = model.NlpProblem(
        n=n, m_ineq=m_ineq, m_eq=m_eq,
        f0=lambda x: float(0.5 * x @ q @ x + g @ x),
        f=rows,
        grad_f0=lambda x: q @ x + g,
        grad_f=row_gradients,
        name=f"planted-n{n}-e{m_eq}-s{seed}",
    )
    return problem, x_star + rng.standard_normal(n), x_star, mu


def _evaluate(problem, x):
    counters = model.EvalCounters()
    vals = model.with_objective(problem, model.point_values(problem, x, counters), counters)
    return model.evaluate(problem, vals, counters)


@pytest.mark.parametrize("m_eq", [0, 2])
def test_planted_point_satisfies_kkt(m_eq):
    problem, _, x_star, mu = planted_problem(0, m_eq=m_eq)
    ev = _evaluate(problem, x_star)
    assert model.kkt_residual_original(ev, mu) <= 1e-14
    assert np.all(ev.fI[:4] == 0.0)  # the strongly and weakly active rows
    assert np.all(mu[2:4] == 0.0) and np.all(mu[:2] > 0.0)


# With the QP's former exit test (stop once every working-set multiplier is
# at least -10 * KKT_TOL * max(1, |grad|), then clip) the seeds 2, 7 and 10
# with equality rows and the seed 9 without end degenerate on "QP
# stationarity residual" within 3e-6 of x*; seed 0 converges either way.
@pytest.mark.parametrize("m_eq,seed", [(2, 0), (2, 2), (2, 7), (2, 10), (0, 0), (0, 9)])
def test_converges_to_the_planted_solution(m_eq, seed):
    problem, x0, x_star, _ = planted_problem(seed, m_eq=m_eq)
    options = engine.SolverOptions()
    report = engine.solve(problem, x0, options)
    assert report.status is engine.SolveStatus.CONVERGED, report.message
    assert report.kkt_residual <= options.kkt_tol
    assert model.kkt_residual_original(_evaluate(problem, report.x), report.mu) <= options.kkt_tol
    assert np.max(np.abs(report.x - x_star)) <= 1e-6
