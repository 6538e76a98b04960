"""Iteration-engine contracts: direction systems, step blending, the two
step searches, the curvature update, and end-to-end solves on synthetic
problems."""

import ast
import dataclasses
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest

from isqp import cli, corpus, engine, errors, linalg, model, qp
from isqp.errors import LineSearchStall, NumericalFailure

# The benchmark's problem families, from their one home (perfbench/, on
# pytest's pythonpath).
import workloads
from test_planted import planted_problem


def _toy_problem():
    """min (x-2)^2 s.t. x <= 1 and x >= 0; minimizer x = 1, multiplier 2."""
    return model.NlpProblem(
        n=1, m_ineq=2, m_eq=0,
        f0=lambda x: float((x[0] - 2.0) ** 2),
        f=lambda x: np.array([x[0] - 1.0, -x[0]]),
        grad_f0=lambda x: np.array([2.0 * (x[0] - 2.0)]),
        grad_f=lambda x: np.array([[1.0, -1.0]]),
    )


def _shared_factor(H, N, q):
    """engine.factor_shared with Y = H^-1 N and N'Y formed as the QP forms
    them."""
    y = linalg.solve_cholesky(linalg.cholesky(H), N)
    ny = N.T @ y
    return engine.factor_shared(H, N, q, y, 0.5 * (ny + ny.T))


def _evaluate(problem, x):
    """The solver's evaluation pipeline at x, under the roundoff floor
    model.PHI_TOL."""
    counters = model.EvalCounters()
    vals = model.with_objective(problem, model.point_values(problem, x, counters), counters)
    return model.evaluate(problem, vals, counters)


def _arc_shift(ev, d0):
    """The shift |d0|**tau + phi**sigma that step passes to the arc search."""
    return float(np.linalg.norm(d0)) ** engine.TAU + ev.phi ** engine.SIGMA


def _rate(ev, rho=engine.SolverOptions().rho):
    """The infeasible-phase reward per unit t that step passes to both
    searches, rho (1 - ALPHA) phi**theta."""
    return rho * (1.0 - engine.ALPHA) * ev.phi ** engine.THETA


def _q_diag(ev, d0):
    return engine.compute_q_diag(ev, ev.gI.T @ d0, float(np.linalg.norm(d0)))


def _gamma(H, N, q):
    """The shared coefficient matrix [[H, N], [N', -diag(q)]], assembled."""
    return np.block([[H, N], [N.T, -np.diag(q)]])


def _quadratic(hess_diag):
    diag = np.asarray(hess_diag, dtype=float)
    return model.NlpProblem(
        n=diag.size, m_ineq=0, m_eq=0,
        f0=lambda x: float(0.5 * x @ (diag * x)),
        grad_f0=lambda x: diag * x,
    )


def _half_ulp_problem():
    """A program no double can solve to the KKT tolerance, with its start.

    min 0.5 (u - 2^40)^2 + 2^-14 u - 2v  s.t.  v <= 1.  The minimizer
    u* = 2^40 - 2^-14 lies halfway between the adjacent doubles
    2^40 - 2^-13 and 2^40, where the gradient in u is -2^-14 and 2^-14, so
    the KKT residual stays above 1e-5 at every iterate.  From
    (2^40 - 0.75, 0.75) the run reaches u = 2^40 at k = 5 and, at k = 9, a
    point where the corrected arc at t = 1 rounds back to x: its step in u
    is half the spacing of the doubles there (a tie, rounded to the even
    2^40), and its step in v is the correction's inward push cancelling the
    QP's step to v = 1.  The row v <= 1 keeps multiplier 2 throughout, so
    every QP after the first starts from it.
    """
    u_star = 2.0 ** 40
    tie = 2.0 ** -14
    problem = model.NlpProblem(
        n=2, m_ineq=1, m_eq=0,
        f0=lambda x: float(0.5 * (x[0] - u_star) ** 2 + tie * x[0] - 2.0 * x[1]),
        grad_f0=lambda x: np.array([x[0] - u_star + tie, -2.0]),
        f=lambda x: np.array([x[1] - 1.0]),
        grad_f=lambda x: np.array([[0.0], [1.0]]),
        name="half-ulp",
    )
    return problem, np.array([u_star - 0.75, 0.75])


def _failing_from(monkeypatch, k):
    """Track the iteration engine.step runs; returns a predicate that holds
    from iteration k on (and not while x0 is evaluated)."""
    current = []
    real_step = engine.step

    def tracking(problem, state, options):
        current.append(state.k)
        return real_step(problem, state, options)

    monkeypatch.setattr(engine, "step", tracking)
    return lambda: bool(current) and current[-1] >= k


def _reject_trials(monkeypatch, failing):
    """Wrap model.point_values so that, while ``failing()`` holds, every
    point it evaluates reports violation inf: each search trial then fails
    the constraint bound, and the wrapped model.with_objective checks that
    no trial reaches the objective."""
    real_values = model.point_values
    real_objective = model.with_objective

    def values(*args, **kwargs):
        vals = real_values(*args, **kwargs)
        return dataclasses.replace(vals, phi=math.inf) if failing() else vals

    def objective(*args):
        assert not failing(), "a rejected trial reached the objective"
        return real_objective(*args)

    monkeypatch.setattr(model, "point_values", values)
    monkeypatch.setattr(model, "with_objective", objective)


class TestOptionsValidation:
    def test_defaults_are_valid(self):
        engine.SolverOptions()

    # Each value breaks the range the paper's analysis needs, or is not
    # finite.  The paper's fixed parameters (alpha ... c_init) are engine
    # constants, a run stops on the KKT certificate alone, the roundoff
    # floor is model.PHI_TOL, and every report keeps its trace, so
    # SolverOptions has no field to take any value for them, for alpha_hat,
    # for term_tol, for phi_tol or for keep_trace.
    @pytest.mark.parametrize("field,value", [
        ("alpha", 0.0), ("alpha", 1.0), ("alpha", 0.7), ("alpha_hat", 1.2), ("eta", 0.0),
        ("theta", 0.0), ("sigma", 1.0), ("kappa", 0.0), ("mu_bfgs", 1.0),
        ("rho", 1.0), ("tau", 2.0), ("tau", 3.0), ("epsilon", 0.0),
        ("p", 0.0), ("gamma", 0.0), ("gamma0", -1.0), ("c_init", 0.0),
        ("term_tol", 0.0), ("phi_tol", -1e-10), ("kkt_tol", -1.0), ("kkt_tol", 0.0),
        ("max_iter", 0),
        ("epsilon", math.nan), ("p", math.nan), ("gamma", math.nan),
        ("gamma0", math.nan), ("c_init", math.nan), ("term_tol", math.nan),
        ("kkt_tol", math.nan), ("alpha", math.nan), ("rho", math.nan),
        ("phi_tol", math.nan),
        ("rho", math.inf), ("term_tol", math.inf), ("phi_tol", math.inf),
        ("kkt_tol", math.inf),
        ("max_iter", 2.5), ("max_iter", math.nan), ("max_iter", math.inf),
        ("keep_trace", True),
        ("kkt_tol", True), ("max_iter", True), ("kkt_tol", np.True_),
    ])
    def test_out_of_range_rejected(self, field, value):
        settable = field in {f.name for f in dataclasses.fields(engine.SolverOptions)}
        with pytest.raises(ValueError if settable else TypeError):
            engine.SolverOptions(**{field: value})

    def test_integral_float_iteration_budget_becomes_int(self):
        options = engine.SolverOptions(max_iter=200.0)
        assert options.max_iter == 200 and type(options.max_iter) is int

    def test_caller_sets_only_these_fields(self):
        assert [f.name for f in dataclasses.fields(engine.SolverOptions)] == [
            "rho", "kkt_tol", "max_iter"]

    def test_paper_constants_keep_its_configuration_and_ranges(self):
        # The paper's benchmark values, inside the ranges its analysis needs.
        assert (engine.ALPHA, engine.ETA, engine.THETA, engine.SIGMA, engine.TAU,
                engine.EPSILON, engine.P, engine.GAMMA, engine.GAMMA0, engine.C_INIT,
                engine.KAPPA, engine.MU_BFGS) == (
                    0.5, 0.5, 0.4, 0.6, 2.5, 0.125, 2.0, 1.0, 2.0, 0.5, 0.5, 0.5)
        # The default sits exactly at the analysis' limit of 1/2.
        assert 0.0 < engine.ALPHA <= 0.5
        for value in (engine.ETA, engine.THETA, engine.SIGMA, engine.KAPPA, engine.MU_BFGS):
            assert 0.0 < value < 1.0
        assert 2.0 < engine.TAU < 3.0
        for value in (engine.EPSILON, engine.P, engine.GAMMA, engine.GAMMA0, engine.C_INIT):
            assert value > 0.0

    def test_descent_fraction_must_stay_below_violation_exponent(self):
        assert engine.THETA < engine.SIGMA

    def test_search_step_lengths(self):
        assert engine.ARC_STEPS == (1.0, 0.5, 0.25, 0.125)
        assert engine.ARC_STEPS[-1] >= engine.EPSILON > 0.5 * engine.ARC_STEPS[-1]
        assert len(engine.FD_STEPS) == engine.SEARCH_TRIALS + 1
        assert all(t == engine.ETA ** k for k, t in enumerate(engine.FD_STEPS))


class TestDampingDiagonal:
    def test_slack_row_scales_with_shift(self):
        # Single constraint x - 1 at x = 0: fbar = -1, gradient 1.  With
        # d0 = 2 the shift is |-1 + 2| + 2 = 3, so the entry is 1 * 3.
        prob = _toy_problem()
        ev = _evaluate(prob, [0.0])
        q = _q_diag(ev, np.array([2.0]))
        assert q[0] == pytest.approx(3.0, abs=1e-14)

    def test_rows_with_zero_shifted_value_are_pinned(self):
        # Second constraint -x is exactly zero at x = 0, so its entry
        # vanishes no matter the direction.
        prob = _toy_problem()
        ev = _evaluate(prob, [0.0])
        q = _q_diag(ev, np.array([2.0]))
        assert q[1] == 0.0

    def test_zero_exactly_on_active_rows(self):
        prob = _toy_problem()
        ev = _evaluate(prob, [0.0])
        q = _q_diag(ev, np.array([0.5]))
        assert np.all(q[ev.izero] == 0.0)
        others = np.setdiff1d(np.arange(ev.fI.size), ev.izero)
        assert np.all(q[others] > 0.0)

    def test_no_constraints_gives_empty(self):
        prob = _quadratic([1.0, 1.0])
        ev = _evaluate(prob, [1.0, 1.0])
        assert _q_diag(ev, np.ones(2)).size == 0


class TestSharedMatrix:
    def test_feasibility_system_hand_example(self):
        # Matrix [[1, 1], [1, -2]] with |d0| = 3 and no violation gives the
        # right-hand side (0, -3) and the solution (-1, 1).
        fac = _shared_factor(np.array([[1.0]]), np.array([[1.0]]), np.array([2.0]))
        d1, h1, res = engine.solve_shared(fac, -(3.0 + 0.0 ** 0.6))
        assert d1[0] == pytest.approx(-1.0, abs=1e-12)
        assert h1[0] == pytest.approx(1.0, abs=1e-12)
        assert res <= 1e-12

    def test_correction_system_hand_example(self):
        # Same matrix, |d0| = 1, exponent 2.5, curvature 0.5: right-hand
        # side (0, -1.5), solution (-0.5, 0.5).
        fac = _shared_factor(np.array([[1.0]]), np.array([[1.0]]), np.array([2.0]))
        d2, h2, res = engine.solve_shared(fac, -(1.0 ** 2.5 + 0.0 ** 0.6)
                                          - np.array([0.5]))
        assert d2[0] == pytest.approx(-0.5, abs=1e-12)
        assert h2[0] == pytest.approx(0.5, abs=1e-12)
        assert res <= 1e-12

    def test_both_systems_reuse_one_factorization(self):
        # The two directions must come from the same coefficient matrix:
        # solving against a fresh numpy factor of that matrix reproduces
        # both to roundoff.
        rng = np.random.default_rng(4)
        H = rng.normal(size=(3, 3))
        H = H @ H.T + np.eye(3)
        N = rng.normal(size=(3, 2))
        q = np.abs(rng.normal(size=2)) + 0.5
        gamma = _gamma(H, N, q)
        fac = _shared_factor(H, N, q)
        d0 = rng.normal(size=3)
        phi = 0.7
        curvature = rng.normal(size=2)

        norm_d0 = np.linalg.norm(d0)
        d1, h1, _ = engine.solve_shared(fac, -(norm_d0 + phi ** 0.6))
        d2, h2, _ = engine.solve_shared(fac, -(norm_d0 ** 2.5 + phi ** 0.6)
                                        - curvature)
        rhs1 = np.zeros(5)
        rhs1[3:] = -(np.linalg.norm(d0) + phi ** 0.6)
        rhs2 = np.zeros(5)
        rhs2[3:] = -(np.linalg.norm(d0) ** 2.5 + phi ** 0.6) - curvature
        assert np.allclose(np.concatenate([d1, h1]),
                           np.linalg.solve(gamma, rhs1), atol=1e-10)
        assert np.allclose(np.concatenate([d2, h2]),
                           np.linalg.solve(gamma, rhs2), atol=1e-10)

    def test_schur_solve_matches_dense_solve(self):
        rng = np.random.default_rng(11)
        for trial in range(60):
            n = int(rng.integers(1, 15))
            m = int(rng.integers(0, 2 * n + 1))
            g = rng.normal(size=(n, n))
            H = g @ g.T + 0.1 * np.eye(n)
            N = rng.normal(size=(n, m))
            q = np.abs(rng.normal(size=m))
            if m <= n and trial % 3 == 0:
                q[: m // 2] = 0.0  # pinned rows: N'Y alone must carry them
            lower = rng.normal(size=m)
            d, h, res = engine.solve_shared(_shared_factor(H, N, q), lower)
            gamma = _gamma(H, N, q)
            z = np.linalg.solve(gamma, np.concatenate([np.zeros(n), lower]))
            scale = max(1.0, np.max(np.abs(z)))
            assert np.max(np.abs(np.concatenate([d, h]) - z)) <= 1e-9 * scale
            assert res <= linalg.RESIDUAL_TOL

    @pytest.mark.parametrize("block", ["y", "low"])
    def test_corrupted_factor_fails_the_residual_check(self, block):
        # A wrong Y breaks the top block H d + N h = 0, a wrong factor of S
        # the bottom block N'd - q*h = lower; either must raise.
        rng = np.random.default_rng(5)
        g = rng.normal(size=(3, 3))
        H = g @ g.T + np.eye(3)
        N = rng.normal(size=(3, 2))
        fac = _shared_factor(H, N, np.abs(rng.normal(size=2)) + 0.5)
        lower = rng.normal(size=2)
        engine.solve_shared(fac, lower)
        corrupted = dataclasses.replace(fac, **{block: 1.01 * getattr(fac, block)})
        with pytest.raises(NumericalFailure, match="exceeds tolerance"):
            engine.solve_shared(corrupted, lower)

    def test_singular_matrix_raises(self):
        # Two equal columns of N on pinned rows (q = 0): Gamma is singular.
        N = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NumericalFailure, match="shared coefficient matrix"):
            _shared_factor(np.eye(2), N, np.zeros(2))

    def test_singular_matrix_ends_the_run_degenerate(self):
        # x - 1 <= 0 twice, from x = 3: both rows carry the violation, so
        # fbar and q vanish on both and their gradients are equal.
        prob = model.NlpProblem(
            n=1, m_ineq=2, m_eq=0,
            f0=lambda x: float((x[0] - 2.0) ** 2),
            f=lambda x: np.array([x[0] - 1.0, x[0] - 1.0]),
            grad_f0=lambda x: np.array([2.0 * (x[0] - 2.0)]),
            grad_f=lambda x: np.array([[1.0, 1.0]]),
        )
        report = engine.solve(prob, [3.0])
        assert report.status is engine.SolveStatus.DEGENERATE
        assert report.ni == 0
        assert report.message.startswith("shared coefficient matrix is singular")

    def test_no_lu_factor_on_the_solve_path(self, monkeypatch):
        def forbidden(a):
            raise AssertionError("LU factor called")

        monkeypatch.setattr(linalg, "lu_factor", forbidden)
        monkeypatch.setattr(linalg, "LuFactorization", forbidden)
        entry = corpus.get_problem("HS035")
        report = engine.solve(entry.problem, entry.x0_infeasible)
        assert report.status is engine.SolveStatus.CONVERGED


class TestSecondOrderResidual:
    def test_linear_constraints_have_none(self):
        prob = _toy_problem()
        ev = _evaluate(prob, [0.3])
        d0 = np.array([0.7])
        res = engine.second_order_residual(prob, ev, d0, ev.gI.T @ d0,
                                           model.EvalCounters())
        assert np.allclose(res, 0.0, atol=1e-14)

    def test_quadratic_constraint_is_exact(self):
        prob = model.NlpProblem(
            n=1, m_ineq=1, m_eq=0, f0=lambda x: 0.0,
            f=lambda x: np.array([x[0] ** 2]),
            grad_f0=lambda x: np.zeros(1),
            grad_f=lambda x: np.array([[2.0 * x[0]]]),
        )
        ev = _evaluate(prob, [2.0])
        d0 = np.array([0.5])
        res = engine.second_order_residual(prob, ev, d0, ev.gI.T @ d0,
                                           model.EvalCounters())
        # (x + d)^2 - x^2 - 2 x d = d^2 exactly.
        assert res[0] == pytest.approx(0.25, abs=1e-14)

    def test_costs_one_constraint_vector_and_no_objective(self):
        prob = _toy_problem()
        ev = _evaluate(prob, [0.3])
        counters = model.EvalCounters()
        d0 = np.array([0.1])
        engine.second_order_residual(prob, ev, d0, ev.gI.T @ d0, counters)
        assert (counters.nf0, counters.nf) == (0, 2)


class TestBlendWeight:
    def test_hand_example(self):
        # slopes a = -1, b = 1, retention THETA = 0.4, no violation:
        # ((0.4 - 1)(-1) + 0) / (1 - (-1)) = 0.3.
        assert engine.compute_beta(-1.0, 1.0, 0.0) == pytest.approx(0.3)

    def test_full_weight_when_second_slope_no_worse(self):
        assert engine.compute_beta(-1.0, -2.0, 0.0) == 1.0
        assert engine.compute_beta(-1.0, -1.0, 0.0) == 1.0

    def test_clamped_at_one(self):
        assert engine.compute_beta(-1.0, -0.9, 0.0) == 1.0

    def test_violation_buys_slack(self):
        lo = engine.compute_beta(-1.0, 1.0, 0.0)
        hi = engine.compute_beta(-1.0, 1.0, 0.5)
        assert hi > lo

    def test_matches_grid_search_oracle(self):
        # The returned weight must be (up to grid resolution) the largest
        # value in [0, 1] keeping the blended slope below the descent bound.
        rng = np.random.default_rng(13)
        grid = np.linspace(0.0, 1.0, 20001)
        for _ in range(200):
            a = -rng.uniform(0.1, 5.0)
            b = rng.uniform(-5.0, 5.0)
            phi = rng.choice([0.0, rng.uniform(0.0, 2.0)])
            bound = engine.THETA * a + phi ** engine.THETA
            ok = (1.0 - grid) * a + grid * b <= bound + 1e-12
            oracle = grid[ok][-1] if ok.any() else 0.0
            beta = engine.compute_beta(a, b, phi)
            assert 0.0 <= beta <= 1.0
            assert beta == pytest.approx(oracle, abs=1e-4)
            assert (1.0 - beta) * a + beta * b <= bound + 1e-9


def _recording(problem):
    """The program with f0 and f wrapped to record every point each is
    called at (its first coordinate)."""
    seen_f0, seen_f = [], []

    def f0(x):
        seen_f0.append(float(x[0]))
        return problem.f0(x)

    def f(x):
        seen_f.append(float(x[0]))
        return problem.f(x)

    return dataclasses.replace(problem, f0=f0, f=f), seen_f0, seen_f


def _trial_values(problem, ev, d, t, shift, slope, c, fc0, rate):
    """The trial ev.x + t d under the three tests of a search, evaluated on
    fresh counters and never screened: its values when it passes the
    constraint bound, the satisfied count and the merit decrease, else
    None."""
    counters = model.EvalCounters()
    trial = model.point_values(problem, ev.x + t * d, counters)
    if (trial.phi > max(0.0, ev.phi - engine.ALPHA * t * shift)
            or trial.n_satisfied < ev.n_satisfied):
        return None
    trial = model.with_objective(problem, trial, counters)
    if model.penalty_value(trial, c) > fc0 + engine.ALPHA * t * slope + rate * t:
        return None
    return trial


def _reference_search(problem, ev, d, steps, shift, slope, c, fc0, rate):
    """The paper's plain trial loop: each t of ``steps`` in turn, every one
    evaluated (see ``_trial_values``); returns (t, trial values) at the
    first that passes, or None."""
    for t in steps:
        trial = _trial_values(problem, ev, d, t, shift, slope, c, fc0, rate)
        if trial is not None:
            return t, trial
    return None


class TestArcSearch:
    def test_full_step_on_well_scaled_quadratic(self):
        prob = _quadratic([1.0, 1.0])
        ev = _evaluate(prob, [1.0, 0.0])
        d0 = -ev.g0
        slope = float(ev.g0 @ d0)
        t, trial = engine.arc_search(prob, ev, d0, _arc_shift(ev, d0), slope, slope,
                                     0.5, ev.f0, _rate(ev),
                                     model.EvalCounters())
        assert t == 1.0
        assert np.allclose(trial.x, 0.0)

    def test_halves_until_merit_accepts(self):
        # Quartic with an overlong direction: t = 1 and 1/2 overshoot the
        # required decrease, t = 1/4 passes.  The merit's slope -6 along d
        # passes the first-order test (-6 <= alpha * -6), so the search
        # halves on after its rejected unit trial.
        prob = model.NlpProblem(n=1, m_ineq=0, m_eq=0,
                                f0=lambda x: float(x[0] ** 4),
                                grad_f0=lambda x: np.array([4.0 * x[0] ** 3]))
        ev = _evaluate(prob, [1.0])
        d = np.array([-1.5])
        t, trial = engine.arc_search(prob, ev, d, _arc_shift(ev, d), -6.0, -6.0, 0.5, ev.f0,
                                     _rate(ev),
                                     model.EvalCounters())
        assert t == 0.25
        assert trial.x[0] == pytest.approx(0.625)

    def test_abandons_below_threshold(self):
        # An ascent direction never passes: its merit slope 2 exceeds the
        # test's rate alpha * -1 at phi = 0, so the search stops after its
        # rejected unit trial.
        prob = _quadratic([2.0])
        ev = _evaluate(prob, [1.0])
        counters = model.EvalCounters()
        d = np.array([1.0])
        result = engine.arc_search(prob, ev, d, _arc_shift(ev, d), -1.0, float(ev.g0 @ d), 0.5,
                                   ev.f0, _rate(ev), counters)
        assert result is None
        assert counters.nf0 == 1

    def test_unit_trial_is_tried_whatever_the_merit_slope(self):
        # f0 = x - 2 x^2 from x = 0 along d = 1: the merit rises to first
        # order (slope 1 against the rate ALPHA * -1), but its negative
        # curvature brings f0(1) = -1 under the bound fc0 + ALPHA * -1.
        prob = model.NlpProblem(n=1, m_ineq=0, m_eq=0,
                                f0=lambda x: float(x[0] - 2.0 * x[0] ** 2),
                                grad_f0=lambda x: np.array([1.0 - 4.0 * x[0]]))
        ev = _evaluate(prob, [0.0])
        counters = model.EvalCounters()
        d = np.array([1.0])
        arc_slope = float(ev.g0 @ d)
        assert arc_slope > engine.ALPHA * -1.0
        t, trial = engine.arc_search(prob, ev, d, _arc_shift(ev, d), -1.0, arc_slope, 0.5,
                                     ev.f0, _rate(ev), counters)
        assert t == 1.0
        assert trial.f0 == -1.0
        assert counters.nf0 == 1

    def test_both_searches_read_the_merit_fraction_constant(self, monkeypatch):
        # f0 = x^2 from x = 1 along d = -1.25, slope -2.5: f0(1 + d) = 0.0625
        # fails the bound 1 + ALPHA * -2.5 at ALPHA = 1/2 (both searches
        # then accept t = 1/2) and passes it at ALPHA = 1/4.
        prob = _quadratic([2.0])
        ev = _evaluate(prob, [1.0])
        d = np.array([-1.25])
        slope = float(ev.g0 @ d)

        def steps():
            arc = engine.arc_search(prob, ev, d, _arc_shift(ev, d), slope, slope, 0.5, ev.f0,
                                    _rate(ev), model.EvalCounters())
            fd = engine.feasible_direction_search(prob, ev, d, 0.0, slope, 0.5, ev.f0,
                                                  _rate(ev), model.EvalCounters())
            return arc[0], fd[0]

        assert steps() == (0.5, 0.5)
        monkeypatch.setattr(engine, "ALPHA", 0.25)
        assert steps() == (1.0, 1.0)

    @staticmethod
    def _count_cut_short_arcs(monkeypatch, runs):
        """Solve each (problem, x0) of ``runs`` while checking every arc the
        engine rejects: the paper's full halving loop over ARC_STEPS, every
        trial evaluated and none screened, rerun on fresh counters, rejects
        it too, so cutting an arc short moves only the evaluation counts.
        Returns the count of arcs rejected with their unit trial the only
        one evaluated."""
        real_arc_search = engine.arc_search
        cut = 0

        def checking(problem, ev, d, shift, slope, arc_slope, c, fc0, rate, counters):
            nonlocal cut
            assert arc_slope == float(model.penalty_gradient(ev, c) @ d)
            nf = counters.nf
            hit = real_arc_search(problem, ev, d, shift, slope, arc_slope, c, fc0, rate,
                                  counters)
            if hit is None:
                cut += counters.nf - nf == problem.m  # one trial's constraint values
                assert _reference_search(problem, ev, d, engine.ARC_STEPS, shift, slope, c,
                                         fc0, rate) is None
            return hit

        monkeypatch.setattr(engine, "arc_search", checking)
        for problem, x0 in runs:
            assert engine.solve(problem, x0).status is engine.SolveStatus.CONVERGED
        return cut

    def test_corpus_arcs_cut_short_fail_every_shorter_trial(self, monkeypatch):
        runs = [(entry.problem, x0) for entry in map(corpus.get_problem, corpus.list_problems())
                for x0 in (entry.x0_feasible, entry.x0_infeasible) if x0 is not None]
        assert len(runs) == 25
        assert self._count_cut_short_arcs(monkeypatch, runs) > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_logit_arcs_cut_short_fail_every_shorter_trial(self, monkeypatch, seed):
        runs = [workloads.logit_problem(seed, samples=5000)]
        assert self._count_cut_short_arcs(monkeypatch, runs) > 0

    def test_never_loses_satisfied_constraints(self):
        # Moving from x = 0.5 toward 2 keeps decreasing the objective but
        # lands outside the box at full step; the accepted point must still
        # satisfy both constraints.
        prob = _toy_problem()
        ev = _evaluate(prob, [0.5])
        d = np.array([0.5])
        slope = float(ev.g0 @ d)
        hit = engine.arc_search(prob, ev, d, _arc_shift(ev, d), slope, slope, 0.5, ev.f0,
                                _rate(ev), model.EvalCounters())
        assert hit is not None
        t, trial = hit
        assert trial.n_satisfied >= ev.n_satisfied
        assert trial.phi == 0.0


class TestFeasibleDirectionSearch:
    def test_geometric_backtracking(self):
        prob = model.NlpProblem(n=1, m_ineq=0, m_eq=0,
                                f0=lambda x: float(x[0] ** 4),
                                grad_f0=lambda x: np.array([4.0 * x[0] ** 3]))
        ev = _evaluate(prob, [1.0])
        t, trial = engine.feasible_direction_search(
            prob, ev, np.array([-1.5]), 0.0, -6.0, 0.5, ev.f0,
            _rate(ev), model.EvalCounters())
        assert t == 0.25

    def test_raises_after_trial_budget(self):
        # A constraint satisfied only at the starting point: every trial
        # loses it, so no step length can ever be accepted.
        prob = model.NlpProblem(
            n=1, m_ineq=1, m_eq=0,
            f0=lambda x: float(x[0] ** 2),
            f=lambda x: np.array([0.0 if x[0] == 1.0 else 1.0]),
            grad_f0=lambda x: 2.0 * x,
            grad_f=lambda x: np.zeros((1, 1)),
        )
        ev = _evaluate(prob, [1.0])
        counters = model.EvalCounters()
        # The direction is long enough that no trial within the budget
        # rounds back onto the starting point.
        with pytest.raises(LineSearchStall):
            engine.feasible_direction_search(
                prob, ev, np.array([-1e6]), 0.0, -2.0, 0.5, ev.f0,
                _rate(ev), counters)
        # Every trial loses the constraint, so none reaches the objective.
        assert counters.nf == engine.SEARCH_TRIALS + 1
        assert counters.nf0 == 0

    def test_strictly_shrinks_violation_outside_feasible_set(self):
        prob = _toy_problem()
        ev = _evaluate(prob, [3.0])  # violation 2 from the upper bound
        dhat = np.array([-1.0])
        slope = float(ev.g0 @ dhat)
        shift = 0.5 * (np.linalg.norm(dhat) + ev.phi ** engine.SIGMA)  # beta = 0.5
        t, trial = engine.feasible_direction_search(
            prob, ev, dhat, shift, slope, 0.5, ev.f0, _rate(ev), model.EvalCounters())
        assert trial.phi < ev.phi


class TestTrialOrder:
    """A search trial is tested on its constraint values first; the
    objective is evaluated only at a trial that passes both constraint
    tests, and a trial that the screen proves to break the violation bound
    is not evaluated at all."""

    def test_arc_search_skips_f0_on_trials_over_the_bound(self):
        # From x = 0.5 along d = 4 the trials x = 4.5, 2.5, 1.5 break x <= 1.
        # The rows are linear, so once x = 4.5 is rejected the screen proves
        # that x = 2.5 and 1.5 break it too, and skips them; only the last
        # trial, x = 1 at t = 1/8, reaches the objective.
        prob, seen, seen_f = _recording(_toy_problem())
        ev = _evaluate(prob, [0.5])
        seen.clear()
        seen_f.clear()
        counters = model.EvalCounters()
        d = np.array([4.0])
        slope = float(ev.g0 @ d)
        t, trial = engine.arc_search(prob, ev, d, _arc_shift(ev, d), slope, slope, 0.5,
                                     ev.f0, _rate(ev), counters)
        assert t == 0.125
        assert seen == [1.0]
        assert seen_f == [4.5, 1.0]
        assert counters.nf0 == 1
        assert counters.nf == 2 * prob.m
        assert trial.f0 == prob.f0(trial.x)

    def test_feasible_direction_search_skips_f0_on_both_constraint_tests(self):
        # From x = 3 (violation 2, two satisfied rows) along dhat = -8:
        # x = -5 breaks the bound, x = -1 stays under it but loses a
        # satisfied row, x = 1 fails the objective test and x = 2 passes.
        # The screen tests only the bound, so x = -1 is evaluated and
        # rejected on its constraint values, and neither it nor x = -5
        # reaches the objective.  That needs the paper's rho = 2: a larger
        # reward for shrinking the violation lets x = 1 pass.
        prob, seen, seen_f = _recording(model.NlpProblem(
            n=1, m_ineq=3, m_eq=0,
            f0=lambda x: float((x[0] - 2.0) ** 2),
            f=lambda x: np.array([x[0] - 1.0, -x[0], -x[0] - 0.5]),
            grad_f0=lambda x: np.array([2.0 * (x[0] - 2.0)]),
            grad_f=lambda x: np.array([[1.0, -1.0, -1.0]]),
        ))
        ev = _evaluate(prob, [3.0])
        seen.clear()
        seen_f.clear()
        counters = model.EvalCounters()
        dhat = np.array([-8.0])
        t, trial = engine.feasible_direction_search(
            prob, ev, dhat, 0.0, float(ev.g0 @ dhat), 0.5, ev.f0,
            _rate(ev, rho=2.0), counters)
        assert t == 0.125
        assert seen == [1.0, 2.0]
        assert seen_f == [-5.0, -1.0, 1.0, 2.0]
        assert counters.nf0 == 2
        assert counters.nf == 4 * prob.m
        assert trial.f0 == prob.f0(trial.x)


class TestTrialScreen:
    """Once a search trial is rejected, a shorter one is skipped, unevaluated,
    when the tangent at 0 and the chord to the rejected trial prove that it
    breaks the violation bound (``engine._proven_to_fail``); the satisfied
    count is not screened."""

    @staticmethod
    def _one_row(row, drow, f0=lambda x: -x, df0=lambda x: -1.0):
        """min f0(x) s.t. row(x) <= 0, from x = 0 where row is -1, with f
        wrapped to record every point it is called at."""
        prob, _, seen_f = _recording(model.NlpProblem(
            n=1, m_ineq=1, m_eq=0,
            f0=lambda x: float(f0(x[0])),
            f=lambda x: np.array([row(x[0])]),
            grad_f0=lambda x: np.array([df0(x[0])]),
            grad_f=lambda x: np.array([[drow(x[0])]]),
        ))
        ev = _evaluate(prob, [0.0])
        seen_f.clear()
        return prob, ev, seen_f

    @staticmethod
    def _arc(prob, ev, d):
        """The arc search along d, whose merit test passes at every t;
        returns its result and the arguments of ``_trial_values`` but t."""
        d = np.array([d])
        slope = float(ev.g0 @ d)
        shift, c, rate = _arc_shift(ev, d), 0.5, _rate(ev)
        hit = engine.arc_search(prob, ev, d, shift, slope, slope, c, ev.f0, rate,
                                model.EvalCounters())
        return hit, (d, shift, slope, c, ev.f0, rate)

    @pytest.mark.parametrize("d", [1.0, 4.0, 100.0, 1000.0])
    def test_skip_is_exact_on_linear_rows(self, d):
        # x <= 1 and x >= 0 from x = 0.5: after the rejected unit trial, the
        # search evaluates only the trial it accepts, the first t with
        # 0.5 + t d <= 1, and skips exactly the trials that break x <= 1.
        prob, _, seen_f = _recording(_toy_problem())
        prob = dataclasses.replace(prob, f0=lambda x: float(-x[0]),
                                   grad_f0=lambda x: np.array([-1.0]))
        ev = _evaluate(prob, [0.5])
        seen_f.clear()
        counters = model.EvalCounters()
        dhat = np.array([d])
        slope = float(ev.g0 @ dhat)
        args = (dhat, 0.0, slope, 0.5, ev.f0, _rate(ev))
        t, trial = engine.feasible_direction_search(prob, ev, *args, counters)
        assert seen_f == [0.5 + d, 0.5 + t * d]
        assert counters.nf == 2 * prob.m
        assert t == 2.0 ** -math.ceil(math.log2(2.0 * d))
        assert t == _reference_search(prob, ev, dhat, engine.FD_STEPS, *args[1:])[0]
        for skipped in engine.FD_STEPS[1:engine.FD_STEPS.index(t)]:
            assert _trial_values(prob, ev, *args[:1], skipped, *args[1:]) is None

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_skip_reads_the_roundoff_floor(self, scale):
        # x <= 1 and scale * x >= 0 from x = 0.5 along d = 1 + PHI_TOL scale:
        # at t = 1/2 the row x - 1 is PHI_TOL scale / 2, over the bound 0
        # but under the roundoff floor PHI_TOL max(1, scale x), so the trial
        # passes, and the screen, which reads the floor too, evaluates it.
        prob, _, seen_f = _recording(model.NlpProblem(
            n=1, m_ineq=2, m_eq=0,
            f0=lambda x: float(-x[0]),
            f=lambda x: np.array([x[0] - 1.0, -scale * x[0]]),
            grad_f0=lambda x: np.array([-1.0]),
            grad_f=lambda x: np.array([[1.0, -scale]]),
        ))
        ev = _evaluate(prob, [0.5])
        seen_f.clear()
        dhat = np.array([1.0 + model.PHI_TOL * scale])
        t, trial = engine.feasible_direction_search(
            prob, ev, dhat, 0.0, float(ev.g0 @ dhat), 0.5, ev.f0, _rate(ev),
            model.EvalCounters())
        assert t == 0.5
        assert 0.0 < trial.fI[0] <= model.PHI_TOL * scale and trial.phi == 0.0
        assert seen_f == [0.5 + dhat[0], trial.x[0]]

    @pytest.mark.parametrize("row, drow", [
        (lambda x: x * x + 3.0 * x - 1.0, lambda x: 2.0 * x + 3.0),    # convex
        (lambda x: -x * x + 4.0 * x - 1.0, lambda x: -2.0 * x + 4.0),  # concave
    ], ids=["convex", "concave"])
    def test_skip_holds_on_convex_and_concave_rows(self, row, drow):
        # Both rows break the bound at t = 1 and 1/2 and hold at t = 1/4.
        # The tangent (below a convex row) or the chord (below a concave
        # one) is 1/2 at t = 1/2, so that trial is skipped.
        prob, ev, seen_f = self._one_row(row, drow)
        (t, trial), args = self._arc(prob, ev, 1.0)
        assert t == 0.25
        assert seen_f == [1.0, 0.25]
        assert _trial_values(prob, ev, args[0], 0.5, *args[1:]) is None
        assert _trial_values(prob, ev, args[0], 0.25, *args[1:]) is not None

    def test_inflected_row_only_shortens_the_step(self):
        # -1 + 4x - 16x^2 (1 - x) bends at x = 1/3: its tangent at 0 and its
        # chord to x = 1 are both -1 + 4x, which is 1 at x = 1/2 while the
        # row is -1 there.  The screen skips t = 1/2, a trial that passes
        # every test, and the search accepts the shorter t = 1/4, which
        # passes every test too.
        prob, ev, seen_f = self._one_row(lambda x: -1.0 + 4.0 * x - 16.0 * x * x * (1.0 - x),
                                         lambda x: 4.0 - 32.0 * x + 48.0 * x * x)
        (t, trial), args = self._arc(prob, ev, 1.0)
        assert t == 0.25
        assert seen_f == [1.0, 0.25]
        assert _trial_values(prob, ev, args[0], 0.5, *args[1:]) is not None
        assert np.array_equal(_trial_values(prob, ev, args[0], t, *args[1:]).fI, trial.fI)

    def test_inflected_row_before_failing_trials_rejects_the_arc_but_not_the_fd_step(self):
        # The row above under f0 = x - 4x^2, searched with slope -1.8: the
        # merit test reads x - 4x^2 <= -0.9 t, which t = 1/2 passes and every
        # shorter trial fails.  The screen skips t = 1/2, so the arc search
        # is rejected where the plain loop accepts t = 1/2, which hands the
        # iteration to the feasible-direction branch.  That search, instead
        # of stalling, evaluates the trial it skipped once every other has
        # failed and returns the plain loop's step.
        prob, ev, seen_f = self._one_row(lambda x: -1.0 + 4.0 * x - 16.0 * x * x * (1.0 - x),
                                         lambda x: 4.0 - 32.0 * x + 48.0 * x * x,
                                         lambda x: x - 4.0 * x * x, lambda x: 1.0 - 8.0 * x)
        d = np.array([1.0])
        args = (0.0, -1.8, 0.5, ev.f0, _rate(ev))
        assert _reference_search(prob, ev, d, engine.ARC_STEPS, *args)[0] == 0.5
        seen_f.clear()
        assert engine.arc_search(prob, ev, d, args[0], args[1], args[1], *args[2:],
                                 model.EvalCounters()) is None
        assert seen_f == [1.0, 0.25, 0.125]
        seen_f.clear()
        counters = model.EvalCounters()
        t, trial = engine.feasible_direction_search(prob, ev, d, *args, counters)
        assert seen_f == [1.0, *engine.FD_STEPS[2:], 0.5]
        assert counters.nf == len(engine.FD_STEPS)
        ref_t, ref_trial = _reference_search(prob, ev, d, engine.FD_STEPS, *args)
        assert (t, trial.f0) == (ref_t, ref_trial.f0) == (0.5, -0.5)
        assert np.array_equal(trial.fI, ref_trial.fI)

    RUNS = {
        "corpus": lambda: [(entry.problem, x0)
                           for entry in map(corpus.get_problem, corpus.list_problems())
                           for x0 in (entry.x0_feasible, entry.x0_infeasible)
                           if x0 is not None],
        "convex": lambda: [workloads.convex_problem(seed, 20) for seed in range(3)],
        "logit": lambda: [workloads.logit_problem(seed, samples=5000) for seed in range(4)],
        "planted": lambda: [planted_problem(seed, m_eq=m_eq)[:2]
                            for seed in range(5) for m_eq in (0, 2)],
    }

    # Trials skipped over each family's runs.  The tangents and chords prove
    # none of logit-eq's rejected trials to fail, so its nf does not move.
    # The planted runs bring weakly active rows and the equality path; their
    # rows are convex quadratics, on which every skip is proven.
    SKIPPED = {"corpus": 13, "convex": 29, "logit": 0, "planted": 68}

    @pytest.mark.parametrize("family", sorted(RUNS))
    def test_every_skipped_trial_fails_the_full_tests(self, monkeypatch, family):
        # Every search of every run: each trial the screen skips, evaluated
        # on fresh counters through the plain loop, is rejected, and the
        # screened search returns the plain loop's step.
        real_search = engine._search
        real_values = model.point_values
        skipped = 0

        def checking(problem, ev, d, steps, shift, slope, c, fc0, rate, counters,
                     recheck=False):
            nonlocal skipped
            evaluated = []

            def recording(problem, x, counters):
                evaluated.append(x)
                return real_values(problem, x, counters)

            monkeypatch.setattr(model, "point_values", recording)
            try:
                hit = real_search(problem, ev, d, steps, shift, slope, c, fc0, rate, counters,
                                  recheck)
            finally:
                monkeypatch.setattr(model, "point_values", real_values)
            args = (shift, slope, c, fc0, rate)
            k = 0
            for t in steps if hit is None else steps[:steps.index(hit[0]) + 1]:
                if k < len(evaluated) and np.array_equal(evaluated[k], ev.x + t * d):
                    k += 1
                else:
                    skipped += 1
                    assert _trial_values(problem, ev, d, t, *args) is None
            assert k == len(evaluated)
            ref = _reference_search(problem, ev, d, steps, *args)
            assert (ref is None) == (hit is None)
            assert hit is None or ref[0] == hit[0]
            return hit

        monkeypatch.setattr(engine, "_search", checking)
        for problem, x0 in self.RUNS[family]():
            assert engine.solve(problem, x0).status is engine.SolveStatus.CONVERGED
        assert skipped == self.SKIPPED[family]


class TestCurvatureUpdate:
    def _pair(self, problem, x, x_next):
        return _evaluate(problem, x), _evaluate(problem, x_next)

    def test_strong_curvature_keeps_raw_difference(self):
        # Hessian diag(2, 3): observed curvature well above the threshold,
        # so the secant property holds with the raw gradient difference.
        prob = _quadratic([2.0, 3.0])
        ev, ev_next = self._pair(prob, [1.0, 1.0], [0.4, 0.7])
        s = ev_next.x - ev.x
        y = ev_next.g0 - ev.g0
        H = engine.bfgs_update(np.eye(2), ev, ev_next, np.zeros(0),
                               np.zeros(0, dtype=int), 0.5,
                               model.penalty_gradient(ev, 0.5), 1.0)
        assert np.allclose(H @ s, y, atol=1e-12)
        linalg.cholesky(H)  # stays positive definite

    def test_weak_curvature_bends_by_gamma(self):
        # Hessian 0.25 I gives s'y = 0.25|s|^2, below the 0.5 threshold but
        # nonnegative: the difference is bent by exactly gamma * s with
        # gamma = min(|d0|^2, kappa) = 0.09.
        prob = _quadratic([0.25, 0.25])
        ev, ev_next = self._pair(prob, [1.0, 1.0], [0.2, 0.5])
        s = ev_next.x - ev.x
        y = ev_next.g0 - ev.g0
        H = engine.bfgs_update(np.eye(2), ev, ev_next, np.zeros(0),
                               np.zeros(0, dtype=int), 0.5,
                               model.penalty_gradient(ev, 0.5), 0.3 ** 2)
        assert np.allclose(H @ s, y + 0.09 * s, atol=1e-12)

    def test_negative_curvature_identity_without_constraints(self):
        # Concave objective: s'y < 0.  The bent difference must satisfy
        # s'(H_new s) = 2 gamma |s|^2 exactly.
        prob = model.NlpProblem(n=2, m_ineq=0, m_eq=0,
                                f0=lambda x: -0.5 * float(x @ x),
                                grad_f0=lambda x: -x)
        ev, ev_next = self._pair(prob, [0.0, 0.0], [0.5, 0.5])
        s = ev_next.x - ev.x
        gamma_k = 0.16  # |d0|^2 with d0 = (0.4, 0)
        H = engine.bfgs_update(np.eye(2), ev, ev_next, np.zeros(0),
                               np.zeros(0, dtype=int), 0.5,
                               model.penalty_gradient(ev, 0.5), 0.4 ** 2)
        assert float(s @ H @ s) == pytest.approx(2.0 * gamma_k * float(s @ s),
                                                 abs=1e-12)
        linalg.cholesky(H)

    def test_negative_curvature_identity_with_active_columns(self):
        # With an active constraint gradient a, the bent curvature must be
        # 2 gamma |s|^2 + (a's)^2.  A linear constraint keeps the gradient
        # difference free of multiplier terms.
        prob = model.NlpProblem(
            n=2, m_ineq=1, m_eq=0,
            f0=lambda x: -0.5 * float(x @ x),
            f=lambda x: np.array([x[0]]),
            grad_f0=lambda x: -x,
            grad_f=lambda x: np.array([[1.0], [0.0]]),
        )
        ev, ev_next = self._pair(prob, [0.0, 0.0], [0.5, 0.5])
        s = ev_next.x - ev.x
        gamma_k = 0.16
        expected = 2.0 * gamma_k * float(s @ s) + float(s[0] ** 2)
        H = engine.bfgs_update(np.eye(2), ev, ev_next, np.array([0.7]),
                               np.array([0]), 0.5,
                               model.penalty_gradient(ev, 0.5), 0.4 ** 2)
        assert float(s @ H @ s) == pytest.approx(expected, abs=1e-12)

    def test_skip_returns_same_object_when_bending_impossible(self):
        # Negative curvature with zero bending budget (d0 = 0, no active
        # columns) cannot be repaired: the update is skipped outright.
        prob = model.NlpProblem(n=2, m_ineq=0, m_eq=0,
                                f0=lambda x: -0.5 * float(x @ x),
                                grad_f0=lambda x: -x)
        ev, ev_next = self._pair(prob, [0.0, 0.0], [0.5, 0.5])
        H0 = np.eye(2)
        H = engine.bfgs_update(H0, ev, ev_next, np.zeros(0),
                               np.zeros(0, dtype=int), 0.5,
                               model.penalty_gradient(ev, 0.5), 0.0)
        assert H is H0

    def test_skip_when_bent_pair_has_no_curvature(self):
        # f0 = x1 x2 from (0, 0) to (1, 0): s'y = 0, and with d0 = 0 and no
        # active rows the bending adds nothing, so s'yhat = 0 fails the
        # curvature test.
        prob = model.NlpProblem(n=2, m_ineq=0, m_eq=0,
                                f0=lambda x: float(x[0] * x[1]),
                                grad_f0=lambda x: np.array([x[1], x[0]]))
        ev, ev_next = self._pair(prob, [0.0, 0.0], [1.0, 0.0])
        H0 = np.eye(2)
        H = engine.bfgs_update(H0, ev, ev_next, np.zeros(0),
                               np.zeros(0, dtype=int), 0.5,
                               model.penalty_gradient(ev, 0.5), 0.0)
        assert H is H0

    def test_skip_when_h_has_no_curvature_along_s(self):
        # f0 = x1^2/2 from (0, 0) to (1, 0): s'y = |s|^2 keeps the raw pair,
        # but s'Hs = -1 < 0 under H = diag(-1, 1).
        prob = model.NlpProblem(n=2, m_ineq=0, m_eq=0,
                                f0=lambda x: 0.5 * float(x[0] ** 2),
                                grad_f0=lambda x: np.array([x[0], 0.0]))
        ev, ev_next = self._pair(prob, [0.0, 0.0], [1.0, 0.0])
        H0 = np.diag([-1.0, 1.0])
        H = engine.bfgs_update(H0, ev, ev_next, np.zeros(0),
                               np.zeros(0, dtype=int), 0.5,
                               model.penalty_gradient(ev, 0.5), 0.0)
        assert H is H0

    def test_zero_displacement_skips(self):
        prob = _quadratic([2.0])
        ev = _evaluate(prob, [1.0])
        H0 = np.eye(1)
        H = engine.bfgs_update(H0, ev, ev, np.zeros(0),
                               np.zeros(0, dtype=int), 0.5,
                               model.penalty_gradient(ev, 0.5), 1.0)
        assert H is H0

    def test_result_is_symmetric(self):
        prob = _quadratic([2.0, 5.0, 1.0])
        ev, ev_next = self._pair(prob, [1.0, 1.0, 1.0], [0.3, -0.2, 0.8])
        H = engine.bfgs_update(np.eye(3), ev, ev_next, np.zeros(0),
                               np.zeros(0, dtype=int), 0.5,
                               model.penalty_gradient(ev, 0.5), 3.0)
        assert np.array_equal(H, H.T)


class TestOneFactorPerCurvatureMatrix:
    def test_each_h_is_factored_once(self, monkeypatch):
        # Every curvature matrix a QP sees was factored exactly once, by the
        # test that certified it (the start's identity is its own factor),
        # and the QP solves against that very factor: every Cholesky call
        # inside solve_qp factors a principal submatrix of that QP's
        # A H^-1 A', its rows in the order they joined the working set,
        # never an n-by-n H.
        factored = []  # (argument, factor, index of the enclosing QP or None)
        handed = []    # (H, factor, solution) of each QP
        where = [None]
        real_cholesky, real_solve_qp = linalg.cholesky, qp.solve_qp

        def cholesky(a, *rest):
            low = real_cholesky(a, *rest)
            factored.append((a, low, where[-1]))
            return low

        def solve_qp(inst, hfac, warm):
            where.append(len(handed))
            try:
                sol = real_solve_qp(inst, hfac, warm)
            finally:
                where.pop()
            handed.append((inst.H, hfac, sol))
            return sol

        monkeypatch.setattr(linalg, "cholesky", cholesky)
        monkeypatch.setattr(qp, "solve_qp", solve_qp)
        entry = corpus.get_problem("HS043")
        report = engine.solve(entry.problem, entry.x0_infeasible)
        assert report.status is engine.SolveStatus.CONVERGED
        assert sum(bool(rec.h_updated) for rec in report.trace) >= 5
        inside = [(a, handed[i][2].ay) for a, _, i in factored if i is not None]
        assert inside
        for a, ay in inside:
            assert any(np.array_equal(a, ay[np.ix_(rows, rows)])
                       for rows in itertools.permutations(range(ay.shape[0]), a.shape[0]))
        first_h, first_low, _ = handed[0]
        assert np.array_equal(first_h, np.eye(4)) and np.array_equal(first_low, np.eye(4))
        # bfgs_update does not symmetrize: every chained update of I must
        # come out exactly symmetric on its own.
        assert all(np.array_equal(h, h.T) for h, _, _ in handed)
        assert not [a for a, _, _ in factored if a is first_h]
        for H, hfac, _ in handed[1:]:
            if H is first_h:
                continue
            factors = [low for a, low, _ in factored if a is H]
            assert len(factors) == 1
            assert factors[0] is hfac
        assert len({id(H) for H, _, _ in handed}) == 1 + sum(
            bool(rec.h_updated) for rec in report.trace)


class TestOnePenaltyGradientPerPoint:
    @pytest.mark.parametrize("name, calls", [("HS035", 15), ("HS043", 23)])
    def test_each_point_forms_its_penalty_gradient_once(self, monkeypatch, name, calls):
        # step forms the gradient at each iterate for its QP, bfgs_update
        # reads it from step and forms only the one at the accepted point,
        # and the converging check forms the last iterate's.
        seen = []
        real = model.penalty_gradient
        monkeypatch.setattr(model, "penalty_gradient",
                            lambda ev, c: seen.append(ev) or real(ev, c))
        report = engine.solve(corpus.get_problem(name).problem,
                              corpus.get_problem(name).x0_infeasible)
        assert report.status is engine.SolveStatus.CONVERGED
        assert len(seen) == 2 * report.ni + 1 == calls


class TestWarmRows:
    def test_each_qp_starts_from_the_last_positive_rows(self, monkeypatch):
        # The first QP gets no rows; each later one gets the rows with a
        # positive multiplier in the QP of the iteration before it.
        handed = []
        real_solve_qp = qp.solve_qp
        monkeypatch.setattr(qp, "solve_qp", lambda inst, hfac, warm: (
            handed.append(warm) or real_solve_qp(inst, hfac, warm)))
        entry = corpus.get_problem("HS100")
        report = engine.solve(entry.problem, entry.x0_feasible)
        assert report.status is engine.SolveStatus.CONVERGED
        assert len(handed) == len(report.trace)
        assert handed[0].size == 0
        for warm, before in zip(handed[1:], report.trace):
            assert np.array_equal(warm, np.flatnonzero(before.lam > 0))
        assert sum(warm.size > 0 for warm in handed) > len(handed) // 2


class TestSolveSynthetic:
    def test_unconstrained_quadratic(self):
        prob = model.NlpProblem(
            n=2, m_ineq=0, m_eq=0,
            f0=lambda x: 0.5 * float((x - [1.0, 2.0]) @ (x - [1.0, 2.0])),
            grad_f0=lambda x: x - [1.0, 2.0],
        )
        report = engine.solve(prob, [0.0, 0.0])
        assert report.status is engine.SolveStatus.CONVERGED
        assert np.allclose(report.x, [1.0, 2.0], atol=1e-6)
        assert report.kkt_residual <= 1e-7
        assert report.ni <= 3
        assert report.mu.size == 0

    def test_unconstrained_rosenbrock(self):
        prob = model.NlpProblem(
            n=2, m_ineq=0, m_eq=0,
            f0=lambda x: float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2),
            grad_f0=lambda x: np.array([
                -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
                200.0 * (x[1] - x[0] ** 2),
            ]),
        )
        report = engine.solve(prob, [-1.2, 1.0])
        assert report.status is engine.SolveStatus.CONVERGED
        assert np.allclose(report.x, [1.0, 1.0], atol=1e-5)
        assert report.ni <= 200

    @pytest.mark.parametrize("x0", [[0.0], [0.5], [3.0], [-2.0]])
    def test_inequality_toy_from_any_start(self, x0):
        report = engine.solve(_toy_problem(), x0)
        assert report.status is engine.SolveStatus.CONVERGED
        assert report.x[0] == pytest.approx(1.0, abs=1e-6)
        assert report.fv == pytest.approx(1.0, abs=1e-6)
        assert report.phi_final == 0.0
        assert np.allclose(report.mu, [2.0, 0.0], atol=1e-6)
        assert report.nio + report.nii == report.ni

    def test_infeasible_start_counts_outside_iterations(self):
        report = engine.solve(_toy_problem(), [3.0])
        assert report.status is engine.SolveStatus.CONVERGED
        assert report.nio >= 1

    def test_already_optimal_start_terminates_immediately(self):
        report = engine.solve(_toy_problem(), [1.0])
        assert report.status is engine.SolveStatus.CONVERGED
        assert report.ni == 0
        assert report.kkt_residual == 0.0
        assert np.allclose(report.lam, [2.0, 0.0], atol=1e-10)

    def test_equality_constraint_multiplier_recovery(self):
        # min |x|^2 s.t. x1 + x2 = 1: solution (1/2, 1/2) with equality
        # multiplier -1; the reported multiplier subtracts the penalty
        # weight from the subproblem one.
        prob = model.NlpProblem(
            n=2, m_ineq=0, m_eq=1,
            f0=lambda x: float(x @ x),
            f=lambda x: np.array([x[0] + x[1] - 1.0]),
            grad_f0=lambda x: 2.0 * x,
            grad_f=lambda x: np.array([[1.0], [1.0]]),
        )
        report = engine.solve(prob, [2.0, -3.0])
        assert report.status is engine.SolveStatus.CONVERGED
        assert np.allclose(report.x, [0.5, 0.5], atol=1e-6)
        assert report.mu[0] == pytest.approx(-1.0, abs=1e-6)
        assert report.lam[0] >= 0.0
        c_path = [rec.c for rec in report.trace]
        assert all(b >= a for a, b in zip(c_path, c_path[1:]))
        # Any raise moves by at least the configured minimum jump.
        for rec in report.trace:
            if rec.c_changed:
                assert rec.c >= 0.5 + 1.0 - 1e-12

    def test_equality_violation_drives_penalty_up_once(self):
        prob = model.NlpProblem(
            n=1, m_ineq=0, m_eq=1,
            f0=lambda x: float(x[0]),
            f=lambda x: np.array([x[0] - 1.0]),
            grad_f0=lambda x: np.ones(1),
            grad_f=lambda x: np.ones((1, 1)),
        )
        report = engine.solve(prob, [5.0])
        assert report.status is engine.SolveStatus.CONVERGED
        assert report.x[0] == pytest.approx(1.0, abs=1e-6)
        assert report.mu[0] == pytest.approx(-1.0, abs=1e-6)

    def test_max_iterations_status(self):
        prob = _toy_problem()
        report = engine.solve(prob, [0.0],
                              engine.SolverOptions(max_iter=1))
        assert report.status is engine.SolveStatus.MAX_ITERATIONS
        assert report.ni == 1
        assert np.isfinite(report.fv)
        # The residual is that of the last iterate under the multipliers of
        # the last QP, and the message names the budget and where it ran out.
        last = report.trace[-1]
        assert np.array_equal(report.lam, last.lam)
        ev = _evaluate(prob, report.x)
        assert np.isfinite(report.kkt_residual)
        assert report.kkt_residual == model.kkt_residual_original(ev, report.mu)
        assert report.message == (f"iteration budget of 1 exhausted at |d0|="
                                  f"{last.norm_d0:.3e}, phi={report.phi_final:.3e}")
        # Reporting the residual costs no evaluation: the constraints are
        # evaluated at x0, at x0 + d0 for the correction and at the two arc
        # trials, the objective at x0 and at the accepted trial t = 1/2.
        assert (report.nf0, report.nf) == (2, 8)

    def test_evaluation_failure_status(self):
        def f0(x):
            return float("nan") if x[0] > 2.5 else float((x[0] - 3.0) ** 2)

        prob = model.NlpProblem(n=1, m_ineq=0, m_eq=0, f0=f0)
        report = engine.solve(prob, [2.4])
        assert report.status is engine.SolveStatus.EVALUATION_FAILURE
        assert report.message != ""

    def test_objective_undefined_beyond_the_constraints(self):
        # f0 is NaN wherever x <= 1 is violated; from x = 0 the full step
        # overshoots to x = 2, which the constraint bound rejects before
        # the objective is evaluated there.
        def f0(x):
            return float("nan") if x[0] > 1.0 else float((x[0] - 2.0) ** 2)

        prob = dataclasses.replace(_toy_problem(), f0=f0)
        report = engine.solve(prob, [0.0])
        assert report.status is engine.SolveStatus.CONVERGED
        assert report.x[0] == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_status_on_dependent_equalities(self):
        # The same equality twice: the damped multiplier-estimate system is
        # exactly singular, which must classify, not raise.
        prob = model.NlpProblem(
            n=1, m_ineq=0, m_eq=2,
            f0=lambda x: float(x[0] ** 2),
            f=lambda x: np.array([x[0], x[0]]),
            grad_f0=lambda x: 2.0 * x,
            grad_f=lambda x: np.array([[1.0, 1.0]]),
        )
        report = engine.solve(prob, [1.0])
        assert report.status is engine.SolveStatus.DEGENERATE
        assert report.message != ""

    def test_line_search_stall_status(self, monkeypatch):
        _reject_trials(monkeypatch, _failing_from(monkeypatch, 0))
        report = engine.solve(_toy_problem(), [0.0])
        assert report.status is engine.SolveStatus.LINE_SEARCH_STALL
        assert "reductions" in report.message
        assert report.nf0 == 1  # x0 alone

    def test_first_iteration_stop_reports_the_start_point(self, monkeypatch):
        # x0 is evaluated before the first step, so a run that stops in
        # that step reports the objective and violation at x0.
        def stalled(*args):
            raise LineSearchStall("arc search gave up")

        monkeypatch.setattr(engine, "arc_search", stalled)
        entry = corpus.get_problem("HS035")
        x0 = np.asarray(entry.x0_feasible, dtype=float)
        report = engine.solve(entry.problem, x0)
        assert report.status is engine.SolveStatus.LINE_SEARCH_STALL
        assert report.ni == 0
        assert report.fv == entry.problem.f0(x0)
        assert report.phi_final == 0.0

    def test_evaluation_failure_at_the_start_point(self):
        prob = model.NlpProblem(n=1, m_ineq=0, m_eq=0, f0=lambda x: float("nan"))
        report = engine.solve(prob, [1.0])
        assert report.status is engine.SolveStatus.EVALUATION_FAILURE
        assert report.ni == 0
        assert np.isnan(report.fv)
        assert report.phi_final == np.inf

    def test_overflowing_correction_shift_ends_degenerate(self):
        # At (0, 0), HS012 with f0 x 1e150 gives |d0| about 1e151, and the
        # float power |d0| ** TAU of the correction shift overflows.
        problem = corpus.get_problem("HS012").problem
        scaled = dataclasses.replace(
            problem, f0=lambda x: 1e150 * problem.f0(x),
            grad_f0=lambda x: 1e150 * np.asarray(problem.grad_f0(x)))
        report = engine.solve(scaled, [0.0, 0.0])
        assert report.status is engine.SolveStatus.DEGENERATE
        assert report.ni == 0
        assert report.message == "correction shift overflows at |d0| 9.899e+150"

    @pytest.mark.parametrize("x0", [[1.0, 1.0], [1.0, 1.0, 1.0, 1.0], [[1.0], [1.0]]],
                             ids=["short", "long", "column"])
    def test_start_of_the_wrong_size_raises_before_any_callback(self, x0):
        def untouchable(x):
            raise AssertionError("callback ran")

        problem = dataclasses.replace(corpus.get_problem("HS035").problem, f0=untouchable,
                                      f=untouchable, grad_f0=untouchable, grad_f=untouchable)
        size = np.size(x0)
        with pytest.raises(ValueError,
                           match=rf"^x0 has {size} components; the problem has n = 3$"):
            engine.solve(problem, x0)

    def test_row_start_is_the_flat_start(self):
        problem = corpus.get_problem("HS035").problem
        flat = engine.solve(problem, [0.5, 0.5, 0.5])
        row = engine.solve(problem, [[0.5, 0.5, 0.5]])
        assert row.x.shape == (3,)
        assert (row.status, row.ni, row.fv, row.message) == (
            flat.status, flat.ni, flat.fv, flat.message)
        assert row.x.tobytes() == flat.x.tobytes()

    def test_overflow_raised_by_a_callback_propagates(self):
        def f0(x):
            raise OverflowError("from the callback")

        with pytest.raises(OverflowError, match="from the callback"):
            engine.solve(dataclasses.replace(_toy_problem(), f0=f0), [0.0])


class TestFixedPoint:
    """A step that leaves the state (x, H, c and the rows the next QP
    starts from) unchanged ends the run as line_search_stall: every later
    iteration would repeat it exactly.

    The witness is ``_half_ulp_problem``, whose minimizer lies halfway
    between two doubles: no iterate meets the KKT tolerance, and at k = 9
    the accepted arc rounds back to x.  It stalls there with or without
    the roundoff floor.  With constraint values compared with 0 exactly
    (the ``exact`` fixture sets model.PHI_TOL to 0), convex data seeds 0, 2
    and 7 converge under the paper's rho.
    """

    PAPER_RHO = engine.SolverOptions(rho=2.0)

    @pytest.fixture
    def exact(self, monkeypatch):
        monkeypatch.setattr(model, "PHI_TOL", 0.0)

    @staticmethod
    def _state_bytes(state):
        return (state.ev.x.tobytes(), state.H.tobytes(), np.float64(state.c).tobytes(),
                state.warm_rows.tobytes())

    def _recorded_steps(self, monkeypatch, problem, x0, options):
        """Solve while recording the state bytes into and out of every
        step."""
        steps = []
        real_step = engine.step

        def recording_step(problem, state, options):
            before = self._state_bytes(state)
            state, record = real_step(problem, state, options)
            steps.append((before, self._state_bytes(state)))
            return state, record

        monkeypatch.setattr(engine, "step", recording_step)
        return engine.solve(problem, x0, options), steps

    def test_stops_at_the_first_step_that_repeats(self, monkeypatch):
        problem, x0 = _half_ulp_problem()
        options = dataclasses.replace(self.PAPER_RHO, max_iter=75)
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_is_fixed_point", lambda *args: False)
            unstopped, reference = self._recorded_steps(patch, problem, x0, options)
        repeats = [before == after for before, after in reference]
        first = repeats.index(True)
        assert unstopped.status is engine.SolveStatus.MAX_ITERATIONS
        assert all(repeats[first:])

        report, steps = self._recorded_steps(monkeypatch, problem, x0, options)
        assert report.status is engine.SolveStatus.LINE_SEARCH_STALL
        assert report.ni == first
        assert steps == reference[:first + 1]
        assert report.x.tobytes() == unstopped.x.tobytes()
        assert report.fv == unstopped.fv
        assert report.phi_final == unstopped.phi_final

    def test_stall_reports_its_residual(self):
        problem, x0 = _half_ulp_problem()
        report = engine.solve(problem, x0, self.PAPER_RHO)
        assert report.status is engine.SolveStatus.LINE_SEARCH_STALL
        assert re.fullmatch(r"fixed point: step t=\S+ along \|d0\|=\S+ "
                            r"leaves x unchanged at phi=\S+", report.message)
        assert report.ni < 500
        assert report.nio + report.nii == report.ni
        last = report.trace[-1]
        assert last.fixed_point and not last.h_updated
        assert not any(rec.fixed_point for rec in report.trace[:-1])
        assert len(report.trace) == report.ni + 1
        # The residual is that of the stall point under the multipliers of
        # its own QP.
        assert np.array_equal(report.lam, last.lam)
        ev = _evaluate(problem, report.x)
        assert np.isfinite(report.kkt_residual)
        assert report.kkt_residual == model.kkt_residual_original(ev, report.mu)

    def test_changed_start_rows_are_not_a_fixed_point(self, monkeypatch):
        # The witness's stall step, taken from a state whose QP had no rows
        # to start from: x, H and c stay, but the next QP would start from
        # row 0, so the step is not a fixed point; the step after it is.
        problem, x0 = _half_ulp_problem()
        states = []
        real_step = engine.step
        monkeypatch.setattr(engine, "step", lambda problem, state, options: (
            states.append(state) or real_step(problem, state, options)))
        engine.solve(problem, x0, self.PAPER_RHO)
        stalled = states[-1]
        assert stalled.warm_rows.tolist() == [0]
        cold = dataclasses.replace(stalled, warm_rows=np.zeros(0, dtype=np.intp))
        after, record = real_step(problem, cold, self.PAPER_RHO)
        assert not record.fixed_point
        assert self._state_bytes(after)[:3] == self._state_bytes(cold)[:3]
        assert after.warm_rows.tolist() == [0]
        assert real_step(problem, after, self.PAPER_RHO)[1].fixed_point

    @pytest.mark.parametrize("seed", [0, 2, 7])
    def test_other_seeds_still_converge(self, seed, exact):
        problem, x0 = workloads.convex_problem(seed, 20)
        report = engine.solve(problem, x0, self.PAPER_RHO)
        assert report.status is engine.SolveStatus.CONVERGED
        assert report.kkt_residual <= 1e-7

    # (ni, nf0, nf) of each data seed under default options; seeds 0-2 are
    # the convex-n20 benchmark workload.  Like test_corpus.PINNED_RUNS, the
    # counts follow every rounding decision of the solver.
    CONVERGED_COUNTS = {0: (20, 26, 2320), 1: (20, 26, 2200), 2: (20, 25, 2200),
                        7: (24, 33, 2720)}

    @pytest.mark.parametrize("seed", sorted(CONVERGED_COUNTS))
    def test_every_seed_converges_under_the_roundoff_floor(self, seed):
        problem, x0 = workloads.convex_problem(seed, 20)
        report = engine.solve(problem, x0)
        assert report.status is engine.SolveStatus.CONVERGED
        assert report.kkt_residual <= 1e-7
        assert (report.ni, report.nf0, report.nf) == self.CONVERGED_COUNTS[seed]

    def test_n50_converges_promptly(self):
        # With constraint values compared with 0 exactly, this case stalls
        # at a fixed point after 81 iterations (it once spent its whole
        # budget of 500 there); the roundoff floor lets it converge.
        problem, x0 = workloads.convex_problem(0, 50)
        report = engine.solve(problem, x0)
        assert report.status is engine.SolveStatus.CONVERGED
        assert report.ni < 60
        assert report.kkt_residual <= 1e-7

    def test_sign_flip_of_zero_counts_as_a_move(self):
        prob = _quadratic([1.0])
        ev = _evaluate(prob, [0.0])
        same = model.point_values(prob, [0.0], model.EvalCounters())
        flipped = model.point_values(prob, [-0.0], model.EvalCounters())
        assert engine._is_fixed_point(ev, same, False)
        assert not engine._is_fixed_point(ev, same, True)
        assert not engine._is_fixed_point(ev, flipped, False)


class TestPenaltyPath:
    # (ni, nf0, nf) of each data seed at 5 000 samples under default
    # options.  Every seed raises c on its way to a solution with the
    # equality active; like the convex pins, the counts follow every
    # rounding decision of the solver.
    CONVERGED_COUNTS = {0: (43, 59, 708), 1: (40, 66, 672), 2: (34, 51, 564),
                        3: (39, 53, 582)}

    @pytest.mark.parametrize("seed", sorted(CONVERGED_COUNTS))
    def test_logit_seed_converges_after_raising_c(self, seed):
        problem, x0 = workloads.logit_problem(seed, samples=5000)
        options = engine.SolverOptions()
        report = engine.solve(problem, x0, options)
        assert report.status is engine.SolveStatus.CONVERGED
        assert report.kkt_residual <= options.kkt_tol
        assert report.trace[-1].c > 2.0 > engine.C_INIT
        assert (report.ni, report.nf0, report.nf) == self.CONVERGED_COUNTS[seed]

    def test_benchmark_seed_that_stalled_converges(self):
        # The logit-eq benchmark instance of data seed 1 (50 000 samples)
        # spent its whole budget of 500 iterations under the paper's
        # rho = 2, 330 of them outside the feasible set.
        problem, x0 = workloads.logit_problem(1)
        report = engine.solve(problem, x0)
        assert report.status is engine.SolveStatus.CONVERGED
        assert report.kkt_residual <= 1e-7
        assert (report.ni, report.nf0, report.nf) == (48, 63, 684)

    def test_feasibility_direction_pushes_each_row_by_its_own_rule(self, monkeypatch):
        # Inequality rows of d1 are pushed by |d0| + phi**sigma, the equality
        # row by |d0|**2 + phi**sigma; the i0 certificate checks each row of
        # izero against beta times its own push.
        lowers = []
        real_solve_shared = engine.solve_shared

        def spy(fac, lower):
            lowers.append(np.array(lower, dtype=float, copy=True))
            return real_solve_shared(fac, lower)

        monkeypatch.setattr(engine, "solve_shared", spy)
        problem, x0 = workloads.logit_problem(0, samples=5000)
        report = engine.solve(problem, x0)
        assert report.status is engine.SolveStatus.CONVERGED
        calls = iter(lowers)
        checked = 0
        for rec in report.trace:
            if rec.converged:
                continue
            next(calls)  # the correction
            if rec.branch != "feasible_direction":
                continue
            lower = next(calls)
            shift = rec.phi ** engine.SIGMA
            assert np.all(lower[:problem.m_ineq] == -(rec.norm_d0 + shift))
            assert lower[problem.m_ineq:] == pytest.approx(-(rec.norm_d0 ** 2 + shift),
                                                           rel=1e-14)
            if rec.i0_margin is not None:
                assert rec.i0_margin <= engine.CERT_SLACK
            checked += 1
        assert next(calls, None) is None
        assert checked > 0


class TestInfeasiblePhaseReward:
    """The merit test lets an iterate outside the feasible set raise the
    penalized objective by up to rho (1 - alpha) phi**theta t.  On HS044-b
    the arc at t = 1/2 cuts phi from 7 to 0.05 in the first iteration but
    raises the penalized objective by 10.5: the default rho admits that
    step, the paper's rho = 2 does not."""

    @staticmethod
    def _first_records(options):
        entry = corpus.get_problem("HS044")
        report = engine.solve(entry.problem, entry.x0_infeasible, options)
        assert report.status is engine.SolveStatus.CONVERGED
        return report.trace[0], report.trace[1]

    def test_default_takes_the_arc_at_the_start(self):
        first, second = self._first_records(engine.SolverOptions())
        assert first.phi == 7.0
        assert (first.branch, first.t) == ("arc", 0.5)
        assert second.phi < 0.06
        assert second.fc - first.fc > 10.0

    def test_paper_rho_takes_the_feasible_direction(self):
        first, _ = self._first_records(engine.SolverOptions(rho=2.0))
        assert first.phi == 7.0
        assert first.branch == "feasible_direction"


class TestRuntimeCertificates:
    """A failed runtime check inside an iteration ends the run as
    degenerate with the check's reason; it never escapes solve()."""

    @staticmethod
    def _degenerate_message(problem, x0):
        report = engine.solve(problem, x0)
        assert report.status is engine.SolveStatus.DEGENERATE
        return report.message

    def test_linear_solve_residual_over_tolerance(self, monkeypatch):
        # A negative tolerance fails the residual check of the first solve.
        monkeypatch.setattr(linalg, "RESIDUAL_TOL", -1.0)
        message = self._degenerate_message(_toy_problem(), [0.5])
        assert re.fullmatch(r"solve residual \S+ exceeds tolerance", message)

    def test_blended_direction_losing_descent(self, monkeypatch):
        monkeypatch.setattr(engine, "arc_search", lambda *args: None)
        monkeypatch.setattr(engine, "CERT_SLACK", -np.inf)
        message = self._degenerate_message(_toy_problem(), [0.5])
        assert message.startswith("blended direction lost descent: slope ")

    def test_uphill_qp_slope_at_phi_zero_loses_descent(self, monkeypatch):
        # HS037 from a perturbed start ends this way at k = 15: at phi = 0
        # the QP's d0 climbs by 1.7e-8, inside the QP's tolerance, and d1
        # climbs more, so beta = 0 and the test reads slope <= THETA*slope.
        # Here a QP whose d0 climbs by 1e-8 (its tolerance is 3e-7 at
        # max|grad| = 300) reaches the check under the default CERT_SLACK.
        problem = model.NlpProblem(
            n=2, m_ineq=1, m_eq=0,
            f0=lambda x: float(100.0 * ((x[0] - 2.0) ** 2 + x[1] ** 2)),
            f=lambda x: np.array([x[0] - 1.0]),
            grad_f0=lambda x: np.array([200.0 * (x[0] - 2.0), 200.0 * x[1]]),
            grad_f=lambda x: np.array([[1.0], [0.0]]),
        )
        real_solve_qp = qp.solve_qp

        def uphill(inst, hfac, warm):
            sol = real_solve_qp(inst, hfac, warm)
            d0 = 1e-8 * inst.grad / (inst.grad @ inst.grad) + np.array([0.0, 1e-4])
            return dataclasses.replace(sol, d0=d0)

        monkeypatch.setattr(qp, "solve_qp", uphill)
        monkeypatch.setattr(engine, "arc_search", lambda *args: None)
        message = self._degenerate_message(problem, [0.5, 0.0])
        match = re.fullmatch(
            r"blended direction lost descent: slope (\S+), slope_d1 (\S+), "
            r"beta (\S+), \|d0\| (\S+), phi (\S+)", message)
        assert match
        slope, slope_d1, beta, norm_d0, phi = map(float, match.groups())
        assert slope == pytest.approx(1e-8, rel=1e-3)
        assert slope_d1 > slope
        assert (beta, phi) == (0.0, 0.0)
        assert norm_d0 == pytest.approx(1e-4, rel=1e-3)

    def test_qp_step_limit(self, monkeypatch):
        # With no multiplier passing the drop test, the first QP (H = I,
        # grad = (-1, -1), A = [[1, 0]], b = [0.5]) adds and drops row 0
        # until its step limit 50(n+m) runs out.
        monkeypatch.setattr(qp, "KKT_TOL", -1e300)
        prob = model.NlpProblem(
            n=2, m_ineq=1, m_eq=0,
            f0=lambda x: float(x @ x - np.sum(x)),
            f=lambda x: np.array([x[0] - 0.5]),
            grad_f0=lambda x: 2.0 * x - 1.0,
            grad_f=lambda x: np.array([[1.0], [0.0]]),
        )
        report = engine.solve(prob, [0.0, 0.0])
        assert report.status is engine.SolveStatus.DEGENERATE
        assert report.message == "active-set loop exceeded 150 iterations"
        assert report.ni == 0


class TestFailureResiduals:
    """A failure exit after a completed iteration reports the last iterate's
    residual under that iteration's QP multipliers, as max_iterations does;
    a failure in the first iteration reports inf and no multipliers.  From
    x = 3 the toy problem converges in four iterations, so each failure
    below is forced from iteration k on."""

    @staticmethod
    def _check_residual(report, problem, k):
        assert report.ni == k
        assert len(report.trace) == k
        if k == 0:
            assert report.kkt_residual == np.inf
            assert report.lam is None and report.mu is None
            return
        assert np.array_equal(report.lam, report.trace[-1].lam)
        ev = _evaluate(problem, report.x)
        assert np.isfinite(report.kkt_residual)
        assert report.kkt_residual == model.kkt_residual_original(ev, report.mu)

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("error", [
        errors.NotPositiveDefiniteError, errors.NumericalFailure,
    ], ids=lambda cls: cls.__name__)
    def test_degenerate(self, monkeypatch, error, k):
        # Every NumericalFailure ends the run degenerate, through one handler.
        assert issubclass(error, errors.NumericalFailure)
        failing = _failing_from(monkeypatch, k)
        real = engine.factor_shared

        def factor(*args):
            if failing():
                raise error(f"forced {error.__name__}")
            return real(*args)

        monkeypatch.setattr(engine, "factor_shared", factor)
        report = engine.solve(_toy_problem(), [3.0])
        assert report.status is engine.SolveStatus.DEGENERATE
        assert report.message == f"forced {error.__name__}"
        self._check_residual(report, _toy_problem(), k)

    @pytest.mark.parametrize("error", [errors.LineSearchStall, errors.EvaluationFailure])
    def test_stall_and_evaluation_failure_are_not_numerical_failures(self, error):
        assert not issubclass(error, errors.NumericalFailure)

    def test_only_the_kernel_contracts_subclass_numerical_failure(self):
        # Every other degenerate exit raises NumericalFailure itself, and its
        # message names the cause; a subclass earns its place by a handler
        # that catches it by name, in an except clause of the package.
        caught = set()
        for path in Path(errors.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
                    names = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                    caught.update(ast.unparse(name).rpartition(".")[2] for name in names)
        pending = list(errors.NumericalFailure.__subclasses__())
        subclasses = set()
        while pending:
            cls = pending.pop()
            if cls.__module__.partition(".")[0] == "isqp":
                subclasses.add(cls)
            pending.extend(cls.__subclasses__())
        assert errors.NotPositiveDefiniteError in subclasses
        unread = {cls.__name__ for cls in subclasses} - caught
        assert not unread

    def test_only_the_run_outcomes_subclass_solver_error(self):
        # An input error raises SolverError itself: cli.main's one handler
        # reports every one alike, so no subclass of it would have a reader.
        assert set(errors.SolverError.__subclasses__()) == {
            errors.NumericalFailure, errors.EvaluationFailure, errors.LineSearchStall,
        }
        assert not [value for value in vars(cli).values()
                    if isinstance(value, type) and issubclass(value, BaseException)
                    and value.__module__ == cli.__name__]

    @pytest.mark.parametrize("k", [0, 2])
    def test_evaluation_failure(self, monkeypatch, k):
        failing = _failing_from(monkeypatch, k)
        prob = _toy_problem()
        real_f0 = prob.f0
        prob = dataclasses.replace(prob, f0=lambda x: float("nan") if failing() else real_f0(x))
        report = engine.solve(prob, [3.0])
        assert report.status is engine.SolveStatus.EVALUATION_FAILURE
        assert report.message != ""
        self._check_residual(report, _toy_problem(), k)

    @pytest.mark.parametrize("k", [0, 2])
    def test_search_budget_stall(self, monkeypatch, k):
        # The arc is rejected outright, so the feasible-direction search
        # runs out its trial budget once every trial is rejected.
        failing = _failing_from(monkeypatch, k)
        monkeypatch.setattr(engine, "arc_search", lambda *args: None)
        _reject_trials(monkeypatch, failing)
        report = engine.solve(_toy_problem(), [3.0])
        monkeypatch.undo()  # the residual check below evaluates with the real model
        assert report.status is engine.SolveStatus.LINE_SEARCH_STALL
        assert "reductions" in report.message
        self._check_residual(report, _toy_problem(), k)


class TestTraceRecords:
    def test_convergence_is_certified_once(self, monkeypatch):
        # Each termination test evaluates the KKT residual once, and a run
        # that ends at the iterate of its last test, converged or at a
        # feasible fixed point (see TestFixedPoint), reports the value it
        # read.
        calls = []
        real = model.kkt_residual_original

        def counting(ev, mu):
            calls.append(real(ev, mu))
            return calls[-1]

        monkeypatch.setattr(model, "kkt_residual_original", counting)
        entry = corpus.get_problem("HS035")
        converged = engine.solve(entry.problem, entry.x0_feasible)
        stalled = engine.solve(*_half_ulp_problem(), engine.SolverOptions(rho=2.0))
        assert converged.status is engine.SolveStatus.CONVERGED
        assert stalled.status is engine.SolveStatus.LINE_SEARCH_STALL
        assert stalled.trace[-1].fixed_point
        tested = []
        for report in (converged, stalled):
            read = [rec.kkt_residual for rec in report.trace if rec.kkt_residual is not None]
            assert report.kkt_residual == read[-1] == report.trace[-1].kkt_residual
            tested += read
        assert calls == tested

    def test_trace_is_the_iteration_ledger(self):
        # Each completed iteration leaves one record, and a converged or
        # fixed-point record sits past them at index ni, so nio is counted
        # from the records.  Every corpus run, one that spends its budget,
        # one that ends at a fixed point (see TestFixedPoint) and one whose
        # evaluation at x0 fails.
        runs = {f"{name}-{start}": engine.solve(entry.problem, x0)
                for name in corpus.list_problems()
                for entry in [corpus.get_problem(name)]
                for start, x0 in entry.starts.items()}
        runs["budget"] = engine.solve(_toy_problem(), [3.0], engine.SolverOptions(max_iter=2))
        broken = dataclasses.replace(_toy_problem(), f0=lambda x: math.nan)
        runs["x0-fails"] = engine.solve(broken, [3.0])
        runs["fixed-point"] = engine.solve(*_half_ulp_problem(), engine.SolverOptions(rho=2.0))
        assert runs["budget"].status is engine.SolveStatus.MAX_ITERATIONS
        assert runs["x0-fails"].status is engine.SolveStatus.EVALUATION_FAILURE
        assert runs["x0-fails"].trace == []
        assert runs["fixed-point"].message.startswith("fixed point")
        for name, report in runs.items():
            trace, ni = report.trace, report.ni
            assert isinstance(trace, list), name
            assert [rec.k for rec in trace[:ni]] == list(range(ni)), name
            ends_at_record = (report.status is engine.SolveStatus.CONVERGED
                              or report.message.startswith("fixed point"))
            assert len(trace) - ni == (1 if ends_at_record else 0), name
            assert report.nio == sum(rec.phi > 0.0 for rec in trace[:ni]), name
            assert type(report.nio) is int, name  # hashed by its repr
            assert report.nii == ni - report.nio, name
            if trace:
                assert np.array_equal(report.lam, trace[-1].lam), name
        assert runs["budget"].nio >= 1

    def test_converged_run_ends_with_terminal_record(self):
        report = engine.solve(_toy_problem(), [0.0])
        assert report.trace[-1].converged
        assert all(not rec.converged for rec in report.trace[:-1])
        assert len(report.trace) == report.ni + 1
        assert [rec.k for rec in report.trace] == list(range(report.ni + 1))

    def test_satisfied_count_never_drops(self):
        report = engine.solve(_toy_problem(), [3.0])
        for rec in report.trace:
            if rec.iminus_size_next is not None:
                assert rec.iminus_size_next >= rec.iminus_size

    def test_curvature_matrix_audited_every_iteration(self, monkeypatch):
        # step factors every candidate the update returns, so an indefinite
        # candidate is refused in every iteration and no QP ever sees it.
        seen = []
        real_solve_qp = qp.solve_qp
        monkeypatch.setattr(engine, "bfgs_update",
                            lambda H, *args: -np.eye(H.shape[0]))
        monkeypatch.setattr(qp, "solve_qp", lambda inst, hfac, warm: (
            seen.append(inst.H) or real_solve_qp(inst, hfac, warm)))
        report = engine.solve(_toy_problem(), [3.0])
        assert report.status is engine.SolveStatus.CONVERGED
        assert report.ni == 4
        assert not any(rec.h_updated for rec in report.trace[:-1])
        assert len(seen) == report.ni + 1
        assert all(np.array_equal(H, np.eye(1)) for H in seen)

    def test_directions_carry_subproblem_certificates(self):
        report = engine.solve(_toy_problem(), [3.0])
        for rec in report.trace:
            assert rec.lam is not None
            assert np.all(rec.lam >= 0.0)
            if not rec.converged:
                assert rec.gamma_residual <= 1e-10

    def test_forced_blended_branch_still_converges(self, monkeypatch):
        # Reject the corrected arc outright: every advancing iteration must
        # fall back to the blended direction and keep its descent and
        # active-set certificates.
        monkeypatch.setattr(engine, "arc_search", lambda *a, **k: None)
        report = engine.solve(_toy_problem(), [0.0])
        assert report.status is engine.SolveStatus.CONVERGED
        advancing = [rec for rec in report.trace if not rec.converged]
        assert advancing
        for rec in advancing:
            assert rec.branch == "feasible_direction"
            assert rec.beta is not None and 0.0 <= rec.beta <= 1.0
            assert rec.descent_lhs <= rec.descent_rhs + 1e-9
            if rec.i0_margin is not None:
                assert rec.i0_margin <= 1e-9
