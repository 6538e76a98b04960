"""Problem-model contracts: index sets, penalty bookkeeping, multiplier
estimates, penalty-parameter updates, and the KKT residual."""

import numpy as np
import pytest

from isqp import corpus, engine, model
from isqp.errors import DegenerateConstraints, EvaluationFailure


def _toy_problem():
    """min (x-2)^2 s.t. x - 1 <= 0 and -x <= 0: one variable, two
    inequalities, minimizer at the boundary x = 1."""
    return model.NlpProblem(
        n=1, m_ineq=2, m_eq=0,
        f0=lambda x: float((x[0] - 2.0) ** 2),
        f=lambda x: np.array([x[0] - 1.0, -x[0]]),
        grad_f0=lambda x: np.array([2.0 * (x[0] - 2.0)]),
        grad_f=lambda x: np.array([[1.0, -1.0]]),
    )


def _eq_problem():
    """min x1^2 + x2^2 s.t. x1 <= 1 (inequality) and x1 + x2 - 1 = 0."""
    return model.NlpProblem(
        n=2, m_ineq=1, m_eq=1,
        f0=lambda x: float(x[0] ** 2 + x[1] ** 2),
        f=lambda x: np.array([x[0] - 1.0, x[0] + x[1] - 1.0]),
        grad_f0=lambda x: 2.0 * x,
        grad_f=lambda x: np.array([[1.0, 1.0], [0.0, 1.0]]),
    )


class TestNlpProblemValidation:
    def test_rejects_zero_dimensions(self):
        with pytest.raises(ValueError):
            model.NlpProblem(n=0, m_ineq=0, m_eq=0, f0=lambda x: 0.0)

    def test_rejects_negative_constraint_counts(self):
        with pytest.raises(ValueError):
            model.NlpProblem(n=1, m_ineq=-1, m_eq=0, f0=lambda x: 0.0)

    def test_requires_constraint_callback(self):
        with pytest.raises(ValueError):
            model.NlpProblem(n=1, m_ineq=1, m_eq=0, f0=lambda x: 0.0)

    def test_unconstrained_is_fine(self):
        prob = model.NlpProblem(n=2, m_ineq=0, m_eq=0, f0=lambda x: float(x @ x))
        assert prob.m == 0


class TestIndexSets:
    def test_one_violated_one_satisfied(self):
        # f = (x - 1, -x) at x = 3: values (2, -3), so phi = 2, the violated
        # row shifts to zero and the satisfied row stays put.
        prob = _toy_problem()
        vals = model.point_values(prob, [3.0], model.EvalCounters())
        assert vals.phi == 2.0
        assert np.array_equal(vals.fI, [2.0, -3.0])
        assert np.array_equal(vals.fbar, [0.0, -3.0])
        assert np.array_equal(vals.iplus, [0])
        assert np.array_equal(vals.iminus, [1])
        assert np.array_equal(vals.izero, [0])

    def test_boundary_point_counts_satisfied(self):
        # f = (x - 1, -x) at x = 0: values (-1, 0); a zero value is
        # satisfied, phi = 0, and the zero row is the active one.
        prob = _toy_problem()
        vals = model.point_values(prob, [0.0], model.EvalCounters())
        assert vals.phi == 0.0
        assert np.array_equal(vals.fbar, vals.fI)
        assert vals.iplus.size == 0
        assert np.array_equal(vals.iminus, [0, 1])
        assert np.array_equal(vals.izero, [1])

    def test_interior_point_has_no_active_rows(self):
        prob = _toy_problem()
        vals = model.point_values(prob, [0.5], model.EvalCounters())
        assert vals.phi == 0.0
        assert vals.izero.size == 0
        assert vals.iminus.size == 2

    def test_feasible_corpus_start_has_zero_violation(self):
        entry = corpus.get_problem("HS076")
        vals = model.point_values(entry.problem, entry.x0_feasible,
                                  model.EvalCounters())
        assert vals.phi == 0.0

    def test_violation_uses_worst_constraint(self):
        prob = model.NlpProblem(
            n=1, m_ineq=2, m_eq=0, f0=lambda x: 0.0,
            f=lambda x: np.array([x[0], 3.0 * x[0]]),
        )
        vals = model.point_values(prob, [2.0], model.EvalCounters())
        assert vals.phi == 6.0
        assert np.array_equal(vals.fbar, [-4.0, 0.0])


class TestRoundoffFloor:
    """A constraint value up to phi_tol * max(1, max|f|) counts as
    satisfied; phi_tol = 0 compares with 0 exactly."""

    TOL = engine.SolverOptions().phi_tol  # 1e-10

    @staticmethod
    def _identity(m):
        """f(x) = x, so the constraint values are the point itself."""
        return model.NlpProblem(n=m, m_ineq=m, m_eq=0, f0=lambda x: 0.0,
                                f=lambda x: np.array(x, dtype=float))

    def _values(self, f, phi_tol):
        return model.point_values(self._identity(len(f)), f, model.EvalCounters(),
                                  phi_tol=phi_tol)

    def test_roundoff_violation_is_satisfied(self):
        vals = self._values([-1.0, 1e-12, -0.5], self.TOL)  # max|f| = 1
        assert vals.phi == 0.0
        assert vals.iplus.size == 0
        assert np.array_equal(vals.iminus, [0, 1, 2])
        assert np.array_equal(vals.fbar, [-1.0, 0.0, -0.5])
        assert np.array_equal(vals.izero, [1])

    def test_violation_above_the_floor_counts(self):
        vals = self._values([-1.0, 1e-9, -0.5], self.TOL)
        assert vals.phi == 1e-9
        assert np.array_equal(vals.iplus, [1])
        assert np.array_equal(vals.iminus, [0, 2])
        assert np.array_equal(vals.fbar, [-1.0, 0.0, -0.5])

    def test_floor_scales_with_the_largest_value(self):
        assert self._values([-1e4, 1e-7], self.TOL).phi == 0.0
        assert self._values([-1e4, 1e-5], self.TOL).phi == 1e-5

    def test_zero_tolerance_keeps_the_exact_sets(self):
        vals = self._values([-1.0, 1e-12, -0.5], 0.0)
        assert vals.phi == 1e-12
        assert np.array_equal(vals.iplus, [1])
        assert np.array_equal(vals.iminus, [0, 2])
        assert np.array_equal(vals.fbar, [-1.0, 0.0, -0.5])

    def test_sets_against_the_rule(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            f = rng.standard_normal(6) * 10.0 ** rng.integers(-12, 3, size=6)
            f[rng.random(6) < 0.3] = 0.0
            for phi_tol in (0.0, self.TOL, 1e-3):
                vals = self._values(f, phi_tol)
                floor = phi_tol * max(1.0, np.max(np.abs(f)))
                satisfied = f <= floor
                assert np.array_equal(vals.iminus, np.flatnonzero(satisfied))
                assert np.array_equal(vals.iplus, np.flatnonzero(~satisfied))
                assert vals.phi == (np.max(f) if not satisfied.all() else 0.0)
                assert np.all(vals.fbar <= 0.0)
                assert np.array_equal(vals.fbar[satisfied], np.minimum(f[satisfied], 0.0))
                if phi_tol == 0.0:
                    # The exact sets: fbar = f on satisfied rows.
                    assert np.array_equal(vals.fbar[satisfied], f[satisfied])
                    assert vals.phi == max(0.0, np.max(f))

    def test_evaluate_applies_the_floor(self):
        prob = self._identity(2)
        ev = model.evaluate(prob, [-1.0, 1e-12], model.EvalCounters(), phi_tol=self.TOL)
        assert ev.phi == 0.0
        assert model.evaluate(prob, [-1.0, 1e-12], model.EvalCounters()).phi == 1e-12


class TestCounters:
    def test_point_values_tallies(self):
        prob = _toy_problem()
        counters = model.EvalCounters()
        model.point_values(prob, [0.0], counters)
        assert counters.nf0 == 1
        assert counters.nf == 2  # one constraint vector of length 2

    def test_fd_probes_are_tallied(self):
        prob = model.NlpProblem(
            n=2, m_ineq=1, m_eq=0,
            f0=lambda x: float(x @ x),
            f=lambda x: np.array([x[0] - 1.0]),
        )
        counters = model.EvalCounters()
        model.evaluate(prob, [1.0, 2.0], counters)
        # point values: 1 objective + 1 constraint; objective gradient: 4
        # probes; Jacobian: 4 probes of the length-1 constraint vector.
        assert counters.nf0 == 1 + 4
        assert counters.nf == 1 + 4

    def test_analytic_gradients_cost_nothing(self):
        prob = _toy_problem()
        counters = model.EvalCounters()
        model.evaluate(prob, [0.5], counters)
        assert (counters.nf0, counters.nf) == (1, 2)

    def test_evaluate_reuses_paid_values(self):
        prob = _toy_problem()
        counters = model.EvalCounters()
        vals = model.point_values(prob, [0.5], counters)
        model.evaluate(prob, vals.x, counters, values=vals)
        assert (counters.nf0, counters.nf) == (1, 2)


class TestJacobianLayout:
    def test_layout_of_grad_f_does_not_change_the_run(self):
        # Products round differently by memory layout; evaluate stores the
        # Jacobian in one order, so C- and F-ordered callbacks give one run.
        n, m = 12, 24
        rng = np.random.default_rng(2)
        a = rng.standard_normal((m, n))
        b = np.abs(rng.standard_normal(m)) + 1.0
        c = rng.standard_normal(n)

        def program(layout):
            return model.NlpProblem(
                n=n, m_ineq=m, m_eq=0,
                f0=lambda x: float(np.sum(x ** 4) / 4.0 + x @ x / 2.0 + c @ x),
                f=lambda x: a @ x - b + 0.1 * (x @ x),
                grad_f0=lambda x: x ** 3 + x + c,
                grad_f=lambda x: layout(a.T + 0.2 * x[:, None]),
            )

        x0 = 3.0 * np.ones(n)
        runs = [engine.solve(program(layout), x0)
                for layout in (np.ascontiguousarray, np.asfortranarray)]
        ev = model.evaluate(program(np.asfortranarray), x0, model.EvalCounters())
        assert ev.gI.flags.c_contiguous
        assert runs[0].status is engine.SolveStatus.CONVERGED
        c_run, f_run = runs
        assert (c_run.status, c_run.ni, c_run.nf0, c_run.nf) == (
            f_run.status, f_run.ni, f_run.nf0, f_run.nf)
        for field in ("x", "lam", "mu"):
            assert getattr(c_run, field).tobytes() == getattr(f_run, field).tobytes()
        assert c_run.fv == f_run.fv
        assert c_run.kkt_residual == f_run.kkt_residual


class TestEvaluationFailures:
    def test_nan_objective_raises(self):
        prob = model.NlpProblem(n=1, m_ineq=0, m_eq=0, f0=lambda x: float("nan"))
        with pytest.raises(EvaluationFailure):
            model.point_values(prob, [0.0], model.EvalCounters())

    def test_infinite_constraint_raises(self):
        prob = model.NlpProblem(
            n=1, m_ineq=1, m_eq=0, f0=lambda x: 0.0,
            f=lambda x: np.array([float("inf")]),
        )
        with pytest.raises(EvaluationFailure):
            model.point_values(prob, [0.0], model.EvalCounters())

    def test_nan_gradient_raises(self):
        prob = model.NlpProblem(
            n=1, m_ineq=0, m_eq=0, f0=lambda x: 0.0,
            grad_f0=lambda x: np.array([float("nan")]),
        )
        with pytest.raises(EvaluationFailure):
            model.evaluate(prob, [0.0], model.EvalCounters())


class TestFiniteDifferences:
    def test_quadratic_gradient(self):
        prob = model.NlpProblem(n=1, m_ineq=0, m_eq=0, f0=lambda x: float(x[0] ** 2))
        g = model.fd_gradient(prob, [3.0], model.EvalCounters())
        assert abs(g[0] - 6.0) <= 1e-6

    def test_constraint_component_gradient(self):
        prob = _toy_problem()
        jac = model.fd_jacobian(prob, [2.0], model.EvalCounters())
        assert abs(jac[0, 1] + 1.0) <= 1e-8

    def test_jacobian_matches_analytic_columns(self):
        entry = corpus.get_problem("HS031")
        x = np.asarray(entry.x0_feasible) + 0.05
        jac = model.fd_jacobian(entry.problem, x, model.EvalCounters())
        analytic = entry.problem.grad_f(x)
        assert np.allclose(jac, analytic, atol=1e-5, rtol=1e-5)


class TestPenalty:
    def test_value_subtracts_weighted_equalities(self):
        prob = _eq_problem()
        vals = model.point_values(prob, [2.0, 1.0], model.EvalCounters())
        # f0 = 5, equality value = 2; penalized objective = 5 - c*2.
        assert model.penalty_value(vals, 3.0) == pytest.approx(5.0 - 6.0)

    def test_value_ignores_inequalities(self):
        prob = _toy_problem()
        vals = model.point_values(prob, [3.0], model.EvalCounters())
        assert model.penalty_value(vals, 7.0) == vals.f0

    def test_gradient_matches_finite_differences(self):
        prob = _eq_problem()
        c = 2.5
        counters = model.EvalCounters()
        x = np.array([0.3, -0.7])
        ev = model.evaluate(prob, x, counters)
        g = model.penalty_gradient(ev, c)
        for j in range(prob.n):
            h = 1e-6
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fp = model.penalty_value(model.point_values(prob, xp, counters), c)
            fm = model.penalty_value(model.point_values(prob, xm, counters), c)
            assert g[j] == pytest.approx((fp - fm) / (2 * h), abs=1e-5)


class TestMultiplierEstimate:
    def test_no_constraints_gives_empty(self):
        prob = model.NlpProblem(n=2, m_ineq=0, m_eq=0, f0=lambda x: float(x @ x))
        ev = model.evaluate(prob, [1.0, 1.0], model.EvalCounters())
        assert model.compute_pi(ev, 2.0).size == 0

    def test_single_active_constraint_recovers_multiplier(self):
        # At x = 1 the first constraint is tight: stationarity of
        # (x-2)^2 + pi*(x-1) gives pi = 2. The damping vanishes on the
        # active row, so the estimate is exact.
        prob = _toy_problem()
        ev = model.evaluate(prob, [1.0], model.EvalCounters())
        pi = model.compute_pi(ev, 2.0)
        # System: (N'N + diag(0, 1)) pi = -N'g0 with N = [[1, -1]], g0 = -2.
        sys = np.array([[1.0, -1.0], [-1.0, 2.0]])
        expected = np.linalg.solve(sys, np.array([2.0, -2.0]))
        assert np.allclose(pi, expected, atol=1e-10)

    def test_solves_the_damped_normal_equations(self):
        entry = corpus.get_problem("HS043")
        ev = model.evaluate(entry.problem, entry.x0_infeasible,
                            model.EvalCounters())
        p = 2.0
        pi = model.compute_pi(ev, p)
        diag = np.abs(ev.fbar) ** p
        diag[ev.m_ineq:] = 0.0
        lhs = (ev.gI.T @ ev.gI + np.diag(diag)) @ pi
        rhs = -(ev.gI.T @ ev.g0)
        assert np.allclose(lhs, rhs, atol=1e-9 * max(1.0, np.max(np.abs(rhs))))

    def test_dependent_active_gradients_raise(self):
        # Two copies of the same constraint, both exactly active: the damped
        # system is singular.
        prob = model.NlpProblem(
            n=1, m_ineq=2, m_eq=0, f0=lambda x: float(x[0]),
            f=lambda x: np.array([x[0], x[0]]),
            grad_f0=lambda x: np.array([1.0]),
            grad_f=lambda x: np.array([[1.0, 1.0]]),
        )
        ev = model.evaluate(prob, [0.0], model.EvalCounters())
        with pytest.raises(DegenerateConstraints):
            model.compute_pi(ev, 2.0)


class TestPenaltyUpdate:
    def test_raise_respects_minimum_jump(self):
        # Demand is |pi| + gamma0 = 1 + 2 = 3, which exceeds c = 0.5 and the
        # minimum jump c + gamma = 1.5, so c becomes 3.
        assert model.update_c(0.5, np.array([-1.0]), 1.0, 2.0) == 3.0

    def test_large_c_is_inert(self):
        assert model.update_c(10.0, np.array([-1.0]), 1.0, 2.0) == 10.0

    def test_small_demand_still_jumps_by_gamma(self):
        # Demand 0.9 + 2 = 2.9 barely exceeds c = 2.8, so the minimum jump
        # c + gamma = 3.8 wins.
        assert model.update_c(2.8, np.array([0.9]), 1.0, 2.0) == pytest.approx(3.8)

    def test_no_equalities_means_no_change(self):
        assert model.update_c(0.5, np.zeros(0), 1.0, 2.0) == 0.5

    def test_uses_worst_equality_component(self):
        assert model.update_c(0.5, np.array([0.1, -4.0]), 1.0, 2.0) == 6.0


class TestKktResidual:
    def test_zero_at_exact_kkt_point(self):
        # x = 1 with mu = (2, 0) is the exact KKT point of the toy problem.
        prob = _toy_problem()
        ev = model.evaluate(prob, [1.0], model.EvalCounters())
        assert model.kkt_residual_original(ev, np.array([2.0, 0.0])) == 0.0

    def test_stationarity_violation_detected(self):
        prob = _toy_problem()
        ev = model.evaluate(prob, [1.0], model.EvalCounters())
        # g0 = -2, so mu = 0 leaves stationarity residual 2, divided by the
        # gradient scale max(1, |g0|) = 2.
        assert model.kkt_residual_original(ev, np.zeros(2)) == pytest.approx(1.0)

    def test_negative_multiplier_detected(self):
        prob = _toy_problem()
        ev = model.evaluate(prob, [1.0], model.EvalCounters())
        res = model.kkt_residual_original(ev, np.array([2.0, -0.5]))
        assert res >= 0.25  # dual infeasibility 0.5 over gradient scale 2

    def test_complementarity_detected(self):
        prob = _toy_problem()
        ev = model.evaluate(prob, [0.5], model.EvalCounters())
        # Inactive constraint (value -0.5) with positive multiplier 1.
        res = model.kkt_residual_original(ev, np.array([1.0, 0.0]))
        assert res >= 0.5

    def test_primal_violation_not_rescaled(self):
        # Scaling the objective by 1000 must not shrink the reported
        # constraint violation.
        big = model.NlpProblem(
            n=1, m_ineq=1, m_eq=0,
            f0=lambda x: 1000.0 * float(x[0]),
            f=lambda x: np.array([x[0] - 1.0]),
            grad_f0=lambda x: np.array([1000.0]),
            grad_f=lambda x: np.array([[1.0]]),
        )
        ev = model.evaluate(big, [1.5], model.EvalCounters())
        assert model.kkt_residual_original(ev, np.array([1000.0])) >= 0.5

    def test_invariant_under_objective_rescaling(self):
        def make(scale):
            return model.NlpProblem(
                n=1, m_ineq=1, m_eq=0,
                f0=lambda x: scale * float((x[0] - 2.0) ** 2),
                f=lambda x: np.array([x[0] - 1.0]),
                grad_f0=lambda x: np.array([scale * 2.0 * (x[0] - 2.0)]),
                grad_f=lambda x: np.array([[1.0]]),
            )

        res = []
        for scale in (10.0, 10000.0):
            ev = model.evaluate(make(scale), [1.0], model.EvalCounters())
            # Slightly wrong multiplier, off by 1% of the exact 2*scale.
            res.append(model.kkt_residual_original(ev, np.array([2.02 * scale])))
        assert res[0] == pytest.approx(res[1], rel=1e-9)

    def test_equality_violation_counts_both_signs(self):
        prob = _eq_problem()
        ev = model.evaluate(prob, [0.2, 0.2], model.EvalCounters())
        res = model.kkt_residual_original(ev, np.array([0.0, -0.4]))
        assert res >= 0.6  # equality value is -0.6
