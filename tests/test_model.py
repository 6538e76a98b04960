"""Problem-model contracts: index sets, penalty bookkeeping, multiplier
estimates, penalty-parameter updates, and the KKT residual."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from isqp import corpus, engine, model
from isqp.errors import EvaluationFailure, NumericalFailure


def _evaluate(problem, x, counters=None):
    """The solver's evaluation pipeline at x: constraint values, then f0,
    then gradients."""
    counters = model.EvalCounters() if counters is None else counters
    vals = model.point_values(problem, x, counters)
    return model.evaluate(problem, model.with_objective(problem, vals, counters), counters)


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

    @pytest.mark.parametrize("counts", [
        {"n": 2.0, "m_ineq": 0, "m_eq": 0},
        {"n": 2, "m_ineq": 0, "m_eq": 0.5},
        {"n": True, "m_ineq": False, "m_eq": False},
        {"n": 2, "m_ineq": True, "m_eq": 0},
    ])
    def test_rejects_non_integral_counts(self, counts):
        with pytest.raises(ValueError, match="integers"):
            model.NlpProblem(f0=lambda x: 0.0, **counts)

    def test_accepts_numpy_integer_counts(self):
        prob = model.NlpProblem(n=np.int64(2), m_ineq=0, m_eq=0, f0=lambda x: float(x @ x))
        assert prob.m == 0

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
        ev = _evaluate(prob, [3.0])
        assert ev.phi == 2.0
        assert np.array_equal(ev.fI, [2.0, -3.0])
        assert np.array_equal(ev.fbar, [0.0, -3.0])
        assert np.array_equal(ev.satisfied, [False, True])
        assert ev.n_satisfied == 1
        assert np.array_equal(ev.izero, [0])

    def test_boundary_point_counts_satisfied(self):
        # f = (x - 1, -x) at x = 0: values (-1, 0); a zero value is
        # satisfied, phi = 0, and the zero row is the active one.
        prob = _toy_problem()
        ev = _evaluate(prob, [0.0])
        assert ev.phi == 0.0
        assert np.array_equal(ev.fbar, ev.fI)
        assert np.array_equal(ev.satisfied, [True, True])
        assert ev.n_satisfied == 2
        assert np.array_equal(ev.izero, [1])

    def test_interior_point_has_no_active_rows(self):
        prob = _toy_problem()
        ev = _evaluate(prob, [0.5])
        assert ev.phi == 0.0
        assert ev.izero.size == 0
        assert ev.n_satisfied == 2

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
        ev = _evaluate(prob, [2.0])
        assert ev.phi == 6.0
        assert np.array_equal(ev.fbar, [-4.0, 0.0])


class TestRoundoffFloor:
    """A constraint value up to PHI_TOL * max(1, max|f|) counts as
    satisfied; PHI_TOL = 0, set here only through monkeypatch, compares with
    0 exactly."""

    TOL = model.PHI_TOL  # 1e-10

    @staticmethod
    def _identity(m):
        """f(x) = x, so the constraint values are the point itself."""
        return model.NlpProblem(n=m, m_ineq=m, m_eq=0, f0=lambda x: 0.0,
                                f=lambda x: np.array(x, dtype=float))

    def _values(self, f):
        return _evaluate(self._identity(len(f)), f)

    def test_roundoff_violation_is_satisfied(self):
        vals = self._values([-1.0, 1e-12, -0.5])  # max|f| = 1
        assert vals.phi == 0.0
        assert np.array_equal(vals.satisfied, [True, True, True])
        assert np.array_equal(vals.fbar, [-1.0, 0.0, -0.5])
        assert np.array_equal(vals.izero, [1])

    def test_violation_above_the_floor_counts(self):
        vals = self._values([-1.0, 1e-9, -0.5])
        assert vals.phi == 1e-9
        assert np.array_equal(vals.satisfied, [True, False, True])
        assert np.array_equal(vals.fbar, [-1.0, 0.0, -0.5])

    def test_floor_scales_with_the_largest_value(self):
        assert self._values([-1e4, 1e-7]).phi == 0.0
        assert self._values([-1e4, 1e-5]).phi == 1e-5

    def test_zero_tolerance_keeps_the_exact_sets(self, monkeypatch):
        monkeypatch.setattr(model, "PHI_TOL", 0.0)
        vals = self._values([-1.0, 1e-12, -0.5])
        assert vals.phi == 1e-12
        assert np.array_equal(vals.satisfied, [True, False, True])
        assert np.array_equal(vals.fbar, [-1.0, 0.0, -0.5])

    def test_sets_against_the_rule(self, monkeypatch):
        rng = np.random.default_rng(0)
        for _ in range(200):
            f = rng.standard_normal(6) * 10.0 ** rng.integers(-12, 3, size=6)
            f[rng.random(6) < 0.3] = 0.0
            for phi_tol in (0.0, self.TOL, 1e-3):
                monkeypatch.setattr(model, "PHI_TOL", phi_tol)
                vals = self._values(f)
                floor = phi_tol * max(1.0, np.max(np.abs(f)))
                satisfied = f <= floor
                assert np.array_equal(vals.satisfied, satisfied)
                assert vals.n_satisfied == np.count_nonzero(satisfied)
                assert vals.phi == (np.max(f) if not satisfied.all() else 0.0)
                assert np.all(vals.fbar <= 0.0)
                assert np.array_equal(vals.fbar[satisfied], np.minimum(f[satisfied], 0.0))
                if phi_tol == 0.0:
                    # The exact sets: fbar = f on satisfied rows.
                    assert np.array_equal(vals.fbar[satisfied], f[satisfied])
                    assert vals.phi == max(0.0, np.max(f))

    def test_evaluate_applies_the_floor(self):
        # The floor holds by default: a library call classifies as solve does.
        prob = self._identity(2)
        assert _evaluate(prob, [-1.0, 1e-12]).phi == 0.0
        assert _evaluate(prob, [-1.0, 1e-9]).phi == 1e-9

    def test_library_call_and_solve_share_the_floor(self):
        # A start with one constraint at +1e-12: point_values and the first
        # iteration of solve count the same satisfied constraints.
        prob = model.NlpProblem(n=2, m_ineq=2, m_eq=0, f0=lambda x: float(x @ x),
                                f=lambda x: np.array(x, dtype=float))
        x0 = [-1.0, 1e-12]
        vals = model.point_values(prob, x0, model.EvalCounters())
        report = engine.solve(prob, x0)
        assert vals.n_satisfied == report.trace[0].iminus_size == 2


class TestCounters:
    def test_point_values_tallies(self):
        prob = _toy_problem()
        counters = model.EvalCounters()
        vals = model.point_values(prob, [0.0], counters)
        assert vals.f0 is None
        assert counters.nf0 == 0  # the objective is left for with_objective
        assert counters.nf == 2  # one constraint vector of length 2
        assert model.with_objective(prob, vals, counters).f0 == 4.0
        assert counters.nf0 == 1

    def test_fd_probes_are_tallied(self):
        prob = model.NlpProblem(
            n=2, m_ineq=1, m_eq=0,
            f0=lambda x: float(x @ x),
            f=lambda x: np.array([x[0] - 1.0]),
        )
        counters = model.EvalCounters()
        _evaluate(prob, [1.0, 2.0], counters)
        # point values: 1 objective + 1 constraint; objective gradient: 4
        # probes; Jacobian: 4 probes of the length-1 constraint vector.
        assert counters.nf0 == 1 + 4
        assert counters.nf == 1 + 4

    def test_analytic_gradients_cost_nothing(self):
        prob = _toy_problem()
        counters = model.EvalCounters()
        _evaluate(prob, [0.5], counters)
        assert (counters.nf0, counters.nf) == (1, 2)

    def test_evaluate_reuses_paid_values(self):
        prob = _toy_problem()
        counters = model.EvalCounters()
        vals = model.with_objective(prob, model.point_values(prob, [0.5], counters), counters)
        model.evaluate(prob, vals, counters)
        assert (counters.nf0, counters.nf) == (1, 2)

    def test_with_objective_sets_only_f0(self):
        # with_objective names every field itself, so a field added to
        # PointValues must be carried there too: every field but f0 is the
        # very object of the values it completes.
        prob = _toy_problem()
        counters = model.EvalCounters()
        vals = model.point_values(prob, [3.0], counters)
        done = model.with_objective(prob, vals, counters)
        assert type(done) is model.PointValues
        assert (vals.f0, done.f0) == (None, 1.0)
        for field in dataclasses.fields(model.PointValues):
            if field.name != "f0":
                assert getattr(done, field.name) is getattr(vals, field.name), field.name


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
        ev = _evaluate(program(np.asfortranarray), x0)
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
        counters = model.EvalCounters()
        vals = model.point_values(prob, [0.0], counters)
        with pytest.raises(EvaluationFailure):
            model.with_objective(prob, vals, counters)

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
            _evaluate(prob, [0.0])


class TestCallbackContract:
    """Every callback value must have its documented shape; a run handed
    another shape ends evaluation_failure at once instead of reshaping it
    into a different program."""

    @staticmethod
    def _failure(problem, x0):
        report = engine.solve(problem, x0)
        assert report.status is engine.SolveStatus.EVALUATION_FAILURE
        assert report.ni == 0
        return report.message

    @staticmethod
    def _ball_program(jacobian):
        """min x.x s.t. 1 - x1 - 2 x2 - 3 x3 <= 0 and 0.5 - x3 <= 0, whose
        minimizer is (0, 0, 0.5) with fv 0.25; ``jacobian`` turns the 3x2
        Jacobian into what grad_f returns."""
        jac = np.array([[-1.0, 0.0], [-2.0, 0.0], [-3.0, -1.0]])
        return model.NlpProblem(
            n=3, m_ineq=2, m_eq=0,
            f0=lambda x: float(x @ x),
            f=lambda x: np.array([1.0 - x[0] - 2.0 * x[1] - 3.0 * x[2], 0.5 - x[2]]),
            grad_f0=lambda x: 2.0 * x,
            grad_f=lambda x: jacobian(jac),
        )

    def test_documented_jacobian_reaches_the_optimum(self):
        report = engine.solve(self._ball_program(lambda jac: jac), [1.0, 1.0, 1.0])
        assert report.status is engine.SolveStatus.CONVERGED
        assert report.fv == pytest.approx(0.25, abs=1e-7)

    def test_transposed_jacobian_is_refused(self):
        # Read as 3x2, the 2x3 Jacobian describes another program, on which
        # the run once converged at fv 1.25.
        message = self._failure(self._ball_program(lambda jac: jac.T), [1.0, 1.0, 1.0])
        assert message == "grad_f returned shape (2, 3), expected (3, 2)"

    def test_objective_of_shape_one_is_refused(self):
        prob = model.NlpProblem(n=1, m_ineq=0, m_eq=0,
                                f0=lambda x: np.array([x[0] ** 2]))
        assert self._failure(prob, [1.0]) == "f0 returned shape (1,), expected ()"

    def test_constraint_vector_of_wrong_length_is_refused(self):
        prob = dataclasses.replace(_toy_problem(), f=lambda x: np.array([x[0] - 1.0]))
        assert self._failure(prob, [0.5]) == "f returned shape (1,), expected (2,)"

    def test_column_gradient_is_refused(self):
        prob = model.NlpProblem(n=2, m_ineq=0, m_eq=0,
                                f0=lambda x: float(x @ x),
                                grad_f0=lambda x: 2.0 * x[:, None])
        message = self._failure(prob, [1.0, 1.0])
        assert message == "grad_f0 returned shape (2, 1), expected (2,)"

    def test_ragged_value_is_refused(self):
        prob = dataclasses.replace(_toy_problem(), f=lambda x: [x[0] - 1.0, [-x[0]]])
        assert self._failure(prob, [0.5]).startswith("f returned no float array")

    # min (x - 2)^2 s.t. x - 10 <= 0 from 3: cast to float, the complex f
    # once read as x - 1 and the run converged at x = 1, with a warning.
    @pytest.mark.parametrize("name,callback", [
        ("f", lambda x: np.array([x[0] - 1.0 + 1j])),
        ("f", lambda x: [np.complex128(x[0] - 10.0)]),
        ("f0", lambda x: np.complex128((x[0] - 2.0) ** 2)),
        ("f0", lambda x: complex((x[0] - 2.0) ** 2)),
        ("grad_f0", lambda x: np.array([2.0 * (x[0] - 2.0) + 0j])),
        ("grad_f", lambda x: np.array([[1.0 + 0j]])),
    ], ids=["f-array", "f-list-of-numpy-scalars", "f0-numpy-scalar", "f0-python-complex",
            "grad_f0", "grad_f"])
    def test_complex_value_is_refused(self, name, callback):
        message = self._failure(dataclasses.replace(self._shifted_square(), **{name: callback}),
                                [3.0])
        assert message == (f"{name} returned no float array at x=array([3.]): "
                           "complex dtype complex128")

    @staticmethod
    def _shifted_square():
        """min (x - 2)^2 s.t. x - 10 <= 0, solved from 3 in the cases around."""
        return model.NlpProblem(n=1, m_ineq=1, m_eq=0,
                                f0=lambda x: float((x[0] - 2.0) ** 2),
                                f=lambda x: np.array([x[0] - 10.0]),
                                grad_f0=lambda x: 2.0 * (x - 2.0),
                                grad_f=lambda x: np.ones((1, 1)))

    # Cast to float, a string-valued f0 and grad_f0 once converged at x = 2,
    # and a complex beside a Fraction in one list lost its imaginary part.
    @pytest.mark.parametrize("name,callback,kind", [
        ("f0", lambda x: np.True_, "bool dtype bool"),
        ("f0", lambda x: str(float((x[0] - 2.0) ** 2)), "string dtype <U3"),
        ("f", lambda x: np.array([b"-7"]), "bytes dtype |S2"),
        ("grad_f0", lambda x: np.array([2.0 + 1j], dtype=object), "complex dtype complex128"),
        ("grad_f0", lambda x: np.array([True], dtype=object), "bool dtype bool"),
        ("grad_f", lambda x: np.array([["1.0"]], dtype=object), "string dtype <U3"),
    ], ids=["bool", "string", "bytes", "object-holding-complex", "object-holding-bool",
            "object-holding-string"])
    def test_value_that_is_not_a_number_is_refused(self, name, callback, kind):
        message = self._failure(dataclasses.replace(self._shifted_square(), **{name: callback}),
                                [3.0])
        assert message == f"{name} returned no float array at x=array([3.]): {kind}"

    def test_fraction_is_accepted(self):
        prob = dataclasses.replace(self._shifted_square(),
                                   f0=lambda x: Fraction((x[0] - 2.0) ** 2),
                                   grad_f0=lambda x: [Fraction(2.0 * (x[0] - 2.0))])
        report = engine.solve(prob, [3.0])
        assert report.status is engine.SolveStatus.CONVERGED
        assert report.x[0] == pytest.approx(2.0)

    def test_non_finite_entry_is_named(self):
        prob = dataclasses.replace(
            _toy_problem(), grad_f=lambda x: np.array([[1.0, float("nan")]]))
        message = self._failure(prob, [0.5])
        assert message.startswith("grad_f returned nan at entry (0, 1) at x=")


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
        vals = _evaluate(prob, [2.0, 1.0])
        # f0 = 5, equality value = 2; penalized objective = 5 - c*2.
        assert model.penalty_value(vals, 3.0) == pytest.approx(5.0 - 6.0)

    def test_value_ignores_inequalities(self):
        prob = _toy_problem()
        vals = _evaluate(prob, [3.0])
        assert model.penalty_value(vals, 7.0) == vals.f0

    def test_gradient_matches_finite_differences(self):
        prob = _eq_problem()
        c = 2.5
        counters = model.EvalCounters()
        x = np.array([0.3, -0.7])
        ev = _evaluate(prob, x, counters)
        g = model.penalty_gradient(ev, c)
        for j in range(prob.n):
            h = 1e-6
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fp = model.penalty_value(_evaluate(prob, xp, counters), c)
            fm = model.penalty_value(_evaluate(prob, xm, counters), c)
            assert g[j] == pytest.approx((fp - fm) / (2 * h), abs=1e-5)


class TestMultiplierEstimate:
    def test_no_constraints_gives_empty(self):
        prob = model.NlpProblem(n=2, m_ineq=0, m_eq=0, f0=lambda x: float(x @ x))
        ev = _evaluate(prob, [1.0, 1.0])
        assert model.compute_pi(ev, 2.0).size == 0

    def test_single_active_constraint_recovers_multiplier(self):
        # At x = 1 the first constraint is tight: stationarity of
        # (x-2)^2 + pi*(x-1) gives pi = 2. The damping vanishes on the
        # active row, so the estimate is exact.
        prob = _toy_problem()
        ev = _evaluate(prob, [1.0])
        pi = model.compute_pi(ev, 2.0)
        # System: (N'N + diag(0, 1)) pi = -N'g0 with N = [[1, -1]], g0 = -2.
        sys = np.array([[1.0, -1.0], [-1.0, 2.0]])
        expected = np.linalg.solve(sys, np.array([2.0, -2.0]))
        assert np.allclose(pi, expected, atol=1e-10)

    def test_solves_the_damped_normal_equations(self):
        entry = corpus.get_problem("HS043")
        ev = _evaluate(entry.problem, entry.x0_infeasible)
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
        ev = _evaluate(prob, [0.0])
        with pytest.raises(NumericalFailure, match="^constraint gradients are dependent; "
                                                   "multiplier estimate failed$"):
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
        ev = _evaluate(prob, [1.0])
        assert model.kkt_residual_original(ev, np.array([2.0, 0.0])) == 0.0

    def test_stationarity_violation_detected(self):
        prob = _toy_problem()
        ev = _evaluate(prob, [1.0])
        # g0 = -2, so mu = 0 leaves stationarity residual 2, divided by the
        # gradient scale max(1, |g0|) = 2.
        assert model.kkt_residual_original(ev, np.zeros(2)) == pytest.approx(1.0)

    def test_negative_multiplier_detected(self):
        prob = _toy_problem()
        ev = _evaluate(prob, [1.0])
        res = model.kkt_residual_original(ev, np.array([2.0, -0.5]))
        assert res >= 0.25  # dual infeasibility 0.5 over gradient scale 2

    def test_complementarity_detected(self):
        prob = _toy_problem()
        ev = _evaluate(prob, [0.5])
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
        ev = _evaluate(big, [1.5])
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
            ev = _evaluate(make(scale), [1.0])
            # Slightly wrong multiplier, off by 1% of the exact 2*scale.
            res.append(model.kkt_residual_original(ev, np.array([2.02 * scale])))
        assert res[0] == pytest.approx(res[1], rel=1e-9)

    def test_equality_violation_counts_both_signs(self):
        prob = _eq_problem()
        ev = _evaluate(prob, [0.2, 0.2])
        res = model.kkt_residual_original(ev, np.array([0.0, -0.4]))
        assert res >= 0.6  # equality value is -0.6
