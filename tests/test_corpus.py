"""Benchmark-corpus contracts: registry lookups, declared dimensions,
start-point feasibility, analytic-gradient correctness against central
differences, reference objective values, the pinned counts of every
corpus run, and the stopping rule that every corpus run ends on."""

import numpy as np
import pytest

from isqp import corpus, engine, model
from isqp.errors import SolverError

EXPECTED_NAMES = [
    "HS012", "HS024", "HS029", "HS030", "HS031", "HS033", "HS034", "HS035",
    "HS036", "HS037", "HS043", "HS044", "HS065", "HS066", "HS076", "HS100",
]


class TestRegistry:
    def test_all_problems_present_and_sorted(self):
        assert corpus.list_problems() == EXPECTED_NAMES

    def test_lookup_returns_matching_entry(self):
        entry = corpus.get_problem("HS035")
        assert entry.name == "HS035"
        assert entry.problem.name == "HS035"

    def test_unknown_name_raises_with_known_list(self):
        with pytest.raises(SolverError, match="^unknown problem 'HS999'; known: HS012, "):
            corpus.get_problem("HS999")

    def test_entries_are_stable_across_lookups(self):
        assert corpus.get_problem("HS012") is corpus.get_problem("HS012")


class TestDimensions:
    @pytest.mark.parametrize("name,dims", [
        ("HS012", (2, 1, 0)),
        ("HS024", (2, 5, 0)),
        ("HS029", (3, 1, 0)),
        ("HS030", (3, 7, 0)),
        ("HS031", (3, 7, 0)),
        ("HS033", (3, 6, 0)),
        ("HS034", (3, 8, 0)),
        ("HS035", (3, 4, 0)),
        ("HS036", (3, 7, 0)),
        ("HS037", (3, 8, 0)),
        ("HS043", (4, 3, 0)),
        ("HS044", (4, 10, 0)),
        ("HS065", (3, 7, 0)),
        ("HS066", (3, 8, 0)),
        ("HS076", (4, 7, 0)),
        ("HS100", (7, 4, 0)),
    ])
    def test_declared_dimensions(self, name, dims):
        entry = corpus.get_problem(name)
        assert entry.dims == dims
        prob = entry.problem
        assert (prob.n, prob.m_ineq, prob.m_eq) == dims

    def test_callbacks_match_declared_shapes(self):
        for name in corpus.list_problems():
            entry = corpus.get_problem(name)
            prob = entry.problem
            x = (entry.x0_feasible if entry.x0_feasible is not None
                 else entry.x0_infeasible)
            assert x.shape == (prob.n,)
            assert np.asarray(prob.f(x)).shape == (prob.m,)
            assert np.asarray(prob.grad_f0(x)).shape == (prob.n,)
            assert np.asarray(prob.grad_f(x)).shape == (prob.n, prob.m)


class TestStartPoints:
    def test_feasible_starts_have_zero_violation(self):
        for name in corpus.list_problems():
            entry = corpus.get_problem(name)
            if entry.x0_feasible is None:
                continue
            vals = model.point_values(entry.problem, entry.x0_feasible,
                                      model.EvalCounters())
            assert vals.phi == 0.0, f"{name}: declared feasible start violates"

    def test_infeasible_starts_violate_something(self):
        for name in corpus.list_problems():
            entry = corpus.get_problem(name)
            if entry.x0_infeasible is None:
                continue
            vals = model.point_values(entry.problem, entry.x0_infeasible,
                                      model.EvalCounters())
            assert vals.phi > 0.0, f"{name}: declared infeasible start is feasible"

    def test_every_entry_offers_at_least_one_start(self):
        for name in corpus.list_problems():
            entry = corpus.get_problem(name)
            assert entry.x0_feasible is not None or entry.x0_infeasible is not None

    def test_starts_hold_only_the_defined_points(self):
        hs012 = corpus.get_problem("HS012")
        assert list(hs012.starts) == ["a"]
        assert hs012.starts["a"] is hs012.x0_feasible
        hs035 = corpus.get_problem("HS035")
        assert list(hs035.starts) == ["a", "b"]
        assert hs035.starts["a"] is hs035.x0_feasible
        assert hs035.starts["b"] is hs035.x0_infeasible
        assert sum(len(corpus.get_problem(n).starts) for n in corpus.list_problems()) == 25

    def test_starts_are_read_only(self):
        starts = corpus.get_problem("HS012").starts
        with pytest.raises(TypeError):
            starts["b"] = np.zeros(2)


class TestGradients:
    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_analytic_gradients_match_central_differences(self, name):
        assert corpus.verify_gradients(corpus.get_problem(name)) <= corpus.GRADIENT_TOL

    def test_corrupted_gradient_is_detected(self):
        # Negative control: break one gradient component and the check must
        # name the offending constraint.
        entry = corpus.get_problem("HS035")
        prob = entry.problem

        def bad_grad_f(x):
            g = prob.grad_f(x).copy()
            g[0, 2] += 0.5
            return g

        broken = model.NlpProblem(
            n=prob.n, m_ineq=prob.m_ineq, m_eq=prob.m_eq,
            f0=prob.f0, f=prob.f, grad_f0=prob.grad_f0, grad_f=bad_grad_f,
            name="broken",
        )
        tampered = corpus.CorpusEntry(
            name="broken", problem=broken,
            x0_feasible=entry.x0_feasible, x0_infeasible=entry.x0_infeasible,
            fv_candidates=entry.fv_candidates,
        )
        with pytest.raises(SolverError, match="^broken: gradient of constraint 2 off by "):
            corpus.verify_gradients(tampered)

    def test_corrupted_objective_gradient_is_detected(self):
        entry = corpus.get_problem("HS012")
        prob = entry.problem
        broken = model.NlpProblem(
            n=prob.n, m_ineq=prob.m_ineq, m_eq=prob.m_eq,
            f0=prob.f0, f=prob.f,
            grad_f0=lambda x: prob.grad_f0(x) + 1.0,
            grad_f=prob.grad_f, name="broken",
        )
        tampered = corpus.CorpusEntry(
            name="broken", problem=broken,
            x0_feasible=entry.x0_feasible, x0_infeasible=entry.x0_infeasible,
            fv_candidates=entry.fv_candidates,
        )
        with pytest.raises(SolverError, match="^broken: objective gradient off by "):
            corpus.verify_gradients(tampered)

    def test_linear_constraints_are_exact(self):
        # Every constraint row of this problem is affine, so analytic and
        # finite-difference Jacobians agree to the differencing noise floor.
        entry = corpus.get_problem("HS044")
        x = entry.x0_infeasible + 0.37
        jac = model.fd_jacobian(entry.problem, x, model.EvalCounters())
        assert np.allclose(jac, entry.problem.grad_f(x), atol=1e-9)


class TestBoundExpansion:
    """``_expand_bounds`` on a synthetic spec: two general rows, then one
    row per finite bound in variable order, lower before upper, each equal
    byte for byte to the row written out by hand."""

    N, M = 5, 2
    # Declared out of order: the expansion orders the rows by variable.
    BOUNDS = ((3, None, 4.0), (0, 0.0, None), (4, -1.5, 2.5), (1, 2.0, None),
              (2, -3.0, None))

    @staticmethod
    def _general(x):
        return np.array([x[0] * x[1] - 1.0, x[2] + x[3]])

    @staticmethod
    def _general_grad(x):
        return np.array([[x[1], 0.0], [x[0], 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 0.0]])

    @staticmethod
    def _written_out(x):
        return np.array([-x[0], 2.0 - x[1], -x[2] - 3.0, x[3] - 4.0, -x[4] - 1.5,
                         x[4] - 2.5])

    def _expanded(self):
        return corpus._expand_bounds(self.N, self._general, self._general_grad,
                                     self.M, self.BOUNDS)

    def _points(self):
        rng = np.random.default_rng(7)
        return [np.zeros(self.N), -np.zeros(self.N),
                np.array([0.0, 2.0, -3.0, 4.0, -1.5]), np.array([0.0, 2.0, -3.0, 4.0, 2.5]),
                *(rng.uniform(-10.0, 10.0, self.N) for _ in range(200))]

    def test_row_count(self):
        assert self._expanded()[2] == self.M + 6

    def test_rows_match_the_written_out_form_byte_for_byte(self):
        f, _, _ = self._expanded()
        for x in self._points():
            out = f(x)
            assert out.dtype == np.float64 and out.flags["C_CONTIGUOUS"]
            assert out[:self.M].tobytes() == self._general(x).tobytes()
            assert out[self.M:].tobytes() == self._written_out(x).tobytes()

    def test_zero_lower_bound_keeps_the_sign_of_minus_x(self):
        f, _, _ = self._expanded()
        assert np.signbit(f(np.zeros(self.N))[self.M])
        assert not np.signbit(f(-np.zeros(self.N))[self.M])

    def test_bound_gradient_columns_are_unit_vectors(self):
        _, gf, _ = self._expanded()
        columns = np.zeros((self.N, 6))
        for j, (i, sign) in enumerate([(0, -1.0), (1, -1.0), (2, -1.0), (3, 1.0),
                                       (4, -1.0), (4, 1.0)]):
            columns[i, j] = sign
        for x in self._points()[:5]:
            jac = gf(x)
            assert jac.shape == (self.N, self.M + 6) and jac.flags["C_CONTIGUOUS"]
            assert jac[:, :self.M].tobytes() == self._general_grad(x).tobytes()
            assert jac[:, self.M:].tobytes() == columns.tobytes()

    def test_no_bounds_keeps_the_callbacks(self):
        assert corpus._expand_bounds(self.N, self._general, self._general_grad,
                                     self.M, ()) == (self._general, self._general_grad, self.M)


class TestReferenceValues:
    @pytest.mark.parametrize("name,fv", [
        ("HS012", -30.0),
        ("HS024", -1.0),
        ("HS030", 1.0),
        ("HS031", 6.0),
        ("HS035", 0.11111111111111),
        ("HS036", -3300.0),
        ("HS043", -44.0),
        ("HS076", -4.681818182),
    ])
    def test_spot_values(self, name, fv):
        assert corpus.get_problem(name).fv_reference == pytest.approx(fv, rel=1e-9)

    def test_hs100_reference_is_the_published_optimum(self):
        assert corpus.get_problem("HS100").fv_candidates == (680.6300573744018,)

    def test_reference_is_first_candidate(self):
        for name in corpus.list_problems():
            entry = corpus.get_problem(name)
            assert entry.fv_reference == entry.fv_candidates[0]


# (status, ni, nf0, nf) of every corpus run under default options.  The
# counts follow every rounding decision of the solver, so a change that
# is meant to leave the arithmetic alone must leave them alone too.  nf0
# counts only the line-search trials that reach the objective test: a
# trial rejected on its constraint values evaluates no objective.
# They were recorded with numpy 2.4.6 and its bundled OpenBLAS 0.3.31
# (scipy-openblas, DYNAMIC_ARCH) on an x86-64 Xeon with AVX-512, with the
# BLAS thread count left at its default.  The small products inside the
# solver round differently under other BLAS kernels, so another numpy or
# OpenBLAS build, or another CPU, can move these counts with no code
# change.  Then record the values again; that is not a solver fault.
PINNED_RUNS = {
    ("HS012", "a"): ("converged", 6, 8, 16),
    ("HS024", "a"): ("converged", 8, 9, 90),
    ("HS029", "a"): ("converged", 13, 20, 33),
    ("HS030", "a"): ("converged", 12, 17, 203),
    ("HS031", "a"): ("converged", 9, 18, 217),
    ("HS033", "a"): ("converged", 11, 16, 186),
    ("HS034", "a"): ("converged", 17, 25, 360),
    ("HS034", "b"): ("converged", 17, 22, 352),
    ("HS035", "a"): ("converged", 7, 10, 72),
    ("HS035", "b"): ("converged", 7, 12, 76),
    ("HS036", "a"): ("converged", 10, 14, 182),
    ("HS036", "b"): ("converged", 9, 14, 168),
    ("HS037", "a"): ("converged", 10, 17, 216),
    ("HS037", "b"): ("converged", 12, 18, 264),
    ("HS043", "a"): ("converged", 11, 16, 96),
    ("HS043", "b"): ("converged", 11, 13, 111),
    ("HS044", "a"): ("converged", 11, 16, 290),
    ("HS044", "b"): ("converged", 10, 14, 260),
    ("HS065", "a"): ("converged", 8, 18, 182),
    ("HS065", "b"): ("converged", 13, 24, 266),
    ("HS066", "a"): ("converged", 6, 9, 120),
    ("HS066", "b"): ("converged", 16, 24, 344),
    ("HS076", "a"): ("converged", 8, 11, 140),
    ("HS100", "a"): ("converged", 14, 24, 204),
    ("HS100", "b"): ("converged", 31, 47, 416),
}


class TestPinnedRuns:
    def test_every_corpus_run_keeps_its_counts(self):
        runs = {}
        for name in corpus.list_problems():
            entry = corpus.get_problem(name)
            for start, x0 in (("a", entry.x0_feasible), ("b", entry.x0_infeasible)):
                if x0 is not None:
                    r = engine.solve(entry.problem, x0)
                    runs[(name, start)] = (r.status.value, r.ni, r.nf0, r.nf)
        assert runs == PINNED_RUNS
        totals = [sum(run[k] for run in runs.values()) for k in (1, 2, 3)]
        assert totals == [287, 436, 4864]


class TestScaledDescentSlack:
    """Six of 150 starts drawn N(0, 1.5^2) around HS100's published one
    (numpy ``default_rng(0)``) take the blended direction in their first
    iteration with both sides of its descent test between -2e7 and -6e8.
    The sides are equal in exact arithmetic, so a slack of 1e-9 absolute
    ended all six ``degenerate`` on rounding alone; the slack relative to
    the right-hand side lets each converge at the published optimum."""

    DRAWS = (10, 57, 89, 94, 111, 141)

    def test_large_blended_slopes_keep_their_descent(self):
        entry = corpus.get_problem("HS100")
        starts = entry.x0_feasible + np.random.default_rng(0).normal(0.0, 1.5, size=(150, 7))
        ref = entry.fv_reference
        for draw in self.DRAWS:
            report = engine.solve(entry.problem, starts[draw])
            assert report.status is engine.SolveStatus.CONVERGED, (draw, report.message)
            assert abs(report.fv - ref) <= max(1e-6, 1e-7 * abs(ref)), draw
            first = report.trace[0]
            assert first.branch == "feasible_direction", draw
            assert first.descent_rhs < -1e7, draw


@pytest.fixture(scope="module")
def traced_runs():
    """Every corpus run under default options, with its trace."""
    runs = {}
    for name in corpus.list_problems():
        entry = corpus.get_problem(name)
        for start, x0 in entry.starts.items():
            runs[(name, start)] = engine.solve(entry.problem, x0)
    return runs


class TestStoppingRule:
    """A run converges at its first feasible iterate whose KKT residual is
    at most kkt_tol, whatever the length of its QP direction."""

    KKT_TOL = engine.SolverOptions().kkt_tol

    def test_converged_run_stops_at_its_first_certified_iterate(self, traced_runs):
        for key, report in traced_runs.items():
            assert report.status is engine.SolveStatus.CONVERGED, key
            trace = report.trace
            certified = [i for i, r in enumerate(trace)
                         if r.phi == 0.0 and r.kkt_residual <= self.KKT_TOL]
            assert certified[0] == len(trace) - 1, key
            final = trace[-1]
            assert final.converged and final.k == report.ni, key
            assert report.kkt_residual == final.kkt_residual, key

    def test_every_earlier_feasible_record_carries_a_failing_residual(self, traced_runs):
        for key, report in traced_runs.items():
            for record in report.trace[:-1]:
                if record.phi == 0.0:
                    assert record.kkt_residual > self.KKT_TOL, (key, record.k)
                else:
                    assert record.kkt_residual is None, (key, record.k)

    def test_hs030_a_stops_before_its_direction_is_short(self, traced_runs):
        # Its residual passes at k = 12 while |d0| is still 3.25e-6; a test
        # on |d0| <= 1e-6 would run two more iterations.
        final = traced_runs[("HS030", "a")].trace[-1]
        assert final.converged and final.k == 12
        assert final.norm_d0 > 1e-6
        assert final.kkt_residual <= self.KKT_TOL
