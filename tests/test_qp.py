"""Subproblem-solver contracts, checked against analytic cases and a
brute-force oracle that enumerates every candidate active subset with
numpy.linalg."""

import itertools

import numpy as np
import pytest

from isqp import linalg, qp
from isqp.errors import NotPositiveDefiniteError, NumericalFailure


def _oracle(H, grad, A, b):
    """Minimize 0.5 d'H d + grad'd s.t. A d <= b by solving the KKT system
    of every subset of constraints of size <= n and keeping the feasible,
    dual-feasible candidate with the lowest objective."""
    n = grad.size
    m = b.size
    best = None
    best_obj = np.inf
    for size in range(min(n, m) + 1):
        for subset in itertools.combinations(range(m), size):
            rows = A[list(subset)]
            kkt = np.zeros((n + size, n + size))
            kkt[:n, :n] = H
            kkt[:n, n:] = rows.T
            kkt[n:, :n] = rows
            rhs = np.concatenate([-grad, b[list(subset)]])
            try:
                z = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            d, lam = z[:n], z[n:]
            if lam.size and np.min(lam) < -1e-9:
                continue
            if m and np.max(A @ d - b) > 1e-9 * max(1.0, np.max(np.abs(b))):
                continue
            obj = 0.5 * d @ H @ d + grad @ d
            if obj < best_obj:
                best_obj = obj
                best = d
    assert best is not None, "oracle found no KKT point"
    return best, best_obj


def _random_instance(rng):
    n = int(rng.integers(1, 4))
    m = int(rng.integers(0, 5))
    g = rng.normal(size=(n, n))
    H = g @ g.T + (0.1 + rng.uniform()) * np.eye(n)
    grad = rng.normal(size=n) * 3.0
    A = rng.normal(size=(m, n))
    b = np.abs(rng.normal(size=m))
    # Sometimes pin the origin to a boundary to stress ties at d = 0.
    boundary = rng.uniform(size=m) < 0.2
    b[boundary] = 0.0
    return qp.QpInstance(H=H, grad=grad, A=A, b=b)


def _reference_solve_qp(inst):
    """The active-set loop with nothing hoisted: every step solves for
    H^-1 A_W' and rescans every row's norm, as solve_qp did before its
    per-QP invariants were hoisted.  Returns (d0, lam, active)."""
    n, m = inst.n, inst.m
    hfac = linalg.cholesky(inst.H)
    d = np.zeros(n)
    work = []
    lam_work = np.zeros(0)
    stall, best, bland = 0, np.inf, False
    for _ in range(50 * (n + m)):
        g_cur = inst.H @ d + inst.grad
        if work:
            a_work = inst.A[work]
            y = linalg.solve_cholesky(hfac, a_work.T)
            lam_work = linalg.spd_solve(a_work @ y, -(y.T @ g_cur))
            p = -(linalg.solve_cholesky(hfac, g_cur) + y @ lam_work)
        else:
            lam_work = np.zeros(0)
            p = -linalg.solve_cholesky(hfac, g_cur)
        tiny_norm = (np.max(np.abs(p), initial=0.0)
                     <= 1e-12 * max(1.0, np.max(np.abs(d), initial=0.0)))
        ad = np.abs(d)
        obj_noise = float(np.abs(inst.grad) @ ad + 0.5 * ad @ np.abs(inst.H) @ ad)
        flat = 0.5 * float(p @ inst.H @ p) <= 100 * np.finfo(float).eps * obj_noise
        if tiny_norm or flat or stall >= 2 * (n + m) + 4:
            if tiny_norm:
                d = d + p
            if lam_work.size == 0:
                break
            floor = -0.5 * inst.kkt_tol / np.max(np.abs(inst.A[work]))
            if np.min(lam_work) >= floor:
                break
            if bland:
                leave = min(w for w, lw in zip(work, lam_work) if lw < floor)
            else:
                leave = work[int(np.argmin(lam_work))]
            work.remove(leave)
            stall = 0
            continue
        alpha, blocker = 1.0, -1
        for i in range(m):
            if i in work:
                continue
            a_dot_p = float(inst.A[i] @ p)
            if a_dot_p <= 1e-13 * max(1.0, np.max(np.abs(inst.A[i])) * np.max(np.abs(p))):
                continue
            ratio = max(float(inst.b[i] - inst.A[i] @ d), 0.0) / a_dot_p
            if ratio < alpha - 1e-12 or (blocker < 0 and ratio < alpha):
                alpha, blocker = ratio, i
        d = d + alpha * p
        if blocker >= 0:
            work = sorted(work + [blocker])
        obj = inst.objective(d)
        if obj < best - 1e-12 * max(1.0, abs(best)):
            best, stall = obj, 0
        else:
            stall += 1
            bland = bland or stall >= 10 * (n + m)
    else:
        raise AssertionError("reference loop ran out of iterations")
    lam = np.zeros(m)
    if work:
        lam[work] = np.maximum(lam_work, 0.0)
    active = np.flatnonzero(inst.b - inst.A @ d <= inst.active_tol)
    return d, lam, active


class TestValidation:
    def test_negative_rhs_rejected(self):
        with pytest.raises(ValueError):
            qp.QpInstance(H=np.eye(1), grad=np.zeros(1),
                          A=np.ones((1, 1)), b=np.array([-1.0]))

    def test_nan_rhs_rejected(self):
        with pytest.raises(ValueError, match="b must be nonnegative"):
            qp.QpInstance(H=np.eye(1), grad=np.zeros(1),
                          A=np.ones((1, 1)), b=np.array([np.nan]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            qp.QpInstance(H=np.eye(2), grad=np.zeros(1),
                          A=np.zeros((0, 1)), b=np.zeros(0))

    def test_a_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="A shape does not match b and gradient"):
            qp.QpInstance(H=np.eye(2), grad=np.zeros(2),
                          A=np.zeros((1, 3)), b=np.zeros(1))

    def test_factor_of_another_matrix_fails_the_certificate(self):
        # The KKT certificate reads H itself.  Solving against the factor of
        # 4I instead of I gives d = -grad/4, which is not stationary for I.
        inst = qp.QpInstance(H=np.eye(2), grad=np.array([1.0, -2.0]),
                             A=np.array([[1.0, 1.0]]), b=np.array([5.0]))
        with pytest.raises(NumericalFailure, match="QP stationarity residual"):
            qp.solve_qp(inst, linalg.cholesky(4.0 * inst.H))


class TestAnalyticCases:
    def test_unconstrained_minimizer(self):
        # min 0.5 d'd + (1, -2)'d has minimizer (-1, 2).
        inst = qp.QpInstance(H=np.eye(2), grad=np.array([1.0, -2.0]),
                             A=np.zeros((0, 2)), b=np.zeros(0))
        sol = qp.solve_qp(inst, linalg.cholesky(inst.H))
        assert np.allclose(sol.d0, [-1.0, 2.0], atol=1e-12)
        assert sol.lam.size == 0
        assert sol.active.size == 0

    def test_inactive_constraint_ignored(self):
        # min 0.5 d^2 + d s.t. d <= 5: unconstrained d = -1 already works.
        inst = qp.QpInstance(H=np.eye(1), grad=np.array([1.0]),
                             A=np.array([[1.0]]), b=np.array([5.0]))
        sol = qp.solve_qp(inst, linalg.cholesky(inst.H))
        assert sol.d0[0] == pytest.approx(-1.0, abs=1e-12)
        assert sol.lam[0] == 0.0

    def test_clipped_at_constraint(self):
        # min 0.5 d^2 - 3 d s.t. d <= 1: clipped at d = 1, multiplier 2.
        inst = qp.QpInstance(H=np.eye(1), grad=np.array([-3.0]),
                             A=np.array([[1.0]]), b=np.array([1.0]))
        sol = qp.solve_qp(inst, linalg.cholesky(inst.H))
        assert sol.d0[0] == pytest.approx(1.0, abs=1e-12)
        assert sol.lam[0] == pytest.approx(2.0, abs=1e-10)
        assert np.array_equal(sol.active, [0])

    def test_origin_already_optimal(self):
        # min 0.5 d^2 - d s.t. d <= 0: the descent direction is blocked at
        # the origin, so d = 0 with multiplier 1.
        inst = qp.QpInstance(H=np.eye(1), grad=np.array([-1.0]),
                             A=np.array([[1.0]]), b=np.array([0.0]))
        sol = qp.solve_qp(inst, linalg.cholesky(inst.H))
        assert sol.d0[0] == pytest.approx(0.0, abs=1e-12)
        assert sol.lam[0] == pytest.approx(1.0, abs=1e-10)

    def test_two_active_constraints(self):
        # min 0.5|d|^2 - (2, 2)'d s.t. d1 <= 1, d2 <= 1: corner (1, 1),
        # both multipliers 1.
        inst = qp.QpInstance(H=np.eye(2), grad=np.array([-2.0, -2.0]),
                             A=np.eye(2), b=np.ones(2))
        sol = qp.solve_qp(inst, linalg.cholesky(inst.H))
        assert np.allclose(sol.d0, [1.0, 1.0], atol=1e-12)
        assert np.allclose(sol.lam, [1.0, 1.0], atol=1e-10)
        assert np.array_equal(sol.active, [0, 1])

    def test_duplicate_constraints_degenerate_vertex(self):
        # The same face twice: the minimizer is unique even though the
        # multipliers are not; the reported pair must still certify.
        inst = qp.QpInstance(
            H=np.eye(2), grad=np.array([-2.0, 0.0]),
            A=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            b=np.array([1.0, 1.0, 5.0]),
        )
        sol = qp.solve_qp(inst, linalg.cholesky(inst.H))
        assert np.allclose(sol.d0, [1.0, 0.0], atol=1e-10)
        assert sol.lam[0] + sol.lam[1] == pytest.approx(1.0, abs=1e-9)


class TestSolutionContracts:
    def test_multipliers_are_exact_zeros_off_active_set(self):
        rng = np.random.default_rng(5)
        seen_inactive = 0
        for _ in range(200):
            inst = _random_instance(rng)
            sol = qp.solve_qp(inst, linalg.cholesky(inst.H))
            slack = inst.b - inst.A @ sol.d0
            for i in range(inst.m):
                if sol.lam[i] != 0.0:
                    assert slack[i] <= inst.active_tol
                elif slack[i] > inst.active_tol:
                    seen_inactive += 1
                    assert sol.lam[i] == 0.0  # exact zero, not merely small
        assert seen_inactive > 100  # the sweep actually exercised slack rows

    def test_optimal_value_never_positive(self):
        # The origin is feasible with objective zero, so the minimum is <= 0.
        rng = np.random.default_rng(6)
        for _ in range(300):
            inst = _random_instance(rng)
            sol = qp.solve_qp(inst, linalg.cholesky(inst.H))
            assert inst.objective(sol.d0) <= inst.kkt_tol

    def test_deterministic_resolve(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            inst = _random_instance(rng)
            a = qp.solve_qp(inst, linalg.cholesky(inst.H))
            b = qp.solve_qp(inst, linalg.cholesky(inst.H))
            assert np.array_equal(a.d0, b.d0)
            assert np.array_equal(a.lam, b.lam)
            assert np.array_equal(a.active, b.active)

    def test_active_set_reports_tight_constraints(self):
        inst = qp.QpInstance(H=np.eye(2), grad=np.array([-2.0, -2.0]),
                             A=np.eye(2), b=np.array([1.0, 9.0]))
        sol = qp.solve_qp(inst, linalg.cholesky(inst.H))
        assert np.array_equal(sol.active, [0])


class TestAgainstOracle:
    def test_random_instances_match_enumeration(self):
        rng = np.random.default_rng(1234)
        checked = 0
        for _ in range(1000):
            inst = _random_instance(rng)
            d_ref, obj_ref = _oracle(inst.H, inst.grad, inst.A, inst.b)
            sol = qp.solve_qp(inst, linalg.cholesky(inst.H))
            scale = max(1.0, float(np.max(np.abs(d_ref))))
            assert np.max(np.abs(sol.d0 - d_ref)) <= 1e-6 * scale, (
                f"minimizer mismatch: {sol.d0} vs {d_ref}"
            )
            assert inst.objective(sol.d0) <= obj_ref + 1e-7 * max(1.0, abs(obj_ref))
            checked += 1
        assert checked == 1000

    def test_larger_instances_match_enumeration(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            n, m = 5, 6
            g = rng.normal(size=(n, n))
            H = g @ g.T + (0.1 + rng.uniform()) * np.eye(n)
            inst = qp.QpInstance(H=H, grad=rng.normal(size=n) * 2.0,
                                 A=rng.normal(size=(m, n)),
                                 b=np.abs(rng.normal(size=m)))
            d_ref, obj_ref = _oracle(inst.H, inst.grad, inst.A, inst.b)
            sol = qp.solve_qp(inst, linalg.cholesky(inst.H))
            assert np.max(np.abs(sol.d0 - d_ref)) <= 1e-6 * max(1.0, np.max(np.abs(d_ref)))


class TestAgainstUnhoistedLoop:
    """solve_qp must agree with the loop that recomputes everything per
    step, within the tolerances of the KKT certificate: each minimizer
    certifies under the other's multipliers (at a degenerate vertex the
    multipliers are not unique), the minimizers differ by at most the
    certificate's tolerance, and the active sets are equal.  Both row-major
    and column-major constraint matrices are covered (the engine passes
    the transpose of the constraint Jacobian)."""

    @pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
    def test_agrees_within_the_certificate(self, layout):
        rng = np.random.default_rng(31)
        for trial in range(80):
            n = int(rng.integers(1, 30))
            m = int(rng.integers(1, 2 * n + 3))
            g = rng.normal(size=(n, n))
            H = g @ g.T + 10.0 ** rng.uniform(-2, 1) * np.eye(n)
            A = rng.normal(size=(m, n))
            if m > 2 and trial % 4 == 0:
                A[1] = A[0]  # degenerate vertex
            b = np.abs(rng.normal(size=m)) * (rng.uniform(size=m) < 0.8)
            inst = qp.QpInstance(H=H, grad=3.0 * rng.normal(size=n), A=layout(A), b=b)
            sol = qp.solve_qp(inst, linalg.cholesky(inst.H))
            d, lam, active = _reference_solve_qp(inst)
            qp._certify(inst, sol.d0, lam)
            qp._certify(inst, d, sol.lam)
            assert np.max(np.abs(sol.d0 - d)) <= inst.kkt_tol
            assert np.array_equal(sol.active, active)


def _equality_start(inst, rows):
    """The warm start formed with numpy.linalg: the minimizer of the
    objective on A_W d = b_W, from the KKT system of the rows W."""
    n, k = inst.n, len(rows)
    kkt = np.zeros((n + k, n + k))
    kkt[:n, :n] = inst.H
    kkt[:n, n:] = inst.A[rows].T
    kkt[n:, :n] = inst.A[rows]
    return np.linalg.solve(kkt, np.concatenate([-inst.grad, inst.b[rows]]))[:n]


def _solve_counting_steps(monkeypatch, inst, warm):
    """solve_qp with the hint ``warm``; returns (solution, active-set steps)."""
    steps = []
    real_objective = qp.QpInstance.objective
    with monkeypatch.context() as patch:
        patch.setattr(qp.QpInstance, "objective",
                      lambda self, d: steps.append(1) or real_objective(self, d))
        sol = qp.solve_qp(inst, linalg.cholesky(inst.H), warm)
    return sol, len(steps)


def _ordered_rows(ay, a):
    """Every ordered tuple of distinct rows r with ay[r][:, r] equal to
    ``a`` bit for bit."""
    found = []

    def extend(rows):
        i = len(rows)
        if i == a.shape[0]:
            found.append(tuple(rows))
            return
        for r in range(ay.shape[0]):
            if (r not in rows and ay[r, r] == a[i, i]
                    and np.array_equal(ay[r, rows], a[i, :i])
                    and np.array_equal(ay[rows, r], a[:i, i])):
                extend(rows + [r])

    extend([])
    return found


class TestWarmStart:
    """A hint of rows to start the loop from changes where the loop starts,
    never what it returns: each warm solve certifies, agrees with the cold
    solve within the certificate's tolerance and with the enumeration
    oracle.  A hint whose start breaks another row grows by the most
    violated row until every row holds; one whose factor fails, or that
    grows to n rows first, falls back to the cold start, bit for bit."""

    @staticmethod
    def _check(inst, warm, cold):
        qp._certify(inst, warm.d0, warm.lam)
        qp._certify(inst, cold.d0, warm.lam)
        assert np.max(np.abs(warm.d0 - cold.d0), initial=0.0) <= inst.kkt_tol
        d_ref, obj_ref = _oracle(inst.H, inst.grad, inst.A, inst.b)
        assert np.max(np.abs(warm.d0 - d_ref), initial=0.0) <= 1e-6 * max(
            1.0, float(np.max(np.abs(d_ref), initial=0.0)))
        assert inst.objective(warm.d0) <= obj_ref + 1e-7 * max(1.0, abs(obj_ref))

    @staticmethod
    def _same(a, b):
        return (np.array_equal(a.d0, b.d0) and np.array_equal(a.lam, b.lam)
                and np.array_equal(a.active, b.active))

    def test_own_positive_rows_restart_in_fewer_steps(self, monkeypatch):
        rng = np.random.default_rng(1234)
        cold_steps = warm_steps = hinted = 0
        for _ in range(400):
            inst = _random_instance(rng)
            cold, n_cold = _solve_counting_steps(monkeypatch, inst, ())
            rows = np.flatnonzero(cold.lam > 0)
            warm, n_warm = _solve_counting_steps(monkeypatch, inst, rows)
            self._check(inst, warm, cold)
            if rows.size:
                hinted += 1
                cold_steps += n_cold
                warm_steps += n_warm
        assert hinted > 100
        assert warm_steps < 0.5 * cold_steps

    def test_random_hints_match_cold_and_oracle(self, monkeypatch):
        # A start that breaks a row grows instead of restarting cold: it
        # certifies and matches the oracle like any other, and it saves
        # loop steps in aggregate.
        rng = np.random.default_rng(4321)
        grown = cold_steps = grown_steps = 0
        for _ in range(600):
            inst = _random_instance(rng)
            rows = np.sort(rng.choice(inst.m, size=int(rng.integers(0, inst.m + 1)),
                                      replace=False))
            cold, n_cold = _solve_counting_steps(monkeypatch, inst, ())
            warm, n_warm = _solve_counting_steps(monkeypatch, inst, rows)
            self._check(inst, warm, cold)
            if rows.size and rows.size <= inst.n:
                start = _equality_start(inst, rows)
                others = np.setdiff1d(np.arange(inst.m), rows)
                if np.any(inst.A[others] @ start > inst.b[others] + 1e-9):
                    grown += 1
                    cold_steps += n_cold
                    grown_steps += n_warm
        assert grown > 30
        assert grown_steps < cold_steps

    def test_hint_whose_start_breaks_another_row_grows(self, monkeypatch):
        # On d1 = 1 alone the minimizer is (1, 2), which breaks d2 <= 0.5;
        # with row 1 appended the start is the vertex (1, 0.5), which the
        # loop only confirms in one step.
        inst = qp.QpInstance(H=np.eye(2), grad=np.array([-2.0, -2.0]),
                             A=np.eye(2), b=np.array([1.0, 0.5]))
        cold, n_cold = _solve_counting_steps(monkeypatch, inst, ())
        warm, n_warm = _solve_counting_steps(monkeypatch, inst, [0])
        self._check(inst, warm, cold)
        assert np.allclose(warm.d0, [1.0, 0.5], atol=1e-12)
        assert np.array_equal(warm.lam > 0, [True, True])
        assert n_warm < n_cold

    def test_hint_that_grows_to_n_rows_falls_back(self):
        # n = 1: on d = 1 (row 0) the start breaks d <= 0.5 (row 1), and a
        # second row would make the set dependent.
        inst = qp.QpInstance(H=np.eye(1), grad=np.array([-2.0]),
                             A=np.ones((2, 1)), b=np.array([1.0, 0.5]))
        cold = qp.solve_qp(inst, linalg.cholesky(inst.H))
        warm = qp.solve_qp(inst, linalg.cholesky(inst.H), [0])
        assert self._same(warm, cold)
        assert np.allclose(warm.d0, [0.5], atol=1e-12)

    def test_larger_instances_agree_with_the_cold_start(self, monkeypatch):
        # The same sizes and degenerate rows as TestAgainstUnhoistedLoop,
        # hinted with the cold solution's rows, a random subset of them
        # with one other row, and every row.
        rng = np.random.default_rng(31)
        for trial in range(60):
            n = int(rng.integers(1, 30))
            m = int(rng.integers(1, 2 * n + 3))
            g = rng.normal(size=(n, n))
            H = g @ g.T + 10.0 ** rng.uniform(-2, 1) * np.eye(n)
            A = rng.normal(size=(m, n))
            if m > 2 and trial % 4 == 0:
                A[1] = A[0]  # degenerate vertex
            b = np.abs(rng.normal(size=m)) * (rng.uniform(size=m) < 0.8)
            inst = qp.QpInstance(H=H, grad=3.0 * rng.normal(size=n), A=A, b=b)
            cold = qp.solve_qp(inst, linalg.cholesky(inst.H))
            own = np.flatnonzero(cold.lam > 0)
            mixed = np.union1d(own[rng.uniform(size=own.size) < 0.5], rng.integers(0, m, 1))
            for rows in (own, mixed, np.arange(m)):
                warm = qp.solve_qp(inst, linalg.cholesky(inst.H), rows)
                qp._certify(inst, warm.d0, cold.lam)
                qp._certify(inst, cold.d0, warm.lam)
                assert np.max(np.abs(warm.d0 - cold.d0)) <= inst.kkt_tol
                assert np.array_equal(warm.active, cold.active)

    def test_dependent_rows_fall_back(self):
        # Rows 0 and 1 are the same face, so A_W Y_W is singular on W = {0, 1}.
        inst = qp.QpInstance(
            H=np.eye(2), grad=np.array([-2.0, -1.0]),
            A=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            b=np.array([1.0, 1.0, 5.0]),
        )
        cold = qp.solve_qp(inst, linalg.cholesky(inst.H))
        warm = qp.solve_qp(inst, linalg.cholesky(inst.H), [0, 1])
        assert self._same(warm, cold)
        assert np.allclose(warm.d0, [1.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("error", [NotPositiveDefiniteError, NumericalFailure])
    def test_failed_warm_solve_is_a_cold_start(self, monkeypatch, error):
        # Only the first working-set solve, the warm start's, fails: in its
        # factorization (the pivot floor) or in its residual check.
        inst = qp.QpInstance(H=np.eye(2), grad=np.array([-2.0, -2.0]),
                             A=np.eye(2), b=np.ones(2))
        hfac = linalg.cholesky(inst.H)
        cold = qp.solve_qp(inst, hfac)
        name = "cholesky" if error is NotPositiveDefiniteError else "check_residual"
        calls = []
        real = getattr(linalg, name)

        def first_fails(*args):
            calls.append(1)
            if len(calls) == 1:
                raise error("forced")
            return real(*args)

        monkeypatch.setattr(linalg, name, first_fails)
        warm = qp.solve_qp(inst, hfac, [0, 1])
        assert len(calls) > 1
        assert self._same(warm, cold)

    def test_empty_hint_is_the_cold_start(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            inst = _random_instance(rng)
            cold = qp.solve_qp(inst, linalg.cholesky(inst.H))
            for empty in ((), [], np.zeros(0, dtype=np.intp)):
                assert self._same(qp.solve_qp(inst, linalg.cholesky(inst.H), empty), cold)


class TestStepLimit:
    def test_cycle_raises_at_the_step_limit(self, monkeypatch):
        # No multiplier passes the drop test, so the loop adds row 0 at
        # d = (0.5, 0.5), moves along it to (0.5, 1), drops it, and from
        # then on adds and drops it at (0.5, 1) forever.
        monkeypatch.setattr(qp, "KKT_TOL", -1e300)
        inst = qp.QpInstance(H=np.eye(2), grad=np.array([-1.0, -1.0]),
                             A=np.array([[1.0, 0.0]]), b=np.array([0.5]))
        with pytest.raises(NumericalFailure,
                           match=r"^active-set loop exceeded 150 iterations$"):
            qp.solve_qp(inst, linalg.cholesky(inst.H))


class TestPerQpWork:
    def test_h_is_solved_against_only_before_the_loop(self, monkeypatch):
        # Y = H^-1 A' and H^-1 grad are the only n-sized solves; every
        # active-set step solves only its |W|-sized multiplier system.
        rng = np.random.default_rng(3)
        n, m = 12, 8
        g = rng.normal(size=(n, n))
        inst = qp.QpInstance(H=g @ g.T + np.eye(n), grad=10.0 * rng.normal(size=n),
                             A=rng.normal(size=(m, n)), b=0.1 * np.ones(m))
        sizes = []
        real = linalg.solve_cholesky

        def recording(low, b):
            sizes.append(low.shape[0])
            return real(low, b)

        steps = []
        real_objective = qp.QpInstance.objective
        monkeypatch.setattr(linalg, "solve_cholesky", recording)
        monkeypatch.setattr(qp.QpInstance, "objective",
                            lambda self, d: steps.append(1) or real_objective(self, d))
        sol = qp.solve_qp(inst, linalg.cholesky(inst.H))
        assert sol.active.size > 1
        assert len(steps) > 2
        assert sizes.count(n) == 2
        assert max(sizes[2:]) < n

    def test_warm_start_solves_only_its_working_set(self, monkeypatch):
        # The warm start reuses Y and H^-1 grad: its one solve is |W|-sized.
        rng = np.random.default_rng(3)
        n, m = 12, 8
        g = rng.normal(size=(n, n))
        inst = qp.QpInstance(H=g @ g.T + np.eye(n), grad=10.0 * rng.normal(size=n),
                             A=rng.normal(size=(m, n)), b=0.1 * np.ones(m))
        rows = np.flatnonzero(qp.solve_qp(inst, linalg.cholesky(inst.H)).lam > 0)
        sizes = []
        real = linalg.solve_cholesky
        monkeypatch.setattr(linalg, "solve_cholesky",
                            lambda low, b: sizes.append(low.shape[0]) or real(low, b))
        qp.solve_qp(inst, linalg.cholesky(inst.H), rows)
        assert rows.size > 1
        assert sizes.count(n) == 2
        assert sizes[2] == rows.size and max(sizes[2:]) < n

    def test_each_change_borders_only_the_rows_the_factor_lacks(self, monkeypatch):
        # Every Cholesky call inside solve_qp factors A_W Y_W with the rows
        # of W in the order they joined.  W is read off the matrix it is
        # handed, as the one ordered tuple of rows whose submatrix of the
        # returned ay it is bit for bit.  Each call keeps the leading rows
        # that W shares with the previous factor's rows (all of them after
        # an add, those before the dropped row after a drop) and borders
        # only the rest; it borders none only when the last row was
        # dropped, and a step that keeps its rows reuses the factor.  The
        # one exception is the cold start after a warm start that does not
        # fit: its first factor has one row, bordered from scratch.  Every
        # factor is bitwise the one from scratch.
        real_cholesky = linalg.cholesky
        calls = []  # (a, rows kept from the lead, factor or None when it raised)

        def cholesky(a, lead=None, pivots=None):
            kept = 0 if lead is None else lead.shape[0]
            try:
                w = real_cholesky(a, lead, pivots)
            except NotPositiveDefiniteError:
                calls.append((a, kept, None))
                raise
            calls.append((a, kept, w))
            return w

        monkeypatch.setattr(linalg, "cholesky", cholesky)
        rng = np.random.default_rng(17)
        bordered = rows_factored = changes = 0
        for _ in range(150):
            n, m = int(rng.integers(2, 9)), int(rng.integers(1, 11))
            g = rng.normal(size=(n, n))
            inst = qp.QpInstance(H=g @ g.T + np.eye(n), grad=5.0 * rng.normal(size=n),
                                 A=rng.normal(size=(m, n)),
                                 b=np.abs(rng.normal(size=m)) * (rng.uniform(size=m) < 0.8))
            hfac = real_cholesky(inst.H)
            cold = qp.solve_qp(inst, hfac)
            hints = ((), np.flatnonzero(cold.lam > 0), np.flatnonzero(rng.uniform(size=m) < 0.5))
            for warm in hints:
                del calls[:]
                sol = qp.solve_qp(inst, hfac, warm)
                previous = ()
                for a, kept, w in calls:
                    found = _ordered_rows(sol.ay, a)
                    assert len(found) == 1
                    rows = found[0]
                    shared = 0
                    while (shared < min(len(rows), len(previous))
                           and rows[shared] == previous[shared]):
                        shared += 1
                    restart = kept == 0 and len(rows) == 1
                    assert kept == shared or restart
                    assert kept < len(rows) or len(previous) == len(rows) + 1
                    if w is not None:
                        assert np.array_equal(w, real_cholesky(a))
                        previous = rows
                        changes += 1
                        bordered += len(rows) - kept
                        rows_factored += len(rows)
        assert changes > 1000
        assert bordered < 0.65 * rows_factored  # 1 556 of 2 735 rows

    def test_hands_back_y_and_ay(self):
        rng = np.random.default_rng(4)
        inst = _random_instance(rng)
        while inst.m == 0:
            inst = _random_instance(rng)
        sol = qp.solve_qp(inst, linalg.cholesky(inst.H))
        assert np.allclose(inst.H @ sol.y, inst.A.T, atol=1e-12)
        assert np.allclose(sol.ay, inst.A @ sol.y, atol=1e-12)
        assert np.array_equal(sol.ay, sol.ay.T)


class TestCertificates:
    def test_decrease_certificate_returns_slope(self):
        inst = qp.QpInstance(H=np.eye(1), grad=np.array([1.0]),
                             A=np.zeros((0, 1)), b=np.zeros(0))
        sol = qp.solve_qp(inst, linalg.cholesky(inst.H))
        slope = qp.objective_decrease_certificate(inst, sol)
        assert slope == pytest.approx(-1.0, abs=1e-12)

    def test_decrease_certificate_rejects_uphill_point(self):
        inst = qp.QpInstance(H=np.eye(1), grad=np.array([1.0]),
                             A=np.zeros((0, 1)), b=np.zeros(0))
        fake = qp.QpSolution(d0=np.array([2.0]), lam=np.zeros(0),
                             active=np.zeros(0, dtype=int), y=np.zeros((1, 0)),
                             ay=np.zeros((0, 0)))
        with pytest.raises(NumericalFailure,
                           match="^QP objective 4.000e[+]00 is positive at the reported minimizer$"):
            qp.objective_decrease_certificate(inst, fake)

    def test_decrease_certificate_rejects_nan_direction(self):
        inst = qp.QpInstance(H=np.eye(1), grad=np.array([1.0]),
                             A=np.zeros((0, 1)), b=np.zeros(0))
        fake = qp.QpSolution(d0=np.array([np.nan]), lam=np.zeros(0),
                             active=np.zeros(0, dtype=int), y=np.zeros((1, 0)),
                             ay=np.zeros((0, 0)))
        with pytest.raises(NumericalFailure, match="QP objective nan"):
            qp.objective_decrease_certificate(inst, fake)

    def test_kkt_certificate_rejects_nan_direction(self):
        inst = qp.QpInstance(H=np.eye(1), grad=np.array([1.0]),
                             A=np.ones((1, 1)), b=np.array([1.0]))
        with pytest.raises(NumericalFailure, match="^QP stationarity residual nan"):
            qp._certify(inst, np.array([np.nan]), np.zeros(1))

    # One case per exit of the KKT certificate past stationarity, on
    # H = 1, A = [[1]]: (b, d, grad, lam) is stationary, and it breaks only
    # the named condition.
    @pytest.mark.parametrize("b, d, grad, lam, reason", [
        (0.0, 1.0, -1.0, 0.0, "feasibility"),
        (1.0, 0.0, 1.0, -1.0, "negative multiplier"),
        (1.0, 0.0, -1.0, 1.0, "complementarity"),
    ], ids=["feasibility", "negative-multiplier", "complementarity"])
    def test_kkt_certificate_exits(self, b, d, grad, lam, reason):
        inst = qp.QpInstance(H=np.eye(1), grad=np.array([grad]),
                             A=np.ones((1, 1)), b=np.array([b]))
        with pytest.raises(NumericalFailure, match=f"^QP {reason} "):
            qp._certify(inst, np.array([d]), np.array([lam]))

    def test_dependent_working_set_is_a_numerical_failure(self, monkeypatch):
        # The first step from d = 0 is blocked by row 0 (H = I, grad = -1,
        # b = 0.5), so the second solves a working-set system.
        def singular(*args):
            raise NotPositiveDefiniteError("forced")

        inst = qp.QpInstance(H=np.eye(1), grad=np.array([-1.0]),
                             A=np.ones((1, 1)), b=np.array([0.5]))
        hfac = linalg.cholesky(inst.H)
        monkeypatch.setattr(linalg, "cholesky", singular)
        with pytest.raises(NumericalFailure, match="dependent working set in QP"):
            qp.solve_qp(inst, hfac)

    def test_kkt_certificate_holds_on_random_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            inst = _random_instance(rng)
            sol = qp.solve_qp(inst, linalg.cholesky(inst.H))
            tol = inst.kkt_tol
            stat = inst.H @ sol.d0 + inst.grad + inst.A.T @ sol.lam
            assert np.max(np.abs(stat), initial=0.0) <= tol
            if inst.m:
                slack = inst.b - inst.A @ sol.d0
                assert np.min(slack) >= -tol
                assert np.min(sol.lam) >= 0.0
                comp_tol = tol * max(1.0, np.max(np.abs(inst.b)))
                assert np.max(np.abs(sol.lam * slack)) <= comp_tol
