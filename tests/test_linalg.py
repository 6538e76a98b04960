"""Factorization and solve contracts, checked against hand examples and
an independent numpy.linalg oracle."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from isqp import linalg
from isqp.errors import NotPositiveDefiniteError, NumericalBreakdown, SingularMatrixError


class TestLuSolve:
    def test_identity(self):
        b = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(linalg.lu_factor(np.eye(3)).solve(b)[0], b)

    def test_two_by_two_hand_example(self):
        # x + y = 0 and x - 2y = -3 meet at (-1, 1).
        a = np.array([[1.0, 1.0], [1.0, -2.0]])
        x = linalg.lu_factor(a).solve(np.array([0.0, -3.0]))[0]
        assert np.allclose(x, [-1.0, 1.0], atol=1e-14)

    def test_requires_pivoting(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = linalg.lu_factor(a).solve(np.array([5.0, 7.0]))[0]
        assert np.allclose(x, [7.0, 5.0], atol=1e-14)

    def test_random_well_conditioned_multiply_back(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            a = rng.normal(size=(8, 8)) + 8.0 * np.eye(8)
            b = rng.normal(size=8)
            x = linalg.lu_factor(a).solve(b)[0]
            residual = np.max(np.abs(a @ x - b))
            assert residual <= 1e-10 * max(1.0, np.max(np.abs(b)))

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            a = rng.normal(size=(n, n)) + 3.0 * np.eye(n)
            b = rng.normal(size=n)
            assert np.allclose(linalg.lu_factor(a).solve(b)[0], np.linalg.solve(a, b),
                               atol=1e-9, rtol=1e-9)

    def test_multiple_right_hand_sides(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 5)) + 4.0 * np.eye(5)
        b = rng.normal(size=(5, 3))
        x, _ = linalg.lu_factor(a).solve(b)
        assert x.shape == (5, 3)
        assert np.allclose(a @ x, b, atol=1e-10)

    def test_singular_matrix_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError):
            linalg.lu_factor(a).solve(np.array([1.0, 1.0]))[0]

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularMatrixError):
            linalg.lu_factor(np.zeros((2, 2))).solve(np.array([1.0, 1.0]))[0]

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            linalg.lu_factor(np.ones((2, 3))).solve(np.ones(2))[0]

    def test_wrong_rhs_length_rejected(self):
        fac = linalg.lu_factor(np.eye(3))
        with pytest.raises(ValueError):
            fac.solve(np.ones(4))


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(linalg.cholesky(np.eye(2)), np.eye(2))

    def test_two_by_two_hand_example(self):
        a = np.array([[4.0, 2.0], [2.0, 5.0]])
        low = linalg.cholesky(a)
        assert np.allclose(low, [[2.0, 0.0], [1.0, 2.0]], atol=1e-14)

    def test_factor_multiplies_back(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            g = rng.normal(size=(n, n))
            a = g @ g.T + np.eye(n)
            low = linalg.cholesky(a)
            assert np.allclose(np.tril(low), low)
            assert np.allclose(low @ low.T, a, atol=1e-10 * np.max(np.abs(a)))

    def test_indefinite_raises(self):
        # Eigenvalues are 3 and -1.
        with pytest.raises(NotPositiveDefiniteError):
            linalg.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            linalg.cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_succeeds_iff_eigenvalues_positive(self):
        # Oracle: factorization success must agree with the spectrum for
        # matrices whose eigenvalues are bounded away from zero.
        rng = np.random.default_rng(19)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            g = rng.normal(size=(n, n))
            sym = (g + g.T) / 2.0
            eigs = np.linalg.eigvalsh(sym)
            if np.min(np.abs(eigs)) < 1e-6 * max(1.0, np.max(np.abs(eigs))):
                continue  # too close to the floor for a crisp verdict
            if np.min(eigs) > 0:
                linalg.cholesky(sym)
            else:
                with pytest.raises(NotPositiveDefiniteError):
                    linalg.cholesky(sym)


class TestSpdSolve:
    def test_scaled_identity(self):
        x = linalg.spd_solve(2.0 * np.eye(2), np.array([2.0, 4.0]))
        assert np.allclose(x, [1.0, 2.0], atol=1e-14)

    def test_one_by_one(self):
        # Gram matrix of a single unit column plus no damping.
        n_col = np.array([[1.0], [0.0]])
        m = n_col.T @ n_col
        assert np.allclose(linalg.spd_solve(m, np.array([3.0])), [3.0])

    def test_random_spd_multiply_back(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            g = rng.normal(size=(n, n))
            m = g @ g.T + np.eye(n)
            b = rng.normal(size=n)
            x = linalg.spd_solve(m, b)
            assert np.max(np.abs(m @ x - b)) <= 1e-10 * max(1.0, np.max(np.abs(b)))

    def test_matches_numpy_oracle_multi_rhs(self):
        rng = np.random.default_rng(29)
        g = rng.normal(size=(6, 6))
        m = g @ g.T + np.eye(6)
        b = rng.normal(size=(6, 4))
        assert np.allclose(linalg.spd_solve(m, b), np.linalg.solve(m, b),
                           atol=1e-9)

    def test_indefinite_propagates(self):
        with pytest.raises(NotPositiveDefiniteError):
            linalg.spd_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))


class TestColumnwiseSolves:
    """Column j of a solve against a 2-D right-hand side is bitwise the
    solve against that column alone, for either memory layout."""

    @pytest.mark.parametrize("n", [1, 2, 7, 20])
    @pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
    def test_solve_cholesky(self, n, layout):
        rng = np.random.default_rng(n)
        g = rng.normal(size=(n, n))
        low = linalg.cholesky(g @ g.T + np.eye(n))
        b = layout(rng.normal(size=(n, 6)))
        x = linalg.solve_cholesky(low, b)
        for j in range(b.shape[1]):
            assert x[:, j].tobytes() == linalg.solve_cholesky(low, b[:, j]).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 7, 20])
    @pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
    def test_lu_solve(self, n, layout):
        rng = np.random.default_rng(n)
        fac = linalg.lu_factor(rng.normal(size=(n, n)) + 3.0 * np.eye(n))
        b = layout(rng.normal(size=(n, 6)))
        x, _ = fac.solve(b)
        for j in range(b.shape[1]):
            assert x[:, j].tobytes() == fac.solve(b[:, j])[0].tobytes()

    def test_lu_solve_reports_the_residual_it_checks(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 6)) + 3.0 * np.eye(6)
        b = 10.0 * rng.normal(size=6)
        x, residual = linalg.lu_factor(a).solve(b)
        assert x.tobytes() == linalg.lu_factor(a).solve(b)[0].tobytes()
        assert residual == np.max(np.abs(a @ x - b)) / max(1.0, np.max(np.abs(b)))
        assert residual <= linalg.RESIDUAL_TOL


def _reference_lu(a):
    """The elimination loop as first written, with fancy-indexed row swaps
    and a rank-1 update through a temporary: (transposed LU factors, row
    order).  The pivot floor is left out."""
    n = a.shape[0]
    lu = a.copy()
    order = np.arange(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            order[[k, p]] = order[[p, k]]
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= lu[k + 1:, k:k + 1] * lu[k, k + 1:]
    return np.ascontiguousarray(lu.T), order


class TestLuFactorBitwise:
    """The factors are bitwise those of the reference elimination loop."""

    @staticmethod
    def _assert_same_factors(a):
        fac = linalg.lu_factor(a)
        lu_t, order = _reference_lu(a)
        assert fac._lu_t.tobytes() == lu_t.tobytes()
        assert np.array_equal(fac._order, order)

    @pytest.mark.parametrize("n", [1, 2, 10, 60])
    def test_random_matrices(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            self._assert_same_factors(rng.normal(size=(n, n)))

    def test_shared_matrices_of_an_hs035_run(self, monkeypatch):
        from isqp import corpus, engine

        seen = []
        real_factor = engine.factor_shared

        def recording_factor(H, N, q, y, ny):
            seen.append(np.block([[H, N], [N.T, -np.diag(q)]]))
            return real_factor(H, N, q, y, ny)

        entry = corpus.get_problem("HS035")
        with monkeypatch.context() as patch:
            patch.setattr(engine, "factor_shared", recording_factor)
            engine.solve(entry.problem, entry.x0_infeasible)
        assert len(seen) > 1
        for gamma in seen:
            self._assert_same_factors(gamma)


class TestResidualCheck:
    @pytest.mark.parametrize("solve", [
        lambda a, b: linalg.lu_factor(a).solve(b),
        linalg.spd_solve,
    ], ids=["lu", "spd"])
    def test_failed_check_raises_numerical_breakdown(self, monkeypatch, solve):
        # The check is a solver error (not an assert), so callers can
        # classify it; a negative tolerance makes every solve fail it.
        monkeypatch.setattr(linalg, "RESIDUAL_TOL", -1.0)
        a = np.array([[4.0, 1.0], [1.0, 3.0]])
        with pytest.raises(NumericalBreakdown, match="exceeds tolerance"):
            solve(a, np.array([1.0, 2.0]))

    def test_spd_solve_checks_under_optimize(self):
        # python -O strips asserts and __debug__ blocks; the post-condition
        # of the SPD solve must still run.
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from isqp import linalg\n"
            "from isqp.errors import NumericalBreakdown\n"
            "if __debug__:\n"
            "    sys.exit(3)\n"
            "linalg.RESIDUAL_TOL = -1.0\n"
            "try:\n"
            "    linalg.spd_solve(np.array([[4.0, 1.0], [1.0, 3.0]]), np.array([1.0, 2.0]))\n"
            "except NumericalBreakdown:\n"
            "    sys.exit(0)\n"
            "sys.exit(4)\n"
        )
        src = str(Path(linalg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
