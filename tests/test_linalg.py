"""Factorization and solve contracts, checked against hand examples and
an independent numpy.linalg oracle."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from isqp import linalg
from isqp.errors import NotPositiveDefiniteError, NumericalFailure


class TestLuSolve:
    def test_identity(self):
        b = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(linalg.lu_factor(np.eye(3)).solve(b), b)

    def test_two_by_two_hand_example(self):
        # x + y = 0 and x - 2y = -3 meet at (-1, 1).
        a = np.array([[1.0, 1.0], [1.0, -2.0]])
        x = linalg.lu_factor(a).solve(np.array([0.0, -3.0]))
        assert np.allclose(x, [-1.0, 1.0], atol=1e-14)

    def test_requires_pivoting(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = linalg.lu_factor(a).solve(np.array([5.0, 7.0]))
        assert np.allclose(x, [7.0, 5.0], atol=1e-14)

    def test_random_well_conditioned_multiply_back(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            a = rng.normal(size=(8, 8)) + 8.0 * np.eye(8)
            b = rng.normal(size=8)
            x = linalg.lu_factor(a).solve(b)
            residual = np.max(np.abs(a @ x - b))
            assert residual <= 1e-10 * max(1.0, np.max(np.abs(b)))

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            a = rng.normal(size=(n, n)) + 3.0 * np.eye(n)
            b = rng.normal(size=n)
            assert np.allclose(linalg.lu_factor(a).solve(b), np.linalg.solve(a, b),
                               atol=1e-9, rtol=1e-9)

    def test_multiple_right_hand_sides(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 5)) + 4.0 * np.eye(5)
        b = rng.normal(size=(5, 3))
        x = linalg.lu_factor(a).solve(b)
        assert x.shape == (5, 3)
        assert np.allclose(a @ x, b, atol=1e-10)

    def test_singular_matrix_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(NumericalFailure, match=r"^pivot \S+ below floor \S+ at column 1$"):
            linalg.lu_factor(a).solve(np.array([1.0, 1.0]))

    def test_zero_matrix_raises(self):
        with pytest.raises(NumericalFailure, match="^zero matrix$"):
            linalg.lu_factor(np.zeros((2, 2))).solve(np.array([1.0, 1.0]))

    def test_nan_pivot_raises(self):
        with pytest.raises(NumericalFailure, match="pivot nan below floor nan at column 0"):
            linalg.lu_factor(np.array([[np.nan]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            linalg.lu_factor(np.ones((2, 3))).solve(np.ones(2))

    def test_wrong_rhs_length_rejected(self):
        fac = linalg.lu_factor(np.eye(3))
        with pytest.raises(ValueError):
            fac.solve(np.ones(4))


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(linalg.cholesky(np.eye(2)), np.eye(2))

    def test_two_by_two_hand_example(self):
        # The factor is L = [[2, 0], [1, 2]]; cholesky returns its inverse.
        a = np.array([[4.0, 2.0], [2.0, 5.0]])
        w = linalg.cholesky(a)
        assert np.allclose(w, [[0.5, 0.0], [-0.25, 0.5]], atol=1e-14)

    def test_factor_multiplies_back(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            g = rng.normal(size=(n, n))
            a = g @ g.T + np.eye(n)
            w = linalg.cholesky(a)
            assert np.array_equal(np.tril(w), w)
            assert np.allclose(w @ a @ w.T, np.eye(n), atol=1e-10 * np.max(np.abs(a)))

    @pytest.mark.parametrize("n", [50, 100])
    def test_ill_conditioned_solves_match_numpy(self, n):
        # A = Q diag(1 .. 1/cond) Q': the solve's forward error against
        # numpy.linalg.solve stays within a few cond * eps, and its
        # normwise residual within n * eps.
        rng = np.random.default_rng(n)
        eps = np.finfo(float).eps
        for cond in (1e2, 1e4, 1e6, 1e8):
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            a = (q * np.logspace(0.0, -np.log10(cond), n)) @ q.T
            a = np.tril(a) + np.tril(a, -1).T
            b = rng.normal(size=n)
            x = linalg.solve_cholesky(linalg.cholesky(a), b)
            ref = np.linalg.solve(a, b)
            assert np.max(np.abs(x - ref)) <= 5.0 * cond * eps * np.max(np.abs(ref))
            assert np.max(np.abs(a @ x - b)) <= n * eps * np.max(np.abs(a)) * np.max(np.abs(x))

    def test_indefinite_raises(self):
        # Eigenvalues are 3 and -1.
        with pytest.raises(NotPositiveDefiniteError):
            linalg.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_nan_pivot_raises(self):
        # The factor is the package's SPD test, so a NaN must fail it.
        with pytest.raises(NotPositiveDefiniteError, match="pivot nan at column 0"):
            linalg.cholesky(np.array([[np.nan]]))

    def test_reads_only_the_lower_triangle(self):
        # The factor of a matrix is bitwise that of the symmetric matrix
        # with its lower triangle, whatever its strict upper triangle holds.
        rng = np.random.default_rng(13)
        for n in (2, 5, 12):
            g = rng.normal(size=(n, n))
            sym = g @ g.T + np.eye(n)
            sym = np.tril(sym) + np.tril(sym, -1).T
            asym = sym + np.triu(rng.normal(size=(n, n)), 1)
            assert linalg.cholesky(asym).tobytes() == linalg.cholesky(sym).tobytes()
        a = np.array([[1.0, 0.5], [0.0, 1.0]])
        assert np.array_equal(linalg.cholesky(a), np.eye(2))

    def test_succeeds_iff_eigenvalues_positive(self):
        # Oracle: factorization success must agree with the spectrum for
        # matrices whose eigenvalues are bounded away from zero.
        rng = np.random.default_rng(19)
        verdicts = set()
        for _ in range(200):
            n = int(rng.integers(1, 41))
            g = rng.normal(size=(n, n))
            # A shift up to twice the spectral radius of (g + g') / 2, about
            # sqrt(2n), makes both verdicts common at every size.
            sym = (g + g.T) / 2.0 + rng.uniform(0.0, 2.0 * np.sqrt(2.0 * n)) * np.eye(n)
            eigs = np.linalg.eigvalsh(sym)
            if np.min(np.abs(eigs)) < 1e-6 * max(1.0, np.max(np.abs(eigs))):
                continue  # too close to the floor for a crisp verdict
            verdicts.add((n > 6, bool(np.min(eigs) > 0)))
            if np.min(eigs) > 0:
                linalg.cholesky(sym)
            else:
                with pytest.raises(NotPositiveDefiniteError):
                    linalg.cholesky(sym)
        assert len(verdicts) == 4

    def test_solve_rejects_wrong_rhs_length(self):
        with pytest.raises(ValueError, match="right-hand side has wrong length"):
            linalg.solve_cholesky(np.eye(2), np.ones(3))


def _grown(a, k, lead_of=None):
    """cholesky(a) grown from the factor of a leading k x k block: that of
    ``a`` itself, or of ``lead_of`` when given (a matrix whose leading
    k x k block is a's), as the QP keeps the rows before a dropped one."""
    source = a[:k, :k] if lead_of is None else lead_of
    pivots = np.empty(source.shape[0])
    lead = linalg.cholesky(source, pivots=pivots)
    kept = np.concatenate((pivots[:k], np.empty(a.shape[0] - k)))
    return linalg.cholesky(a, lead[:k, :k], kept)


def _outcome(factor, *args):
    """The factor, or the message of the NotPositiveDefiniteError raised."""
    try:
        return factor(*args)
    except NotPositiveDefiniteError as exc:
        return str(exc)


def _same_outcome(x, y):
    if isinstance(x, str) or isinstance(y, str):
        return x == y
    return np.array_equal(x, y)


class TestGrownFactor:
    """A factor grown from the factor of a leading block is bitwise the
    factor from scratch of the same ordered matrix, and raises exactly when
    that would, with the same message."""

    def test_grown_is_bitwise_the_factor_from_scratch(self):
        rng = np.random.default_rng(25)
        for _ in range(300):
            n = int(rng.integers(1, 41))
            g = rng.normal(size=(n, n))
            m = g @ g.T + 10.0 ** rng.uniform(-6, 1) * np.eye(n)
            order = rng.permutation(n)
            a = m[np.ix_(order, order)]
            k = int(rng.integers(0, n + 1))
            pivots = np.empty(n)
            fresh = linalg.cholesky(a, pivots=pivots)
            grown_pivots = np.concatenate((pivots[:k], np.empty(n - k)))
            grown = linalg.cholesky(a, fresh[:k, :k].copy(), grown_pivots)
            assert np.array_equal(grown, fresh)
            assert np.array_equal(grown_pivots, pivots)
            assert np.array_equal(fresh, linalg.cholesky(a))
            # The rows before a dropped row keep their factor rows.
            if n > 1:
                p = int(rng.integers(0, n - 1))
                dropped = np.delete(order, p + int(rng.integers(0, n - p)))
                b = m[np.ix_(dropped, dropped)]
                assert np.array_equal(_grown(b, p, lead_of=a), linalg.cholesky(b))

    def test_grown_raises_exactly_when_the_factor_from_scratch_does(self):
        rng = np.random.default_rng(26)
        grown_raised = grown_held = 0
        for _ in range(400):
            n = int(rng.integers(1, 41))
            rank = n if rng.uniform() < 0.5 else int(rng.integers(1, n + 1))
            g = rng.normal(size=(n, rank)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
            a = g @ g.T + 10.0 ** rng.uniform(-18, -8) * rng.normal() * np.eye(n)
            fresh = _outcome(linalg.cholesky, a)
            k = int(rng.integers(0, n + 1))
            lead = _outcome(linalg.cholesky, a[:k, :k])
            if isinstance(lead, str):
                assert isinstance(fresh, str)  # a failed leading block fails a
                continue
            assert _same_outcome(_outcome(_grown, a, k), fresh)
            grown_raised += isinstance(fresh, str)
            grown_held += not isinstance(fresh, str)
        assert grown_raised > 80 and grown_held > 150

    @pytest.mark.parametrize("big", [1e2, 1e3, 1e6])
    def test_reused_pivot_is_tested_against_the_grown_floor(self, big):
        # The leading block diag(1, 1e-13) passes its own floor 1e-14.  The
        # appended row lifts the row-sum norm to about ``big``, and so the
        # floor to about 1e-14 * big, which the kept pivot 1e-13 fails.
        a = np.diag([1.0, 1e-13, big])
        a[2, 0] = a[0, 2] = 1e-3
        fresh = _outcome(linalg.cholesky, a)
        assert fresh == "pivot 1.000e-13 at column 1 is not positive"
        assert _outcome(_grown, a, 2) == fresh

    def test_kept_nan_pivot_raises(self):
        lead = linalg.cholesky(np.eye(2))
        with pytest.raises(NotPositiveDefiniteError, match="pivot nan at column 1"):
            linalg.cholesky(np.eye(3), lead, np.array([1.0, np.nan, 0.0]))

    def test_dependent_appended_row_raises(self):
        rng = np.random.default_rng(27)
        for _ in range(200):
            k = int(rng.integers(1, 40))
            b = rng.normal(size=(k, int(rng.integers(k, 41))))
            c = rng.normal(size=k) if rng.uniform() < 0.5 else np.eye(k)[rng.integers(k)]
            rows = np.vstack([b, c @ b])
            a = rows @ rows.T
            with pytest.raises(NotPositiveDefiniteError, match=f"at column {k} "):
                _grown(a, k)


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

    def test_asymmetric_rejected(self):
        # The factor reads only the lower triangle (the identity here); the
        # residual check against all of M catches the upper triangle.
        with pytest.raises(NumericalFailure, match="exceeds tolerance"):
            linalg.spd_solve(np.array([[1.0, 0.5], [0.0, 1.0]]), np.ones(2))


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
        x = fac.solve(b)
        for j in range(b.shape[1]):
            assert x[:, j].tobytes() == fac.solve(b[:, j]).tobytes()


class TestResidualCheck:
    @pytest.mark.parametrize("solve", [
        lambda a, b: linalg.lu_factor(a).solve(b),
        linalg.spd_solve,
    ], ids=["lu", "spd"])
    def test_failed_check_raises_numerical_failure(self, monkeypatch, solve):
        # The check is a solver error (not an assert), so callers can
        # classify it; a negative tolerance makes every solve fail it.
        monkeypatch.setattr(linalg, "RESIDUAL_TOL", -1.0)
        a = np.array([[4.0, 1.0], [1.0, 3.0]])
        with pytest.raises(NumericalFailure, match="exceeds tolerance"):
            solve(a, np.array([1.0, 2.0]))

    def test_spd_solve_checks_under_optimize(self):
        # python -O strips asserts and __debug__ blocks; the post-condition
        # of the SPD solve must still run.
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from isqp import linalg\n"
            "from isqp.errors import NumericalFailure\n"
            "if __debug__:\n"
            "    sys.exit(3)\n"
            "linalg.RESIDUAL_TOL = -1.0\n"
            "try:\n"
            "    linalg.spd_solve(np.array([[4.0, 1.0], [1.0, 3.0]]), np.array([1.0, 2.0]))\n"
            "except NumericalFailure:\n"
            "    sys.exit(0)\n"
            "sys.exit(4)\n"
        )
        src = str(Path(linalg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
