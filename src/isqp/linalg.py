"""Dense linear-algebra kernel used by every other module.

Matrices are plain 2-D ``numpy.ndarray`` objects.  The systems solved here
are small (tens to a few hundred unknowns) and the factorizations keep
strict error contracts: Cholesky raises NotPositiveDefiniteError on a
pivot at or below an explicit pivot floor, which doubles as the
positive-definiteness test for curvature matrices and, on the Schur
complement of the engine's shared matrix, as its singularity test.  LU
with partial pivoting keeps the same pivot floor and raises plain
NumericalFailure on it, since no caller reads it apart from other
failures; it is the package's general square solver, and no solver path
calls it.  ``cholesky`` reads only the lower triangle of its input, as
LAPACK's potrf does: it never checks symmetry, because every caller builds
an exactly symmetric matrix; the upper triangle enters only the row-sum
norm that scales the pivot floor.

``cholesky`` returns W = L^-1, the inverse of the lower Cholesky factor,
bordered row by row, so a solve against it is the two products
x = W'(W b) and no triangular sweep.  They go through ``numpy.einsum``,
which sums each entry in one fixed order, so column j of a solve against a
2-D right-hand side B is bitwise the solve against B[:, j] (callers solve
many columns once and slice them later); BLAS ``@`` picks its kernel by
operand shape and breaks that.  The explicit inverse leaves residuals a
few times larger on ill-conditioned matrices (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2002, ch. 8 and 14).  Row j of W
depends only on the leading (j+1) x (j+1) block, so a factor grows by
bordering: given the factor of a leading block and its pivots,
``cholesky`` keeps those rows, tests the kept pivots again against the
larger matrix's floor, and runs its one border loop over the new rows
only.  The result is bitwise the factor from scratch, and it raises
exactly when that would (the QP grows and shrinks its working-set factor
this way).  ``LuFactorization.solve``'s forward and back sweeps broadcast
over the columns of a 2-D right-hand side, one multiply and one subtract
per entry, so its column j is bitwise the 1-D solve too.

``LuFactorization.solve`` and ``spd_solve`` return x after checking the
scaled residual of the solve against the full matrix, so ``spd_solve``
also fails an asymmetric input whose upper triangle changes the product.
``solve_cholesky`` checks nothing; its callers certify what they solve
(the QP's KKT certificate covers its solves against H, and its
working-set solves and the engine's shared-matrix solves check their
residual).  ``check_residual`` takes the product A x rather than A, so a
caller holding A in blocks (the engine's shared matrix) checks without
assembling it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotPositiveDefiniteError, NumericalFailure

# Pivot floor for both factorizations, relative to the row-sum norm.
PIVOT_FLOOR = 1e-14
# Post-condition on a checked solve: inf-norm residual relative to max(1, |b|).
RESIDUAL_TOL = 1e-10


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def check_residual(ax: np.ndarray, b: np.ndarray) -> float:
    """Check the post-condition of a solve of A x = b, given the product
    ``ax`` = A x, raising NumericalFailure when it fails; return
    max|A x - b| / max(1, max|b|)."""
    residual = np.abs(ax - b).max(initial=0.0)
    scale = max(1.0, np.abs(b).max(initial=0.0))
    if not residual <= RESIDUAL_TOL * scale:
        raise NumericalFailure(f"solve residual {residual:.3e} exceeds tolerance")
    return residual / scale


class LuFactorization:
    """LU factors of a square matrix with partial pivoting.

    Raises NumericalFailure at construction when any pivot magnitude
    falls below PIVOT_FLOOR times the row-sum norm of the input.
    """

    def __init__(self, a) -> None:
        a = _as_square(a)
        n = a.shape[0]
        norm = np.max(np.sum(np.abs(a), axis=1), initial=0.0)
        if n > 0 and norm == 0.0:
            raise NumericalFailure("zero matrix")
        floor = PIVOT_FLOOR * norm
        lu = a.copy()
        order = np.arange(n)
        for k in range(n):
            p = k + int(np.argmax(np.abs(lu[k:, k])))
            if not abs(lu[p, k]) >= floor:
                raise NumericalFailure(
                    f"pivot {lu[p, k]:.3e} below floor {floor:.3e} at column {k}"
                )
            lu[[k, p]] = lu[[p, k]]
            order[[k, p]] = order[[p, k]]
            lu[k + 1:, k] /= lu[k, k]
            lu[k + 1:, k + 1:] -= lu[k + 1:, k:k + 1] * lu[k, k + 1:]
        self._a = a
        self._lu = lu
        self._order = order
        self.shape = a.shape

    def solve(self, b) -> np.ndarray:
        """Solve A x = b for one right-hand side (1-D) or several (columns),
        checking the residual against A."""
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.shape[0]:
            raise ValueError("right-hand side has wrong length")
        lu, n = self._lu, self.shape[0]
        x = b[self._order]
        for k in range(n):  # unit lower-triangular sweep
            x[k + 1:] -= np.multiply.outer(lu[k + 1:, k], x[k])
        for k in range(n - 1, -1, -1):  # upper-triangular sweep
            x[k] /= lu[k, k]
            x[:k] -= np.multiply.outer(lu[:k, k], x[k])
        check_residual(self._a @ x, b)
        return x


def lu_factor(a) -> LuFactorization:
    """Factor a square matrix once for reuse against several right-hand sides."""
    return LuFactorization(a)


def cholesky(a, lead=None, pivots=None) -> np.ndarray:
    """Inverse W = L^-1 of the lower Cholesky factor L of the symmetric
    matrix whose lower triangle is that of ``a``; the strict upper triangle
    is not read, except by the row-sum norm of ``a`` that scales the pivot
    floor.  W is lower triangular, and W A W' = I.

    ``pivots``, when given, receives the pivot of each row.  ``lead`` is the
    factor an earlier call returned for the leading k x k block of ``a``,
    with that call's pivots in ``pivots[:k]``: its rows are kept, its
    pivots are tested again against the floor of ``a``, and only rows k..
    are bordered.  Row j depends only on the leading (j+1) x (j+1) block,
    so the result is bitwise the factor of ``a`` from scratch.

    Raises NotPositiveDefiniteError when any diagonal pivot is at or below
    PIVOT_FLOOR times that norm, which doubles as the package's SPD test.
    """
    a = _as_square(a)
    n = a.shape[0]
    norm = np.abs(a).sum(axis=1).max(initial=0.0)
    floor = PIVOT_FLOOR * norm
    w = np.zeros((n, n))
    k = 0
    if lead is not None:
        k = lead.shape[0]
        w[:k, :k] = lead
        if k and not pivots[:k].min() > floor:
            j = int((~(pivots[:k] > floor)).argmax())
            raise NotPositiveDefiniteError(f"pivot {pivots[j]:.3e} at column {j} is not positive")
    diag = a.diagonal().tolist()
    for j in range(k, n):
        # Row j of L is (ell, sqrt(pivot)) with ell = W_j a[j, :j]; bordering
        # L by it borders W by -(ell W_j) / sqrt(pivot) and 1 / sqrt(pivot).
        # ndarray.dot reaches the same BLAS dot and gemv as ``@`` without
        # the matmul ufunc's per-call dispatch, which costs more at this size.
        w_j = w[:j, :j]
        ell = w_j.dot(a[j, :j])
        pivot = diag[j] - float(ell.dot(ell))
        if not pivot > floor:
            raise NotPositiveDefiniteError(f"pivot {pivot:.3e} at column {j} is not positive")
        if pivots is not None:
            pivots[j] = pivot
        root = math.sqrt(pivot)
        row = w[j, :j]
        ell.dot(w_j, out=row)
        row /= -root
        w[j, j] = 1.0 / root
    return w


def solve_cholesky(w: np.ndarray, b) -> np.ndarray:
    """Solve (L L') x = b as x = W'(W b), given W = L^-1 from ``cholesky``."""
    b = np.asarray(b, dtype=float)
    if b.shape[0] != w.shape[0]:
        raise ValueError("right-hand side has wrong length")
    return np.einsum("ji,j...->i...", w, np.einsum("ij,j...->i...", w, b))


def spd_solve(m, b) -> np.ndarray:
    """Solve M x = b for symmetric positive definite M, checking the
    residual against all of M."""
    m = np.asarray(m, dtype=float)
    x = solve_cholesky(cholesky(m), b)
    check_residual(m @ x, b)
    return x
