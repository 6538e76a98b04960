"""Dense linear-algebra kernel used by every other module.

Matrices are plain 2-D ``numpy.ndarray`` objects.  The systems solved here
are small (tens to a few hundred unknowns) and the factorizations keep
strict error contracts: Cholesky reports a pivot at or below an explicit
pivot floor, which doubles as the positive-definiteness test for curvature
matrices and, on the Schur complement of the engine's shared matrix, as
its singularity test.  LU with partial pivoting keeps the same pivot
floor; it is the package's general square solver, and no solver path
calls it.  Every solve checks its scaled residual with ``check_residual``,
which takes the product A x rather than A, so a caller holding A in blocks
(the engine's shared matrix) checks without assembling it.

The triangular solves are column sweeps of elementwise products and
differences, so their results do not depend on how right-hand sides are
batched: column j of a solve against a 2-D right-hand side B is bitwise
equal to the solve against the vector B[:, j].  Callers rely on this to
solve many columns once and slice them later.  In ``solve_cholesky`` a 1-D
right-hand side takes a separate path that performs the same floating-point
operations without the 2-D broadcasting, which is most of the cost at these
sizes.  ``LuFactorization.solve`` has only the vector sweep and solves a
2-D right-hand side one column at a time.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPositiveDefiniteError, NumericalBreakdown, SingularMatrixError

# Pivot floor for both factorizations, relative to the row-sum norm.
PIVOT_FLOOR = 1e-14
# Post-condition on every solve: inf-norm residual relative to max(1, |b|).
RESIDUAL_TOL = 1e-10
# Symmetry slack allowed on inputs that must be symmetric.
SYMMETRY_TOL = 1e-12


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def check_symmetric(a: np.ndarray) -> None:
    """Raise ValueError unless |a_ij - a_ji| <= tol * max(1, |a_ij|)."""
    bound = SYMMETRY_TOL * np.maximum(1.0, np.abs(a))
    if np.any(np.abs(a - a.T) > bound):
        raise ValueError("matrix is not symmetric within tolerance")


def check_residual(ax: np.ndarray, b: np.ndarray) -> float:
    """Check the post-condition of a solve of A x = b, given the product
    ``ax`` = A x, raising NumericalBreakdown when it fails; return
    max|A x - b| / max(1, max|b|)."""
    residual = np.max(np.abs(ax - b), initial=0.0)
    scale = max(1.0, np.max(np.abs(b), initial=0.0))
    if not residual <= RESIDUAL_TOL * scale:
        raise NumericalBreakdown(f"solve residual {residual:.3e} exceeds tolerance")
    return residual / scale


class LuFactorization:
    """LU factors of a square matrix with partial pivoting.

    Raises SingularMatrixError at construction when any pivot magnitude
    falls below PIVOT_FLOOR times the row-sum norm of the input.
    """

    def __init__(self, a) -> None:
        a = _as_square(a)
        n = a.shape[0]
        norm = np.max(np.sum(np.abs(a), axis=1), initial=0.0)
        if n > 0 and norm == 0.0:
            raise SingularMatrixError("zero matrix")
        floor = PIVOT_FLOOR * norm
        lu = a.copy()
        order = np.arange(n)
        row = np.empty(n)  # swap buffer: fancy-indexed swaps cost more at these sizes
        for k in range(n):
            p = k + int(np.argmax(np.abs(lu[k:, k])))
            if abs(lu[p, k]) < floor:
                raise SingularMatrixError(
                    f"pivot {lu[p, k]:.3e} below floor {floor:.3e} at column {k}"
                )
            if p != k:
                row[:] = lu[k]
                lu[k] = lu[p]
                lu[p] = row
                order[k], order[p] = order[p], order[k]
            col = lu[k + 1:, k]
            col /= lu[k, k]
            lu[k + 1:, k + 1:] -= col[:, None] * lu[k, k + 1:]
        self._a = a
        self._lu_t = np.ascontiguousarray(lu.T)  # contiguous columns for the sweeps
        self._order = order
        self.shape = a.shape

    def solve(self, b) -> tuple[np.ndarray, float]:
        """Solve A x = b for one right-hand side (1-D) or several (columns).

        Returns ``(x, r)``, where r = max|A x - b| / max(1, max|b|) is the
        scaled residual whose bound by RESIDUAL_TOL is the post-condition of
        every solve.  Columns are solved one at a time.
        """
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.shape[0]:
            raise ValueError("right-hand side has wrong length")
        if b.ndim == 1:
            x = self._sweep(b)
        else:
            x = np.empty_like(b)
            for j in range(b.shape[1]):
                x[:, j] = self._sweep(b[:, j])
        return x, check_residual(self._a @ x, b)

    def _sweep(self, b: np.ndarray) -> np.ndarray:
        lu_t = self._lu_t
        n = lu_t.shape[0]
        x = b[self._order]
        for k in range(n):  # unit lower-triangular sweep
            x[k + 1:] -= lu_t[k, k + 1:] * x[k]
        for k in range(n - 1, -1, -1):  # upper-triangular sweep
            x[k] /= lu_t[k, k]
            x[:k] -= lu_t[k, :k] * x[k]
        return x


def lu_factor(a) -> LuFactorization:
    """Factor a square matrix once for reuse against several right-hand sides."""
    return LuFactorization(a)


def cholesky(a) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric positive definite matrix.

    Raises NotPositiveDefiniteError when any diagonal pivot is at or below
    the pivot floor, which doubles as the package's SPD test.
    """
    a = _as_square(a)
    check_symmetric(a)
    n = a.shape[0]
    norm = np.max(np.sum(np.abs(a), axis=1), initial=0.0)
    floor = PIVOT_FLOOR * norm
    low = np.zeros_like(a)
    for j in range(n):
        pivot = a[j, j] - low[j, :j] @ low[j, :j]
        if pivot <= floor:
            raise NotPositiveDefiniteError(
                f"pivot {pivot:.3e} at column {j} is not positive"
            )
        low[j, j] = np.sqrt(pivot)
        if j + 1 < n:
            low[j + 1:, j] = (a[j + 1:, j] - low[j + 1:, :j] @ low[j, :j]) / low[j, j]
    return low


def solve_cholesky(low: np.ndarray, b) -> np.ndarray:
    """Solve (L L^T) x = b given the lower Cholesky factor L."""
    b = np.asarray(b, dtype=float)
    n = low.shape[0]
    if b.shape[0] != n:
        raise ValueError("right-hand side has wrong length")
    x = np.array(b, dtype=float)
    if b.ndim == 1:
        for k in range(n):
            x[k] /= low[k, k]
            x[k + 1:] -= low[k + 1:, k] * x[k]
        for k in range(n - 1, -1, -1):  # transpose sweep: column k of L^T is row k of L
            x[k] /= low[k, k]
            x[:k] -= low[k, :k] * x[k]
        return x
    for k in range(n):
        x[k] /= low[k, k]
        x[k + 1:] -= low[k + 1:, k:k + 1] * x[k:k + 1]
    for k in range(n - 1, -1, -1):
        x[k] /= low[k, k]
        x[:k] -= low[k, :k].reshape(-1, 1) * x[k:k + 1]
    return x


def spd_solve(m, b) -> np.ndarray:
    """Solve M x = b for symmetric positive definite M."""
    m = _as_square(m)
    x = solve_cholesky(cholesky(m), b)
    check_residual(m @ x, np.asarray(b, dtype=float))
    return x
