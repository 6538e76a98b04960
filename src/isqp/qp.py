"""Primal active-set solver for the strictly convex program

    min  0.5 d'H d + grad'd   subject to   A d <= b,   b >= 0.

Nonnegative right-hand sides make the origin feasible, so no phase-1 is
needed and the solver always returns the unique minimizer.  Working-set
changes are deterministic: ties pick the smallest constraint index, and a
Bland-style selection kicks in after a stretch of non-decreasing objective
values to rule out cycling on degenerate vertices.

Work that does not change across active-set steps is done once per QP:
the Cholesky factor of H, the solves Y = H^-1 A' for every constraint row
(a step slices the working-set columns out of Y), |H| and |grad| for the
noise floor of the objective, and max|A_i| per row for the ratio test.
Every step still forms A_W Y_W, H^-1 g and the ratio-test dot products
afresh, row by row in ascending index order, so the iterates are bitwise
those of a solver that recomputes everything in each step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    CertificateViolation,
    MaxQpIterationsError,
    NotPositiveDefiniteError,
    NumericalBreakdown,
)

# Relative tolerances: reported active set, KKT certificate, internal zero tests.
ACTIVE_TOL = 1e-8
KKT_TOL = 1e-9
_STEP_ZERO = 1e-12
_DIR_EPS = 1e-13


@dataclass(frozen=True)
class QpInstance:
    """One subproblem.  H must be symmetric positive definite and b >= 0."""

    H: np.ndarray
    grad: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        n = self.grad.shape[0]
        m = self.b.shape[0]
        if self.H.shape != (n, n):
            raise ValueError("H shape does not match gradient length")
        if self.A.shape != (m, n):
            raise ValueError("A shape does not match b and gradient")
        if m > 0 and np.min(self.b) < 0.0:
            raise ValueError("b must be nonnegative (origin must be feasible)")

    @property
    def n(self) -> int:
        return self.grad.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[0]

    @property
    def kkt_tol(self) -> float:
        return KKT_TOL * max(1.0, np.max(np.abs(self.grad), initial=0.0))

    @property
    def active_tol(self) -> float:
        return ACTIVE_TOL * max(1.0, np.max(np.abs(self.b), initial=0.0))

    def objective(self, d: np.ndarray) -> float:
        return float(0.5 * d @ self.H @ d + self.grad @ d)


@dataclass(frozen=True)
class QpSolution:
    """Minimizer, multipliers (exact zeros off the active set), and the
    indices of constraints active at the minimizer."""

    d0: np.ndarray
    lam: np.ndarray
    active: np.ndarray


def _certify(inst: QpInstance, d: np.ndarray, lam: np.ndarray) -> None:
    tol = inst.kkt_tol
    stationarity = np.max(np.abs(inst.H @ d + inst.grad + inst.A.T @ lam), initial=0.0)
    if stationarity > tol:
        raise NumericalBreakdown(f"QP stationarity residual {stationarity:.3e}")
    if inst.m > 0:
        slack = inst.b - inst.A @ d
        if np.min(slack) < -tol:
            raise NumericalBreakdown(f"QP feasibility residual {-np.min(slack):.3e}")
        if np.min(lam) < -tol:
            raise NumericalBreakdown(f"QP negative multiplier {np.min(lam):.3e}")
        comp = np.max(np.abs(lam * slack), initial=0.0)
        if comp > tol * max(1.0, np.max(np.abs(inst.b), initial=0.0)):
            raise NumericalBreakdown(f"QP complementarity residual {comp:.3e}")


def solve_qp(inst: QpInstance) -> QpSolution:
    """Solve the subproblem, certifying the KKT conditions of the result."""
    n, m = inst.n, inst.m
    H, grad, A, b = inst.H, inst.grad, inst.A, inst.b
    try:
        hfac = linalg.cholesky(H)
    except NotPositiveDefiniteError as exc:
        raise NumericalBreakdown("QP curvature matrix is not positive definite") from exc

    # Column j of Y is the solve against A[j] (the solves are per column,
    # see linalg); Y[:, work] has the layout of a fresh solve against
    # A[work].T, and matrix products round differently by layout.
    y_all = linalg.solve_cholesky(hfac, A.T)
    rows = list(A)  # views with A's strides: dot products round by stride
    row_scale = np.abs(A).max(axis=1, initial=0.0)
    abs_grad = np.abs(grad)
    abs_h = np.abs(H)
    d = np.zeros(n)
    work: list[int] = []
    in_work = [False] * m
    lam_work = np.zeros(0)
    grad_scale = max(1.0, abs_grad.max(initial=0.0))
    limit = 50 * (n + m)
    bland_after = 10 * (n + m)
    stall = 0
    best = np.inf
    bland = False
    done = False

    for _ in range(limit):
        g_cur = H @ d + grad
        if work:
            a_work = A[work]
            y = y_all[:, work]
            try:
                lam_work = linalg.spd_solve(a_work @ y, -(y.T @ g_cur))
            except NotPositiveDefiniteError as exc:
                raise NumericalBreakdown("dependent working set in QP") from exc
            p = -(linalg.solve_cholesky(hfac, g_cur) + y @ lam_work)
        else:
            lam_work = np.zeros(0)
            p = -linalg.solve_cholesky(hfac, g_cur)

        # Stationarity tests.  The full equality-constrained step decreases
        # the objective by exactly p'Hp/2, so the step is numerically inert
        # when that is below the rounding noise of evaluating the objective
        # at d — and an ill-conditioned working set can hold the computed
        # step at a noise plateau above any norm threshold, which shows up
        # as a long run of iterations without objective progress.
        ad = np.abs(d)
        p_scale = np.abs(p).max(initial=0.0)
        tiny_norm = p_scale <= _STEP_ZERO * max(1.0, ad.max(initial=0.0))
        obj_noise = float(abs_grad @ ad + 0.5 * ad @ abs_h @ ad)
        flat = 0.5 * float(p @ H @ p) <= 100 * np.finfo(float).eps * obj_noise
        stuck = stall >= 2 * (n + m) + 4
        if tiny_norm or flat or stuck:
            if tiny_norm:
                d = d + p  # absorb the residual step so stationarity holds to roundoff
            if lam_work.size == 0 or lam_work.min() >= -10 * KKT_TOL * grad_scale:
                done = True
                break
            if bland:
                neg = [work[j] for j in range(len(work)) if lam_work[j] < -10 * KKT_TOL * grad_scale]
                leave = min(neg)
            else:
                j = int(np.argmin(lam_work))
                leave = work[j]
            work.remove(leave)
            in_work[leave] = False
            stall = 0  # the working set changed; give it a fresh chance
            continue

        # Ratio test over constraints outside the working set, in ascending
        # index order: ties keep the smallest index.
        alpha = 1.0
        blocker = -1
        for i in range(m):
            if in_work[i]:
                continue
            a_dot_p = float(rows[i] @ p)
            if a_dot_p <= _DIR_EPS * max(1.0, row_scale[i] * p_scale):
                continue
            slack = max(float(b[i] - rows[i] @ d), 0.0)
            ratio = slack / a_dot_p
            if ratio < alpha - 1e-12 or (blocker < 0 and ratio < alpha):
                alpha, blocker = ratio, i
        d = d + alpha * p
        if blocker >= 0:
            work.append(blocker)
            work.sort()
            in_work[blocker] = True

        obj = inst.objective(d)
        if obj < best - 1e-12 * max(1.0, abs(best)):
            best = obj
            stall = 0
        else:
            stall += 1
            if stall >= bland_after:
                bland = True
    if not done:
        raise MaxQpIterationsError(f"active-set loop exceeded {limit} iterations")

    lam = np.zeros(m)
    if work:
        lam[work] = np.maximum(lam_work, 0.0)
    if m > 0:
        active = np.flatnonzero(b - A @ d <= inst.active_tol)
    else:
        active = np.zeros(0, dtype=int)
    _certify(inst, d, lam)
    return QpSolution(d0=d, lam=lam, active=active)


def objective_decrease_certificate(inst: QpInstance, sol: QpSolution) -> float:
    """Return grad'd0 after checking grad'd0 + 0.5 d0'H d0 <= 0.

    The origin is feasible, so the minimizer can never have positive
    objective; a violation means the inputs broke the subproblem contract.
    """
    slope = float(inst.grad @ sol.d0)
    value = slope + 0.5 * float(sol.d0 @ inst.H @ sol.d0)
    if value > inst.kkt_tol:
        raise CertificateViolation(
            f"QP objective {value:.3e} is positive at the reported minimizer"
        )
    return slope
