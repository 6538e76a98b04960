"""Primal active-set solver for the strictly convex program

    min  0.5 d'H d + grad'd   subject to   A d <= b,   b >= 0.

Nonnegative right-hand sides make the origin feasible, so no phase-1 is
needed, and positive definite H makes the minimizer unique.  The loop is
the primal active-set method (Nocedal & Wright, *Numerical Optimization*,
Algorithm 16.3).  Its working set W is one index array of rows in the
order they joined.  Working-set changes are deterministic: a blocking tie
picks the smallest constraint index, and a drop takes the most negative
multiplier.  Nothing rules out cycling on a degenerate vertex; the step
limit 50(n+m) bounds a cycle by raising NumericalFailure, which
``engine.solve`` reports as ``degenerate``.

The loop needs a feasible start and its working set there.  The caller
may name rows to start from (the engine passes those with a positive
multiplier in the previous iteration's QP; Nocedal & Wright, sections
16.5 and 18.3).  The start is the minimizer d_W of the objective on the
equalities A_W d = b_W.  While d_W breaks another row (A_i d_W > b_i, with
no tolerance), the most violated row joins W and d_W is solved again, one
bordered factor row per retry.  Once every other row holds, d_W is the
start and W its working set: it is feasible, holds A_W d = b_W, and its
rows are independent.  The cold start, d = 0 with an empty working set,
is the warm start's own fallback: it is the start when no rows are named,
when a factor of A_W Y_W fails its pivot floor or a solve its residual
check, or when W reaches n rows while a row is still broken.  Every start
runs the same loop; near a solution the rows barely change between
iterations, and the warm loop only confirms the multipliers' signs.

The caller passes L^-1 for the lower Cholesky factor L of H, which the
engine forms once per curvature matrix as H's positive-definiteness
certificate, and every n-sized solve is done before the loop: Y = H^-1 A'
for all constraint rows and u = H^-1 grad (Nocedal & Wright, *Numerical
Optimization*, section 16.5).  Since H^-1 (H d + grad) = d + u, a step with
working set W finds its multipliers from the |W|-sized system
(A_W Y_W) lam = -A_W (d + u), whose matrix is sliced out of the precomputed
A Y in W's order, and its direction as p = -(d + u + Y_W lam).  The factor
of A_W Y_W is kept from step to step (Gill, Golub, Murray & Saunders 1974):
a step that keeps its rows reuses it, an added row borders it with one
more row, and a row dropped at position k keeps its first k rows and
borders the rest again, all through ``linalg.cholesky``, so each factor is
bitwise the one from scratch.  Each solve checks its residual against
A_W Y_W.  The ratio test reads the vectors A p and b - A d.  Y and A Y are
handed back on the solution, so the caller can solve systems in H and A'
without solving against H again.  The KKT certificate of the result reads
H itself, so a factor that is not H's fails it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import NotPositiveDefiniteError, NumericalFailure

# Relative tolerances: reported active set, KKT certificate, internal zero tests.
ACTIVE_TOL = 1e-8
KKT_TOL = 1e-9
_STEP_ZERO = 1e-12
_DIR_EPS = 1e-13
_EPS = float(np.finfo(float).eps)


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
        if m > 0 and not self.b.min() >= 0.0:
            raise ValueError("b must be nonnegative (origin must be feasible)")

    @property
    def n(self) -> int:
        return self.grad.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[0]

    # Cached: the loop, _certify and the engine's decrease certificate all
    # read it.
    @cached_property
    def kkt_tol(self) -> float:
        return KKT_TOL * max(1.0, np.abs(self.grad).max(initial=0.0))

    @property
    def active_tol(self) -> float:
        return ACTIVE_TOL * max(1.0, np.abs(self.b).max(initial=0.0))

    def objective(self, d: np.ndarray) -> float:
        return float(0.5 * d @ self.H @ d + self.grad @ d)


@dataclass(frozen=True)
class QpSolution:
    """Minimizer, multipliers (exact 0 off the final working set, clipped at
    0 on it), indices of constraints active at the minimizer, and ``y`` =
    H^-1 A' and ``ay`` = A H^-1 A' (symmetrized) as the solve formed them."""

    d0: np.ndarray
    lam: np.ndarray
    active: np.ndarray
    y: np.ndarray
    ay: np.ndarray


def _certify(inst: QpInstance, d: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Check the KKT conditions of (d, lam) to inst.kkt_tol, raising
    NumericalFailure on the first that fails; return the slack b - A d."""
    tol = inst.kkt_tol
    stationarity = np.abs(inst.H @ d + inst.grad + inst.A.T @ lam).max(initial=0.0)
    if not stationarity <= tol:
        raise NumericalFailure(f"QP stationarity residual {stationarity:.3e}")
    slack = inst.b - inst.A @ d
    if inst.m > 0:
        low = slack.min()
        if not low >= -tol:
            raise NumericalFailure(f"QP feasibility residual {-low:.3e}")
        low = lam.min()
        if not low >= -tol:
            raise NumericalFailure(f"QP negative multiplier {low:.3e}")
        comp = np.abs(lam * slack).max(initial=0.0)
        if not comp <= tol * max(1.0, np.abs(inst.b).max(initial=0.0)):
            raise NumericalFailure(f"QP complementarity residual {comp:.3e}")
    return slack


_NO_FACTOR = (np.zeros(0, dtype=np.intp), np.zeros((0, 0)), np.zeros(0))


def _work_solve(ay: np.ndarray, work: np.ndarray, fac, rhs: np.ndarray):
    """Solve (A_W Y_W) lam = rhs on the rows W = ``work``, in the order they
    joined, and check its residual.  ``fac`` = (rows, factor, pivots) is the
    previous working set's: it is reused when its rows are W; otherwise the
    leading rows it shares with W keep their factor rows, and
    ``linalg.cholesky`` borders the rest.  Returns (W's triple, lam)."""
    ay_w = ay[work[:, None], work]  # np.ix_ without its Python-level checks
    rows, w, piv = fac
    keep = 0
    for old, new in zip(rows.tolist(), work.tolist()):
        if old != new:
            break
        keep += 1
    if keep < work.size or rows.size > work.size:
        piv_w = np.empty(work.size)
        piv_w[:keep] = piv[:keep]
        w = linalg.cholesky(ay_w, w[:keep, :keep], piv_w)
        fac = (work, w, piv_w)
    lam = linalg.solve_cholesky(w, rhs)
    linalg.check_residual(ay_w @ lam, rhs)
    return fac, lam


def _warm_start(A: np.ndarray, b: np.ndarray, u: np.ndarray, au: np.ndarray,
                y_all: np.ndarray, ay: np.ndarray, rows: np.ndarray):
    """The minimizer d = -(u + Y_W lam) on the equalities A_W d = b_W of the
    rows W, grown from ``rows``: while d breaks another row, the most
    violated one joins W and d is solved again, one bordered factor row per
    retry.  Returns (d, W, W's factor triple) once every other row holds at
    d exactly, and the cold start (d = 0, no rows, no factor) when there
    are no rows, a solve fails or W reaches n rows first."""
    fac = _NO_FACTOR
    while rows.size:
        try:
            fac, lam = _work_solve(ay, rows, fac, -(b[rows] + au[rows]))
        except NumericalFailure:
            break
        d = -(u + y_all[:, rows] @ lam)
        excess = A @ d - b
        excess[rows] = 0.0
        worst = int(excess.argmax())
        if excess[worst] <= 0.0:  # a NaN row counts as broken
            return d, rows, fac
        if rows.size >= u.size:
            break
        rows = np.concatenate((rows, [worst]))
    return np.zeros(u.size), _NO_FACTOR[0], _NO_FACTOR


def solve_qp(inst: QpInstance, hfac: np.ndarray, warm=()) -> QpSolution:
    """Solve the subproblem, given the inverse ``hfac`` = L^-1 of the lower
    Cholesky factor L of inst.H and the rows ``warm`` to start the working
    set from, certifying the KKT conditions of the result against inst.H."""
    n, m = inst.n, inst.m
    H, grad, A, b = inst.H, inst.grad, inst.A, inst.b
    y_all = linalg.solve_cholesky(hfac, A.T)
    ay = A @ y_all
    ay = 0.5 * (ay + ay.T)  # A H^-1 A' is symmetric; the product is only to roundoff
    u = linalg.solve_cholesky(hfac, grad)
    au = A @ u
    row_scale = np.abs(A).max(axis=1, initial=0.0)
    abs_grad = np.abs(grad)
    abs_h = np.abs(H)
    d, work, fac = _warm_start(A, b, u, au, y_all, ay, np.asarray(warm, dtype=np.intp))
    # Not inst.objective: perfbench/tracer.py counts the loop's steps
    # through its calls.
    best = float(0.5 * d @ H @ d + grad @ d)
    kkt_tol = inst.kkt_tol
    limit = 50 * (n + m)
    stall_limit = 2 * (n + m) + 4
    stall = 0

    for _ in range(limit):
        a_d = A @ d
        if work.size:
            try:
                fac, lam_work = _work_solve(ay, work, fac, -(a_d[work] + au[work]))
            except NotPositiveDefiniteError as exc:
                raise NumericalFailure("dependent working set in QP") from exc
            p = -(d + u + y_all[:, work] @ lam_work)
        else:
            lam_work = np.zeros(0)
            p = -(d + u)

        # Stationarity tests.  The full equality-constrained step decreases
        # the objective by exactly p'Hp/2, so the step is numerically inert
        # when that is below the rounding noise of evaluating the objective
        # at d — and an ill-conditioned working set can hold the computed
        # step at a noise plateau above any norm threshold, which shows up
        # as a long run of iterations without objective progress.
        ad = np.abs(d)
        p_scale = np.abs(p).max(initial=0.0)
        tiny_norm = p_scale <= _STEP_ZERO * max(1.0, ad.max(initial=0.0))
        stuck = stall >= stall_limit
        flat = False
        if not (tiny_norm or stuck):  # the costliest test, read only when it decides
            obj_noise = float(abs_grad @ ad + 0.5 * ad @ abs_h @ ad)
            flat = 0.5 * float(p @ H @ p) <= 100 * _EPS * obj_noise
        if tiny_norm or flat or stuck:
            if tiny_norm:
                d = d + p  # absorb the residual step so stationarity holds to roundoff
            # Clipping a negative multiplier lam_i to 0 moves stationarity
            # by up to |lam_i| max|A_i|; stop only when that stays within
            # half the certificate's tolerance, else drop the row.
            if lam_work.size == 0 or lam_work.min() * row_scale[work].max() >= -0.5 * kkt_tol:
                break
            leave = int(lam_work.argmin())
            work = np.concatenate((work[:leave], work[leave + 1:]))
            stall = 0  # the working set changed; give it a fresh chance
            continue

        # Ratio test over constraints outside the working set that p moves
        # towards, in ascending index order: ties keep the smallest index.
        # A row can block only if its ratio is below 1 (slack < A_i p).
        a_p = A @ p
        slack = np.maximum(b - a_d, 0.0)
        toward = a_p > _DIR_EPS * np.maximum(1.0, row_scale * p_scale)
        toward[work] = False
        alpha = 1.0
        blocker = -1
        for i in (toward & (slack < a_p)).nonzero()[0].tolist():
            ratio = slack[i] / a_p[i]
            if ratio < alpha - 1e-12 or (blocker < 0 and ratio < alpha):
                alpha, blocker = ratio, i
        d = d + alpha * p
        if blocker >= 0:
            work = np.concatenate((work, [blocker]))

        obj = inst.objective(d)
        if obj < best - 1e-12 * max(1.0, abs(best)):
            best = obj
            stall = 0
        else:
            stall += 1
    else:
        raise NumericalFailure(f"active-set loop exceeded {limit} iterations")

    lam = np.zeros(m)
    lam[work] = np.maximum(lam_work, 0.0)
    active = (_certify(inst, d, lam) <= inst.active_tol).nonzero()[0]
    return QpSolution(d0=d, lam=lam, active=active, y=y_all, ay=ay)


def objective_decrease_certificate(inst: QpInstance, sol: QpSolution) -> float:
    """Return grad'd0 after checking grad'd0 + 0.5 d0'H d0 <= 0.

    The origin is feasible, so the minimizer can never have positive
    objective; a violation means the inputs broke the subproblem contract.
    """
    slope = float(inst.grad @ sol.d0)
    value = slope + 0.5 * float(sol.d0 @ inst.H @ sol.d0)
    if not value <= inst.kkt_tol:
        raise NumericalFailure(
            f"QP objective {value:.3e} is positive at the reported minimizer"
        )
    return slope
