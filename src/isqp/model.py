"""Problem model: the constrained program, its inequality-only penalty
reformulation, index-set bookkeeping, and first-order estimates.

A program ``min f0(x)  s.t.  f_i(x) <= 0 (i < m_ineq),  f_i(x) = 0 (i >=
m_ineq)`` is handled through the penalized objective ``f0(x) - c * sum of
equality components`` minimized subject to every component of ``f`` being
nonpositive.  All bookkeeping that depends only on function values at one
point lives in :class:`PointValues`; gradients extend it to
:class:`Evaluation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import linalg
from .errors import DegenerateConstraints, EvaluationFailure, NotPositiveDefiniteError

# Relative step for central finite differences.
FD_STEP = 1e-6


@dataclass
class EvalCounters:
    """Evaluation tallies for one run.

    nf0 counts objective values, nf counts scalar constraint values (a full
    constraint vector adds m).  A line-search trial rejected on its
    constraint values costs no objective evaluation.  Gradient calls are not
    tallied; probing function values for finite differences is.
    """

    nf0: int = 0
    nf: int = 0


@dataclass(frozen=True)
class NlpProblem:
    """A smooth nonlinear program in standard form.

    ``f`` returns all m = m_ineq + m_eq constraint values as one vector,
    inequalities first.  ``grad_f`` returns the n-by-m matrix whose columns
    are constraint gradients.  Missing gradient callbacks fall back to
    central finite differences, whose probes are tallied.
    """

    n: int
    m_ineq: int
    m_eq: int
    f0: Callable[[np.ndarray], float]
    f: Optional[Callable[[np.ndarray], np.ndarray]] = None
    grad_f0: Optional[Callable[[np.ndarray], np.ndarray]] = None
    grad_f: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.m_ineq < 0 or self.m_eq < 0:
            raise ValueError("constraint counts must be nonnegative")
        if self.m > 0 and self.f is None:
            raise ValueError("f is required when constraints are declared")

    @property
    def m(self) -> int:
        return self.m_ineq + self.m_eq


@dataclass(frozen=True)
class PointValues:
    """Function values and index sets at one point.

    A constraint is satisfied (iminus) when f_i <= phi_tol * max(1, max|f|),
    the roundoff floor of :func:`point_values`, and violated (iplus)
    otherwise.  The violation measure phi is max f_i when some constraint
    is violated and 0 when none is.  fbar shifts every violated value down
    by phi and clips every satisfied one at 0, so fbar <= 0 holds
    componentwise and the indices where fbar vanishes (izero) mark the
    constraints that drive the next step.  f0 is None until the objective
    is evaluated (see :func:`with_objective`).
    """

    x: np.ndarray
    f0: Optional[float]
    fI: np.ndarray
    phi: float
    fbar: np.ndarray
    iplus: np.ndarray
    iminus: np.ndarray
    izero: np.ndarray
    m_ineq: int


@dataclass(frozen=True)
class Evaluation(PointValues):
    """PointValues plus objective gradient g0 and constraint gradients gI
    (n-by-m, one column per constraint)."""

    g0: np.ndarray = field(default_factory=lambda: np.zeros(0))
    gI: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))


def objective_value(problem: NlpProblem, x: np.ndarray, counters: EvalCounters) -> float:
    val = float(problem.f0(x))
    counters.nf0 += 1
    if not np.isfinite(val):
        raise EvaluationFailure(f"objective returned {val} at x={x!r}")
    return val


def constraint_values(problem: NlpProblem, x: np.ndarray, counters: EvalCounters) -> np.ndarray:
    if problem.m == 0:
        return np.zeros(0)
    vals = np.asarray(problem.f(x), dtype=float).reshape(problem.m)
    counters.nf += problem.m
    if not np.all(np.isfinite(vals)):
        bad = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise EvaluationFailure(f"constraint {bad} returned {vals[bad]} at x={x!r}")
    return vals


def point_values(problem: NlpProblem, x, counters: EvalCounters,
                 objective: bool = True, phi_tol: float = 0.0) -> PointValues:
    """Evaluate every constraint at x, derive the index sets, then evaluate
    f0 unless ``objective`` is false (f0 is then left as None, for a caller
    that may reject x on its constraint values alone).

    ``phi_tol`` sets the roundoff floor phi_tol * max(1, max|f|) up to
    which a positive constraint value counts as satisfied.  The solver
    passes ``SolverOptions.phi_tol``; the default 0 counts exactly the
    values f_i <= 0 as satisfied.
    """
    x = np.asarray(x, dtype=float).reshape(problem.n)
    fI = constraint_values(problem, x, counters)
    top = max(0.0, np.max(fI, initial=0.0))
    floor = phi_tol * max(1.0, top, -np.min(fI, initial=0.0))
    satisfied = fI <= floor
    iplus = np.flatnonzero(~satisfied)
    iminus = np.flatnonzero(satisfied)
    phi = top if iplus.size else 0.0
    fbar = fI.copy()
    fbar[iplus] -= phi
    if top > 0.0 and floor > 0.0:  # clip satisfied values in (0, floor] to 0
        fbar[satisfied & (fI > 0.0)] = 0.0
    izero = np.flatnonzero(fbar == 0.0)
    f0 = objective_value(problem, x, counters) if objective else None
    return PointValues(
        x=x, f0=f0, fI=fI, phi=phi, fbar=fbar,
        iplus=iplus, iminus=iminus, izero=izero, m_ineq=problem.m_ineq,
    )


def with_objective(problem: NlpProblem, values: PointValues,
                   counters: EvalCounters) -> PointValues:
    """``values`` completed with the objective value at its point."""
    return replace(values, f0=objective_value(problem, values.x, counters))


def fd_gradient(problem: NlpProblem, x, counters: EvalCounters) -> np.ndarray:
    """Central-difference gradient of the objective.  Every probe is
    tallied."""
    x = np.asarray(x, dtype=float).reshape(problem.n)
    grad = np.zeros(problem.n)
    for j in range(problem.n):
        h = FD_STEP * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        hi = objective_value(problem, xp, counters)
        lo = objective_value(problem, xm, counters)
        grad[j] = (hi - lo) / (2.0 * h)
    return grad


def fd_jacobian(problem: NlpProblem, x, counters: EvalCounters) -> np.ndarray:
    """Central-difference constraint Jacobian, returned as n-by-m columns."""
    x = np.asarray(x, dtype=float).reshape(problem.n)
    jac = np.zeros((problem.n, problem.m))
    for j in range(problem.n):
        h = FD_STEP * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        hi = constraint_values(problem, xp, counters)
        lo = constraint_values(problem, xm, counters)
        jac[j] = (hi - lo) / (2.0 * h)
    return jac


def evaluate(problem: NlpProblem, x, counters: EvalCounters,
             values: Optional[PointValues] = None, phi_tol: float = 0.0) -> Evaluation:
    """Full evaluation at x.

    Passing ``values`` reuses function values already paid for at the same
    point (for example the accepted line-search trial), so each point is
    tallied once; otherwise they are computed with the roundoff floor
    ``phi_tol`` of :func:`point_values`.
    """
    if values is None:
        values = point_values(problem, x, counters, phi_tol=phi_tol)
    if problem.grad_f0 is not None:
        g0 = np.asarray(problem.grad_f0(values.x), dtype=float).reshape(problem.n)
    else:
        g0 = fd_gradient(problem, values.x, counters)
    if problem.m == 0:
        gI = np.zeros((problem.n, 0))
    elif problem.grad_f is not None:
        # One memory layout whatever the callback returns: products round
        # differently by layout, and the run must depend on the program only.
        gI = np.ascontiguousarray(problem.grad_f(values.x), dtype=float).reshape(
            problem.n, problem.m)
    else:
        gI = fd_jacobian(problem, values.x, counters)
    if not np.all(np.isfinite(g0)) or not np.all(np.isfinite(gI)):
        raise EvaluationFailure(f"non-finite gradient at x={values.x!r}")
    return Evaluation(
        x=values.x, f0=values.f0, fI=values.fI, phi=values.phi, fbar=values.fbar,
        iplus=values.iplus, iminus=values.iminus, izero=values.izero,
        m_ineq=values.m_ineq, g0=g0, gI=gI,
    )


def penalty_value(values: PointValues, c: float) -> float:
    """Penalized objective: f0 minus c times the sum of equality components."""
    eq = values.fI[values.m_ineq:]
    return values.f0 - c * float(np.sum(eq))


def penalty_gradient(ev: Evaluation, c: float) -> np.ndarray:
    """Gradient of the penalized objective."""
    eq_cols = ev.gI[:, ev.m_ineq:]
    return ev.g0 - c * np.sum(eq_cols, axis=1)


def compute_pi(ev: Evaluation, p: float) -> np.ndarray:
    """Least-squares multiplier estimate at the current point.

    Solves (N^T N + D) pi = -N^T g0 where N stacks all constraint gradients
    and D carries |fbar_i|^p on inequality rows and zero on equality rows.
    The system is positive definite whenever the gradients active at the
    point are independent; otherwise DegenerateConstraints is raised.
    """
    m = ev.fI.size
    if m == 0:
        return np.zeros(0)
    nmat = ev.gI
    diag = np.abs(ev.fbar) ** p
    diag[ev.m_ineq:] = 0.0
    sys = nmat.T @ nmat + np.diag(diag)
    rhs = -(nmat.T @ ev.g0)
    try:
        return linalg.spd_solve(sys, rhs)
    except NotPositiveDefiniteError as exc:
        raise DegenerateConstraints(
            "constraint gradients are dependent; multiplier estimate failed"
        ) from exc


def update_c(c: float, pi_eq: np.ndarray, gamma: float, gamma0: float) -> float:
    """Raise the penalty parameter c when the equality multiplier estimate
    demands it.

    ``pi_eq`` holds the equality components of the multiplier estimate; with
    no equalities c is inert.  Any increase jumps by at least gamma; gamma0
    is the safety margin added to the largest |pi_eq|.
    """
    pi_eq = np.asarray(pi_eq, dtype=float)
    if pi_eq.size == 0:
        return c
    s = float(np.max(np.abs(pi_eq))) + gamma0
    if s > c:
        return max(s, c + gamma)
    return c


def kkt_residual_original(ev: Evaluation, mu: np.ndarray) -> float:
    """Max-norm stationarity/feasibility/complementarity residual of the
    original program at ev.x under multipliers mu (length m).

    The rows carrying gradient units (stationarity, dual feasibility,
    complementarity) are divided by max(1, |g0|_inf) so the residual is
    invariant under rescaling the objective; primal violations stay in
    constraint units.
    """
    mu = np.asarray(mu, dtype=float).reshape(ev.fI.size)
    m1 = ev.m_ineq
    scale = max(1.0, np.max(np.abs(ev.g0), initial=0.0))
    stationarity = np.max(np.abs(ev.g0 + ev.gI @ mu), initial=0.0)
    primal_ineq = np.max(np.maximum(ev.fI[:m1], 0.0), initial=0.0)
    primal_eq = np.max(np.abs(ev.fI[m1:]), initial=0.0)
    dual = np.max(np.maximum(-mu[:m1], 0.0), initial=0.0)
    complementarity = np.max(np.abs(mu[:m1] * ev.fI[:m1]), initial=0.0)
    return max(stationarity / scale, primal_ineq, primal_eq,
               dual / scale, complementarity / scale)
