"""Problem model: the constrained program, its inequality-only penalty
reformulation, index-set bookkeeping, and first-order estimates.

A program ``min f0(x)  s.t.  f_i(x) <= 0 (i < m_ineq),  f_i(x) = 0 (i >=
m_ineq)`` is handled through the penalized objective ``f0(x) - c * sum of
equality components`` minimized subject to every component of ``f`` being
nonpositive.

A point is evaluated in one pipeline: :func:`point_values` evaluates the
constraints and classifies them, which is all a line-search trial is
judged on first; :func:`with_objective` adds f0; :func:`evaluate` adds the
gradients and the shifted values that drive the next step.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Callable, Optional

import numpy as np

from . import linalg
from .errors import EvaluationFailure, NotPositiveDefiniteError, NumericalFailure

# Relative step for central finite differences.
FD_STEP = 1e-6
# Roundoff floor: f_i <= PHI_TOL * max(1, max|f|) counts as satisfied.
PHI_TOL = 1e-10


@dataclass
class EvalCounters:
    """Evaluation tallies for one run.

    nf0 counts objective values, nf scalar constraint values (a full vector
    adds m), each once the callback contract accepts it.  A trial rejected on
    its constraint values costs no objective evaluation.  Gradient calls are
    not tallied; probing function values for finite differences is.
    """

    nf0: int = 0
    nf: int = 0


@dataclass(frozen=True)
class NlpProblem:
    """A smooth nonlinear program in standard form.

    Callback shapes are exact: ``f0`` returns a scalar, ``f`` the (m,)
    vector of all m = m_ineq + m_eq constraint values, inequalities first,
    ``grad_f0`` an (n,) vector and ``grad_f`` the (n, m) matrix whose columns
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
        if not all(isinstance(k, Integral) and not isinstance(k, bool)
                   for k in (self.n, self.m_ineq, self.m_eq)):
            raise ValueError("n, m_ineq and m_eq must be integers")
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
    """Function values at one point and what a search trial is judged on.

    A constraint is satisfied when f_i <= PHI_TOL * max(1, max|f|), the
    roundoff floor of :func:`point_values`, and violated otherwise.  The
    violation measure phi is max f_i when some constraint is violated and 0
    when none is; ``n_satisfied`` counts the satisfied constraints.  Both
    read the reformulated program, which holds each equality row as
    f_eq <= 0: phi = 0 leaves an equality row free to be negative, so it
    means feasible only without equality rows (:func:`kkt_residual_original`
    reads |f_eq|).  f0 is None until the objective is evaluated (see
    :func:`with_objective`).
    """

    x: np.ndarray
    f0: Optional[float]
    fI: np.ndarray
    phi: float
    satisfied: np.ndarray  # boolean mask over the constraints
    n_satisfied: int       # its count
    m_ineq: int


@dataclass(frozen=True)
class Evaluation(PointValues):
    """Complete PointValues plus objective gradient g0, constraint gradients
    gI (n-by-m, one column per constraint) and the shifted values fbar.

    fbar shifts every violated value down by phi and clips every satisfied
    one at 0, so fbar <= 0 holds componentwise and the indices where fbar
    vanishes (izero) mark the constraints that drive the next step.
    """

    g0: np.ndarray
    gI: np.ndarray
    fbar: np.ndarray
    izero: np.ndarray


def _vouch(name: str, value, shape: tuple, x: np.ndarray) -> np.ndarray:
    """``value`` from ``name`` at x as a C-ordered float array of exactly
    ``shape`` (never reshaped: an m-by-n Jacobian read as n-by-m is another
    program; one layout, since products round by it), every entry finite.
    A bool, complex, string or bytes value is refused, also as an element
    of an object array (a list mixing, say, a Fraction and a complex):
    numpy would cast it to float, a complex losing its imaginary part with
    only a warning.  Ints and real-number objects such as Fraction pass."""
    try:
        arr = np.asarray(value, order="C")
        dtypes = ([np.asarray(v).dtype for v in arr.flat] if arr.dtype.kind == "O"
                  else [arr.dtype])
        for dtype in dtypes:
            if dtype.kind in "bcSU":
                kind = {"b": "bool", "c": "complex", "S": "bytes"}.get(dtype.kind, "string")
                raise TypeError(f"{kind} dtype {dtype}")
        arr = arr.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise EvaluationFailure(f"{name} returned no float array at x={x!r}: {exc}") from exc
    if arr.shape != shape:
        raise EvaluationFailure(f"{name} returned shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        bad = tuple(int(i) for i in np.argwhere(~np.isfinite(arr))[0])
        raise EvaluationFailure(f"{name} returned {arr[bad]} at entry {bad} at x={x!r}")
    return arr


def objective_value(problem: NlpProblem, x: np.ndarray, counters: EvalCounters) -> float:
    val = float(_vouch("f0", problem.f0(x), (), x))
    counters.nf0 += 1
    return val


def constraint_values(problem: NlpProblem, x: np.ndarray, counters: EvalCounters) -> np.ndarray:
    if problem.m == 0:
        return np.zeros(0)
    vals = _vouch("f", problem.f(x), (problem.m,), x)
    counters.nf += problem.m
    return vals


def point_values(problem: NlpProblem, x, counters: EvalCounters) -> PointValues:
    """Evaluate every constraint at x and classify it; f0 is left as None,
    for a caller that may reject x on its constraint values alone.

    A positive constraint value up to the roundoff floor
    PHI_TOL * max(1, max|f|) counts as satisfied, for the solver and for
    any other caller alike.
    """
    x = np.asarray(x, dtype=float).reshape(problem.n)
    fI = constraint_values(problem, x, counters)
    top = max(0.0, fI.max(initial=0.0))
    floor = PHI_TOL * max(1.0, top, -fI.min(initial=0.0))
    satisfied = fI <= floor
    n_satisfied = int(np.count_nonzero(satisfied))
    phi = 0.0 if n_satisfied == fI.size else top
    return PointValues(x=x, f0=None, fI=fI, phi=phi, satisfied=satisfied,
                       n_satisfied=n_satisfied, m_ineq=problem.m_ineq)


def with_objective(problem: NlpProblem, values: PointValues,
                   counters: EvalCounters) -> PointValues:
    """``values`` completed with the objective value at its point."""
    # Built directly: dataclasses.replace walks the fields by introspection
    # on every call.
    return PointValues(x=values.x, f0=objective_value(problem, values.x, counters),
                       fI=values.fI, phi=values.phi, satisfied=values.satisfied,
                       n_satisfied=values.n_satisfied, m_ineq=values.m_ineq)


def _central_differences(name: str, value, n: int, x, shape: tuple) -> np.ndarray:
    """Rows j = (value(x + h e_j) - value(x - h e_j)) / 2h with
    h = FD_STEP * max(1, |x_j|), each row of the given shape; the probe at
    x + h e_j comes before the one at x - h e_j."""
    x = np.asarray(x, dtype=float).reshape(n)
    out = np.zeros((n, *shape))
    for j in range(n):
        h = FD_STEP * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        out[j] = (value(xp) - value(xm)) / (2.0 * h)  # operands run left to right
    return _vouch(name, out, (n, *shape), x)


def fd_gradient(problem: NlpProblem, x, counters: EvalCounters) -> np.ndarray:
    """Central-difference gradient of the objective.  Every probe is
    tallied."""
    return _central_differences("fd_gradient", lambda z: objective_value(problem, z, counters),
                                problem.n, x, ())


def fd_jacobian(problem: NlpProblem, x, counters: EvalCounters) -> np.ndarray:
    """Central-difference constraint Jacobian, returned as n-by-m columns."""
    return _central_differences("fd_jacobian", lambda z: constraint_values(problem, z, counters),
                                problem.n, x, (problem.m,))


def evaluate(problem: NlpProblem, values: PointValues,
             counters: EvalCounters) -> Evaluation:
    """Full evaluation at the point of ``values``, which must be complete
    (f0 added by :func:`with_objective`): the function values are paid for
    once per point, and only the gradients are evaluated here."""
    x, n, m = values.x, problem.n, problem.m
    if problem.grad_f0 is not None:
        g0 = _vouch("grad_f0", problem.grad_f0(x), (n,), x)
    else:
        g0 = fd_gradient(problem, x, counters)
    if m == 0:
        gI = np.zeros((n, 0))
    elif problem.grad_f is not None:
        gI = _vouch("grad_f", problem.grad_f(x), (n, m), x)
    else:
        gI = fd_jacobian(problem, x, counters)
    # In place rather than np.minimum, which would turn a -0.0 into 0.0.
    fbar = values.fI.copy()
    fbar[~values.satisfied] -= values.phi
    fbar[values.satisfied & (values.fI > 0.0)] = 0.0  # values within the floor
    return Evaluation(**vars(values), g0=g0, gI=gI, fbar=fbar,
                      izero=(fbar == 0.0).nonzero()[0])


def penalty_value(values: PointValues, c: float) -> float:
    """Penalized objective: f0 minus c times the sum of equality components."""
    eq = values.fI[values.m_ineq:]
    return values.f0 - c * float(eq.sum())


def penalty_gradient(ev: Evaluation, c: float) -> np.ndarray:
    """Gradient of the penalized objective."""
    eq_cols = ev.gI[:, ev.m_ineq:]
    return ev.g0 - c * eq_cols.sum(axis=1)


def compute_pi(ev: Evaluation, p: float) -> np.ndarray:
    """Least-squares multiplier estimate at the current point.

    Solves (N^T N + D) pi = -N^T g0 where N stacks all constraint gradients
    and D carries |fbar_i|^p on inequality rows and zero on equality rows.
    The system is positive definite whenever the gradients active at the
    point are independent; otherwise NumericalFailure is raised.  With
    no constraints the system is 0-by-0 and the estimate is empty.
    """
    nmat = ev.gI
    diag = np.abs(ev.fbar) ** p
    diag[ev.m_ineq:] = 0.0
    sys = nmat.T @ nmat + np.diag(diag)
    rhs = -(nmat.T @ ev.g0)
    try:
        return linalg.spd_solve(sys, rhs)
    except NotPositiveDefiniteError as exc:
        raise NumericalFailure(
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
    s = float(np.abs(pi_eq).max()) + gamma0
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
    scale = max(1.0, np.abs(ev.g0).max(initial=0.0))
    stationarity = np.abs(ev.g0 + ev.gI @ mu).max(initial=0.0)
    primal_ineq = np.maximum(ev.fI[:m1], 0.0).max(initial=0.0)
    primal_eq = np.abs(ev.fI[m1:]).max(initial=0.0)
    dual = np.maximum(-mu[:m1], 0.0).max(initial=0.0)
    complementarity = np.abs(mu[:m1] * ev.fI[:m1]).max(initial=0.0)
    return max(stationarity / scale, primal_ineq, primal_eq,
               dual / scale, complementarity / scale)
