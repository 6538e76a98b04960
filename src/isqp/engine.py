"""Iteration engine.

Each iteration solves one always-feasible QP for the main direction, then
at most two linear systems that share a single factored coefficient matrix:
a second-order correction (curvature of the constraints along the QP
direction) and, only when the corrected arc is rejected, a feasibility
direction that is blended with the QP direction through a convex
combination.  Step lengths come from two searches that both insist the
count of satisfied constraints never drops, the violation measure strictly
shrinks outside the feasible set, and the penalized objective decreases
once inside it.  Each search trial is tested on its constraint values
first (the constraint bound, then the satisfied count); the objective is
evaluated, and its decrease tested, only at a trial that passes both, so a
trial rejected on its constraints costs no objective evaluation.
Curvature is maintained by a BFGS update whose difference vector is bent
just enough to keep the update positive definite.

In floating point a search can accept a step too short to change x.  With
the penalty parameter unchanged, such a step also leaves the curvature
matrix as it was, so every later iteration would repeat it bit for bit.
The run then stops at once with status ``line_search_stall``, reporting
the KKT residual reached under that iteration's QP multipliers.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from . import linalg, model
from . import qp as qpmod
from .errors import (
    CertificateViolation,
    DegenerateConstraints,
    EvaluationFailure,
    LineSearchStall,
    MaxQpIterationsError,
    NotPositiveDefiniteError,
    NumericalBreakdown,
    SingularMatrixError,
)

logger = logging.getLogger(__name__)

# Slack used by runtime certificate assertions.
CERT_SLACK = 1e-9
# Multipliers below this are treated as exact zeros.
LAMBDA_SNAP = 1e-12
# Trial budget of the feasible-direction search.
SEARCH_TRIALS = 60


class SolveStatus(str, Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    DEGENERATE = "degenerate"
    EVALUATION_FAILURE = "evaluation_failure"
    LINE_SEARCH_STALL = "line_search_stall"


@dataclass
class SolverOptions:
    """Algorithm parameters.  Defaults follow the benchmark configuration."""

    alpha: float = 0.5        # merit decrease fraction, arc search
    alpha_hat: float = 0.5    # merit decrease fraction, feasible-direction search
    eta: float = 0.5          # step shrink factor, feasible-direction search
    theta: float = 0.4        # descent retention fraction of the blended direction
    sigma: float = 0.6        # exponent taming the violation measure in right-hand sides
    rho: float = 2.0          # reward of infeasible iterates for shrinking the violation
    tau: float = 2.5          # exponent of the correction shift (between 2 and 3)
    epsilon: float = 0.125    # arc-search abandon threshold on t
    p: float = 2.0            # exponent on |fbar| in the multiplier-estimate damping
    gamma: float = 1.0        # minimum jump of the penalty parameter
    gamma0: float = 2.0       # safety margin added to the equality multiplier bound
    c_init: float = 0.5       # initial penalty parameter
    kappa: float = 0.5        # cap on the BFGS bending weight
    mu_bfgs: float = 0.5      # curvature fraction below which the update is bent
    term_tol: float = 1e-6    # stop when |d0| falls below this at a feasible point
    phi_tol: float = 1e-10    # violation counted as zero, relative to max(1, |f|)
    kkt_tol: float = 1e-7     # certified bound on the final KKT residual
    max_iter: int = 500
    keep_trace: bool = False

    def __post_init__(self) -> None:
        for name in ("alpha", "alpha_hat", "eta", "theta", "sigma", "kappa", "mu_bfgs"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {v}")
        if not self.theta < self.sigma:
            raise ValueError("theta must be smaller than sigma")
        if not self.rho > 1.0:
            raise ValueError("rho must exceed 1")
        if not 2.0 < self.tau < 3.0:
            raise ValueError("tau must lie in (2, 3)")
        for name in ("epsilon", "p", "gamma", "gamma0", "c_init", "term_tol"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class DirectionBundle:
    """Directions and multipliers computed within one iteration."""

    d0: np.ndarray
    lam: np.ndarray
    active: np.ndarray
    d2: Optional[np.ndarray] = None
    h2: Optional[np.ndarray] = None
    d1: Optional[np.ndarray] = None
    h1: Optional[np.ndarray] = None
    dhat: Optional[np.ndarray] = None
    beta: Optional[float] = None
    branch: Optional[str] = None  # "arc" or "feasible_direction"


@dataclass
class IterateState:
    """Mutable per-run state threaded through step()."""

    x: np.ndarray
    H: np.ndarray
    c: float
    counters: model.EvalCounters
    k: int = 0
    nio: int = 0
    nii: int = 0
    ev: Optional[model.Evaluation] = None


@dataclass
class IterationRecord:
    """Trace row for one iteration (or for the terminal check)."""

    k: int
    converged: bool
    norm_d0: float
    phi: float
    fc: float
    c: float
    c_changed: bool
    iminus_size: int
    t: Optional[float] = None
    beta: Optional[float] = None
    branch: Optional[str] = None
    iminus_size_next: Optional[int] = None
    slope: Optional[float] = None           # penalty-gradient dot d0
    gamma_residual: Optional[float] = None  # scaled residual of the shared-matrix solves
    descent_lhs: Optional[float] = None     # penalty-gradient dot dhat
    descent_rhs: Optional[float] = None     # theta * slope + phi**theta
    i0_margin: Optional[float] = None       # max over izero of g_i'dhat + beta*(|d0|+phi**sigma)
    h_spd: bool = True
    h_updated: Optional[bool] = None
    fixed_point: bool = False               # the accepted step left the state unchanged
    directions: Optional[DirectionBundle] = None


@dataclass
class SolveReport:
    """Outcome of one run."""

    status: SolveStatus
    x: np.ndarray
    fv: float
    kkt_residual: float
    phi_final: float
    ni: int
    nio: int
    nii: int
    nf0: int
    nf: int
    wall_seconds: float
    lam: Optional[np.ndarray] = None
    mu: Optional[np.ndarray] = None
    trace: Optional[list[IterationRecord]] = None
    message: str = ""


def compute_q_diag(ev: model.Evaluation, d0: np.ndarray) -> np.ndarray:
    """Diagonal damping for the shared coefficient matrix.

    Entries vanish exactly where fbar does, so those constraints are pinned
    while all others are relaxed in proportion to their slack.
    """
    if ev.fI.size == 0:
        return np.zeros(0)
    shift = np.abs(ev.fbar + ev.gI.T @ d0) + float(np.linalg.norm(d0))
    return np.abs(ev.fbar) * shift


def assemble_gamma(H: np.ndarray, N: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Coefficient matrix [[H, N], [N', -diag(q)]] shared by both extra solves."""
    n, m = N.shape
    out = np.zeros((n + m, n + m))
    out[:n, :n] = H
    out[:n, n:] = N
    out[n:, :n] = N.T
    if m > 0:
        out[n:, n:] = -np.diag(q)
    return out


def _split_solve(fac: linalg.LuFactorization, n: int, rhs: np.ndarray):
    z, residual = fac.solve(rhs)
    return z[:n], z[n:], residual


def solve_feasibility_sle(fac: linalg.LuFactorization, n: int, d0: np.ndarray,
                          phi: float, sigma: float):
    """Feasibility direction: every constraint row is pushed strictly
    negative by |d0| + phi**sigma.  Returns (d1, h1, scaled residual)."""
    size = fac.shape[0]
    rhs = np.zeros(size)
    rhs[n:] = -(float(np.linalg.norm(d0)) + phi ** sigma)
    return _split_solve(fac, n, rhs)


def second_order_residual(problem: model.NlpProblem, ev: model.Evaluation,
                          d0: np.ndarray, counters: model.EvalCounters) -> np.ndarray:
    """Constraint curvature along d0: f(x + d0) - f(x) - J'd0 (one full
    constraint evaluation, no objective evaluation)."""
    if problem.m == 0:
        return np.zeros(0)
    shifted = model.constraint_values(problem, ev.x + d0, counters)
    return shifted - ev.fI - ev.gI.T @ d0


def solve_correction_sle(fac: linalg.LuFactorization, n: int, d0: np.ndarray,
                         phi: float, tau: float, sigma: float,
                         second_order: np.ndarray):
    """Second-order correction with the same coefficient matrix.  Returns
    (d2, h2, scaled residual)."""
    size = fac.shape[0]
    rhs = np.zeros(size)
    rhs[n:] = -(float(np.linalg.norm(d0)) ** tau + phi ** sigma) - second_order
    return _split_solve(fac, n, rhs)


def compute_beta(a: float, b: float, theta: float, phi: float) -> float:
    """Largest weight in [0, 1] on the feasibility direction that keeps the
    blend a descent direction: (1-beta)*a + beta*b <= theta*a + phi**theta,
    where a and b are the penalty-gradient slopes along d0 and d1."""
    r = (theta - 1.0) * a + phi ** theta
    if b - a <= 0.0:
        return 1.0
    return float(min(1.0, max(0.0, r / (b - a))))


def _merit_accepts(problem: model.NlpProblem, trial: model.PointValues,
                   counters: model.EvalCounters, c: float, fc0: float, slope_term: float,
                   bonus: float, phi: float, decrement: float,
                   iminus_size: int) -> Optional[model.PointValues]:
    """The three acceptance tests of one search trial, whose objective value
    is not yet evaluated.  The constraint bound and the satisfied count are
    tested first, on the constraint values alone; f0 is evaluated only for a
    trial that passes both, and then the penalized-objective decrease is
    tested.  Returns the trial completed with f0 when all three pass, else
    None."""
    # The bound is nonnegative, so it holds for every constraint exactly
    # when it holds for the trial's violation max(0, max f_i).
    if trial.phi > max(0.0, phi - decrement):
        return None
    if trial.iminus.size < iminus_size:
        return None
    trial = model.with_objective(problem, trial, counters)
    if model.penalty_value(trial, c) > fc0 + slope_term + bonus:
        return None
    return trial


def arc_search(problem: model.NlpProblem, ev: model.Evaluation, d: np.ndarray,
               d0: np.ndarray, slope: float, c: float, fc0: float,
               options: SolverOptions, counters: model.EvalCounters):
    """Backtrack t over {1, 1/2, 1/4, ...} along the corrected direction d.

    Acceptance needs every constraint below max(0, phi - t * shift), no
    loss in the count of satisfied constraints, and decrease of the
    penalized objective (fc0 at ev) proportional to the QP slope, tested in
    that order: f0 is evaluated only at a trial that passes the two
    constraint tests.  Returns (t, trial values) or None as soon as t would
    drop below the abandon threshold.
    """
    phi = ev.phi
    shift = float(np.linalg.norm(d0)) ** options.tau + phi ** options.sigma
    bonus_scale = options.rho * (1.0 - options.alpha) * phi ** options.theta
    t = 1.0
    while True:
        trial = model.point_values(problem, ev.x + t * d, counters, objective=False)
        accepted = _merit_accepts(problem, trial, counters, c, fc0,
                                  options.alpha * t * slope, bonus_scale * t, phi,
                                  options.alpha * t * shift, ev.iminus.size)
        if accepted:
            return t, accepted
        t *= 0.5
        if t < options.epsilon:
            return None


def feasible_direction_search(problem: model.NlpProblem, ev: model.Evaluation,
                              dhat: np.ndarray, d0: np.ndarray, beta: float,
                              slope_hat: float, c: float, fc0: float,
                              options: SolverOptions, counters: model.EvalCounters):
    """Accept the first t in {1, eta, eta^2, ...} along the blended
    direction; raises LineSearchStall after the trial budget.

    The tests and their order are those of :func:`arc_search`: the
    constraint bound and the satisfied count first, and f0 only at a trial
    that passes both.
    """
    phi = ev.phi
    shift = beta * (float(np.linalg.norm(d0)) + phi ** options.sigma)
    bonus_scale = options.rho * (1.0 - options.alpha_hat) * phi ** options.theta
    t = 1.0
    for _ in range(SEARCH_TRIALS + 1):
        trial = model.point_values(problem, ev.x + t * dhat, counters, objective=False)
        accepted = _merit_accepts(problem, trial, counters, c, fc0,
                                  options.alpha_hat * t * slope_hat, bonus_scale * t, phi,
                                  options.alpha_hat * t * shift, ev.iminus.size)
        if accepted:
            return t, accepted
        t *= options.eta
    raise LineSearchStall(
        f"no acceptable step within {SEARCH_TRIALS} reductions at x={ev.x!r}"
    )


def bfgs_update(H: np.ndarray, ev: model.Evaluation, ev_next: model.Evaluation,
                lam: np.ndarray, active: np.ndarray, c: float, d0: np.ndarray,
                options: SolverOptions) -> np.ndarray:
    """BFGS update on the penalized Lagrangian, bent toward positive
    curvature when the raw pair fails it.

    The difference vector y is replaced by y + a*(g*s + A A's) with weight a
    chosen by the observed curvature s'y; g caps at kappa and shrinks with
    |d0|^2 so the bending vanishes near a solution.  The update is skipped
    (H returned unchanged) when the bent pair still fails the curvature
    test or the candidate is not positive definite.
    """
    s = ev_next.x - ev.x
    ss = float(s @ s)
    if ss == 0.0:
        return H
    grad_l_next = model.penalty_gradient(ev_next, c) + ev_next.gI @ lam
    grad_l_cur = model.penalty_gradient(ev, c) + ev.gI @ lam
    y = grad_l_next - grad_l_cur
    sy = float(s @ y)
    gamma_k = min(float(d0 @ d0), options.kappa)
    a_cols = ev.gI[:, active] if active.size else np.zeros((ev.x.size, 0))
    ats = a_cols.T @ s
    saas = float(ats @ ats)
    if sy >= options.mu_bfgs * ss:
        weight = 0.0
    elif sy >= 0.0:
        weight = 1.0
    else:
        denom = gamma_k * ss + saas
        if denom <= 0.0:
            return H
        weight = 1.0 + (gamma_k * ss - sy) / denom
    yhat = y + weight * (gamma_k * s + a_cols @ ats)
    syh = float(s @ yhat)
    if syh <= 1e-12 * np.linalg.norm(s) * np.linalg.norm(yhat):
        return H
    hs = H @ s
    shs = float(s @ hs)
    if shs <= 0.0:
        return H
    candidate = H - np.outer(hs, hs) / shs + np.outer(yhat, yhat) / syh
    candidate = 0.5 * (candidate + candidate.T)
    try:
        linalg.cholesky(candidate)
    except NotPositiveDefiniteError:
        return H
    return candidate


def _recover_multipliers(lam: np.ndarray, m_ineq: int, c: float) -> np.ndarray:
    mu = lam.copy()
    mu[m_ineq:] -= c
    return mu


def _require(holds: bool, what: str) -> None:
    """Runtime certificate of the iteration; a failure ends the run as
    degenerate (unlike assert, it also holds under python -O)."""
    if not holds:
        raise CertificateViolation(what)


def _is_fixed_point(ev: model.Evaluation, accepted: model.PointValues,
                    c_changed: bool) -> bool:
    """Whether the accepted step leaves the iteration's state unchanged.

    A step too short to change x in floating point, with c unchanged, also
    leaves H unchanged (s = 0 skips the update), so with deterministic
    callbacks the next iteration would start from the same state and repeat
    this one bit for bit.  x is compared on its bytes, so a flip from -0.0
    to 0.0 counts as a move.
    """
    return accepted.x.tobytes() == ev.x.tobytes() and not c_changed


def step(problem: model.NlpProblem, state: IterateState,
         options: SolverOptions) -> tuple[IterateState, IterationRecord]:
    """Run one full iteration starting at state.x; returns the advanced
    state and its trace record.  A record with converged=True or
    fixed_point=True leaves the iterate unchanged and carries the final
    multipliers."""
    counters = state.counters
    ev = state.ev if state.ev is not None else model.evaluate(problem, state.x, counters)
    phi = ev.phi

    # Independent audit of the curvature matrix for the trace; the QP solve
    # below factors it again and hard-fails if it is not positive definite.
    h_spd = True
    if options.keep_trace:
        try:
            linalg.cholesky(state.H)
        except NotPositiveDefiniteError:
            h_spd = False

    # Penalty update: only equality multiplier estimates can raise c.
    c = state.c
    c_changed = False
    if problem.m_eq > 0:
        pi = model.compute_pi(ev, options.p)
        ctx = model.PenaltyContext(c=c, gamma=options.gamma, gamma0=options.gamma0)
        c = model.update_c(ctx, pi[problem.m_ineq:])
        c_changed = c > state.c
        _require(c >= state.c and (not c_changed or c >= state.c + options.gamma),
                 "penalty parameter update broke its jump rule")

    # Main direction from the always-feasible QP (the factorization inside
    # doubles as the positive-definiteness certificate of H).
    grad_fc = model.penalty_gradient(ev, c)
    inst = qpmod.QpInstance(H=state.H, grad=grad_fc, A=ev.gI.T, b=-ev.fbar)
    sol = qpmod.solve_qp(inst)
    d0 = sol.d0
    norm_d0 = float(np.linalg.norm(d0))
    fc0 = model.penalty_value(ev, c)
    lam_clean = sol.lam.copy()
    lam_clean[lam_clean < LAMBDA_SNAP] = 0.0

    # Termination needs a short direction, a feasible point, AND a certified
    # KKT residual: a short direction alone can reflect an inflated H, and
    # the reported status promises the residual bound.
    phi_scale = max(1.0, np.max(np.abs(ev.fI), initial=0.0))
    if norm_d0 <= options.term_tol and phi <= options.phi_tol * phi_scale:
        mu = _recover_multipliers(lam_clean, problem.m_ineq, c)
        if model.kkt_residual_original(ev, mu) <= options.kkt_tol:
            record = IterationRecord(
                k=state.k, converged=True, norm_d0=norm_d0, phi=phi, fc=fc0, c=c,
                c_changed=c_changed, iminus_size=ev.iminus.size, h_spd=h_spd,
                directions=DirectionBundle(d0=d0, lam=lam_clean, active=sol.active),
            )
            state.c = c
            state.ev = ev
            return state, record

    slope = qpmod.objective_decrease_certificate(inst, sol)

    # Second-order correction sharing one factored matrix with the
    # feasibility direction below.
    q = compute_q_diag(ev, d0)
    gamma_mat = assemble_gamma(state.H, ev.gI, q)
    fac = linalg.lu_factor(gamma_mat)
    curvature = second_order_residual(problem, ev, d0, counters)
    d2, h2, res2 = solve_correction_sle(fac, problem.n, d0, phi,
                                        options.tau, options.sigma, curvature)
    bundle = DirectionBundle(d0=d0, lam=lam_clean, active=sol.active, d2=d2, h2=h2)
    gamma_residual = res2
    descent_lhs = descent_rhs = i0_margin = None

    hit = arc_search(problem, ev, d0 + d2, d0, slope, c, fc0, options, counters)
    if hit is not None:
        t, vals = hit
        bundle.branch = "arc"
    else:
        d1, h1, res1 = solve_feasibility_sle(fac, problem.n, d0, phi, options.sigma)
        gamma_residual = max(gamma_residual, res1)
        slope_d1 = float(grad_fc @ d1)
        beta = compute_beta(slope, slope_d1, options.theta, phi)
        dhat = (1.0 - beta) * d0 + beta * d1
        slope_hat = float(grad_fc @ dhat)
        descent_lhs = slope_hat
        descent_rhs = options.theta * slope + phi ** options.theta
        _require(descent_lhs <= descent_rhs + CERT_SLACK, "blended direction lost descent")
        if ev.izero.size:
            push = beta * (norm_d0 + phi ** options.sigma)
            i0_margin = float(np.max(ev.gI[:, ev.izero].T @ dhat + push))
            _require(i0_margin <= CERT_SLACK, "active constraints not strictly reduced")
        t, vals = feasible_direction_search(problem, ev, dhat, d0, beta,
                                            slope_hat, c, fc0, options, counters)
        bundle.d1 = d1
        bundle.h1 = h1
        bundle.dhat = dhat
        bundle.beta = beta
        bundle.branch = "feasible_direction"

    _require(vals.iminus.size >= ev.iminus.size, "accepted step lost a satisfied constraint")
    ev_next = model.evaluate(problem, vals.x, counters, values=vals)
    h_next = bfgs_update(state.H, ev, ev_next, lam_clean, sol.active, c, d0, options)
    fixed_point = _is_fixed_point(ev, vals, c_changed)

    record = IterationRecord(
        k=state.k, converged=False, norm_d0=norm_d0, phi=phi, fc=fc0, c=c,
        c_changed=c_changed, iminus_size=ev.iminus.size, t=t,
        beta=bundle.beta, branch=bundle.branch,
        iminus_size_next=vals.iminus.size, slope=slope,
        gamma_residual=gamma_residual, descent_lhs=descent_lhs,
        descent_rhs=descent_rhs, i0_margin=i0_margin, h_spd=h_spd,
        h_updated=h_next is not state.H, fixed_point=fixed_point, directions=bundle,
    )
    if fixed_point:
        state.ev = ev
        return state, record
    new_state = IterateState(
        x=vals.x, H=h_next, c=c, counters=counters, k=state.k + 1,
        nio=state.nio + (1 if phi > 0.0 else 0),
        nii=state.nii + (1 if phi == 0.0 else 0),
        ev=ev_next,
    )
    return new_state, record


_DEGENERATE_ERRORS = (
    DegenerateConstraints,
    SingularMatrixError,
    NotPositiveDefiniteError,
    MaxQpIterationsError,
    NumericalBreakdown,
    CertificateViolation,
)


def solve(problem: model.NlpProblem, x0, options: Optional[SolverOptions] = None) -> SolveReport:
    """Run the solver from any starting point, feasible or not.

    Iterates until the QP direction is below term_tol at a point with zero
    violation, a step leaves the state unchanged (a fixed point), the
    iteration budget runs out, or a numerical failure is classified into
    the report status.  Per-problem failures never raise.
    """
    options = options if options is not None else SolverOptions()
    if options.alpha >= 0.5 or options.alpha_hat >= 0.5:
        logger.warning(
            "merit decrease fraction %.3g is at or above 0.5; convergence "
            "guarantees assume a smaller value", max(options.alpha, options.alpha_hat),
        )
    x0 = np.asarray(x0, dtype=float).reshape(problem.n)
    counters = model.EvalCounters()
    state = IterateState(
        x=x0.copy(), H=np.eye(problem.n), c=options.c_init, counters=counters,
    )
    trace: Optional[list[IterationRecord]] = [] if options.keep_trace else None
    status = SolveStatus.MAX_ITERATIONS
    message = ""
    lam = mu = None
    kkt = np.inf
    started = time.perf_counter()
    try:
        while state.k < options.max_iter:
            state, record = step(problem, state, options)
            if trace is not None:
                trace.append(record)
            if record.converged or record.fixed_point:
                lam = record.directions.lam
                mu = _recover_multipliers(lam, problem.m_ineq, state.c)
                kkt = model.kkt_residual_original(state.ev, mu)
                if record.converged:
                    status = SolveStatus.CONVERGED
                else:
                    status = SolveStatus.LINE_SEARCH_STALL
                    message = (f"fixed point: step t={record.t:.3e} along |d0|="
                               f"{record.norm_d0:.3e} leaves x unchanged at phi={record.phi:.3e}")
                break
    except _DEGENERATE_ERRORS as exc:
        status = SolveStatus.DEGENERATE
        message = str(exc)
    except LineSearchStall as exc:
        status = SolveStatus.LINE_SEARCH_STALL
        message = str(exc)
    except EvaluationFailure as exc:
        status = SolveStatus.EVALUATION_FAILURE
        message = str(exc)
    wall = time.perf_counter() - started

    if state.ev is not None:
        fv = state.ev.f0
        phi_final = state.ev.phi
    else:
        fv = float("nan")
        phi_final = float("inf")
    return SolveReport(
        status=status, x=state.x, fv=fv, kkt_residual=kkt, phi_final=phi_final,
        ni=state.k, nio=state.nio, nii=state.nii,
        nf0=counters.nf0, nf=counters.nf, wall_seconds=wall,
        lam=lam, mu=mu, trace=trace, message=message,
    )
