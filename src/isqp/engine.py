"""Iteration engine.

Each iteration solves one always-feasible QP for the main direction, then
at most two linear systems that share a single coefficient matrix
Gamma = [[H, N], [N', -diag(q)]]: a second-order correction (curvature of
the constraints along the QP direction) and, only when the corrected arc is
rejected, a feasibility direction that is blended with the QP direction
through a convex combination.  Both right-hand sides vanish in their top
block, so the systems are solved through the QP's Y = H^-1 N and the
Cholesky factor of the m-by-m Schur complement N'Y + diag(q).  Step
lengths come from two searches that both insist the count of satisfied
constraints never drops, the violation measure strictly shrinks outside
the feasible set, and the penalized objective decreases once inside it.
The two searches run one trial loop with one merit decrease fraction,
``alpha``, and differ only in their step lengths (ARC_STEPS, FD_STEPS),
slope and shift.  Each trial is tested on its constraint values first (the
constraint bound, then the satisfied count); the objective is evaluated,
and its decrease tested, only at a trial that passes both, so a trial
rejected on its constraints costs no objective evaluation.
Curvature is maintained by a BFGS update whose difference vector is bent
just enough to keep the update positive definite.  Each curvature matrix
is factored exactly once: ``step`` factors each new candidate from the
update, and that Cholesky factorization is its positive-definiteness test
(a candidate that fails it is skipped).  The iterate keeps H together with
its factor, the identity at x0, and the next QP solves against that factor.

In floating point a search can accept a step too short to change x.  With
the penalty parameter unchanged, such a step also leaves the curvature
matrix as it was, so every later iteration would repeat it bit for bit.
The run then stops at once with status ``line_search_stall``, reporting
the KKT residual reached under that iteration's QP multipliers.

A run has one stopping rule: it converges at its first feasible iterate
(phi = 0) whose KKT residual of the original program, under that
iteration's QP multipliers, is at most ``kkt_tol``.  There is no separate
test on the length of the QP direction: the paper's test, d0 = 0, is a
proxy for the same KKT point, and the certificate is required anyway.

Gamma itself is never assembled: each shared-matrix solve checks its
residual against Gamma's blocks.  Each iteration's trace record carries its
QP multipliers and, at a feasible iterate, the KKT residual the
termination test read; a run that ends at that record's iterate (converged,
or at a feasible fixed point) reports that residual without evaluating it
again.  The report keeps every record, and counts ``nio`` from them.

The paper's fixed parameters are the module constants ETA ... MU_BFGS, and
the roundoff floor that classifies constraints is ``model.PHI_TOL``;
``SolverOptions`` holds only what a caller sets.
"""

from __future__ import annotations

import math
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

# Slack used by runtime certificate assertions.
CERT_SLACK = 1e-9
# Multipliers below this are treated as exact zeros.
LAMBDA_SNAP = 1e-12
# Trial budget of the feasible-direction search.
SEARCH_TRIALS = 60

# The paper's fixed parameters, at the values of its benchmark configuration.
# Its analysis needs ETA, THETA, SIGMA, KAPPA and MU_BFGS in (0, 1),
# THETA < SIGMA, 2 < TAU < 3, and the rest positive.
ETA = 0.5        # step shrink factor, feasible-direction search
THETA = 0.4      # descent retention fraction of the blended direction
SIGMA = 0.6      # exponent taming the violation measure in right-hand sides
TAU = 2.5        # exponent of the correction shift
EPSILON = 0.125  # arc-search abandon threshold on t
P = 2.0          # exponent on |fbar| in the multiplier-estimate damping
GAMMA = 1.0      # minimum jump of the penalty parameter
GAMMA0 = 2.0     # safety margin added to the equality multiplier bound
C_INIT = 0.5     # initial penalty parameter
KAPPA = 0.5      # cap on the BFGS bending weight
MU_BFGS = 0.5    # curvature fraction below which the update is bent

# Step lengths of the two searches: the arc search halves t from 1 while
# t >= EPSILON, and the feasible-direction search tries 1, ETA, ..., ETA**SEARCH_TRIALS.
ARC_STEPS = tuple(0.5 ** k for k in range(1 + math.floor(math.log2(1.0 / EPSILON))))
FD_STEPS = tuple(ETA ** k for k in range(SEARCH_TRIALS + 1))


class SolveStatus(str, Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    DEGENERATE = "degenerate"
    EVALUATION_FAILURE = "evaluation_failure"
    LINE_SEARCH_STALL = "line_search_stall"


@dataclass
class SolverOptions:
    """The four numbers a caller sets; every run keeps its trace.  Defaults
    follow the paper's benchmark configuration except ``rho``, which
    tools/calibrate_rho.py selects; ``SolverOptions(rho=2.0)`` restores the
    paper's configuration.  The paper's stopping test on |d0| has no
    setting: a run stops at its first feasible iterate whose KKT residual is
    at most ``kkt_tol``."""

    # Merit decrease fraction of both searches, in the paper's range (0, 1/2].
    alpha: float = 0.5
    # Reward of infeasible iterates for shrinking the violation: outside the
    # feasible set a trial may raise the penalized objective by up to
    # rho (1 - alpha) phi**theta t.  The paper's 2 rejects most arcs there.
    rho: float = 1000.0
    kkt_tol: float = 1e-7     # a feasible iterate with KKT residual <= this converges
    max_iter: int = 500

    def __post_init__(self) -> None:
        # Every test is written so that NaN fails it, and inf fails isfinite.
        if not 0.0 < self.alpha <= 0.5:
            raise ValueError(f"alpha must lie in (0, 0.5], got {self.alpha}")
        if not (math.isfinite(self.rho) and self.rho > 1.0):
            raise ValueError(f"rho must be finite and exceed 1, got {self.rho}")
        if not (math.isfinite(self.kkt_tol) and self.kkt_tol > 0.0):
            raise ValueError(f"kkt_tol must be finite and positive, got {self.kkt_tol}")
        if not (self.max_iter >= 1 and self.max_iter % 1 == 0):  # inf % 1 is NaN
            raise ValueError(f"max_iter must be an integer of at least 1, got {self.max_iter}")
        self.max_iter = int(self.max_iter)


@dataclass
class IterateState:
    """Mutable per-run state threaded through step(); the iterate is ev.x."""

    H: np.ndarray
    low: np.ndarray                 # lower Cholesky factor of H
    c: float
    counters: model.EvalCounters
    k: int = 0
    ev: Optional[model.Evaluation] = None  # set by solve() before the first step


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
    iminus_size: int                        # count of satisfied constraints at the iterate
    t: Optional[float] = None
    beta: Optional[float] = None
    branch: Optional[str] = None
    iminus_size_next: Optional[int] = None  # the same count at the accepted trial
    slope: Optional[float] = None           # penalty-gradient dot d0
    gamma_residual: Optional[float] = None  # scaled residual of the shared-matrix solves
    descent_lhs: Optional[float] = None     # penalty-gradient dot dhat
    descent_rhs: Optional[float] = None     # theta * slope + phi**theta
    i0_margin: Optional[float] = None       # max over izero of g_i'dhat + beta*(|d0|+phi**sigma)
    h_updated: Optional[bool] = None
    fixed_point: bool = False               # the accepted step left the state unchanged
    lam: Optional[np.ndarray] = None        # QP multipliers, entries below LAMBDA_SNAP zeroed
    kkt_residual: Optional[float] = None    # what the termination test read; set when phi = 0


@dataclass
class SolveReport:
    """Outcome of one run.  ``trace`` holds every record ``step`` returned,
    and ``nio`` counts those at phi > 0 among the first ``ni``."""

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
    cpu_seconds: float        # CPU time of this process during the run
    lam: Optional[np.ndarray] = None
    mu: Optional[np.ndarray] = None
    trace: list[IterationRecord] = field(default_factory=list)
    message: str = ""


def compute_q_diag(ev: model.Evaluation, gd0: np.ndarray, norm_d0: float) -> np.ndarray:
    """Diagonal damping for the shared coefficient matrix, given the
    constraint slopes gd0 = J'd0 and |d0|.

    Entries vanish exactly where fbar does, so those constraints are pinned
    while all others are relaxed in proportion to their slack.
    """
    return np.abs(ev.fbar) * (np.abs(ev.fbar + gd0) + norm_d0)


def second_order_residual(problem: model.NlpProblem, ev: model.Evaluation,
                          d0: np.ndarray, gd0: np.ndarray,
                          counters: model.EvalCounters) -> np.ndarray:
    """Constraint curvature along d0: f(x + d0) - f(x) - J'd0, given
    gd0 = J'd0 (one full constraint evaluation, no objective evaluation)."""
    shifted = model.constraint_values(problem, ev.x + d0, counters)
    return shifted - ev.fI - gd0


@dataclass(frozen=True)
class SharedFactor:
    """The blocks of Gamma = [[H, N], [N', -diag(q)]], kept for the residual
    checks, with Y = H^-1 N and the lower Cholesky factor of
    S = N'Y + diag(q)."""

    H: np.ndarray
    N: np.ndarray
    q: np.ndarray
    y: np.ndarray
    low: np.ndarray


def factor_shared(H: np.ndarray, N: np.ndarray, q: np.ndarray, y: np.ndarray,
                  ny: np.ndarray) -> SharedFactor:
    """Factor Gamma through Y = H^-1 N and the symmetric ny = N'Y, both as
    the QP formed them (its Y and A Y, since the QP's A is N').

    With H positive definite, S = N'Y + diag(q) is positive definite exactly
    when Gamma is nonsingular, so the Cholesky pivot floor on S is the
    singularity test; a failure raises SingularMatrixError.
    """
    try:
        low = linalg.cholesky(ny + np.diag(q))
    except NotPositiveDefiniteError as exc:
        raise SingularMatrixError(f"shared coefficient matrix is singular: {exc}") from exc
    return SharedFactor(H=H, N=N, q=q, y=y, low=low)


def solve_shared(fac: SharedFactor, lower):
    """Solve Gamma [d; h] = [0; lower] against the shared factor; returns
    (d, h, scaled residual of the solve against Gamma).

    The top block gives d = -Y h, and the bottom one then h = -S^-1 lower.
    The residual [H d + N h; N'd - q*h] - [0; lower] is formed block by
    block.  The correction and the feasibility direction differ only in
    ``lower``: -(|d0|**tau + phi**sigma) - curvature and -(|d0| + phi**sigma).
    """
    n = fac.y.shape[0]
    rhs = np.zeros(n + fac.q.size)
    rhs[n:] = lower
    h = -linalg.solve_cholesky(fac.low, rhs[n:])
    d = -(fac.y @ h)
    gamma_dh = np.concatenate([fac.H @ d + fac.N @ h, fac.N.T @ d - fac.q * h])
    return d, h, linalg.check_residual(gamma_dh, rhs)


def compute_beta(a: float, b: float, theta: float, phi: float) -> float:
    """Largest weight in [0, 1] on the feasibility direction that keeps the
    blend a descent direction: (1-beta)*a + beta*b <= theta*a + phi**theta,
    where a and b are the penalty-gradient slopes along d0 and d1."""
    r = (theta - 1.0) * a + phi ** theta
    if b - a <= 0.0:
        return 1.0
    return float(min(1.0, max(0.0, r / (b - a))))


def _search(problem: model.NlpProblem, ev: model.Evaluation, d: np.ndarray, steps,
            shift: float, slope: float, c: float, fc0: float,
            options: SolverOptions, counters: model.EvalCounters):
    """Try ev.x + t * d for each t in ``steps``; returns (t, trial values)
    at the first accepted t, or None.

    A trial is accepted when every constraint lies below
    max(0, phi - alpha * t * shift), no satisfied constraint is lost, and
    the penalized objective is at most fc0 + alpha * t * slope plus the
    infeasible-phase reward rho (1 - alpha) phi**theta t, tested in that
    order.  The two constraint tests read the constraint values alone; f0
    is evaluated only at a trial that passes both.
    """
    phi = ev.phi
    n_satisfied = ev.n_satisfied
    alpha = options.alpha
    bonus_scale = options.rho * (1.0 - alpha) * phi ** THETA
    for t in steps:
        trial = model.point_values(problem, ev.x + t * d, counters)
        # The bound is nonnegative and a satisfied constraint counts as 0, so
        # it holds for every constraint exactly when it holds for the trial's
        # violation phi.
        if trial.phi > max(0.0, phi - alpha * t * shift):
            continue
        if trial.n_satisfied < n_satisfied:
            continue
        trial = model.with_objective(problem, trial, counters)
        if model.penalty_value(trial, c) > fc0 + alpha * t * slope + bonus_scale * t:
            continue
        return t, trial
    return None


def arc_search(problem: model.NlpProblem, ev: model.Evaluation, d: np.ndarray,
               shift: float, slope: float, c: float, fc0: float,
               options: SolverOptions, counters: model.EvalCounters):
    """Backtrack t over ARC_STEPS along the corrected direction d, under the
    tests of :func:`_search` with the correction's shift
    |d0|**tau + phi**sigma and the QP slope.  Returns (t, trial values), or
    None once t would drop below the abandon threshold.
    """
    return _search(problem, ev, d, ARC_STEPS, shift, slope, c, fc0, options, counters)


def feasible_direction_search(problem: model.NlpProblem, ev: model.Evaluation,
                              dhat: np.ndarray, shift: float, slope_hat: float,
                              c: float, fc0: float, options: SolverOptions,
                              counters: model.EvalCounters):
    """Accept the first t in FD_STEPS along the blended direction, under the
    tests of :func:`_search` with the blend's shift beta * (|d0| + phi**sigma)
    and slope; raises LineSearchStall after the trial budget.
    """
    hit = _search(problem, ev, dhat, FD_STEPS, shift, slope_hat, c, fc0, options, counters)
    if hit is None:
        raise LineSearchStall(
            f"no acceptable step within {SEARCH_TRIALS} reductions at x={ev.x!r}"
        )
    return hit


def bfgs_update(H: np.ndarray, ev: model.Evaluation, ev_next: model.Evaluation,
                lam: np.ndarray, active: np.ndarray, c: float,
                d0: np.ndarray) -> np.ndarray:
    """BFGS update on the penalized Lagrangian, bent toward positive
    curvature when the raw pair fails it.

    The difference vector y is replaced by y + a*(g*s + A A's) with weight a
    chosen by the observed curvature s'y; g caps at KAPPA and shrinks with
    |d0|^2 so the bending vanishes near a solution.  The update is skipped,
    and H itself returned, when the bent pair still fails the curvature
    test.  A returned candidate is not yet known to be positive definite:
    step() factors it once, and that factorization is the test.
    """
    s = ev_next.x - ev.x
    ss = float(s @ s)
    if ss == 0.0:
        return H
    grad_l_next = model.penalty_gradient(ev_next, c) + ev_next.gI @ lam
    grad_l_cur = model.penalty_gradient(ev, c) + ev.gI @ lam
    y = grad_l_next - grad_l_cur
    sy = float(s @ y)
    gamma_k = min(float(d0 @ d0), KAPPA)
    a_cols = ev.gI[:, active]
    ats = a_cols.T @ s
    saas = float(ats @ ats)
    if sy >= MU_BFGS * ss:
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
    return 0.5 * (candidate + candidate.T)


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
    """Run one full iteration starting at state.ev.x; returns the advanced
    state and its trace record.  A record with converged=True or
    fixed_point=True leaves the iterate unchanged and carries the final
    multipliers."""
    counters = state.counters
    ev = state.ev
    phi = ev.phi

    # Penalty update: only equality multiplier estimates can raise c.
    c = state.c
    c_changed = False
    if problem.m_eq > 0:
        pi = model.compute_pi(ev, P)
        c = model.update_c(c, pi[problem.m_ineq:], GAMMA, GAMMA0)
        c_changed = c > state.c
        _require(c >= state.c and (not c_changed or c >= state.c + GAMMA),
                 "penalty parameter update broke its jump rule")

    # Main direction from the always-feasible QP, solved against the factor
    # of H that certified it positive definite.
    grad_fc = model.penalty_gradient(ev, c)
    inst = qpmod.QpInstance(H=state.H, grad=grad_fc, A=ev.gI.T, b=-ev.fbar)
    sol = qpmod.solve_qp(inst, state.low)
    d0 = sol.d0
    norm_d0 = float(np.linalg.norm(d0))
    fc0 = model.penalty_value(ev, c)
    lam_clean = sol.lam.copy()
    lam_clean[lam_clean < LAMBDA_SNAP] = 0.0

    # The one stopping rule: a feasible point (every constraint satisfied,
    # so phi is 0) whose KKT residual under this QP's multipliers is at most
    # kkt_tol, whatever |d0| is.
    kkt_residual = None
    if phi == 0.0:
        mu = _recover_multipliers(lam_clean, problem.m_ineq, c)
        kkt_residual = model.kkt_residual_original(ev, mu)
        if kkt_residual <= options.kkt_tol:
            record = IterationRecord(
                k=state.k, converged=True, norm_d0=norm_d0, phi=phi, fc=fc0, c=c,
                c_changed=c_changed, iminus_size=ev.n_satisfied, lam=lam_clean,
                kkt_residual=kkt_residual,
            )
            return state, record

    slope = qpmod.objective_decrease_certificate(inst, sol)

    # Second-order correction sharing one factored matrix with the
    # feasibility direction below.
    gd0 = ev.gI.T @ d0
    fac = factor_shared(state.H, ev.gI, compute_q_diag(ev, gd0, norm_d0), sol.y, sol.ay)
    curvature = second_order_residual(problem, ev, d0, gd0, counters)
    arc_shift = norm_d0 ** TAU + phi ** SIGMA
    d2, _, gamma_residual = solve_shared(fac, -arc_shift - curvature)
    beta = descent_lhs = descent_rhs = i0_margin = None

    hit = arc_search(problem, ev, d0 + d2, arc_shift, slope, c, fc0, options, counters)
    if hit is not None:
        t, vals = hit
        branch = "arc"
    else:
        push = norm_d0 + phi ** SIGMA
        d1, _, res1 = solve_shared(fac, -push)
        gamma_residual = max(gamma_residual, res1)
        slope_d1 = float(grad_fc @ d1)
        beta = compute_beta(slope, slope_d1, THETA, phi)
        dhat = (1.0 - beta) * d0 + beta * d1
        slope_hat = float(grad_fc @ dhat)
        descent_lhs = slope_hat
        descent_rhs = THETA * slope + phi ** THETA
        _require(descent_lhs <= descent_rhs + CERT_SLACK, "blended direction lost descent")
        shift = beta * push
        if ev.izero.size:
            i0_margin = float(np.max(ev.gI[:, ev.izero].T @ dhat + shift))
            _require(i0_margin <= CERT_SLACK, "active constraints not strictly reduced")
        t, vals = feasible_direction_search(problem, ev, dhat, shift, slope_hat, c, fc0,
                                            options, counters)
        branch = "feasible_direction"

    _require(vals.n_satisfied >= ev.n_satisfied, "accepted step lost a satisfied constraint")
    ev_next = model.evaluate(problem, vals, counters)
    h_next = bfgs_update(state.H, ev, ev_next, lam_clean, sol.active, c, d0)
    low_next = state.low
    if h_next is not state.H:
        try:  # the one factorization of h_next, and its positive-definiteness test
            low_next = linalg.cholesky(h_next)
        except NotPositiveDefiniteError:
            h_next = state.H
    fixed_point = _is_fixed_point(ev, vals, c_changed)

    record = IterationRecord(
        k=state.k, converged=False, norm_d0=norm_d0, phi=phi, fc=fc0, c=c,
        c_changed=c_changed, iminus_size=ev.n_satisfied, t=t, beta=beta, branch=branch,
        iminus_size_next=vals.n_satisfied, slope=slope,
        gamma_residual=gamma_residual, descent_lhs=descent_lhs,
        descent_rhs=descent_rhs, i0_margin=i0_margin,
        h_updated=h_next is not state.H, fixed_point=fixed_point, lam=lam_clean,
        kkt_residual=kkt_residual,
    )
    if fixed_point:
        return state, record
    new_state = IterateState(
        H=h_next, low=low_next, c=c, counters=counters, k=state.k + 1, ev=ev_next,
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

    Iterates until a point where every constraint is satisfied has a KKT
    residual of at most kkt_tol (checked at every such iterate, whatever
    the length of the QP direction), a step leaves the state unchanged (a
    fixed point), the iteration budget runs out, or a numerical failure is
    classified into the report status.  Per-problem failures never raise.
    ``fv`` and ``phi_final`` are those of the last iterate reached, x0
    itself for a run that stops in its first iteration; they are nan and
    inf only when the evaluation at x0 fails.  Once an iteration has
    completed, whatever the exit, ``kkt_residual`` is that of the last
    iterate under the last completed iteration's QP multipliers ``lam``
    (``mu`` for the original program); a run that stops in its first
    iteration reports inf and no multipliers.
    """
    options = options if options is not None else SolverOptions()
    x0 = np.array(x0, dtype=float).reshape(problem.n)  # copied: report.x never aliases it
    counters = model.EvalCounters()
    state = IterateState(
        H=np.eye(problem.n), low=np.eye(problem.n), c=C_INIT, counters=counters,
    )
    trace: list[IterationRecord] = []
    record: Optional[IterationRecord] = None  # of the last completed iteration
    status: Optional[SolveStatus] = None      # set here only by a failure
    message = ""
    started = time.perf_counter()
    cpu_started = time.process_time()
    try:
        start = model.point_values(problem, x0, counters)
        state.ev = model.evaluate(problem, model.with_objective(problem, start, counters),
                                  counters)
        while state.k < options.max_iter:  # runs at least once: max_iter >= 1
            state, record = step(problem, state, options)
            trace.append(record)
            if record.converged or record.fixed_point:
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

    # Every exit after a completed iteration reports the last iterate's
    # residual under that iteration's multipliers.  A converged or
    # fixed-point record leaves the iterate unchanged, so a residual it
    # carries is already that one.
    lam = mu = None
    kkt = np.inf
    if record is not None:
        lam = record.lam
        mu = _recover_multipliers(lam, problem.m_ineq, record.c)
        last_iterate = record.converged or record.fixed_point
        kkt = (record.kkt_residual if last_iterate and record.kkt_residual is not None
               else model.kkt_residual_original(state.ev, mu))
    if status is None:
        if record.converged:
            status = SolveStatus.CONVERGED
        elif record.fixed_point:
            status = SolveStatus.LINE_SEARCH_STALL
            message = (f"fixed point: step t={record.t:.3e} along |d0|="
                       f"{record.norm_d0:.3e} leaves x unchanged at phi={record.phi:.3e}")
        else:
            status = SolveStatus.MAX_ITERATIONS
            message = (f"iteration budget of {options.max_iter} exhausted at |d0|="
                       f"{record.norm_d0:.3e}, phi={state.ev.phi:.3e}")
    wall = time.perf_counter() - started
    cpu = time.process_time() - cpu_started

    if state.ev is not None:
        x, fv, phi_final = state.ev.x, state.ev.f0, state.ev.phi
    else:
        x, fv, phi_final = x0, float("nan"), float("inf")
    # A converged or fixed-point record sits past the ni completed ones.
    nio = sum(1 for rec in trace[:state.k] if rec.phi > 0.0)  # an int, not np.int64
    return SolveReport(
        status=status, x=x, fv=fv, kkt_residual=kkt, phi_final=phi_final,
        ni=state.k, nio=nio, nii=state.k - nio,
        nf0=counters.nf0, nf=counters.nf, wall_seconds=wall, cpu_seconds=cpu,
        lam=lam, mu=mu, trace=trace, message=message,
    )
