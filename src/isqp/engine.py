"""Iteration engine.

Each iteration solves one always-feasible QP for the main direction, then
at most two linear systems that share a single coefficient matrix
Gamma = [[H, N], [N', -diag(q)]]: a second-order correction (curvature of
the constraints along the QP direction) and, only when the corrected arc is
rejected, a feasibility direction that is blended with the QP direction
through a convex combination.  The feasibility direction pushes every
row inward: an inequality row by |d0| + phi**sigma, and an equality row,
held as f_eq <= 0 under the penalty -c f_eq so that its push is charged in
the merit, by |d0|**2 + phi**sigma, of the order of the QP's own decrease.
Both right-hand sides vanish in their top block, so the systems are solved
through the QP's Y = H^-1 N and the Cholesky factor of the m-by-m Schur
complement N'Y + diag(q).  Step lengths come from two searches that both
insist the count of satisfied constraints never drops, the violation
measure strictly shrinks outside the feasible set, and the penalized
objective decreases once inside it.
The two searches run one trial loop with one merit decrease fraction,
ALPHA, and differ only in their step lengths (ARC_STEPS, FD_STEPS),
slope and shift.  Each trial is tested on its constraint values first (the
constraint bound, then the satisfied count); the objective is evaluated,
and its decrease tested, only at a trial that passes both, so a trial
rejected on its constraints costs no objective evaluation.  Once a trial
is rejected, a shorter one that the tangent at the iterate and the chord
to the rejected trial prove to break the violation bound is skipped and
costs no evaluation at all (see ``_search``).  The proof is exact on
linear rows and holds on rows convex or concave along the search.  On
other rows it can skip a trial that would pass: the search may then
accept a shorter step, and an arc search may be rejected, which hands the
iteration to the feasible-direction branch as any rejected arc does.  The
feasible-direction search never stalls on a skip: before it gives up it
evaluates the trials it skipped, longest first, and so returns the plain
loop's step.  A trial the tests reject is never accepted, since every
trial evaluated runs all three tests.
The arc search departs from the paper's plain halving of t down to
EPSILON in two ways.  The screen is one: a wrong skip on a bent row can
reject an arc that the plain loop accepts, as said above.  The other: it
always tries t = 1, but once that trial is rejected it hands the
iteration to the feasible-direction branch at once when the penalized
objective's slope along the arc exceeds the merit test's rate
ALPHA * slope + rho (1 - ALPHA) phi**theta.  The merit test then fails
for every short enough t, and the shorter trials would mostly pay an
objective evaluation to fail it (see ``arc_search``).  The
feasible-direction search has no such stop: with a negative QP slope,
its blend's certified slope, at most theta * slope + phi**theta,
never exceeds its own rate ALPHA * slope_hat + rho (1 - ALPHA) phi**theta,
since rho > 1.
Curvature is maintained by a BFGS update whose difference vector is bent
just enough to keep the update positive definite.  Each curvature matrix
is factored exactly once: ``step`` factors each new candidate from the
update, and that Cholesky factorization is its positive-definiteness test
(a candidate that fails it is skipped).  The iterate keeps H with its
inverse Cholesky factor, the identity at x0, and the next QP solves with it.

Each QP starts its active-set loop from the rows that had a positive
multiplier in the previous iteration's QP (none in the first iteration).
When the minimizer on those rows breaks another row, the QP adds the most
violated row and solves again, on its own, until every row holds; it
falls back to a cold start on its own only when the rows are dependent or
reach n first.

In floating point a search can accept a step too short to change x.  With
the penalty parameter unchanged, such a step also leaves the curvature
matrix as it was; if the QP's positive-multiplier rows are also those it
started from, every later iteration would repeat it bit for bit.  The run
then stops at once with status ``line_search_stall``, reporting the KKT
residual reached under that iteration's QP multipliers.

A run has one stopping rule: it converges at its first iterate at phi = 0
whose KKT residual of the original program (which reads |f_eq|), under that
iteration's QP multipliers, is at most ``kkt_tol``.  There is no separate
test on the length of the QP direction: the paper's test, d0 = 0, is a
proxy for the same KKT point, and the certificate is required anyway.

Gamma itself is never assembled: each shared-matrix solve checks its
residual against Gamma's blocks.  Each iteration's trace record carries its
QP multipliers and, at a feasible iterate, the KKT residual the
termination test read; a run that ends at that record's iterate (converged,
or at a feasible fixed point) reports that residual without evaluating it
again.  The report keeps every record, and counts ``nio`` from them.

The paper's fixed parameters are the module constants ALPHA ... MU_BFGS, and
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
    EvaluationFailure,
    LineSearchStall,
    NotPositiveDefiniteError,
    NumericalFailure,
)

# Slack used by runtime certificate assertions.
CERT_SLACK = 1e-9
# Trial budget of the feasible-direction search.
SEARCH_TRIALS = 60

# The paper's fixed parameters, at the values of its benchmark configuration.
# Its analysis needs ALPHA in (0, 1/2], ETA, THETA, SIGMA, KAPPA and
# MU_BFGS in (0, 1), THETA < SIGMA, 2 < TAU < 3, and the rest positive.
ALPHA = 0.5      # merit decrease fraction of both searches
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
# t >= EPSILON (or stops after t = 1, see arc_search), and the
# feasible-direction search tries 1, ETA, ..., ETA**SEARCH_TRIALS.
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
    """The three numbers a caller sets; every run keeps its trace.  Defaults
    follow the paper's benchmark configuration except ``rho``, which
    tools/calibrate_rho.py selects; ``SolverOptions(rho=2.0)`` restores the
    paper's configuration.  The paper's stopping test on |d0| has no
    setting: a run stops at its first feasible iterate whose KKT residual is
    at most ``kkt_tol``."""

    # Reward of infeasible iterates for shrinking the violation: outside the
    # feasible set a trial may raise the penalized objective by up to
    # rho (1 - ALPHA) phi**theta t.  The paper's 2 rejects most arcs there.
    rho: float = 1000.0
    kkt_tol: float = 1e-7     # a feasible iterate with KKT residual <= this converges
    max_iter: int = 500

    def __post_init__(self) -> None:
        # Every test is written so that NaN fails it, and inf fails isfinite.
        # A bool would pass as the number 0 or 1, so it is tested as NaN.
        rho, kkt_tol, max_iter = (math.nan if isinstance(v, (bool, np.bool_)) else v
                                  for v in (self.rho, self.kkt_tol, self.max_iter))
        if not (math.isfinite(rho) and rho > 1.0):
            raise ValueError(f"rho must be finite and exceed 1, got {self.rho}")
        if not (math.isfinite(kkt_tol) and kkt_tol > 0.0):
            raise ValueError(f"kkt_tol must be finite and positive, got {self.kkt_tol}")
        if not (max_iter >= 1 and max_iter % 1 == 0):  # inf % 1 is NaN
            raise ValueError(f"max_iter must be an integer of at least 1, got {self.max_iter}")
        self.max_iter = int(self.max_iter)


@dataclass
class IterateState:
    """Mutable per-run state threaded through step(); the iterate is ev.x."""

    H: np.ndarray
    low: np.ndarray                 # W = L^-1 for the lower Cholesky factor L of H
    c: float
    counters: model.EvalCounters
    k: int = 0
    ev: Optional[model.Evaluation] = None  # set by solve() before the first step
    # Rows with a positive multiplier in the last QP, where the next one starts.
    warm_rows: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))


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
    # max over izero of g_i'dhat + beta * push_i, with push_i = |d0| + phi**sigma
    # on an inequality row and |d0|**2 + phi**sigma on an equality row
    i0_margin: Optional[float] = None
    h_updated: Optional[bool] = None
    fixed_point: bool = False               # the accepted step left the state unchanged
    lam: Optional[np.ndarray] = None        # QP multipliers, exact zeros off its working set
    kkt_residual: Optional[float] = None    # what the termination test read; set when phi = 0


@dataclass
class SolveReport:
    """Outcome of one run.  ``trace`` holds every record ``step`` returned,
    and ``nio`` counts those at phi > 0 among the first ``ni``.  phi is that
    of the reformulated program (see ``model.PointValues``), so with
    equality rows a record at phi = 0 may still break an equality; a
    ``converged`` status does not, since the KKT residual reads |f_eq|."""

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
    checks, with Y = H^-1 N and ``low`` = L^-1 for the lower Cholesky
    factor L of S = N'Y + diag(q), as ``linalg.cholesky`` returns it."""

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
    singularity test; a failure raises NumericalFailure.
    """
    try:
        low = linalg.cholesky(ny + np.diag(q))
    except NotPositiveDefiniteError as exc:
        raise NumericalFailure(f"shared coefficient matrix is singular: {exc}") from exc
    return SharedFactor(H=H, N=N, q=q, y=y, low=low)


def solve_shared(fac: SharedFactor, lower):
    """Solve Gamma [d; h] = [0; lower] against the shared factor; returns
    (d, h, scaled residual of the solve against Gamma).

    The top block gives d = -Y h, and the bottom one then h = -S^-1 lower.
    The residual [H d + N h; N'd - q*h] - [0; lower] is formed block by
    block.  The correction and the feasibility direction differ only in
    ``lower``: -(|d0|**tau + phi**sigma) - curvature, and -push with push_i =
    |d0| + phi**sigma on an inequality row and |d0|**2 + phi**sigma on an
    equality row.
    """
    n = fac.y.shape[0]
    rhs = np.zeros(n + fac.q.size)
    rhs[n:] = lower
    h = -linalg.solve_cholesky(fac.low, rhs[n:])
    d = -(fac.y @ h)
    gamma_dh = np.concatenate([fac.H @ d + fac.N @ h, fac.N.T @ d - fac.q * h])
    return d, h, linalg.check_residual(gamma_dh, rhs)


def compute_beta(a: float, b: float, phi: float) -> float:
    """Largest weight in [0, 1] on the feasibility direction that keeps the
    blend a descent direction: (1-beta)*a + beta*b <= THETA*a + phi**THETA,
    where a and b are the penalty-gradient slopes along d0 and d1."""
    r = (THETA - 1.0) * a + phi ** THETA
    if b - a <= 0.0:
        return 1.0
    return float(min(1.0, max(0.0, r / (b - a))))


def _proven_to_fail(f: np.ndarray, gd: np.ndarray, t_last: float, f_last: np.ndarray,
                    t: float, bound: float) -> bool:
    """Whether the trial at step t < t_last must break the violation bound,
    read without evaluating it from the values f at the iterate, the slopes
    gd = J'd and the values f_last at the trial t_last.

    Each row's tangent at 0 and its chord to t_last are lines through f.  On
    a row that is convex or concave on [0, t_last] the one of smaller slope
    is a lower bound ell on the row at t (on a linear row both are the row).
    The trial is proven to fail when the largest ell exceeds both the bound
    and PHI_TOL * max(1, -min ell).  At t the largest row is at least the
    largest ell and the smallest row at least the smallest ell, so the
    largest row exceeds PHI_TOL times itself and PHI_TOL * max(1, -min f):
    it lies over the roundoff floor of ``model.point_values``, so it is
    violated, and phi, which is then that row, exceeds the bound.
    """
    chord = (f_last - f) / t_last
    low = f + t * np.minimum(gd, chord)
    base = model.PHI_TOL * max(1.0, -low.min(initial=0.0))
    return low.max(initial=0.0) > max(bound, base)


def _search(problem: model.NlpProblem, ev: model.Evaluation, d: np.ndarray, steps,
            shift: float, slope: float, c: float, fc0: float, rate: float,
            counters: model.EvalCounters, recheck: bool = False):
    """Try ev.x + t * d for each t in ``steps``, a decreasing sequence;
    returns (t, trial values) at the first accepted t, or None.

    A trial is accepted when every constraint lies below
    max(0, phi - ALPHA * t * shift), no satisfied constraint is lost, and
    the penalized objective is at most fc0 + ALPHA * t * slope + rate * t,
    tested in that order; ``rate`` is the infeasible-phase reward
    rho (1 - ALPHA) phi**theta, formed once per iteration by ``step``.  The
    two constraint tests read the constraint values alone; f0 is evaluated
    only at a trial that passes both.

    Once a trial is rejected, each shorter one is first screened by
    :func:`_proven_to_fail` against the last rejected trial's constraint
    values and the slopes J'd (one product per search, formed when the
    first trial is screened), and skipped when the screen proves it breaks
    the violation bound: no callback runs and nf does not grow.  The proof
    holds on rows that are convex or concave between the iterate and the
    last trial, and exactly on linear ones.  On other rows it may skip a
    trial that would pass.  The search then accepts a shorter trial, or
    none: every trial evaluated runs all three tests, so no trial the
    tests reject is ever accepted.  With ``recheck``, a search that would
    return None evaluates the trials it skipped, longest first, and
    accepts the first that passes; every trial it evaluated failed, so
    that is the plain loop's step, and a search that fails is one the
    plain loop fails too.  Without it, as in the arc search, a wrong skip
    can reject the search.  The merit test is not screened, because a
    screen on its tangent would never fire: the arc search goes past its
    unit trial only when the merit's first-order slope passes the merit
    test (see ``arc_search``), and the feasible-direction search's blended
    slope is certified to pass it.  Nor is the satisfied count: proving
    that a trial loses a satisfied row needs upper brackets on every row
    and a second reading of the roundoff floor, and such a proof almost
    never skips a trial that the bound does not.
    """
    phi = ev.phi
    n_satisfied = ev.n_satisfied

    def accepts(t, bound):
        """Evaluate the trial at t; returns its values and whether it
        passes the three tests."""
        trial = model.point_values(problem, ev.x + t * d, counters)
        # The bound is nonnegative and a satisfied constraint counts as 0, so
        # it holds for every constraint exactly when it holds for the trial's
        # violation phi.
        if trial.phi <= bound and trial.n_satisfied >= n_satisfied:
            trial = model.with_objective(problem, trial, counters)
            return trial, model.penalty_value(trial, c) <= fc0 + ALPHA * t * slope + rate * t
        return trial, False

    last = None  # (t, constraint values) of the last trial evaluated and rejected
    gd = None    # the rows' slopes J'd, formed when the first trial is screened
    skipped = []
    for t in steps:
        bound = max(0.0, phi - ALPHA * t * shift)
        if last is not None:
            if gd is None:
                gd = ev.gI.T @ d
            if _proven_to_fail(ev.fI, gd, *last, t, bound):
                skipped.append((t, bound))
                continue
        trial, passed = accepts(t, bound)
        if passed:
            return t, trial
        last = (t, trial.fI)
    for t, bound in skipped if recheck else ():
        trial, passed = accepts(t, bound)
        if passed:
            return t, trial
    return None


def arc_search(problem: model.NlpProblem, ev: model.Evaluation, d: np.ndarray,
               shift: float, slope: float, arc_slope: float, c: float, fc0: float,
               rate: float, counters: model.EvalCounters):
    """Backtrack t over ARC_STEPS along the corrected direction d, under the
    tests of :func:`_search` with the correction's shift
    |d0|**tau + phi**sigma and the QP slope.  Returns (t, trial values), or
    None once t would drop below the abandon threshold or the search stops
    after its unit trial; a trial that the screen of :func:`_search` skips
    wrongly, on a row that bends before the last trial, can also leave it
    None.

    Unlike the paper's plain halving, the search stops after a rejected
    unit trial when ``arc_slope``, the penalized objective's slope along d
    (one dot product that ``step`` forms), exceeds the merit test's rate
    r = ALPHA * slope + rate.  The test reads merit(t) <= fc0 + r t, and to
    first order merit(t) = fc0 + arc_slope t, so it fails for every short
    enough t; the halved trials would mostly pay an objective evaluation to
    fail it.  The paper's global convergence rests on the
    feasible-direction branch, which takes over whenever the arc is
    rejected, and its local claim on the unit arc being eventually
    accepted, and t = 1 is always tried; so both hold.  An arc whose merit
    curves down enough to pass at some t < 1 is no longer found.
    """
    steps = ARC_STEPS[:1] if arc_slope > ALPHA * slope + rate else ARC_STEPS
    return _search(problem, ev, d, steps, shift, slope, c, fc0, rate, counters)


def feasible_direction_search(problem: model.NlpProblem, ev: model.Evaluation,
                              dhat: np.ndarray, shift: float, slope_hat: float,
                              c: float, fc0: float, rate: float,
                              counters: model.EvalCounters):
    """Accept the first t in FD_STEPS along the blended direction, under the
    tests of :func:`_search` with the blend's slope and the shift
    beta * (|d0| + phi**sigma), beta times the inequality rows' push (an
    equality row's own push shapes only the direction); raises
    LineSearchStall after the trial budget.  Trials the screen skipped are
    evaluated before it raises, so it raises only where every trial fails.
    """
    hit = _search(problem, ev, dhat, FD_STEPS, shift, slope_hat, c, fc0, rate, counters,
                  recheck=True)
    if hit is None:
        raise LineSearchStall(
            f"no acceptable step within {SEARCH_TRIALS} reductions at x={ev.x!r}"
        )
    return hit


def bfgs_update(H: np.ndarray, ev: model.Evaluation, ev_next: model.Evaluation,
                lam: np.ndarray, active: np.ndarray, c: float,
                grad_fc: np.ndarray, dd0: float) -> np.ndarray:
    """BFGS update on the penalized Lagrangian, bent toward positive
    curvature when the raw pair fails it, given the penalty gradient
    ``grad_fc`` at ev under c and dd0 = |d0|^2, both as ``step`` formed them.

    The difference vector y is replaced by y + a*(g*s + A A's) with weight a
    chosen by the observed curvature s'y; g caps at KAPPA and shrinks with
    |d0|^2 so the bending vanishes near a solution.  The update is skipped,
    and H itself returned, when the bent pair still fails the curvature
    test.  A returned candidate is not yet known to be positive definite:
    step() factors it once, and that factorization is the test.  It is
    exactly symmetric whenever H is: each entry of the two outer products
    is a product of two floats, which commutes in IEEE arithmetic, so no
    symmetrization is needed (H starts at I).
    """
    s = ev_next.x - ev.x
    ss = float(s @ s)
    if ss == 0.0:
        return H
    grad_l_next = model.penalty_gradient(ev_next, c) + ev_next.gI @ lam
    y = grad_l_next - (grad_fc + ev.gI @ lam)
    sy = float(s @ y)
    gamma_k = min(dd0, KAPPA)
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
    if syh <= 1e-12 * math.sqrt(ss) * math.sqrt(float(yhat @ yhat)):  # |s| |yhat|
        return H
    hs = H @ s
    shs = float(s @ hs)
    if shs <= 0.0:
        return H
    return H - hs[:, None] * hs / shs + yhat[:, None] * yhat / syh  # outer products


def _recover_multipliers(lam: np.ndarray, m_ineq: int, c: float) -> np.ndarray:
    mu = lam.copy()
    mu[m_ineq:] -= c
    return mu


def _require(holds: bool, what: str) -> None:
    """Runtime certificate of the iteration; a failure ends the run as
    degenerate (unlike assert, it also holds under python -O)."""
    if not holds:
        raise NumericalFailure(what)


def _is_fixed_point(ev: model.Evaluation, accepted: model.PointValues,
                    c_changed: bool) -> bool:
    """Whether the accepted step leaves the iteration's state unchanged.

    A step too short to change x in floating point, with c unchanged, also
    leaves H unchanged (s = 0 skips the update); ``step`` also requires the
    rows the next QP starts from to be those this one started from.  With
    deterministic callbacks the next iteration would then start from the
    same state and repeat this one bit for bit.  x is compared on its
    bytes, so a flip from -0.0 to 0.0 counts as a move.
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
    if problem.m_eq > 0:
        pi = model.compute_pi(ev, P)
        c = model.update_c(c, pi[problem.m_ineq:], GAMMA, GAMMA0)
    c_changed = c > state.c

    # Main direction from the always-feasible QP, solved against the factor
    # of H that certified it positive definite.
    grad_fc = model.penalty_gradient(ev, c)
    inst = qpmod.QpInstance(H=state.H, grad=grad_fc, A=ev.gI.T, b=-ev.fbar)
    sol = qpmod.solve_qp(inst, state.low, state.warm_rows)
    d0 = sol.d0
    dd0 = float(d0 @ d0)
    norm_d0 = math.sqrt(dd0)
    fc0 = model.penalty_value(ev, c)

    # The one stopping rule: a feasible point (every constraint satisfied,
    # so phi is 0) whose KKT residual under this QP's multipliers is at most
    # kkt_tol, whatever |d0| is.
    kkt_residual = None
    if phi == 0.0:
        mu = _recover_multipliers(sol.lam, problem.m_ineq, c)
        kkt_residual = model.kkt_residual_original(ev, mu)
        if kkt_residual <= options.kkt_tol:
            record = IterationRecord(
                k=state.k, converged=True, norm_d0=norm_d0, phi=phi, fc=fc0, c=c,
                c_changed=c_changed, iminus_size=ev.n_satisfied, lam=sol.lam,
                kkt_residual=kkt_residual,
            )
            return state, record

    slope = qpmod.objective_decrease_certificate(inst, sol)

    # Second-order correction sharing one factored matrix with the
    # feasibility direction below.
    gd0 = ev.gI.T @ d0
    fac = factor_shared(state.H, ev.gI, compute_q_diag(ev, gd0, norm_d0), sol.y, sol.ay)
    curvature = second_order_residual(problem, ev, d0, gd0, counters)
    try:
        arc_shift = norm_d0 ** TAU + phi ** SIGMA
    except OverflowError:  # a float power raises once |d0| exceeds about 1e123
        raise NumericalFailure(f"correction shift overflows at |d0| {norm_d0:.3e}") from None
    d2, _, gamma_residual = solve_shared(fac, -arc_shift - curvature)
    beta = descent_lhs = descent_rhs = i0_margin = None

    d_arc = d0 + d2
    rate = options.rho * (1.0 - ALPHA) * phi ** THETA  # both searches' reward per unit t
    hit = arc_search(problem, ev, d_arc, arc_shift, slope, float(grad_fc @ d_arc), c, fc0,
                     rate, counters)
    if hit is not None:
        t, vals = hit
        branch = "arc"
    else:
        # Inequality rows are pushed by |d0| + phi**sigma and equality rows
        # by |d0|**2 + phi**sigma (see the module docstring); both pushes are
        # positive whenever d0 != 0 or phi > 0.
        ineq_push = norm_d0 + phi ** SIGMA
        push = np.full(ev.fI.size, ineq_push)
        push[problem.m_ineq:] = dd0 + phi ** SIGMA
        d1, _, res1 = solve_shared(fac, -push)
        gamma_residual = max(gamma_residual, res1)
        slope_d1 = float(grad_fc @ d1)
        beta = compute_beta(slope, slope_d1, phi)
        dhat = (1.0 - beta) * d0 + beta * d1
        slope_hat = float(grad_fc @ dhat)
        descent_lhs = slope_hat
        descent_rhs = THETA * slope + phi ** THETA
        # Where beta binds, the two sides are equal in exact arithmetic, so
        # their rounding error, and the slack, scale with their size.  At
        # phi = 0 a QP slope above zero (the QP certifies its minimizer only
        # to its complementarity tolerance) forces beta = 0 whenever d1's
        # slope is larger, and the test then reads slope <= THETA * slope.
        _require(descent_lhs <= descent_rhs + CERT_SLACK * max(1.0, abs(descent_rhs)),
                 f"blended direction lost descent: slope {slope:.3e}, slope_d1 "
                 f"{slope_d1:.3e}, beta {beta:.3e}, |d0| {norm_d0:.3e}, phi {phi:.3e}")
        shift = beta * ineq_push
        if ev.izero.size:
            i0_margin = float((ev.gI[:, ev.izero].T @ dhat + beta * push[ev.izero]).max())
            _require(i0_margin <= CERT_SLACK, "active constraints not strictly reduced")
        t, vals = feasible_direction_search(problem, ev, dhat, shift, slope_hat, c, fc0,
                                            rate, counters)
        branch = "feasible_direction"

    ev_next = model.evaluate(problem, vals, counters)
    h_next = bfgs_update(state.H, ev, ev_next, sol.lam, sol.active, c, grad_fc, dd0)
    low_next = state.low
    if h_next is not state.H:
        try:  # the one factorization of h_next, and its positive-definiteness test
            low_next = linalg.cholesky(h_next)
        except NotPositiveDefiniteError:
            h_next = state.H
    warm_rows = (sol.lam > 0).nonzero()[0]
    fixed_point = (_is_fixed_point(ev, vals, c_changed)
                   and np.array_equal(warm_rows, state.warm_rows))

    record = IterationRecord(
        k=state.k, converged=False, norm_d0=norm_d0, phi=phi, fc=fc0, c=c,
        c_changed=c_changed, iminus_size=ev.n_satisfied, t=t, beta=beta, branch=branch,
        iminus_size_next=vals.n_satisfied, slope=slope,
        gamma_residual=gamma_residual, descent_lhs=descent_lhs,
        descent_rhs=descent_rhs, i0_margin=i0_margin,
        h_updated=h_next is not state.H, fixed_point=fixed_point, lam=sol.lam,
        kkt_residual=kkt_residual,
    )
    if fixed_point:
        return state, record
    new_state = IterateState(
        H=h_next, low=low_next, c=c, counters=counters, k=state.k + 1, ev=ev_next,
        warm_rows=warm_rows,
    )
    return new_state, record


def solve(problem: model.NlpProblem, x0, options: Optional[SolverOptions] = None) -> SolveReport:
    """Run the solver from any starting point, feasible or not.

    Iterates until a point where every constraint is satisfied has a KKT
    residual of at most kkt_tol (checked at every such iterate, whatever
    the length of the QP direction), a step leaves the state unchanged (a
    fixed point), the iteration budget runs out, or a failure ends the run:
    any NumericalFailure as ``degenerate``, a LineSearchStall as
    ``line_search_stall``, an EvaluationFailure as ``evaluation_failure``,
    with the exception's text as ``message``.  Per-problem failures never
    raise; a start whose size is not ``problem.n`` raises ValueError
    before any callback runs.
    ``fv`` and ``phi_final`` are those of the last iterate reached, x0
    itself for a run that stops in its first iteration; they are nan and
    inf only when the evaluation at x0 fails.  Once an iteration has
    completed, whatever the exit, ``kkt_residual`` is that of the last
    iterate under the last completed iteration's QP multipliers ``lam``
    (``mu`` for the original program); a run that stops in its first
    iteration reports inf and no multipliers.
    """
    options = options if options is not None else SolverOptions()
    x0 = np.array(x0, dtype=float)  # copied: report.x never aliases it
    if x0.size != problem.n:
        raise ValueError(f"x0 has {x0.size} components; the problem has n = {problem.n}")
    x0 = x0.reshape(problem.n)
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
    except NumericalFailure as exc:
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
