"""Benchmark corpus: classic Hock-Schittkowski test problems.

Every problem is normalized to ``f_i(x) <= 0`` with inequality rows first;
simple bounds become explicit rows.  Each builder's comment records the
source formulation (objective, constraints in their published sense, and
the published start).  ``x0_feasible`` is the standard start whenever that
point is feasible; ``x0_infeasible`` is a documented perturbation chosen to
violate at least one constraint (these are not reference starts from any
published comparison, except HS065 where the book's own start is
infeasible and serves as the infeasible one).

``fv_candidates`` lists the reference objective values the solver is
expected to reproduce; entries with several candidates converge to a
different KKT point depending on the method (HS030, HS100) and any listed
value counts as a pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from . import model
from .errors import GradientMismatch, UnknownProblemError

GRADIENT_TOL = 1e-4


@dataclass(frozen=True)
class CorpusEntry:
    """One registered benchmark problem."""

    name: str
    problem: model.NlpProblem
    x0_feasible: Optional[np.ndarray]
    x0_infeasible: Optional[np.ndarray]
    fv_candidates: tuple[float, ...]

    @property
    def dims(self) -> tuple[int, int, int]:
        """(n, inequality count, equality count) of the problem."""
        return self.problem.n, self.problem.m_ineq, self.problem.m_eq

    @property
    def fv_reference(self) -> float:
        return self.fv_candidates[0]

    @property
    def starts(self) -> Mapping[str, np.ndarray]:
        """Read-only start label -> x0, holding only the starts this entry
        defines: "a" (feasible) and "b" (infeasible), in that order."""
        return MappingProxyType({
            label: x0 for label, x0 in (("a", self.x0_feasible), ("b", self.x0_infeasible))
            if x0 is not None
        })


@dataclass(frozen=True)
class GradientCheck:
    """Result of comparing analytic gradients with finite differences."""

    name: str
    n_points: int
    max_rel_error: float


def _entry(name, problem, x0_feasible, x0_infeasible, fv_candidates):
    return CorpusEntry(
        name=name,
        problem=problem,
        x0_feasible=None if x0_feasible is None else np.asarray(x0_feasible, dtype=float),
        x0_infeasible=None if x0_infeasible is None else np.asarray(x0_infeasible, dtype=float),
        fv_candidates=fv_candidates,
    )


# HS012: min x1^2/2 + x2^2 - x1 x2 - 7 x1 - 7 x2  s.t. 25 - 4 x1^2 - x2^2 >= 0,
# start (0, 0), minimum -30 at (2, 3).
def _hs012() -> CorpusEntry:
    def f0(x):
        return 0.5 * x[0] ** 2 + x[1] ** 2 - x[0] * x[1] - 7.0 * x[0] - 7.0 * x[1]

    def g0(x):
        return np.array([x[0] - x[1] - 7.0, 2.0 * x[1] - x[0] - 7.0])

    def f(x):
        return np.array([4.0 * x[0] ** 2 + x[1] ** 2 - 25.0])

    def gf(x):
        return np.array([[8.0 * x[0]], [2.0 * x[1]]])

    problem = model.NlpProblem(n=2, m_ineq=1, m_eq=0, f0=f0, f=f,
                               grad_f0=g0, grad_f=gf, name="HS012")
    return _entry("HS012", problem, [0.0, 0.0], None, (-30.0,))


# HS024: min ((x1-3)^2 - 9) x2^3 / (27 sqrt 3)  s.t. x1/sqrt3 - x2 >= 0,
# x1 + sqrt3 x2 >= 0, 6 - x1 - sqrt3 x2 >= 0, x >= 0; start (1, 0.5), min -1.
def _hs024() -> CorpusEntry:
    root3 = np.sqrt(3.0)
    scale = 27.0 * root3

    def f0(x):
        return ((x[0] - 3.0) ** 2 - 9.0) * x[1] ** 3 / scale

    def g0(x):
        return np.array([
            2.0 * (x[0] - 3.0) * x[1] ** 3 / scale,
            3.0 * ((x[0] - 3.0) ** 2 - 9.0) * x[1] ** 2 / scale,
        ])

    def f(x):
        return np.array([
            x[1] - x[0] / root3,
            -x[0] - root3 * x[1],
            x[0] + root3 * x[1] - 6.0,
            -x[0],
            -x[1],
        ])

    def gf(x):
        return np.array([
            [-1.0 / root3, -1.0, 1.0, -1.0, 0.0],
            [1.0, -root3, root3, 0.0, -1.0],
        ])

    problem = model.NlpProblem(n=2, m_ineq=5, m_eq=0, f0=f0, f=f,
                               grad_f0=g0, grad_f=gf, name="HS024")
    return _entry("HS024", problem, [1.0, 0.5], None, (-1.0,))


# HS029: min -x1 x2 x3  s.t. 48 - x1^2 - 2 x2^2 - 4 x3^2 >= 0; start (1, 1, 1),
# minimum -16 sqrt 2.
def _hs029() -> CorpusEntry:
    def f0(x):
        return -x[0] * x[1] * x[2]

    def g0(x):
        return np.array([-x[1] * x[2], -x[0] * x[2], -x[0] * x[1]])

    def f(x):
        return np.array([x[0] ** 2 + 2.0 * x[1] ** 2 + 4.0 * x[2] ** 2 - 48.0])

    def gf(x):
        return np.array([[2.0 * x[0]], [4.0 * x[1]], [8.0 * x[2]]])

    problem = model.NlpProblem(n=3, m_ineq=1, m_eq=0, f0=f0, f=f,
                               grad_f0=g0, grad_f=gf, name="HS029")
    return _entry("HS029", problem, [1.0, 1.0, 1.0], None, (-22.62741700,))


# HS030: min x1^2 + x2^2 + x3^2  s.t. x1^2 + x2^2 - 1 >= 0, 1 <= x1 <= 10,
# |x2| <= 10, |x3| <= 10; start (1, 1, 1).  Reference methods split between
# two stationary values, so both are listed.
def _hs030() -> CorpusEntry:
    def f0(x):
        return float(x @ x)

    def g0(x):
        return 2.0 * x

    def f(x):
        return np.array([
            1.0 - x[0] ** 2 - x[1] ** 2,
            1.0 - x[0],
            x[0] - 10.0,
            -x[1] - 10.0,
            x[1] - 10.0,
            -x[2] - 10.0,
            x[2] - 10.0,
        ])

    def gf(x):
        return np.array([
            [-2.0 * x[0], -1.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            [-2.0 * x[1], 0.0, 0.0, -1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 1.0],
        ])

    problem = model.NlpProblem(n=3, m_ineq=7, m_eq=0, f0=f0, f=f,
                               grad_f0=g0, grad_f=gf, name="HS030")
    return _entry("HS030", problem, [1.0, 1.0, 1.0], None,
                  (4.016837909e-18, 1.0))


# HS031: min 9 x1^2 + x2^2 + 9 x3^2  s.t. x1 x2 - 1 >= 0, |x1| <= 10,
# 1 <= x2 <= 10, -10 <= x3 <= 1; start (1, 1, 1), minimum 6.
def _hs031() -> CorpusEntry:
    def f0(x):
        return 9.0 * x[0] ** 2 + x[1] ** 2 + 9.0 * x[2] ** 2

    def g0(x):
        return np.array([18.0 * x[0], 2.0 * x[1], 18.0 * x[2]])

    def f(x):
        return np.array([
            1.0 - x[0] * x[1],
            -x[0] - 10.0,
            x[0] - 10.0,
            1.0 - x[1],
            x[1] - 10.0,
            -x[2] - 10.0,
            x[2] - 1.0,
        ])

    def gf(x):
        return np.array([
            [-x[1], -1.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            [-x[0], 0.0, 0.0, -1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 1.0],
        ])

    problem = model.NlpProblem(n=3, m_ineq=7, m_eq=0, f0=f0, f=f,
                               grad_f0=g0, grad_f=gf, name="HS031")
    return _entry("HS031", problem, [1.0, 1.0, 1.0], None, (6.0,))


# HS033: min (x1-1)(x1-2)(x1-3) + x3  s.t. x3^2 - x1^2 - x2^2 >= 0,
# x1^2 + x2^2 + x3^2 - 4 >= 0, 0 <= x1, 0 <= x2, 0 <= x3 <= 5;
# start (0, 0, 3), minimum sqrt2 - 6 at (0, sqrt2, sqrt2).
def _hs033() -> CorpusEntry:
    def f0(x):
        return (x[0] - 1.0) * (x[0] - 2.0) * (x[0] - 3.0) + x[2]

    def g0(x):
        a, b, c = x[0] - 1.0, x[0] - 2.0, x[0] - 3.0
        return np.array([b * c + a * c + a * b, 0.0, 1.0])

    def f(x):
        return np.array([
            x[0] ** 2 + x[1] ** 2 - x[2] ** 2,
            4.0 - x[0] ** 2 - x[1] ** 2 - x[2] ** 2,
            -x[0],
            -x[1],
            -x[2],
            x[2] - 5.0,
        ])

    def gf(x):
        return np.array([
            [2.0 * x[0], -2.0 * x[0], -1.0, 0.0, 0.0, 0.0],
            [2.0 * x[1], -2.0 * x[1], 0.0, -1.0, 0.0, 0.0],
            [-2.0 * x[2], -2.0 * x[2], 0.0, 0.0, -1.0, 1.0],
        ])

    problem = model.NlpProblem(n=3, m_ineq=6, m_eq=0, f0=f0, f=f,
                               grad_f0=g0, grad_f=gf, name="HS033")
    return _entry("HS033", problem, [0.0, 0.0, 3.0], None, (-4.585785958,))


def _exp_chain_constraints():
    def f(x):
        return np.array([
            np.exp(x[0]) - x[1],
            np.exp(x[1]) - x[2],
            -x[0],
            x[0] - 100.0,
            -x[1],
            x[1] - 100.0,
            -x[2],
            x[2] - 10.0,
        ])

    def gf(x):
        return np.array([
            [np.exp(x[0]), 0.0, -1.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            [-1.0, np.exp(x[1]), 0.0, 0.0, -1.0, 1.0, 0.0, 0.0],
            [0.0, -1.0, 0.0, 0.0, 0.0, 0.0, -1.0, 1.0],
        ])

    return f, gf


# HS034: min -x1  s.t. x2 >= exp(x1), x3 >= exp(x2), 0 <= x1 <= 100,
# 0 <= x2 <= 100, 0 <= x3 <= 10; start (0, 1.05, 2.9), minimum -ln(ln 10).
def _hs034() -> CorpusEntry:
    f, gf = _exp_chain_constraints()
    problem = model.NlpProblem(
        n=3, m_ineq=8, m_eq=0,
        f0=lambda x: -x[0], f=f,
        grad_f0=lambda x: np.array([-1.0, 0.0, 0.0]), grad_f=gf, name="HS034",
    )
    return _entry("HS034", problem, [0.0, 1.05, 2.9], [1.0, 1.0, 1.0],
                  (-0.83403244521568,))


# HS035 (Beale): min 9 - 8x1 - 6x2 - 4x3 + 2x1^2 + 2x2^2 + x3^2 + 2x1x2 + 2x1x3
# s.t. 3 - x1 - x2 - 2x3 >= 0, x >= 0; start (0.5, 0.5, 0.5), minimum 1/9.
def _hs035() -> CorpusEntry:
    def f0(x):
        return (9.0 - 8.0 * x[0] - 6.0 * x[1] - 4.0 * x[2]
                + 2.0 * x[0] ** 2 + 2.0 * x[1] ** 2 + x[2] ** 2
                + 2.0 * x[0] * x[1] + 2.0 * x[0] * x[2])

    def g0(x):
        return np.array([
            -8.0 + 4.0 * x[0] + 2.0 * x[1] + 2.0 * x[2],
            -6.0 + 4.0 * x[1] + 2.0 * x[0],
            -4.0 + 2.0 * x[2] + 2.0 * x[0],
        ])

    def f(x):
        return np.array([x[0] + x[1] + 2.0 * x[2] - 3.0, -x[0], -x[1], -x[2]])

    def gf(x):
        return np.array([
            [1.0, -1.0, 0.0, 0.0],
            [1.0, 0.0, -1.0, 0.0],
            [2.0, 0.0, 0.0, -1.0],
        ])

    problem = model.NlpProblem(n=3, m_ineq=4, m_eq=0, f0=f0, f=f,
                               grad_f0=g0, grad_f=gf, name="HS035")
    return _entry("HS035", problem, [0.5, 0.5, 0.5], [1.0, 1.0, 1.0],
                  (0.11111111111111,))


# HS036: min -x1 x2 x3  s.t. 72 - x1 - 2x2 - 2x3 >= 0, 0 <= x1 <= 20,
# 0 <= x2 <= 11, 0 <= x3 <= 42; start (10, 10, 10), minimum -3300.
def _hs036() -> CorpusEntry:
    def f0(x):
        return -x[0] * x[1] * x[2]

    def g0(x):
        return np.array([-x[1] * x[2], -x[0] * x[2], -x[0] * x[1]])

    def f(x):
        return np.array([
            x[0] + 2.0 * x[1] + 2.0 * x[2] - 72.0,
            -x[0],
            x[0] - 20.0,
            -x[1],
            x[1] - 11.0,
            -x[2],
            x[2] - 42.0,
        ])

    def gf(x):
        return np.array([
            [1.0, -1.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            [2.0, 0.0, 0.0, -1.0, 1.0, 0.0, 0.0],
            [2.0, 0.0, 0.0, 0.0, 0.0, -1.0, 1.0],
        ])

    problem = model.NlpProblem(n=3, m_ineq=7, m_eq=0, f0=f0, f=f,
                               grad_f0=g0, grad_f=gf, name="HS036")
    return _entry("HS036", problem, [10.0, 10.0, 10.0], [12.0, 12.0, 12.0],
                  (-3299.99999999996,))


# HS037: min -x1 x2 x3  s.t. 72 - x1 - 2x2 - 2x3 >= 0, x1 + 2x2 + 2x3 >= 0,
# 0 <= xi <= 42; start (10, 10, 10), minimum -3456 at (24, 12, 12).
def _hs037() -> CorpusEntry:
    def f0(x):
        return -x[0] * x[1] * x[2]

    def g0(x):
        return np.array([-x[1] * x[2], -x[0] * x[2], -x[0] * x[1]])

    def f(x):
        s = x[0] + 2.0 * x[1] + 2.0 * x[2]
        return np.array([
            s - 72.0,
            -s,
            -x[0],
            x[0] - 42.0,
            -x[1],
            x[1] - 42.0,
            -x[2],
            x[2] - 42.0,
        ])

    def gf(x):
        return np.array([
            [1.0, -1.0, -1.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            [2.0, -2.0, 0.0, 0.0, -1.0, 1.0, 0.0, 0.0],
            [2.0, -2.0, 0.0, 0.0, 0.0, 0.0, -1.0, 1.0],
        ])

    # The infeasible start drops x1 below its lower bound.  Starts beyond
    # the budget face (e.g. (20,20,20)) are avoided: iterates from there
    # drift onto the ray x = (2s, s, s), where the objective gradient is
    # parallel to the violated constraint normal and any feasible-direction
    # method crawls.
    problem = model.NlpProblem(n=3, m_ineq=8, m_eq=0, f0=f0, f=f,
                               grad_f0=g0, grad_f=gf, name="HS037")
    return _entry("HS037", problem, [10.0, 10.0, 10.0], [-5.0, 10.0, 10.0],
                  (-3455.999999999965,))


# HS043 (Rosen-Suzuki): min x1^2 + x2^2 + 2x3^2 + x4^2 - 5x1 - 5x2 - 21x3 + 7x4
# s.t. three quadratic inequalities; start (0, 0, 0, 0), minimum -44 at
# (0, 1, 2, -1).
def _hs043() -> CorpusEntry:
    def f0(x):
        return (x[0] ** 2 + x[1] ** 2 + 2.0 * x[2] ** 2 + x[3] ** 2
                - 5.0 * x[0] - 5.0 * x[1] - 21.0 * x[2] + 7.0 * x[3])

    def g0(x):
        return np.array([2.0 * x[0] - 5.0, 2.0 * x[1] - 5.0,
                         4.0 * x[2] - 21.0, 2.0 * x[3] + 7.0])

    def f(x):
        sq = x @ x
        return np.array([
            sq + x[0] - x[1] + x[2] - x[3] - 8.0,
            sq + x[1] ** 2 + x[3] ** 2 - x[0] - x[3] - 10.0,
            sq - x[3] ** 2 + x[0] ** 2 + 2.0 * x[0] - x[1] - x[3] - 5.0,
        ])

    def gf(x):
        return np.array([
            [2.0 * x[0] + 1.0, 2.0 * x[0] - 1.0, 4.0 * x[0] + 2.0],
            [2.0 * x[1] - 1.0, 4.0 * x[1], 2.0 * x[1] - 1.0],
            [2.0 * x[2] + 1.0, 2.0 * x[2], 2.0 * x[2]],
            [2.0 * x[3] - 1.0, 4.0 * x[3] - 1.0, -1.0],
        ])

    problem = model.NlpProblem(n=4, m_ineq=3, m_eq=0, f0=f0, f=f,
                               grad_f0=g0, grad_f=gf, name="HS043")
    return _entry("HS043", problem, [0.0, 0.0, 0.0, 0.0], [2.0, 2.0, 2.0, 2.0],
                  (-44.0,))


# HS044: min x1 - x2 - x3 - x1x3 + x1x4 + x2x3 - x2x4  s.t. six linear
# inequalities and x >= 0; start at the origin, minimum -15 at (0, 3, 0, 4).
def _hs044() -> CorpusEntry:
    def f0(x):
        return (x[0] - x[1] - x[2] - x[0] * x[2] + x[0] * x[3]
                + x[1] * x[2] - x[1] * x[3])

    def g0(x):
        return np.array([
            1.0 - x[2] + x[3],
            -1.0 + x[2] - x[3],
            -1.0 - x[0] + x[1],
            x[0] - x[1],
        ])

    def f(x):
        return np.array([
            x[0] + 2.0 * x[1] - 8.0,
            4.0 * x[0] + x[1] - 12.0,
            3.0 * x[0] + 4.0 * x[1] - 12.0,
            2.0 * x[2] + x[3] - 8.0,
            x[2] + 2.0 * x[3] - 8.0,
            x[2] + x[3] - 5.0,
            -x[0],
            -x[1],
            -x[2],
            -x[3],
        ])

    def gf(x):
        return np.array([
            [1.0, 4.0, 3.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0],
            [2.0, 1.0, 4.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 2.0, 1.0, 1.0, 0.0, 0.0, -1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0, 2.0, 1.0, 0.0, 0.0, 0.0, -1.0],
        ])

    # The infeasible start must not activate five of the ten constraints at
    # once (e.g. (0,4,0,5) does), since four-variable problems cannot have
    # five independent active gradients; (1,4,1,5) violates three
    # constraints while keeping the active set regular.
    problem = model.NlpProblem(n=4, m_ineq=10, m_eq=0, f0=f0, f=f,
                               grad_f0=g0, grad_f=gf, name="HS044")
    return _entry("HS044", problem, [0.0, 0.0, 0.0, 0.0], [1.0, 4.0, 1.0, 5.0],
                  (-14.99999999935652,))


# HS065: min (x1-x2)^2 + (x1+x2-10)^2/9 + (x3-5)^2  s.t. 48 - x1^2 - x2^2
# - x3^2 >= 0, |x1| <= 4.5, |x2| <= 4.5, |x3| <= 5.  The book's start
# (-5, 5, 0) is infeasible and serves as the infeasible point; (3, 3, 0) is
# the documented feasible one.  Minimum 0.9535288568.
def _hs065() -> CorpusEntry:
    def f0(x):
        return ((x[0] - x[1]) ** 2 + (x[0] + x[1] - 10.0) ** 2 / 9.0
                + (x[2] - 5.0) ** 2)

    def g0(x):
        common = 2.0 * (x[0] + x[1] - 10.0) / 9.0
        return np.array([
            2.0 * (x[0] - x[1]) + common,
            -2.0 * (x[0] - x[1]) + common,
            2.0 * (x[2] - 5.0),
        ])

    def f(x):
        return np.array([
            x[0] ** 2 + x[1] ** 2 + x[2] ** 2 - 48.0,
            -x[0] - 4.5,
            x[0] - 4.5,
            -x[1] - 4.5,
            x[1] - 4.5,
            -x[2] - 5.0,
            x[2] - 5.0,
        ])

    def gf(x):
        return np.array([
            [2.0 * x[0], -1.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            [2.0 * x[1], 0.0, 0.0, -1.0, 1.0, 0.0, 0.0],
            [2.0 * x[2], 0.0, 0.0, 0.0, 0.0, -1.0, 1.0],
        ])

    problem = model.NlpProblem(n=3, m_ineq=7, m_eq=0, f0=f0, f=f,
                               grad_f0=g0, grad_f=gf, name="HS065")
    return _entry("HS065", problem, [3.0, 3.0, 0.0], [-5.0, 5.0, 0.0],
                  (0.95352885680478,))


# HS066: min 0.2 x3 - 0.8 x1  s.t. x2 >= exp(x1), x3 >= exp(x2),
# 0 <= x1 <= 100, 0 <= x2 <= 100, 0 <= x3 <= 10; start (0, 1.05, 2.9),
# minimum 0.5181632741.
def _hs066() -> CorpusEntry:
    f, gf = _exp_chain_constraints()
    problem = model.NlpProblem(
        n=3, m_ineq=8, m_eq=0,
        f0=lambda x: 0.2 * x[2] - 0.8 * x[0], f=f,
        grad_f0=lambda x: np.array([-0.8, 0.0, 0.2]), grad_f=gf, name="HS066",
    )
    return _entry("HS066", problem, [0.0, 1.05, 2.9], [1.0, 1.0, 1.0],
                  (0.51816327418156,))


# HS076: min x1^2 + 0.5 x2^2 + x3^2 + 0.5 x4^2 - x1 x3 + x3 x4 - x1 - 3 x2
# + x3 - x4  s.t. x1 + 2x2 + x3 + x4 <= 5, 3x1 + x2 + 2x3 - x4 <= 4,
# x2 + 4x3 >= 1.5, x >= 0; start (0.5, 0.5, 0.5, 0.5), minimum -4.681818181.
def _hs076() -> CorpusEntry:
    def f0(x):
        return (x[0] ** 2 + 0.5 * x[1] ** 2 + x[2] ** 2 + 0.5 * x[3] ** 2
                - x[0] * x[2] + x[2] * x[3]
                - x[0] - 3.0 * x[1] + x[2] - x[3])

    def g0(x):
        return np.array([
            2.0 * x[0] - x[2] - 1.0,
            x[1] - 3.0,
            2.0 * x[2] - x[0] + x[3] + 1.0,
            x[3] + x[2] - 1.0,
        ])

    def f(x):
        return np.array([
            x[0] + 2.0 * x[1] + x[2] + x[3] - 5.0,
            3.0 * x[0] + x[1] + 2.0 * x[2] - x[3] - 4.0,
            1.5 - x[1] - 4.0 * x[2],
            -x[0],
            -x[1],
            -x[2],
            -x[3],
        ])

    def gf(x):
        return np.array([
            [1.0, 3.0, 0.0, -1.0, 0.0, 0.0, 0.0],
            [2.0, 1.0, -1.0, 0.0, -1.0, 0.0, 0.0],
            [1.0, 2.0, -4.0, 0.0, 0.0, -1.0, 0.0],
            [1.0, -1.0, 0.0, 0.0, 0.0, 0.0, -1.0],
        ])

    problem = model.NlpProblem(n=4, m_ineq=7, m_eq=0, f0=f0, f=f,
                               grad_f0=g0, grad_f=gf, name="HS076")
    return _entry("HS076", problem, [0.5, 0.5, 0.5, 0.5], None,
                  (-4.681818182,))


# HS100: min (x1-10)^2 + 5(x2-12)^2 + x3^4 + 3(x4-11)^2 + 10 x5^6 + 7 x6^2
# + x7^4 - 4 x6 x7 - 10 x6 - 8 x7  s.t. four polynomial inequalities;
# start (1, 2, 0, 4, 0, 1, 1).  Methods split between two stationary values.
def _hs100() -> CorpusEntry:
    def f0(x):
        return ((x[0] - 10.0) ** 2 + 5.0 * (x[1] - 12.0) ** 2 + x[2] ** 4
                + 3.0 * (x[3] - 11.0) ** 2 + 10.0 * x[4] ** 6 + 7.0 * x[5] ** 2
                + x[6] ** 4 - 4.0 * x[5] * x[6] - 10.0 * x[5] - 8.0 * x[6])

    def g0(x):
        return np.array([
            2.0 * (x[0] - 10.0),
            10.0 * (x[1] - 12.0),
            4.0 * x[2] ** 3,
            6.0 * (x[3] - 11.0),
            60.0 * x[4] ** 5,
            14.0 * x[5] - 4.0 * x[6] - 10.0,
            4.0 * x[6] ** 3 - 4.0 * x[5] - 8.0,
        ])

    def f(x):
        return np.array([
            2.0 * x[0] ** 2 + 3.0 * x[1] ** 4 + x[2] + 4.0 * x[3] ** 2
            + 5.0 * x[4] - 127.0,
            7.0 * x[0] + 3.0 * x[1] + 10.0 * x[2] ** 2 + x[3] - x[4] - 282.0,
            23.0 * x[0] + x[1] ** 2 + 6.0 * x[5] ** 2 - 8.0 * x[6] - 196.0,
            4.0 * x[0] ** 2 + x[1] ** 2 - 3.0 * x[0] * x[1] + 2.0 * x[2] ** 2
            + 5.0 * x[5] - 11.0 * x[6],
        ])

    def gf(x):
        return np.array([
            [4.0 * x[0], 7.0, 23.0, 8.0 * x[0] - 3.0 * x[1]],
            [12.0 * x[1] ** 3, 3.0, 2.0 * x[1], 2.0 * x[1] - 3.0 * x[0]],
            [1.0, 20.0 * x[2], 0.0, 4.0 * x[2]],
            [8.0 * x[3], 1.0, 0.0, 0.0],
            [5.0, -1.0, 0.0, 0.0],
            [0.0, 0.0, 12.0 * x[5], 5.0],
            [0.0, 0.0, -8.0, -11.0],
        ])

    problem = model.NlpProblem(n=7, m_ineq=4, m_eq=0, f0=f0, f=f,
                               grad_f0=g0, grad_f=gf, name="HS100")
    return _entry("HS100", problem, [1.0, 2.0, 0.0, 4.0, 0.0, 1.0, 1.0],
                  [2.0] * 7, (682.5663838261504, 680.6300573744018))


_BUILDERS = (
    _hs012, _hs024, _hs029, _hs030, _hs031, _hs033, _hs034, _hs035,
    _hs036, _hs037, _hs043, _hs044, _hs065, _hs066, _hs076, _hs100,
)

_REGISTRY: dict[str, CorpusEntry] = {}


def _registry() -> dict[str, CorpusEntry]:
    if not _REGISTRY:
        for build in _BUILDERS:
            entry = build()
            _REGISTRY[entry.name] = entry
    return _REGISTRY


def list_problems() -> list[str]:
    """Sorted names of every registered problem."""
    return sorted(_registry())


def get_problem(name: str) -> CorpusEntry:
    """Look up one entry; raises UnknownProblemError for unknown names."""
    try:
        return _registry()[name]
    except KeyError:
        raise UnknownProblemError(
            f"unknown problem {name!r}; known: {', '.join(list_problems())}"
        ) from None


def verify_gradients(entry: CorpusEntry, n_points: int = 10, seed: int = 0) -> GradientCheck:
    """Compare analytic gradients against central differences at random
    points near the problem's start; raises GradientMismatch above 1e-4
    relative error."""
    problem = entry.problem
    base = next(iter(entry.starts.values()))
    rng = np.random.default_rng(seed)
    counters = model.EvalCounters()
    worst = 0.0
    for _ in range(n_points):
        x = base + rng.uniform(-0.1, 0.1, size=problem.n)
        analytic0 = np.asarray(problem.grad_f0(x), dtype=float)
        fd0 = model.fd_gradient(problem, x, counters)
        err = np.max(np.abs(analytic0 - fd0) / np.maximum(1.0, np.abs(analytic0)))
        if err > GRADIENT_TOL:
            raise GradientMismatch(f"{entry.name}: objective gradient off by {err:.3e}")
        worst = max(worst, float(err))
        if problem.m:
            analytic = np.asarray(problem.grad_f(x), dtype=float)
            fd = model.fd_jacobian(problem, x, counters)
            errs = np.abs(analytic - fd) / np.maximum(1.0, np.abs(analytic))
            bad = int(np.argmax(np.max(errs, axis=0)))
            err = float(np.max(errs))
            if err > GRADIENT_TOL:
                raise GradientMismatch(
                    f"{entry.name}: gradient of constraint {bad} off by {err:.3e}"
                )
            worst = max(worst, err)
    return GradientCheck(name=entry.name, n_points=n_points, max_rel_error=worst)
