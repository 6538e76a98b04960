"""Constrained nonlinear programming by sequential quadratic programming
with a penalty reformulation of equalities, an always-feasible QP
subproblem, two extra linear solves sharing one factorization per
iteration, and a damped BFGS Hessian update.  Includes a Hock-Schittkowski
benchmark corpus and a CLI for result tables and performance profiles.
"""

from . import bench, corpus, engine, errors, linalg, model, qp
from .bench import RunRecord, compute_profiles, emit_profiles, emit_table, run_benchmark
from .corpus import CorpusEntry, get_problem, list_problems, verify_gradients
from .engine import SolveReport, SolverOptions, SolveStatus, solve
from .errors import SolverError
from .model import EvalCounters, NlpProblem

__version__ = "0.1.0"

__all__ = [
    "CorpusEntry",
    "EvalCounters",
    "NlpProblem",
    "RunRecord",
    "SolveReport",
    "SolverError",
    "SolverOptions",
    "SolveStatus",
    "bench",
    "compute_profiles",
    "corpus",
    "emit_profiles",
    "emit_table",
    "engine",
    "errors",
    "get_problem",
    "linalg",
    "list_problems",
    "model",
    "qp",
    "run_benchmark",
    "solve",
    "verify_gradients",
]
