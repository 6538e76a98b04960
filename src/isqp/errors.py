"""Exception types shared across the solver and the benchmark tools.  A
failure's class is its classification: ``engine.solve`` ends a run
``degenerate`` on any NumericalFailure, and the CLI reports any other
SolverError that reaches it as an input error."""


class SolverError(Exception):
    """Base class for every failure raised by this package."""


class NumericalFailure(SolverError):
    """A numerical failure that ends a solve ``degenerate``."""


class SingularMatrixError(NumericalFailure):
    """A pivot fell below the floor: in LU elimination, or in the Cholesky
    factor of the Schur complement of the engine's shared matrix."""


class NotPositiveDefiniteError(NumericalFailure):
    """Cholesky factorization hit a pivot at or below its floor."""


class EvaluationFailure(SolverError):
    """A problem callback returned a misshapen or non-finite value."""


class DegenerateConstraints(NumericalFailure):
    """Active constraint gradients are linearly dependent at the current point."""


class MaxQpIterationsError(NumericalFailure):
    """The active-set loop hit its iteration cap without certifying optimality."""


class NumericalBreakdown(NumericalFailure):
    """A factorization or optimality check failed beyond recoverable tolerance."""


class CertificateViolation(NumericalFailure):
    """A computed solution failed the inequality its derivation guarantees."""


class LineSearchStall(SolverError):
    """The step acceptance loop exhausted its trial budget."""


class UnknownProblemError(SolverError):
    """Requested benchmark problem is not in the registry."""


class GradientMismatch(SolverError):
    """Analytic gradients disagree with finite differences."""


class InconsistentRecordsError(SolverError):
    """Benchmark record sets do not cover identical problem/start pairs."""
