"""Exception types shared across the solver and the benchmark tools.  A
failure's class is its classification: ``engine.solve`` ends a run
``degenerate`` on any NumericalFailure, and the CLI reports any other
SolverError that reaches it as an input error.

Every certificate that fails in the iteration raises NumericalFailure
itself, and its message names the cause.  Two subclasses stay, each for a
reason in the code: NotPositiveDefiniteError is the Cholesky kernel's SPD
contract, which callers catch by name to tell "this matrix is not positive
definite" from other failures (the QP working-set solve, the engine's
shared factor and BFGS candidate, and the multiplier estimate);
SingularMatrixError is the LU kernel's pivot-floor contract, which the
engine's shared factor also raises for a singular Gamma."""


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


class LineSearchStall(SolverError):
    """The step acceptance loop exhausted its trial budget."""


class UnknownProblemError(SolverError):
    """Requested benchmark problem is not in the registry."""


class GradientMismatch(SolverError):
    """Analytic gradients disagree with finite differences."""


class InconsistentRecordsError(SolverError):
    """Benchmark record sets do not cover identical problem/start pairs."""
