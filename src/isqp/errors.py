"""Exception types shared across the solver and the benchmark tools.  A
failure's class is its classification; for each class, the list names
the code that reads it:

- NumericalFailure: ``engine.solve`` ends a run ``degenerate``.  Every
  certificate that fails in the iteration raises it itself, and its
  message names the cause.  Two subclasses are the kernels' contracts.
  NotPositiveDefiniteError is the Cholesky kernel's SPD contract, caught
  by name to tell "this matrix is not positive definite" from other
  failures (the QP working-set solve, the engine's shared factor and BFGS
  candidate, and the multiplier estimate).  SingularMatrixError is the LU
  kernel's pivot-floor contract, which the engine's shared factor also
  raises for a singular Gamma.
- EvaluationFailure and LineSearchStall: ``engine.solve`` ends a run
  ``evaluation_failure`` or ``line_search_stall``.
- SolverError itself is an input error: an unknown problem, a gradient
  that fails its check, a malformed results file or a bad CLI flag value.
  ``cli.main`` reports every SolverError that reaches it with exit 2, and
  ``cli._cmd_profile`` catches it to prefix the results file's name."""


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

