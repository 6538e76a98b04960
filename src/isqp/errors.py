"""Exception types shared across the solver and the benchmark tools.  A
failure's class is its classification; for each class, the list names
the code that reads it:

- NumericalFailure: ``engine.solve`` ends a run ``degenerate``.  Every
  certificate that fails in the iteration raises it itself, and its
  message names the cause: the LU kernel's pivot floor, a singular
  shared matrix, a failed residual check.  One subclass is the Cholesky
  kernel's contract: NotPositiveDefiniteError, caught by name to tell
  "this matrix is not positive definite" from other failures (the QP
  working-set solve, the engine's shared factor and BFGS candidate, and
  the multiplier estimate).
- EvaluationFailure and LineSearchStall: ``engine.solve`` ends a run
  ``evaluation_failure`` or ``line_search_stall``.
- SolverError itself is an input error: an unknown problem, a gradient
  that fails its check, a malformed results file or a bad CLI flag value.
  ``cli.main`` reports every SolverError that reaches it with exit 2, and
  ``cli._cmd_profile`` catches it to prefix the results file's name.

A caller that misuses an API gets ``ValueError``, not a SolverError: an
invalid ``SolverOptions``, ``NlpProblem`` or ``QpInstance``, a start of
the wrong size, a matrix or right-hand side of the wrong shape, or a bad
argument to ``bench.select_runs``, ``emit_table`` or ``profile_metric``.
``cli`` turns the one such error that a flag can cause, an invalid
``SolverOptions``, into a SolverError."""


class SolverError(Exception):
    """Base class for every run outcome and input error of this package;
    API misuse raises ValueError instead."""


class NumericalFailure(SolverError):
    """A numerical failure that ends a solve ``degenerate``."""


class NotPositiveDefiniteError(NumericalFailure):
    """Cholesky factorization hit a pivot at or below its floor."""


class EvaluationFailure(SolverError):
    """A problem callback returned a misshapen or non-finite value."""


class LineSearchStall(SolverError):
    """The step acceptance loop exhausted its trial budget."""
