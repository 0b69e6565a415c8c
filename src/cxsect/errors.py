"""Exception types and the exit-code contract shared across the package.

Exit codes: 0 pass, 1 violation beyond tolerance, 2 numerical-precision
failure (warnings escalated, or a ``NumericalEvaluationError``), 3 invalid
input (``InvalidInputError``, command-line usage errors included).
``exit_code`` decides the code of a run's outcomes; ``cli.main`` maps the
two exception types, and nothing else picks a code.
"""

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_PRECISION = 2
EXIT_INVALID = 3


class InvalidInputError(ValueError):
    """Malformed or out-of-contract input (bad dimension, parameter range, schema)."""


class ConvexityError(InvalidInputError):
    """A parametric body failed its convexity certification."""


class NumericalEvaluationError(RuntimeError):
    """An integrand or pipeline produced non-finite or unusable values."""


def exit_code(outcomes):
    """Exit code of a list of (passed, warnings) outcomes.

    A failure with clean numerics is a violation; a failure or a pass that
    carries numerical warnings is a precision failure, since the numerics
    cannot be trusted to decide it.
    """
    outcomes = list(outcomes)
    if any(not passed and not warnings for passed, warnings in outcomes):
        return EXIT_VIOLATION
    if any(not passed or warnings for passed, warnings in outcomes):
        return EXIT_PRECISION
    return EXIT_PASS
