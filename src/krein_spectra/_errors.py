"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: input/document problems and
refused arguments are exit 1, precondition violations exit 2, numerical
refusals exit 3 and failed verification checks exit 4.
"""

import math
import numbers


class KreinError(Exception):
    """Base class for all library errors."""


class DocumentError(KreinError):
    """Malformed or inconsistent input document (exit code 1)."""


class ArgumentError(KreinError, ValueError):
    """A function argument is out of range, non-finite or of the wrong type
    (exit code 1).  ``argument`` names the refused parameter."""

    def __init__(self, argument: str, problem: str):
        self.argument = argument
        self.problem = problem
        super().__init__(f"{argument}: {problem}")


def require_integer(argument: str, value, lo: int, hi: float = math.inf) -> None:
    """Refuse ``value`` unless it is an integer (not a bool) in ``[lo, hi]``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not lo <= value <= hi:
        bound = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
        raise ArgumentError(argument, f"must be an integer {bound}, got {value!r}")


class PreconditionError(KreinError):
    """An operation's mathematical precondition does not hold (exit code 2)."""


class NonNormalError(PreconditionError):
    """Operator fails the normality certificate at the configured tolerance."""

    def __init__(self, residual: float, tol: float):
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"operator is not normal in the indefinite product: "
            f"commutator residual {residual:.3e} exceeds tolerance {tol:.3e}"
        )


class SpectralOverlapError(PreconditionError):
    """Coefficient spectra overlap, so the operator equation is singular."""


class ContourThroughSpectrumError(KreinError):
    """Integration boundary passes too close to an eigenvalue (exit code 3)."""


class AmbiguousRegionError(KreinError):
    """Region primitives overlap on spectrum, making contour sums ill-posed."""


class CheckFailure(KreinError):
    """A verification check failed (exit code 4)."""
