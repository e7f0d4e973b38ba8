"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: input/document problems are
exit 1, precondition violations exit 2, numerical refusals exit 3 and
failed verification checks exit 4.
"""


class KreinError(Exception):
    """Base class for all library errors."""


class DocumentError(KreinError):
    """Malformed or inconsistent input document (exit code 1)."""


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
