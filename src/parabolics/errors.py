"""Domain errors raised by the library.

The CLI reports the class name of the error on stderr, so names here are part
of the machine-readable surface and stay stable.
"""


class ParabolicsError(Exception):
    """Base class for all domain errors in this package."""


class InvalidRootSystem(ParabolicsError, ValueError):
    """Series/rank combination outside the finite irreducible tables."""


class NotARoot(ParabolicsError, ValueError):
    """A coefficient vector that is not a root of the ambient system."""


class DegenerateRootPair(ParabolicsError, ValueError):
    """Structure constants are undefined for gamma = +/- delta."""


class UnsupportedType(ParabolicsError, ValueError):
    """Operation not implemented for this root-system type."""


class InvalidPartition(ParabolicsError, ValueError):
    """Left/right split of the non-Levi simple roots is empty on one side."""


class InvalidScheme(ParabolicsError, ValueError):
    """Numerical data that does not describe a well-formed scheme."""


class MismatchedSchemes(ParabolicsError, ValueError):
    """Binary operation on schemes over different systems or primes."""


class EdgeHypothesisNotSatisfied(ParabolicsError, ValueError):
    """Very special isogeny requested without an edge of multiplicity p."""


class KernelNotContained(ParabolicsError, ValueError):
    """Push-forward requested but the height-one kernel is not contained."""


class ExoticBlocksPresent(ParabolicsError):
    """Operation restricted to quasi-standard schemes met an exotic block."""


class NoSmoothContraction(ParabolicsError):
    """Every remaining contraction has a non-reduced stabiliser."""


class SearchSpaceTooLarge(ParabolicsError):
    """Brute-force enumeration would exceed the candidate guard."""
