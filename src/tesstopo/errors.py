"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "TesstopoError",
    "ParameterDomainError",
    "DegenerateIntensityError",
    "InfeasibleParametersError",
    "MixtureShareError",
    "PlanarParameterError",
    "GeneratorParameterError",
    "NonConvexCellError",
    "NotATessellationError",
    "UnknownEntryError",
    "UsageError",
]


class TesstopoError(Exception):
    """Base class for every error raised by this package. ``exit_code`` is
    the command line's exit status for it."""

    exit_code = 2


class ParameterDomainError(TesstopoError, ValueError):
    """A parameter value lies outside its basic domain (sign, share range)."""


class DegenerateIntensityError(TesstopoError, ValueError):
    """Derived object intensities are not all positive, so no tessellation
    with these parameters can exist."""


class InfeasibleParametersError(TesstopoError, ValueError):
    """An operation needed feasible parameters and was given infeasible ones."""


class MixtureShareError(TesstopoError, ValueError):
    """Mixture weights are not a finite probability vector."""


class PlanarParameterError(TesstopoError, ValueError):
    """A planar (2d) parameter set fails its own consistency requirements."""


class GeneratorParameterError(TesstopoError, ValueError):
    """A periodic-complex generator was asked for an unbuildable instance."""


class NonConvexCellError(TesstopoError, ValueError):
    """A supposed cell is not a bounded convex polyhedron."""

    exit_code = 3


class NotATessellationError(TesstopoError, RuntimeError):
    """A built complex violates a structural requirement (cells overlap,
    do not fill space, or break a combinatorial invariant)."""

    exit_code = 3


class UnknownEntryError(TesstopoError, KeyError):
    """Catalog lookup for an id that does not exist."""

    def __str__(self) -> str:
        # KeyError.__str__ would quote the message
        return Exception.__str__(self)


class UsageError(ValueError):
    """Malformed invocation input, such as an unreadable or non-JSON input
    file; the command line maps it to exit code 2."""
