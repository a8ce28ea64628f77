"""Exception hierarchy for matrix validation, graph construction and solvers."""

from __future__ import annotations


class PcmError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(PcmError):
    """Base class for malformed input: matrices, weights, graphs and alpha."""


# -- matrix validation ------------------------------------------------------

class NonSquareError(InvalidInputError):
    """Input array is not square."""


class NonPositiveEntryError(InvalidInputError):
    """A known entry is zero or negative."""


class AsymmetricMissingnessError(InvalidInputError):
    """Entry (i, j) is missing while (j, i) is known."""


class ReciprocityViolationError(InvalidInputError):
    """a_ji deviates from 1 / a_ij beyond tolerance.

    Carries the worst offending pair as ``pair`` and its relative deviation
    as ``deviation``.
    """

    def __init__(self, message: str, pair: tuple[int, int] | None = None,
                 deviation: float | None = None):
        super().__init__(message)
        self.pair = pair
        self.deviation = deviation


class MatrixTooSmallError(PcmError):
    """Operation needs n >= 3 (no triads exist below that)."""


class DimensionMismatchError(InvalidInputError):
    """Weight vector length differs from the matrix order."""


# -- graph construction -----------------------------------------------------

class CycleDetectedError(InvalidInputError):
    """Directed graph contains a cycle; ``cycle`` holds one witness."""

    def __init__(self, message: str, cycle: list[int] | None = None):
        super().__init__(message)
        self.cycle = cycle or []


class DisconnectedError(PcmError):
    """Underlying undirected graph is not connected; ``components`` holds them."""

    def __init__(self, message: str, components: list[list[int]] | None = None):
        super().__init__(message)
        self.components = components or []


class BidirectionalArcError(InvalidInputError):
    """Arc set contains both (i, j) and (j, i)."""


class AlphaNotGreaterThanOneError(InvalidInputError):
    """Preference intensity alpha must be strictly greater than 1."""


class DisconnectedComparisonGraphError(PcmError):
    """Comparison graph of an incomplete matrix is not connected."""


class CompletionOverflowError(InvalidInputError):
    """exp of a log leaves float64: a completed entry (any CR point), any triad's TI, a weight."""


# -- solvers ----------------------------------------------------------------

class ConvergenceFailureError(PcmError):
    """Iterative method hit its iteration cap before converging."""


class InfeasibleProblemError(PcmError):
    """LP reported infeasible; signals an internal bug for this family."""


class UnboundedProblemError(PcmError):
    """LP reported unbounded; signals an internal bug for this family."""


class NoBindingDualFoundError(PcmError):
    """No active constraint prices the objective while it is still positive."""
