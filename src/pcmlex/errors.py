"""Exception hierarchy for matrix validation, graph construction and solvers.

Index fields (``pair``, ``triad``, ``vertex``, ``cycle``) and each error's ``str`` are
0-based, like every library index; the CLI prints them from 1, by ``PcmError.render(1)``.
"""

from __future__ import annotations


class PcmError(Exception):
    """Base class of this package's errors: a ``str.format`` template and keyword fields."""

    def __init__(self, template: str, **fields):
        self.template, self.fields = template, fields
        self.__dict__.update(fields)
        super().__init__(self.render(0))

    def render(self, base: int) -> str:
        """The message with every index field numbered from ``base``."""
        return self.template.format(**{k: _numbered(k, v, base) for k, v in self.fields.items()})


def _numbered(name: str, value, base: int):
    """Field ``name`` as shown from ``base``; a cycle as a closed path 0 -> 1 -> 0."""
    if name == "cycle":
        return " -> ".join(str(v + base) for v in [*value, value[0]])
    if name in ("pair", "triad"):
        return tuple(int(v) + base for v in value)
    return value + base if name == "vertex" else value


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
    """a_ji deviates from 1 / a_ij past tolerance; ``pair`` is the worst, off by ``deviation``."""


class DimensionMismatchError(InvalidInputError):
    """Weight vector length differs from the matrix order."""


# -- graph construction -----------------------------------------------------

class CycleDetectedError(InvalidInputError):
    """Directed graph contains a cycle; ``cycle`` holds one witness."""


class DisconnectedError(PcmError):
    """Underlying undirected graph is not connected; ``components`` holds them."""


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
