"""Exception types shared across the package."""


class VoteboardError(Exception):
    """Base class for all package-specific errors."""


class ParseError(VoteboardError):
    """An input file could not be parsed."""


class EmptySubset(VoteboardError):
    """A task subset was empty."""


class MissingScore(VoteboardError):
    """A required score cell is absent."""


class UnknownSystem(VoteboardError):
    """A system id does not appear in the data."""


class VectorLengthMismatch(VoteboardError):
    """A scoring vector's length does not match the number of systems."""


class MissingGroups(VoteboardError):
    """The requested mode needs a task grouping that is absent or partial."""


class RuleUnsupportedForMode(VoteboardError):
    """The rule cannot run under the requested aggregation mode."""


class NonPositiveScore(VoteboardError):
    """A score must be strictly positive for this operation."""


class ScoreOutOfRange(VoteboardError, ValueError):
    """A score falls outside the range this operation requires."""


class MismatchedSystems(VoteboardError):
    """Two outcomes do not rank the same set of systems."""


class TooFewSystems(VoteboardError):
    """The operation needs more systems than the leaderboard has."""


class TooManyOmissions(VoteboardError):
    """More cells were requested for deletion than exist."""


class InfeasibleBounds(VoteboardError):
    """Weight bounds are contradictory before any dominance constraint."""


class UnknownRule(VoteboardError, ValueError):
    """A rule id or mode is not registered."""


class InvalidParameter(VoteboardError, ValueError):
    """A parameter lies outside the range its operation accepts."""


class SearchTooLarge(VoteboardError, RuntimeError):
    """An exhaustive search was refused because its input is too large."""


class ProductTooLarge(VoteboardError, RuntimeError):
    """An exact product was refused because it would exceed a fixed size."""
