"""Exception types shared across the package."""


class TvConsensusError(Exception):
    """Base class for all package-specific errors."""


class InvalidFieldError(TvConsensusError, ValueError):
    """A node or edge field does not conform to its graph (number type, length, finiteness)."""


class InvalidSubsetError(TvConsensusError, ValueError):
    """A vertex subset references unknown vertex ids."""


class UnsupportedGraphError(TvConsensusError, ValueError):
    """The operation requires a graph property (e.g. connectivity) that does not hold."""


class DomainError(TvConsensusError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class SizeCapError(TvConsensusError, ValueError):
    """An exhaustive computation was requested above its configured size cap."""


class AssumptionError(TvConsensusError, ValueError):
    """A structural assumption of the gossip model is violated."""


class ConfigError(TvConsensusError, ValueError):
    """An experiment configuration failed to parse or validate."""


class IterationAnomalyError(TvConsensusError, RuntimeError):
    """An iterative solver exceeded its proven iteration bound."""
