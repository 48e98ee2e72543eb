"""Exception types shared across the toolkit."""

__all__ = [
    "LtisecError",
    "NonFinite",
    "DimensionMismatch",
    "RankDeficient",
    "HorizonTooShort",
    "NotUndetectable",
    "NoModes",
    "NotSynthesizable",
    "ThetaNotFeasible",
    "NotExtensible",
    "ParseError",
    "AssumptionViolated",
]


class LtisecError(Exception):
    """Base class for all toolkit errors."""


class NonFinite(LtisecError):
    """A matrix or vector contains NaN or infinite entries."""


class DimensionMismatch(LtisecError):
    """Operands have incompatible shapes."""


class RankDeficient(LtisecError):
    """A matrix required to have full column rank does not."""


class HorizonTooShort(LtisecError):
    """A horizon, window or step count below the least the operation accepts."""


class NotUndetectable(LtisecError):
    """An operation that only applies to undetectable attacks was given a
    detectable one."""


class NoModes(LtisecError):
    """No zero-dynamics mode could be found for the system."""


class NotSynthesizable(LtisecError):
    """The requested attack family is empty for this system."""


class ThetaNotFeasible(LtisecError):
    """The supplied initial-state shift does not admit a matching attack."""


class NotExtensible(LtisecError):
    """The attack has no undetectable extension to the requested horizon."""


class ParseError(LtisecError):
    """A scenario, attack, or log file could not be parsed."""


class AssumptionViolated(LtisecError):
    """The system fails a standing assumption required by the analysis."""
