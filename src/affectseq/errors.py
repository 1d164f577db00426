"""Exception types used across the package."""


class AffectSeqError(Exception):
    """Base class for every failure this package raises on purpose."""


class DimensionError(AffectSeqError):
    """Operands have incompatible shapes."""


class DomainError(AffectSeqError):
    """A value lies outside the domain an operation accepts."""


class NumericError(AffectSeqError):
    """Non-finite values showed up where finite ones are required."""


class DataError(AffectSeqError):
    """Malformed or inconsistent data files and tracks."""


class CoverageError(DataError):
    """Predictions do not cover every annotated (movie, second)."""


class ConfigError(AffectSeqError):
    """Invalid or contradictory configuration; ``key`` names the setting at
    fault when the raiser knows it, so a front end can name its own flag."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


class ContractViolation(AffectSeqError):
    """A caller-supplied callable broke its documented contract."""
