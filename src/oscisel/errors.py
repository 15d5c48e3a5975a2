"""Exception types shared across the package."""


class ParameterDomainError(ValueError):
    """A numeric parameter is outside its documented domain."""


class EmptyDatasetError(ValueError):
    """An operation that needs at least one sample got an empty dataset."""


class StructuralError(ValueError):
    """Mismatched shapes, lengths, or out-of-range indices."""


class NumericError(ValueError):
    """Non-finite values where finite ones are required."""


class SequencingError(RuntimeError):
    """Ledger entries recorded out of order."""


class BudgetViolationError(RuntimeError):
    """The cumulative forward-pass budget was exceeded; always a bug signal."""


class FormatError(ValueError):
    """A binary or structured-text file does not match its documented format."""


class ConfigError(ValueError):
    """A run configuration file is missing keys, has unknown keys, or bad values."""
