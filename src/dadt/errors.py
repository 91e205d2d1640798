"""Exception hierarchy shared by all modules."""


class DadtError(Exception):
    """Base class for all errors raised by this package."""


class SchemaMismatch(DadtError):
    """CSV columns do not match the schema (missing or extra column)."""


class ValueOutOfDomain(DadtError):
    """A discrete value is not in the attribute's declared domain."""


class ParseError(DadtError):
    """Malformed CSV/JSON input, including missing values."""


class EmptyDataset(DadtError):
    """An operation requires a non-empty dataset."""


class UnknownAttribute(DadtError):
    """A condition or query references an attribute absent from the schema."""


class UnlabeledData(DadtError):
    """A labeled-only operation was invoked on unlabeled data."""


class FormatError(DadtError):
    """A knowledge document does not conform to the cross-tab format."""


class NormalizationError(DadtError):
    """A stored distribution deviates from unit mass beyond tolerance."""


class EmptyContext(DadtError):
    """Frequency estimation over zero rows; the caller decides the fallback."""


class DomainError(DadtError):
    """A numeric argument is outside its admissible range."""


class IncomparableSupports(DadtError):
    """Two categorical supports admit no common ordering."""


class SubsetViolation(DadtError):
    """A subpath is not a subset of the path it was derived from."""


class GroupMissing(DadtError):
    """A protected group has zero rows in the evaluation data."""


class NoPositives(DadtError):
    """A protected group has zero positive ground-truth rows."""


class InsufficientKnowledge(DadtError):
    """Pivot selection needs class conditionals or an explicit override."""


class ConfigError(DadtError):
    """Invalid configuration."""


class InternalError(DadtError):
    """An internal invariant was violated; indicates a bug, not bad input."""
