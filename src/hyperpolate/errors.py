"""Exception taxonomy shared across the library."""


class HyperpolateError(Exception):
    """Base class for all library errors."""


class InvalidInputError(HyperpolateError, ValueError):
    """Malformed or non-finite input data."""


class DimensionMismatchError(InvalidInputError):
    """Point/dataset dimensions disagree."""


class ConfigurationError(HyperpolateError):
    """Inconsistent configuration (unknown method, inner model mismatch...)."""


class UnknownCaseError(ConfigurationError):
    """Benchmark case name is not a built-in and no spec was given."""


class DegenerateFitError(HyperpolateError):
    """A fit cannot be performed (rank-deficient design matrix)."""


class UnsupportedGeometryError(HyperpolateError):
    """Dataset geometry outside what the operation supports."""


class NoPredictionError(HyperpolateError):
    """Nothing to predict from: an empty posterior, or a search that
    returned no candidate."""


class CsvFormatError(InvalidInputError):
    """CSV file does not match the expected schema.

    Carries the 1-based line number of the offending row when known.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
