"""Exception hierarchy shared across the package.

Everything raised on bad user input derives from ForestFuseError so the
CLI can map it to a single exit code; ArgumentError additionally derives
from ValueError for callers that catch the builtin.
"""


class ForestFuseError(Exception):
    """Base class for all errors raised by forestfuse."""


class ArgumentError(ForestFuseError, ValueError):
    """A caller-supplied argument violates an operation's precondition."""


class SchemaError(ForestFuseError):
    """Data does not match the declared feature schema."""


class FormatError(ForestFuseError):
    """A file is structurally malformed (ragged rows, bad sparse syntax)."""


class ParseError(ForestFuseError):
    """A cell could not be parsed as its declared type."""


class ConfigError(ForestFuseError):
    """Invalid configuration, or configuration/data mismatch."""


class CapacityError(ForestFuseError):
    """An operation would exceed a configured resource cap."""


class ClassSizeError(ForestFuseError):
    """A per-class computation received a class that is too small."""


class ImputationError(ForestFuseError):
    """Imputation cannot proceed (e.g. a feature with no observed values)."""


class ProvenanceError(ForestFuseError):
    """A file given as a model's training data is not the file it was
    trained on: the SHA-256 of its bytes differs from the one the model
    records, or the model records none. The model carries its training
    rows, so the file can be omitted."""


class ModelFormatError(ForestFuseError):
    """A model file is truncated, corrupt, or of an unknown format."""
