"""Exception types shared across the package.

Every error carries a machine-readable ``category`` string; the CLI reports
failures as ``{"error": {"category": ..., "message": ...}}`` on stderr.
"""


class UrelnetError(Exception):
    category = "error"


class UsageError(UrelnetError, ValueError):
    """Bad command-line arguments or configuration values.

    Also a ValueError, the type config constructors raise for bad values.
    """

    category = "usage-error"


class GeometryError(UrelnetError):
    """Degenerate or non-finite box geometry."""

    category = "invalid-geometry"


class IngestionError(UrelnetError):
    """Missing or malformed input data (features, embeddings, references)."""

    category = "ingestion-error"


class DatasetParseError(IngestionError):
    category = "parse-error"


class DatasetValidationError(IngestionError):
    category = "validation-error"


class DimensionError(UrelnetError):
    category = "dimension-mismatch"


class StateError(UrelnetError):
    """Operation called in an invalid order (e.g. backward before forward)."""

    category = "invalid-state"


class InsufficientDataError(UrelnetError):
    category = "insufficient-data"


class DivergenceError(UrelnetError):
    category = "training-divergence"


class ModeError(UrelnetError):
    category = "mode-error"


class UndefinedMetricError(UrelnetError):
    category = "undefined-metric"


class CheckpointError(UrelnetError):
    category = "checkpoint-error"


class OutOfMemoryError(UrelnetError):
    """An allocation failed: the requested sizes need more memory than there is."""

    category = "out-of-memory"


class OutputError(UrelnetError):
    """An output file or directory could not be written."""

    category = "output-error"
