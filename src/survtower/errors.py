"""Exception types shared across the package."""


class SurvTowerError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(SurvTowerError, ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ConfigError(SurvTowerError, ValueError):
    """A configuration value is invalid or inconsistent."""


class UsageError(SurvTowerError, RuntimeError):
    """An API was called in an unsupported way (e.g. double backward)."""


class DegenerateFeatureError(SurvTowerError, ValueError):
    """A feature has zero spread, so normalization is undefined."""


class PipelineError(SurvTowerError, ValueError):
    """Preprocessing cannot proceed (e.g. every age is missing)."""


class FormatError(SurvTowerError, ValueError):
    """A serialized file is malformed. Carries the byte offset when known."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class MetricUndefinedError(SurvTowerError, ValueError):
    """The requested metric has no defined value on this input."""


class TrainingDivergedError(SurvTowerError, RuntimeError):
    """Training produced a non-finite loss."""
