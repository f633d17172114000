"""Exception hierarchy shared across the package."""


class ProtoAdaptError(Exception):
    """Base class for all package errors."""


class ConfigError(ProtoAdaptError):
    """A configuration value is outside its valid range."""


class DimensionError(ProtoAdaptError):
    """Shapes of operands are incompatible."""


class FactorizationError(ProtoAdaptError):
    """Cholesky factorization failed even after jitter retries."""


class EstimationError(ProtoAdaptError):
    """A mixture component cannot be estimated (support set too small)."""


class GenerationError(ProtoAdaptError):
    """Pseudo-dataset rejection sampling retained too few samples."""

    def __init__(self, message, kept_fraction=None):
        super().__init__(message)
        self.kept_fraction = kept_fraction


class TapeError(ProtoAdaptError):
    """Gradient tape misuse (e.g. backward called twice)."""


class DivergenceError(ProtoAdaptError):
    """Training produced a non-finite loss or gradient."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class FileFormatError(ProtoAdaptError):
    """A binary artifact file is malformed or truncated."""
