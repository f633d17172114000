"""Exception hierarchy shared across the package."""


class ProtoAdaptError(Exception):
    """Base class for all package errors. Each class carries the CLI's exit
    code for it and the label that `cli.main` prints before its message; a
    subclass inherits both unless it sets them."""
    exit_code, label = 2, "error"


class ConfigError(ProtoAdaptError, ValueError):
    """A configuration value is outside its valid range (also a ValueError)."""


class DimensionError(ProtoAdaptError):
    """Shapes of operands are incompatible."""


class FactorizationError(ProtoAdaptError):
    """A matrix is not positive definite, so Cholesky factorization failed."""


class EstimationError(ProtoAdaptError):
    """A mixture component cannot be estimated (support set too small)."""
    exit_code, label = 3, "estimation error"


class GenerationError(ProtoAdaptError):
    """Pseudo-dataset rejection sampling retained too few samples."""
    exit_code, label = 3, "generation error"

    def __init__(self, message, kept_fraction=None):
        super().__init__(message)
        self.kept_fraction = kept_fraction


class TapeError(ProtoAdaptError):
    """Gradient tape misuse (e.g. backward called twice)."""


class DivergenceError(ProtoAdaptError):
    """Training produced a non-finite loss or gradient."""
    exit_code, label = 5, "divergence"

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class FileFormatError(ProtoAdaptError):
    """A binary artifact file is malformed or truncated."""
