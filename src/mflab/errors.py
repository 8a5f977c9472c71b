"""Exception types shared across the package."""


class MFLabError(Exception):
    """Base class for all package errors."""


class ConfigError(MFLabError):
    """Invalid configuration value or file."""


class DimensionError(MFLabError):
    """Objects defined on incompatible grids or with mismatched sizes."""


class DomainError(MFLabError):
    """Argument outside the mathematical domain of an operation."""


class ResourceError(MFLabError):
    """A resource limit (MEMORY_CAP, the r*t cap, int32 indices) was exceeded."""


class ConsistencyError(MFLabError):
    """An internal mathematical invariant was violated at runtime."""
