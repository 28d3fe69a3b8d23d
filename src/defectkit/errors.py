"""Exception types shared across the package, and the integer check that names its field."""

import numbers


class DefectkitError(Exception):
    """Base class for all package-specific errors."""


class SchemaError(DefectkitError):
    """A dataset schema is malformed or two schemas do not line up."""


class CsvParseError(DefectkitError):
    """A CSV cell could not be parsed; the message names row and column."""


class DegenerateDataError(DefectkitError):
    """The data cannot support the requested operation (single class, no defects, ...)."""


class ConfigError(DefectkitError):
    """An experiment configuration is inconsistent or incomplete."""


def check_int(name: str, value, low: int | None = None, error: type = ValueError) -> None:
    """Raise `error` naming `name` unless `value` is an integer, not a bool, of at least `low`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise error(f"{name} must be at least {low}, got {value!r}")
