"""The one number rule: real and integer hold a number a caller passes as a
Python float or int, or refuse it by name. Imports nothing from vropt."""

import math
import numbers
import operator

__all__ = ["ConfigError"]


class ConfigError(ValueError):
    """A solver configuration or a number that a check refuses."""


def real(name: str, value) -> float:
    """value as a Python float when it is a real number (an int, a bool, a
    Fraction, a numpy scalar), else ConfigError: a non-real (a str, a
    Decimal, a complex, None) or a real number past the largest float."""
    if not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        got = (f"an integer of {value.bit_length()} bits"
               if isinstance(value, int) else f"a {type(value).__name__}")
        raise ConfigError(f"{name} must be at most the largest float in "
                          f"magnitude, got {got}") from None


def integer(name: str, value, least: int | None = None) -> int:
    """value as a Python int when it is an integer (a bool or a numpy
    integer included) and not below least, else ConfigError."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value}")
    return value


def positive(name: str, value) -> float:
    """real(name, value), refused unless positive and finite."""
    value = real(name, value)
    if not 0.0 < value < math.inf:  # also False for NaN
        raise ConfigError(f"{name} must be positive and finite, got {value}")
    return value


def nonnegative(name: str, value) -> float:
    """real(name, value), refused unless finite and >= 0."""
    value = real(name, value)
    if not 0.0 <= value < math.inf:  # also False for NaN
        raise ConfigError(f"{name} must be finite and >= 0, got {value}")
    return value
