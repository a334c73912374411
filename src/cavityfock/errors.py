"""Exception types shared across the package, and the one rule of numbers."""

import numbers
import sys


class CavityFockError(Exception):
    """Base class for all package-specific errors."""


class ParameterDomainError(CavityFockError, ValueError):
    """A physical parameter or argument is outside its allowed domain."""


class ModelMismatchError(CavityFockError):
    """Operation applied to a basis or model it is not defined for."""


class IntegrationError(CavityFockError):
    """Conservation-law drift or positivity violation during integration."""


class ConfigError(CavityFockError):
    """Invalid configuration file, preset name, or command-line usage."""


def _is_of_kind(value, kind) -> bool:
    """Whether a field of ``kind`` takes ``value``: numbers.Integral any integer,
    numbers.Real an int that a float can hold or a float (numpy's included), any
    other kind its instances.  No bool is a number, and no Fraction a float."""
    if isinstance(value, bool) or not isinstance(value, kind):
        return False
    if kind is numbers.Real and isinstance(value, numbers.Rational):
        return isinstance(value, numbers.Integral) and abs(value) <= sys.float_info.max
    return True


def _check_numbers(integer=False, **values) -> None:
    """Raise ParameterDomainError unless every value is a real number, or an
    integer if ``integer``, by the rule of _is_of_kind."""
    kind, noun = (numbers.Integral, "an integer") if integer else (numbers.Real, "a real number")
    for name, value in values.items():
        if not _is_of_kind(value, kind):
            raise ParameterDomainError(f"{name} must be {noun}, got {value!r}")
