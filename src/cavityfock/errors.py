"""Exception types shared across the package, and the one check of numbers."""

import numbers


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


def _check_numbers(integer=False, **values) -> None:
    """Raise ParameterDomainError unless every value is a real number, or an
    integer if ``integer``, and not a bool: no flag is taken as 1 or 0."""
    kind, noun = (numbers.Integral, "an integer") if integer else (numbers.Real, "a real number")
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ParameterDomainError(f"{name} must be {noun}, got {value!r}")
