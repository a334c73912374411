"""Exception types shared across the package."""


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
