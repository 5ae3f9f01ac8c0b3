"""Exception types shared across the package."""


class InputDomainError(ValueError):
    """An argument is outside the domain an operation accepts."""


class TraceDomainError(LookupError):
    """A trace-table lookup fell outside the tabulated frames or QPs."""


class ConfigError(Exception):
    """Invalid configuration or command-line input; the message names the key."""
