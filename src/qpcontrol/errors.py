"""Exception types shared across the package."""


class InputDomainError(ValueError):
    """An argument is outside the domain an operation accepts."""


class SequencingError(RuntimeError):
    """Frame-stepping operations were invoked out of order."""


class TraceDomainError(LookupError):
    """A trace-table lookup fell outside the tabulated frames or QPs."""


class DegenerateInputError(ValueError):
    """Input is structurally valid but carries no usable information."""


class ConfigError(Exception):
    """Invalid configuration or command-line input; the message names the key."""
