"""Exception types shared across the package."""


class FraclapError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(FraclapError, ValueError):
    """A parameter is outside its allowed domain (N, L, alpha, ...)."""


class DimensionError(FraclapError, ValueError):
    """A vector or matrix does not match the grid dimension."""


class MultiplierDomainError(FraclapError, ValueError):
    """A spectral multiplier is undefined (NaN/inf, or it raised) at a needed momentum."""

    def __init__(self, momentum, value, failure="is not finite"):
        self.momentum = momentum
        self.value = value
        super().__init__(
            f"multiplier {failure} at momentum {momentum!r}: got {value!r}"
        )


class ContractError(FraclapError, ValueError):
    """An input violates a documented precondition (e.g. asymmetric matrix)."""


class NumericalError(FraclapError, RuntimeError):
    """A numerical routine failed to converge or produced non-finite output."""


class ParseError(FraclapError, ValueError):
    """Syntax or lexical error in a potential expression; carries an offset."""

    def __init__(self, message, offset):
        self.offset = offset
        super().__init__(f"{message} (at offset {offset})")


class EvaluationError(FraclapError, ValueError):
    """Runtime error while evaluating a potential expression at a point."""

    def __init__(self, message, x):
        self.x = x
        super().__init__(f"{message} (at x = {x!r})")


class ConfigError(FraclapError, ValueError):
    """Invalid or incomplete job configuration."""
