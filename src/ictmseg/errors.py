"""Exception types shared across the package.

ConfigError and its causes map to CLI exit code 2, NumericalFailure to 3.
"""

__all__ = ["ConfigError", "DegenerateInputError", "NumericalFailure"]


class ConfigError(ValueError):
    """Bad configuration: unknown key, missing file, invalid parameter."""


class DegenerateInputError(ValueError):
    """Input that makes an operation meaningless (e.g. all-zero image)."""


class NumericalFailure(RuntimeError):
    """Non-finite intermediate or an impossible numerical state.

    Carries enough context (iteration indices) to locate the failure.
    """

    def __init__(self, message, outer=None, inner=None):
        if outer is not None:
            message = f"{message} (outer iteration {outer}"
            message += f", inner iteration {inner})" if inner is not None else ")"
        super().__init__(message)
        self.outer = outer
        self.inner = inner
