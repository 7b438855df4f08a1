"""Exception hierarchy shared across the pipeline.

Each class carries the exit status the CLI ends with when it escapes a
command: TrajtreeError and ConfigError 1, InputError 2, InvariantError 3.
"""


class TrajtreeError(Exception):
    """Base class for all pipeline errors."""

    exit_code = 1


class ConfigError(TrajtreeError):
    """Invalid configuration or usage."""


class InputError(TrajtreeError):
    """Malformed or inconsistent input data.

    Carries an optional 1-based line number for corpus diagnostics.
    """

    exit_code = 2

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InvariantError(TrajtreeError):
    """An internal consistency check failed (oracle mismatch, conservation)."""

    exit_code = 3
