"""The two bases of the package's errors: an error's class decides the CLI's exit code."""


class InputError(ValueError):
    """Input outside the documented contract (exit 2)."""


class CheckFailure(Exception):
    """A check failed at a named point (exit 1)."""
