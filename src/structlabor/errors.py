"""Exception types shared across the package, and the checks that raise them."""

from __future__ import annotations


class DomainError(ValueError):
    """An input is outside the mathematical domain of an operation."""


class ConfigError(ValueError):
    """A run configuration is malformed.

    Carries the dotted path of the offending field so callers can point
    at the exact location in the file.
    """

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


def require(cond: bool, msg: str) -> None:
    """Raise :class:`DomainError` with ``msg`` unless ``cond`` holds."""
    if not cond:
        raise DomainError(msg)

