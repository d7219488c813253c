"""Exception hierarchy shared by all modules, and the integer check of their options."""

from numbers import Integral


class LcmdivError(Exception):
    """Base class for package errors."""


class DomainError(LcmdivError, ValueError):
    """Input outside the mathematical domain of an operation."""


class NotConvergedError(LcmdivError, RuntimeError):
    """An operation required a converged fit and did not get one."""


class RankDeficiencyError(LcmdivError, RuntimeError):
    """A Gram matrix is numerically singular; carries the observed rank."""

    def __init__(self, message: str, rank: int):
        super().__init__(message)
        self.rank = rank


class InputFormatError(LcmdivError, ValueError):
    """A design, counts, plan or chain file failed to parse."""


def require_integer(name: str, value) -> None:
    """Raise :class:`DomainError` naming ``name`` unless ``value`` is a Python or
    numpy integer; a ``bool`` is refused too."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
