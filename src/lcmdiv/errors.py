"""Exception hierarchy shared by all modules, and the one refusal of their integer
options (starts, seeds, replications, sample sizes, jobs, a dof override, ``N``):
:func:`require_integer` checks both the type and the lower bound."""

from numbers import Integral
from typing import Optional


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


def require_integer(name: str, value, minimum: Optional[int] = None) -> None:
    """Raise :class:`DomainError` naming ``name`` and ``value`` unless ``value`` is a
    Python or numpy integer (a ``bool`` is refused too) and, when ``minimum`` is
    given, not below it; a value below it is refused with its own message."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value!r}")
