"""Exception types shared across the package, and the search limit."""

import contextlib
import contextvars


class MvlaError(Exception):
    """Base class for all library errors."""


class StructureError(MvlaError):
    """A structure definition is malformed (bad tables, unknown elements, ...)."""


class ParseError(MvlaError):
    """A structure/matrix/system file is malformed; carries a line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class BlowupError(MvlaError):
    """A set-valued computation exceeded its combinatorial budget."""


# The work limit each bounded search reads when it starts: per search, not a meter.
_limit = contextvars.ContextVar("mvla_search_limit", default=10 ** 7)


@contextlib.contextmanager
def search_budget(limit):
    """Run a block with every bounded search limited to `limit` work units."""
    token = _limit.set(limit)
    try:
        yield
    finally:
        _limit.reset(token)


def charge(work, what):
    """Raise BlowupError naming what was counted when a search's work passes the limit."""
    limit = _limit.get()
    if work > limit:
        raise BlowupError(f"{what}: {work} exceeds budget {limit}")


class CongruenceError(MvlaError):
    """A quotient congruence failed well-definedness; carries witnesses."""

    def __init__(self, message, witnesses=()):
        self.witnesses = tuple(witnesses)
        super().__init__(message)


class ReducibleError(StructureError):
    """A quotient was asked of a reducible polynomial; carries the divisor."""

    def __init__(self, message, witnesses=()):
        self.witnesses = tuple(witnesses)
        super().__init__(message)


class WindowRequired(MvlaError):
    """An operation on a lazy structure needs an explicit finite window."""
