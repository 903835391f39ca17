"""Exception types shared across the package."""


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
