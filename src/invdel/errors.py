"""Exception hierarchy shared by all invdel modules."""


class InvdelError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(InvdelError, ValueError):
    """A well-typed call with values that violate a precondition."""


class CapacityError(InvdelError):
    """Input is larger than the exact algorithms can handle."""


class WordTypeError(InvdelError):
    """A generator word is not a valid path (sizes do not chain)."""


class NoPathError(InvdelError):
    """No inversion/deletion sequence exists between the given genomes."""


class GenomeParseError(InvdelError):
    """Malformed genome text input."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
