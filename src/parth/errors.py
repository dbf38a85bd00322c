"""Exception hierarchy shared across the package."""


class ParthError(Exception):
    """Base class for every error raised by this package."""


class InvalidArgument(ParthError, ValueError):
    """An argument is outside the range the function accepts."""


class AsymmetricPattern(ParthError):
    """Sparsity pattern is not structurally symmetric."""


class IndexOutOfBounds(ParthError):
    """An index array references a row or node outside the valid range."""


class DimMismatch(ParthError):
    """Matrix dimension is not divisible by the requested block size."""


class InvalidMap(ParthError):
    """Node map violates its invariants (length, duplicates, range)."""


class StaleTree(ParthError):
    """Decomposition tree is inconsistent with the graph it is applied to."""


class InvalidPermutation(ParthError):
    """Array is not a bijection over its index range."""


class BallTooSmall(ParthError):
    """Hop-ball does not contain enough nodes for the requested operation."""


class StateError(ParthError, RuntimeError):
    """A call arrived before the instance was started."""


class ParseError(ParthError):
    """Malformed input file; carries the offending location when known."""

    def __init__(self, message, path=None, line=None):
        loc = "" if path is None else str(path)
        if line is not None:
            loc += f":{line}"
        super().__init__(f"{loc}: {message}" if loc else message)
        self.path = path
        self.line = line
