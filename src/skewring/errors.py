"""Exception types shared across the library."""


class SkewringError(Exception):
    """Base class for all library errors."""


class RingMismatchError(SkewringError):
    """Operands belong to different rings or ring configurations."""


class NotInvertibleError(SkewringError):
    """Element has no two-sided inverse in its ring."""


class ConstructionError(SkewringError):
    """A ring, map, or config constructor was given invalid data."""


class UnsupportedRingError(SkewringError):
    """The requested decision procedure does not apply to this ring shape."""


class ZeroElementError(SkewringError):
    """Degree, order, or leading coefficient requested of a zero element."""


class ReductionError(SkewringError):
    """A reduction algorithm's hypotheses are violated."""


class ParseError(SkewringError):
    """Expression text does not conform to the grammar."""

    def __init__(self, message, column):
        super().__init__(f"{message} (line 1, column {column})")
        self.column = column
