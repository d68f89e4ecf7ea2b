"""Exception hierarchy shared by every module of the package."""


class TLError(Exception):
    """Base class for all errors raised by tlmonoid."""


# -- diagram construction ---------------------------------------------------

class DegreeError(TLError):
    """Degree is not a positive integer (or otherwise unusable)."""


class NotAMatching(TLError):
    """The given blocks do not form a perfect matching of the 2n points."""


class CrossingError(TLError):
    """Two blocks interleave along the boundary cycle."""

    def __init__(self, block_a, block_b):
        self.block_a = block_a
        self.block_b = block_b
        super().__init__(f"blocks {block_a} and {block_b} cross")


class DegreeMismatch(TLError):
    """Operands have different degrees."""


# -- tuple combinatorics ----------------------------------------------------

class NotDecreasing(TLError):
    """Tuple entries are not a strictly decreasing chain of positive integers."""


class BoundViolation(TLError):
    """Entry x_i exceeds the bound n - 2i + 1."""

    def __init__(self, position, entry, bound):
        self.position = position
        self.entry = entry
        self.bound = bound
        super().__init__(f"entry x_{position}={entry} exceeds bound {bound}")


class LengthOutOfRange(TLError):
    """Requested tuple length is outside [0, n // 2]."""


class LengthMismatch(TLError):
    """Paired tuples must have equal length."""


# -- words, relations and rewriting -----------------------------------------

class DegreeTooSmall(TLError):
    """Presentations and rewriting require degree n >= 3."""


class AlphabetError(TLError):
    """A word uses letters from the wrong alphabet for this operation."""


class NoMatch(TLError):
    """A rewrite step does not match the word at the stated position."""

    def __init__(self, position, expected, found):
        self.position = position
        self.expected = expected
        self.found = found
        super().__init__(
            f"at position {position}: expected {expected}, found {found}")


class BadStep(TLError):
    """A derivation step failed to replay."""

    def __init__(self, index, reason):
        self.index = index
        self.reason = reason
        super().__init__(f"step {index}: {reason}")


class FamilyViolation(TLError):
    """A derivation step uses a relation outside the declared family."""


class EndMismatch(TLError):
    """Replaying a derivation did not arrive at its recorded end word."""


class BudgetExceeded(TLError):
    """Rewriting ran past its step budget (`rewrite.MAX_PUSH_STEPS`)."""


# -- algebra and verification ------------------------------------------------

class DegreeTooLarge(TLError):
    """A degree above `tuples.MAX_DEGREE`, or above a narrower window:
    enumeration's 12, the exhaustive verification's 10."""


__all__ = [name for name, obj in globals().items()
           if isinstance(obj, type) and issubclass(obj, TLError)]
