"""Strictly decreasing tuples that record the arc structure of a tangle.

A degree-n tangle with k upper (or lower) arcs determines the tuple of the
arcs' leftmost endpoints, written in decreasing order.  The tuples arising
this way are exactly the integer tuples (x_1 > ... > x_k >= 1) with
x_i <= n - 2i + 1, so in particular k <= n // 2.  We call the set of such
tuples T_n; this module validates, enumerates and serializes its members.
"""

from __future__ import annotations

import operator
import re
from contextlib import suppress
from dataclasses import dataclass

from .errors import (
    BoundViolation,
    DegreeError,
    DegreeTooLarge,
    DegreeTooSmall,
    LengthOutOfRange,
    NotDecreasing,
)

__all__ = [
    "TnTuple",
    "check_tuple",
    "enumerate_tuples",
    "tuple_to_text",
    "tuple_from_text",
    "entries_from_text",
]

MAX_DEGREE = 10 ** 6     # refused above, before any O(n) array is built


@dataclass(frozen=True)
class TnTuple:
    """A member of T_n.  Build through :func:`check_tuple`."""

    n: int
    entries: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return "(" + ",".join(str(e) for e in self.entries) + ")"


def _integer(v) -> int:
    """`v` if it is an int and not a bool; a ValueError naming it otherwise."""
    if not isinstance(v, bool):
        with suppress(TypeError):
            return operator.index(v)
    raise ValueError(f"{v!r} is not an integer")


def _check_degree(n, least: int = 1, most: int = MAX_DEGREE) -> None:
    """The one degree rule: DegreeError unless `n` is an int >= 1 and not a
    bool, DegreeTooSmall below `least`, DegreeTooLarge above `most`."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise DegreeError(f"degree must be a positive integer, got {n!r}")
    if n < least:
        raise DegreeTooSmall(f"presentations need n >= {least}, got {n}")
    if n > most:
        raise DegreeTooLarge(f"degree must be at most {most}, got {n}")


def check_tuple(n: int, entries) -> TnTuple:
    """Validate membership in T_n and return the tuple.

    Raises ValueError for a degree or entry that is not an integer,
    DegreeError for a degree below 1, NotDecreasing unless the entries
    decrease strictly down to >= 1, and BoundViolation (with the offending
    1-based index i and the bound n - 2i + 1) if an entry is too large.
    """
    _check_degree(_integer(n))
    ent = tuple(map(_integer, entries))
    for a, b in zip(ent, ent[1:]):
        if a <= b:
            raise NotDecreasing(f"{a} is not above {b}")
    if ent and ent[-1] < 1:
        raise NotDecreasing(f"entries must be >= 1, got {ent[-1]}")
    for i, e in enumerate(ent, start=1):
        bound = n - 2 * i + 1
        if e > bound:
            raise BoundViolation(i, e, bound)
    return TnTuple(n, ent)


def enumerate_tuples(n: int, k: int | None = None) -> list[TnTuple]:
    """All members of T_n (of length k if given), in lexicographic order.

    Depth-first emission with ascending entries is exactly lexicographic
    order on the entry lists, which keeps golden tests stable.
    """
    _check_degree(n)
    if k is not None and not 0 <= k <= n // 2:
        raise LengthOutOfRange(f"length {k} outside [0, {n // 2}]")
    out: list[TnTuple] = []

    def grow(prefix: tuple[int, ...]) -> None:
        if k is None or len(prefix) == k:
            out.append(TnTuple(n, prefix))
        if k is not None and len(prefix) >= k:
            return
        i = len(prefix) + 1
        hi = n - 2 * i + 1
        if prefix:
            hi = min(hi, prefix[-1] - 1)
        for v in range(1, hi + 1):
            grow(prefix + (v,))

    grow(())
    return out


# -- text format: `n=<int>; x=(5,3,2)`, empty tuple printed `()` -------------

def _canonical_int(tok: str) -> int | None:
    """The integer `tok` spells if `str(int)` spells it so, else None; every
    text reader of the package holds its integers to this spelling."""
    try:
        return v if str(v := int(tok)) == tok else None
    except ValueError:
        return None


def entries_from_text(text: str) -> list[int]:
    """The entries of a tuple token like `(5,3,2)` or `()`.

    Whitespace may surround an entry.  Raises ValueError naming the token.
    """
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        body = text[1:-1].strip()
        toks = body.split(",") if body else []
        entries = [_canonical_int(t.strip()) for t in toks]
        if None not in entries:
            return entries
    raise ValueError(f"bad tuple token {text!r}; expected like (5,3,2) or ()")


_TUPLE_RE = re.compile(r"^n=([^;]*);\s*x=(\(.*\))$")


def tuple_to_text(x: TnTuple) -> str:
    return f"n={x.n}; x={x}"


def tuple_from_text(text: str) -> TnTuple:
    m = _TUPLE_RE.match(text.strip())
    n = m and _canonical_int(m.group(1))
    if n is None:
        raise ValueError(f"cannot parse tuple text: {text!r}")
    return check_tuple(n, entries_from_text(m.group(2)))
