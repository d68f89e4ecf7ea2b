"""Exact planar-tangle calculus for the Temperley-Lieb monoid TL_n.

A degree-n tangle is n disjoint strings in a rectangle joining the 2n
boundary points; up to homotopy it is determined by the induced perfect
matching on the boundary, so we store exactly that, as a partner array.
Points are signed integers: +i is the i-th upper point, -i the i-th lower
point, encoded as i and n + i.  Walking the boundary cycle (upper row left
to right, then lower row right to left) gives each point a position

    pos(+i) = i,     pos(-i) = 2n + 1 - i,

and planarity of the strings is equivalent to no two blocks interleaving in
position order, which one stack scan decides.  Composition stacks one
diagram on top of another, fuses the middle row, discards the closed loops
that appear in the interior and reports how many were discarded; that count
is the exponent used by the twisted algebra product.  `dagger` is the
top-bottom reflection, which makes TL_n a regular *-monoid.

A `Tangle` is never built from unchecked data: `make_tangle` and
`words.evaluate` scan all 2n points, the product path only those it wrote.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .errors import CrossingError, DegreeMismatch, NotAMatching
from .tuples import (TnTuple, _canonical_int, _check_degree, _integer,
                     check_tuple)

__all__ = [
    "Tangle",
    "make_tangle",
    "identity",
    "compose",
    "dagger",
    "profile",
    "boundary_tuples",
    "simplicity",
    "factorize",
    "tangle_to_text",
    "tangle_from_text",
    "tangle_to_doc",
    "tangle_from_doc",
]


class Tangle:
    """An immutable degree-n tangle stored as its partner array.

    `partners` is a tuple of 2n+1 ints indexed by encoded point (+i -> i,
    -i -> n+i; index 0 holds 0): entry e is the encoded point that e is
    joined to.  A matching has exactly one such array, so equality,
    hashing, repr and pickling use the array alone.  A Tangle is never
    built from unchecked data; `make_tangle` validates.

    The private slots `_upper_half` and `_lower_half` hold the tangle
    prepared as the upper and the lower factor of a product.  They stay
    unset until `_prepared_upper` or `_prepared_lower` first asks, so
    building a tangle costs nothing more; once set they are kept, as
    tuples, for the life of the tangle (about 0.66 KB and 0.46 KB at
    n = 10).
    """

    __slots__ = ("n", "partners", "_hash", "_upper_half", "_lower_half")

    def __init__(self, n: int, partners: tuple[int, ...]):
        self.n = n
        self.partners = partners
        self._hash = hash(partners)

    def __eq__(self, other):
        if not isinstance(other, Tangle):
            return NotImplemented
        return self.partners == other.partners

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Tangle[{tangle_to_text(self)}]"

    def __reduce__(self):
        return Tangle, (self.n, self.partners)

    @property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        """Canonical blocks: each pair, and the pairs, ordered by position."""
        n, p = self.n, self.partners
        return tuple(_block(n, p, q) for q, r in _boundary_scan(n, p) if r > q)


def _boundary_scan(n, p):
    # (position, partner's position) for every position in boundary order;
    # the map between positions and encoded points is its own inverse
    k = 3 * n + 1
    return enumerate((f if f <= n else k - f
                      for f in p[1:n + 1] + p[:n:-1]), 1)


def _block(n, p, q):
    # the block opened at position q, as a pair of signed points
    e = q if q <= n else 3 * n + 1 - q
    f = p[e]
    return (e if e <= n else n - e), (f if f <= n else n - f)


def _check_planar(n: int, p: tuple[int, ...], tops=None, bottoms=None) -> None:
    """Raise CrossingError unless the strings of partners `p` are disjoint.

    One stack scan in boundary order: each point either opens a string or
    closes the string opened last.  It walks all 2n points, or only `tops`
    then `bottoms` (descending encoded order): the through-strand ends of a
    product's factors, all that `_stack` writes.  For planar factors that
    suffices, as a top arc of one encloses none of its through points, so a
    copied arc encloses only copied points.  A narrowed scan that fails or
    leaves a string open is decided in full.  Only on failure is the pair
    to report searched for: the first block in canonical order crossing a
    later one, and the first such later block.  A block crosses the strings
    opened after it and still open when it closes, so each opening position
    is unlinked from a list of all of them as its string closes; the next
    one in the list then opened first after it.
    """
    if tops is None:
        tops, bottoms = range(1, n + 1), range(2 * n, n, -1)
    stack = [0]                     # a sentinel, then partners of open strings
    for e in tops:                  # upper row: opens if partner right or below
        f = p[e]
        if f > e:
            stack.append(f)
        elif stack.pop() != e:
            break
    else:
        for e in bottoms:           # lower row: opens if partner is left
            f = p[e]
            if n < f < e:
                stack.append(f)
            elif stack.pop() != e:
                break
        else:
            if len(stack) == 1:
                return
    if len(tops) + len(bottoms) < 2 * n:
        return _check_planar(n, p)
    opens = [q for q, r in _boundary_scan(n, p) if r > q]
    nxt = dict(zip([0, *opens], [*opens, 2 * n + 1]))
    prv = dict(zip([*opens, 2 * n + 1], [0, *opens]))
    best = (2 * n + 1, 0)
    for q, r in _boundary_scan(n, p):
        if r < q:
            later = nxt[r]
            if later < q:
                best = min(best, (r, later))
            nxt[prv[r]], prv[later] = later, prv[r]
    raise CrossingError(_block(n, p, best[0]), _block(n, p, best[1]))


def make_tangle(n: int, blocks) -> Tangle:
    """Validating constructor.

    Raises DegreeError unless n is a positive int (a bool is refused),
    ValueError (naming it) for a point that is not an integer, NotAMatching
    unless every point of {+-1, ..., +-n} occurs in exactly one two-point
    block, and CrossingError (naming the two offending blocks) if any
    blocks interleave.  Blocks of size other than two are rejected: this
    monoid has no wider blocks.
    """
    _check_degree(n)
    seen = set()
    pairs = []
    for blk in blocks:
        blk = tuple(blk)
        if len(blk) != 2:
            raise NotAMatching(f"block {blk} does not have exactly 2 points")
        u, v = _integer(blk[0]), _integer(blk[1])
        for w in (u, v):
            if w == 0 or abs(w) > n:
                raise NotAMatching(f"point {w} outside degree {n}")
            if w in seen:
                raise NotAMatching(f"point {w} appears more than once")
            seen.add(w)
        if u == v:
            raise NotAMatching(f"block {blk} repeats a point")
        pairs.append((u if u > 0 else n - u, v if v > 0 else n - v))
    if len(pairs) != n:
        raise NotAMatching(f"expected {n} blocks, got {len(pairs)}")
    p = [0] * (2 * n + 1)
    for eu, ev in pairs:
        p[eu], p[ev] = ev, eu
    p = tuple(p)
    _check_planar(n, p)
    return Tangle(n, p)


@lru_cache(maxsize=None, typed=True)   # typed: identity(True) is refused
def identity(n: int) -> Tangle:
    """The unit of TL_n: n vertical strings."""
    _check_degree(n)
    return Tangle(n, (0, *range(n + 1, 2 * n + 1), *range(1, n + 1)))


def compose(a: Tangle, b: Tangle) -> tuple[Tangle, int]:
    """Stack `a` on top of `b`; return the resulting tangle and loop count.

    Reads `a` as an upper and `b` as a lower half, each prepared once per
    tangle and kept (`_prepared_upper`, `_prepared_lower`), runs the one
    product walk `_stack` on them and checks the points it wrote with
    `_check_planar`, the through-strand ends of both factors, so every
    tangle `compose` returns is checked.  The returned tangle has no
    halves prepared until it is itself a factor.
    """
    if a.n != b.n:
        raise DegreeMismatch(f"degrees {a.n} and {b.n} differ")
    n = a.n
    upper, lower = _prepared_upper(a), _prepared_lower(b)
    out, loops = _stack(n, upper, lower)
    _check_planar(n, out, upper[-1], lower[-1])
    return Tangle(n, out), loops


def _prepared_upper(t: Tangle):
    """`_upper_half` of `t`, built on first use and kept in its slot."""
    half = getattr(t, "_upper_half", None)
    if half is None:
        t._upper_half = half = _upper_half(t.n, t.partners)
    return half


def _prepared_lower(t: Tangle):
    """`_lower_half` of `t`, built on first use and kept in its slot."""
    half = getattr(t, "_lower_half", None)
    if half is None:
        t._lower_half = half = _lower_half(t.n, t.partners)
    return half


def _upper_half(n: int, p: tuple[int, ...]):
    """The parts of partners `p` that `_stack` reads from an upper factor.

    (top, through, arc_ends, low, tops), all tuples: the top row indexed
    0..n with the through strands blanked to 0; the (top point, middle
    point) pairs of the through strands; the left ends of the lower arcs,
    as middle points; `low`, the lower row indexed by middle point, holding
    the partner middle point of an arc and minus the top point of a through
    strand; and the through strands' top points, for `_check_planar`.
    Called only by `_prepared_upper`, which keeps the result on the tangle,
    so nothing may write into it.
    """
    top = tuple([f if f <= n else 0 for f in p[:n + 1]])
    through = tuple([(i, p[i] - n) for i in range(1, n + 1) if p[i] > n])
    low = (0, *[f - n if f > n else -f for f in p[n + 1:]])
    arc_ends = tuple([m for m in range(1, n + 1) if low[m] > m])
    return top, through, arc_ends, low, tuple([i for i, _ in through])


def _lower_half(n: int, p: tuple[int, ...]):
    """The parts of partners `p` that `_stack` reads from a lower factor.

    (p, bottom, through, bottoms), all tuples: the array itself; the bottom
    row as n entries for the encoded points n+1..2n, with the through
    strands blanked to 0; the (bottom point, middle point) pairs of the
    through strands; and their bottom points in descending encoded order,
    for `_check_planar`.  Called only by `_prepared_lower`, which keeps the
    result on the tangle, so nothing may write into it.
    """
    bottom = tuple([f if f > n else 0 for f in p[n + 1:]])
    through = tuple([(j, p[j]) for j in range(n + 1, 2 * n + 1) if p[j] <= n])
    return p, bottom, through, tuple([j for j, _ in reversed(through)])


def _stack(n: int, upper, lower):
    """(partner tuple, loop count) of an upper half stacked on a lower half.

    The halves come from `_upper_half` and `_lower_half` of two degree-n
    arrays.  The product starts as the upper factor's top row followed by
    the lower factor's bottom row, which already holds every arc that does
    not touch the middle row.  The walk then traces the upper factor's
    through strands, then the lower factor's through strands still unset,
    across the middle row to the boundary, marking the ends of the upper
    factor's lower arcs they pass.  Each unmarked lower arc lies on a
    closed loop, which is traced and counted once.  Nothing is checked here:
    `compose` checks each result, and `alg_mul` each distinct one.
    """
    top, through_a, arc_ends, low, _ = upper
    pb, bottom, through_b, _ = lower
    out = [*top, *bottom]
    seen = [False] * (n + 1)
    for i, m in through_a:
        if out[i]:
            continue
        e = pb[m]
        while e <= n:                   # an upper arc of b, back to the middle
            f = low[e]
            if f < 0:                   # a through strand of a, to the top
                e = -f
                break
            seen[e] = seen[f] = True    # a lower arc of a
            e = pb[f]
        out[i], out[e] = e, i
    for j, m in through_b:
        if out[j]:
            continue
        # not reached from the top, so it meets only lower arcs of a
        e = m
        while e <= n:
            f = low[e]
            seen[e] = seen[f] = True
            e = pb[f]
        out[j], out[e] = e, j
    loops = 0
    for m in arc_ends:
        if seen[m]:
            continue
        loops += 1
        e = m
        while True:
            f = low[e]
            seen[e] = seen[f] = True
            e = pb[f]
            if e == m:
                break
    return tuple(out), loops


def dagger(a: Tangle) -> Tangle:
    """Reflection through the horizontal midline: every point changes sign."""
    n = a.n
    s = [e + n if e <= n else e - n for e in a.partners]
    return Tangle(n, (0, *s[n + 1:], *s[1:n + 1]))


def profile(a: Tangle) -> tuple[int, frozenset, frozenset]:
    """(rank, dom, codom): through-strand count and its endpoint sets.

    The rank always has the parity of n (the arcs pair up the other
    points on each side); the tests check this over every diagram.
    """
    n, p = a.n, a.partners
    dom = frozenset(i for i in range(1, n + 1) if p[i] > n)
    codom = frozenset(p[i] - n for i in dom)
    return len(dom), dom, codom


def boundary_tuples(a: Tangle) -> tuple[TnTuple, TnTuple]:
    """(bl, br): leftmost endpoints of the upper / lower arcs, decreasing.

    Both results are validated members of T_n.
    """
    n, p = a.n, a.partners
    upper = [i for i in range(n, 0, -1) if i < p[i] <= n]
    lower = [j for j in range(n, 0, -1) if p[n + j] > n + j]
    return check_tuple(n, upper), check_tuple(n, lower)


def _packed_pattern(n: int, k: int) -> tuple[int, ...]:
    # (n-1, n-3, ..., n-2k+1): arcs packed against the right edge
    return tuple(range(n - 1, n - 2 * k, -2))


def simplicity(a: Tangle) -> tuple[bool, bool]:
    """(left_simple, right_simple) flags.

    A tangle is right-simple when its lower arcs are packed into the
    rightmost positions, i.e. br equals (n-1, n-3, ..., n-2k+1); dually for
    left-simple with bl.  Reflection swaps the two flags.
    """
    bl, br = boundary_tuples(a)
    left = bl.entries == _packed_pattern(a.n, len(bl.entries))
    right = br.entries == _packed_pattern(a.n, len(br.entries))
    return left, right


# the balanced pair (bl, br) of a tangle; inverse of `words.build_tangle`
factorize = boundary_tuples


# -- text and structured-document formats ------------------------------------

def tangle_to_text(t: Tangle) -> str:
    body = "".join(f"({u},{v})" for u, v in t.blocks)
    return f"n={t.n}; blocks={body}"


_BLOCK_TOKEN = re.compile(r"\(([^,()]*),([^,()]*)\)")


def tangle_from_text(text: str) -> Tangle:
    text = text.strip()
    head, sep, body = text.partition(";")
    if not sep or not head.startswith("n="):
        raise ValueError(f"cannot parse tangle text: {text!r}")
    n = _canonical_int(head[2:])
    if n is None:
        raise ValueError(f"bad degree token {head!r}")
    body = body.strip()
    if not body.startswith("blocks="):
        raise ValueError(f"bad blocks token {body!r}")
    rest = body[len("blocks="):]
    blocks = []
    pos = 0
    while pos < len(rest):
        m = _BLOCK_TOKEN.match(rest, pos)
        block = m and tuple(map(_canonical_int, m.groups()))
        if not block or None in block:
            raise ValueError(f"bad block token at {rest[pos:pos+16]!r}")
        blocks.append(block)
        pos = m.end()
    return make_tangle(n, blocks)


def tangle_to_doc(t: Tangle) -> dict:
    return {"n": t.n, "blocks": [[u, v] for u, v in t.blocks]}


def tangle_from_doc(doc: dict) -> Tangle:
    if not isinstance(doc, dict):
        raise ValueError(f"tangle document is {type(doc).__name__}, not dict")
    for key in ("n", "blocks"):
        if key not in doc:
            raise ValueError(f"tangle document has no {key!r} key")
    try:
        n = _integer(doc["n"])
        blocks = [tuple(map(_integer, blk)) for blk in doc["blocks"]]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed tangle document: {exc}") from None
    return make_tangle(n, blocks)
