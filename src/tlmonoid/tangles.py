"""Exact planar-tangle calculus for the Temperley-Lieb monoid TL_n.

A degree-n tangle is n disjoint strings in a rectangle joining the 2n
boundary points; up to homotopy it is determined by the induced perfect
matching on the boundary, so we store exactly that, as a partner array.
Points are signed integers: +i is the i-th upper point, -i the i-th lower
point.  Walking the boundary cycle (upper row left to right, then lower row
right to left) gives each point a position

    pos(+i) = i,     pos(-i) = 2n + 1 - i,

that is, pos(w) = w mod (2n + 1).  Positions are the one internal encoding:
partner arrays are indexed by them, and signed points appear only in
blocks, text, documents and errors.  The strings are disjoint exactly when
no two blocks interleave in position order, which one stack scan decides.
Composition stacks one diagram on top of another, fuses the middle row,
discards the closed loops that appear in the interior and reports how many
were discarded; that count is the exponent used by the twisted algebra
product.  `dagger` is the top-bottom reflection, which makes TL_n a regular
*-monoid; on positions it is q -> 2n + 1 - q.

The tangle rule is stated once, in `Tangle.__init__`, which every writer
but `verify.enumerate_TL` (`_unchecked`) goes through.
"""

from __future__ import annotations

import re

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

    `partners` is a tuple of 2n+1 ints indexed by boundary position
    (index 0 holds 0): entry q is the position of q's partner.  A matching
    has exactly one such array, so equality, hashing, repr and pickling use
    the array alone.  The constructor, which unpickling calls too, is the
    tangle rule: the degree rule (DegreeError), NotAMatching unless
    `partners` is a tuple of ints, then `_check_planar`.

    Private slots: `_hash`, None until the tangle is first hashed, and
    `_halves`, the masks of its two rows as one int (`_masks`; 28 bytes at
    n = 10), set by the product table (`_Table`) when the tangle is first
    a factor or is built as a product; products are shared.
    """

    __slots__ = ("n", "partners", "_hash", "_halves")

    def __init__(self, n: int, partners: tuple[int, ...]):
        _check_degree(n)
        if type(partners) is not tuple or {*map(type, partners)} - {int}:
            raise NotAMatching(f"partners of degree {n} are not a tuple "
                               "of ints")
        _check_planar(n, partners)
        self.n, self.partners, self._hash = n, partners, None

    def __eq__(self, other):
        if not isinstance(other, Tangle):
            return NotImplemented
        return self.partners == other.partners

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(self.partners)
        return h

    def __repr__(self):
        return f"Tangle[{tangle_to_text(self)}]"

    def __reduce__(self):
        return Tangle, (self.n, self.partners)

    @property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        """Canonical blocks: each pair, and the pairs, ordered by position."""
        n, p = self.n, self.partners
        return tuple(_block(n, p, q) for q, r in enumerate(p) if r > q)


def _unchecked(n: int, partners: tuple[int, ...]) -> Tangle:
    # `Tangle` without its check, for `verify.enumerate_TL`'s arrays, which
    # are planar by construction
    t = object.__new__(Tangle)
    t.n, t.partners, t._hash = n, partners, None
    return t


def _block(n, p, q):
    # the block opened at position q, as a pair of signed points (pos^-1)
    r = p[q]
    return (q if q <= n else q - 2 * n - 1), (r if r <= n else r - 2 * n - 1)


def _check_planar(n: int, p: tuple[int, ...]) -> None:
    """Raise unless `p` is the partner array of disjoint strings.

    One stack scan of all 2n points in boundary order: each point opens a
    string or closes the one opened last, which must point back to it, and
    a scan that ends with none open proves `p` a non-crossing matching.
    Only on failure is `p` read again: NotAMatching, naming the degree,
    unless its 2n + 1 entries, 0 first, pair the positions; else
    CrossingError names the first block in canonical order crossing a later
    one, and the first such later block.  A block crosses the strings
    opened after it and still open when it closes, so each opening position
    is unlinked from a list of all of them as its string closes; the next
    one in the list then opened first after it.
    """
    m = 2 * n + 1
    if len(p) != m or p[0]:
        raise NotAMatching(f"partners of degree {n} are {m} entries, 0 first")
    stack = [0]                     # a sentinel, then open positions
    for q in range(1, m):
        r = p[q]
        if r > q:
            stack.append(q)
        elif stack.pop() != r or p[r] != q:
            break
    else:
        if len(stack) == 1:
            return
    for q, r in enumerate(p):
        if q and not (0 < r < m and r != q and p[r] == q):
            raise NotAMatching(
                f"position {q} has partner {r}: not a matching of degree {n}")
    opens = [q for q, r in enumerate(p) if r > q]
    nxt = dict(zip([0, *opens], [*opens, m]))
    prv = dict(zip([*opens, m], [0, *opens]))
    best = (m, 0)
    for q, r in enumerate(p):
        if r < q:
            later = nxt[r]
            if later < q:
                best = min(best, (r, later))
            nxt[prv[r]], prv[later] = later, prv[r]
    raise CrossingError(_block(n, p, best[0]), _block(n, p, best[1]))


def make_tangle(n: int, blocks) -> Tangle:
    """The tangle of two-point blocks of signed points.

    Raises DegreeError unless n is a positive int (a bool is refused),
    ValueError (naming it) for a point that is not an integer, and
    NotAMatching unless every point of {+-1, ..., +-n} occurs in exactly
    one two-point block: this monoid has no wider blocks.  `Tangle` then
    raises CrossingError, naming the two offending blocks, if any blocks
    interleave.
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
        pairs.append((u % (2 * n + 1), v % (2 * n + 1)))   # pos(u), pos(v)
    if len(pairs) != n:
        raise NotAMatching(f"expected {n} blocks, got {len(pairs)}")
    p = [0] * (2 * n + 1)
    for q, r in pairs:
        p[q], p[r] = r, q
    return Tangle(n, tuple(p))


def identity(n: int) -> Tangle:
    """The unit of TL_n: n vertical strings; a new one per call."""
    _check_degree(n)
    return Tangle(n, (0, *range(2 * n, 0, -1)))


def compose(a: Tangle, b: Tangle) -> tuple[Tangle, int]:
    """Stack `a` on top of `b`; return the resulting tangle and loop count.

    Both are read from the degree's product table (`_Table`), whose
    entries are computed the first time a product needs them.  Every
    factor is a checked `Tangle`, so only the degrees are compared here.
    """
    if a.n != b.n:
        raise DegreeMismatch(f"degrees {a.n} and {b.n} differ")
    n = a.n
    tab = _table(n)
    ta, ba = tab.halves_of(a)
    tb, bb = tab.halves_of(b)
    m, fa, fb = tab.pairing(ba, tb.mask)
    return tab.product(ta[fa] << n | bb[fb]), m


# -- the product table -----------------------------------------------------------
# A half is a row of a tangle, fixed by its mask: n bits, from the most
# significant, the i-th set when point i is the left end of an arc (as in
# `boundary_tuples`), built and read as bit strings in time linear in n.

_TABLES: dict[int, _Table] = {}     # degree -> its product table


def _table(n: int) -> _Table:
    if n not in _TABLES:
        _TABLES[n] = _Table(n)
    return _TABLES[n]


class _Table(dict):
    """The products of degree-n tangles by their halves, filled lazily.

    a.b is a's top and b's bottom half with some through points fused into
    arcs; which, and the loop count, depend only on a's bottom and b's top
    half.  The table maps each mask met to its `_Half`, at most C(n, n // 2)
    of them, each with at most as many pairings, whose distinct triples are
    shared (`entries`).  `products` maps top mask << n | bottom mask to the
    diagram's one `Tangle`, built by `_join` and checked by `Tangle` when
    first asked for: at most Catalan(n).  An entry is stored after its check.
    """

    __slots__ = ("n", "entries", "products")

    def __init__(self, n: int):
        self.n, self.entries, self.products = n, {}, {}

    def __missing__(self, mask: int) -> _Half:
        half = self[mask] = _Half(self.n, mask)
        return half

    def halves_of(self, t: Tangle) -> tuple[_Half, _Half]:
        # (top, bottom half); t's masks are kept on first use
        k = getattr(t, "_halves", None)
        if k is None:
            k = t._halves = _masks(t.n, t.partners)
        return self[k >> self.n], self[k & (1 << self.n) - 1]

    def pairing(self, b: _Half, t: int) -> tuple[int, bytes, bytes]:
        """(loops, fa, fb) of bottom half `b` above the top half of mask t."""
        e = b.pairs.get(t)
        if e is None:
            e = _pairing(self.n, b.row, self[t].row)
            e = b.pairs[t] = self.entries.setdefault(e, e)
        return e

    def product(self, k: int) -> Tangle:
        """The one Tangle with key `k`."""
        t = self.products.get(k)
        if t is None:
            n = self.n
            p = _join(n, self[k >> n], self[k & (1 << n) - 1])
            t = self.products[k] = Tangle(n, p)
            t._halves = k
        return t


class _Half(dict):
    """A half, and its fused masks by fusion, filled lazily.

    `row` has the other end of each arc at points 1..n, 0 at a through
    point; `through` lists those in order.  A fusion has a byte per through
    point, 1 for the left end of a new arc.  `pairs` maps a top half's mask
    to the pairing of this half, as a bottom half, above it.
    """

    __slots__ = ("mask", "row", "through", "pairs")

    def __init__(self, n: int, mask: int):
        row, through, opened = [0] * (n + 1), [], []
        for i, bit in enumerate(f"{mask:0{n}b}", 1):
            if bit == "1":
                opened.append(i)
            elif opened:
                j = opened.pop()
                row[i], row[j] = j, i
            else:
                through.append(i)
        self.mask, self.row, self.through = mask, tuple(row), tuple(through)
        self.pairs = {}

    def __missing__(self, f: bytes) -> int:
        fused = list(f"{self.mask:0{len(self.row) - 1}b}")
        for i, bit in zip(self.through, f):
            if bit:
                fused[i - 1] = "1"
        fused = self[f] = int("".join(fused), 2)
        return fused


def _masks(n: int, p: tuple[int, ...]) -> int:
    # top mask << n | bottom mask of a planar partner array; -j is at 2n+1-j
    return int("".join(["1" if q < p[q] <= n else "0" for q in range(1, n + 1)]
                       + ["1" if n < p[q] < q else "0"
                          for q in range(2 * n, n, -1)]), 2)


def _pairing(n: int, low, up) -> tuple[int, bytes, bytes]:
    """(loops, fa, fb) where a bottom row `low` meets a top row `up`.

    The rows are `_Half.row`s.  Each through strand of the upper factor,
    in order, is traced across the middle row to one of the lower factor,
    or back up to a later one of its own, when its byte in the fusion fa
    is 1; fb is found the same way, and the points left lie on loops.
    """
    seen = [False] * (n + 1)
    fused = []
    for first, second in ((low, up), (up, low)):
        flags = []
        for m in range(1, n + 1):
            if first[m]:
                continue
            e, end = m, 0
            while not seen[e]:          # along `second`, then `first`, ...
                seen[e] = True
                f = second[e]
                if not f:               # meets the other factor's strand
                    break
                seen[f] = True
                e = first[f]
                if not e:               # comes back: a new arc
                    end = 1
                    break
            flags.append(end)
        fused.append(bytes(flags))
    loops = 0
    for m in range(1, n + 1):
        if not seen[m]:
            loops += 1
            e = m
            while not seen[e]:
                seen[e] = True
                f = low[e]
                seen[f] = True
                e = up[f]
    return loops, *fused


def _join(n: int, top: _Half, bottom: _Half) -> tuple[int, ...]:
    # the partner array of `top` over `bottom`, their k-th through points
    # joined for every k; -j is at position m - j
    m = 2 * n + 1
    p = [*top.row, *[f and m - f for f in bottom.row[:0:-1]]]
    for i, j in zip(top.through, bottom.through, strict=True):
        p[i], p[m - j] = m - j, i
    return tuple(p)


def dagger(a: Tangle) -> Tangle:
    """Reflection through the horizontal midline: every point changes sign."""
    m = 2 * a.n + 1
    return Tangle(a.n, (0, *[m - r for r in a.partners[:0:-1]]))


def profile(a: Tangle) -> tuple[int, frozenset, frozenset]:
    """(rank, dom, codom): through-strand count and its endpoint sets.

    The rank always has the parity of n (the arcs pair up the other
    points on each side); the tests check this over every diagram.
    """
    n, p = a.n, a.partners
    dom = frozenset(i for i in range(1, n + 1) if p[i] > n)
    codom = frozenset(2 * n + 1 - p[i] for i in dom)
    return len(dom), dom, codom


def boundary_tuples(a: Tangle) -> tuple[TnTuple, TnTuple]:
    """(bl, br): leftmost endpoints of the upper / lower arcs, decreasing.

    Both results are validated members of T_n.
    """
    n, p = a.n, a.partners
    upper = [i for i in range(n, 0, -1) if i < p[i] <= n]
    lower = [2 * n + 1 - q for q in range(n + 1, 2 * n + 1) if n < p[q] < q]
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
