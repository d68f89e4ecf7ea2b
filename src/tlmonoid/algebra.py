"""The twisted semigroup algebra TL_n(k, delta) over exact rationals.

Elements are finite linear combinations of tangles.  The product of two
basis diagrams is their diagram product rescaled by delta raised to the
number of interior loops the stacking closed, extended bilinearly.  Every
pair of terms is read from the product table of the degree that `compose`
also reads (`tangles._Table`): it holds at most C(n, n // 2) halves, the
square of that in pairings and Catalan(n) diagrams, each filled and checked
once per process, so a tangle keeps only its two halves' masks (one int)
and the product's terms are the table's shared, immutable tangles.  All
arithmetic is exact: coefficients are arbitrary-precision rationals
(`Fraction`), and the product accumulates them as integers over one common
denominator, then builds the `Fraction` of each distinct sum once.  A
number given as text is read by `rational`, which refuses exponent
notation.  delta is threaded through the product rather than stored on
elements, and is recorded when serializing.  This is the one module that
knows about delta: the loop-weighted relations of the hook alphabet carry
integer powers of it (`twist_relations`).  It holds no verification code;
`verify.verify_xi_prime` proves those relations for every delta at once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import AlphabetError, DegreeMismatch, NotAMatching
from .relations import relation_set
from .tangles import (Tangle, _table, identity, tangle_from_text,
                      tangle_to_text)
from .tuples import _canonical_int, _check_degree
from .words import Letter, Word, evaluate

__all__ = [
    "AlgebraElement",
    "zero",
    "one",
    "add",
    "scale",
    "alg_mul",
    "alg_eval_word",
    "TwistedRelation",
    "twist_relations",
    "element_to_text",
    "element_from_text",
    "rational",
]


class AlgebraElement:
    """An exact linear combination of degree-n tangles.

    Zero coefficients are never stored; equality is coefficientwise.  A bad
    degree raises DegreeError, a term that is not a `Tangle` NotAMatching,
    one of another degree DegreeMismatch.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        _check_degree(n)
        self.n = n
        clean: dict[Tangle, Fraction] = {}
        if terms:
            for t, c in (terms.items() if isinstance(terms, dict) else terms):
                if not isinstance(t, Tangle):
                    raise NotAMatching(f"term {t!r} is not a Tangle")
                if t.n != n:
                    raise DegreeMismatch(
                        f"term of degree {t.n} in an element of degree {n}")
                c = _fraction(c)
                if c:
                    c = clean.get(t, Fraction(0)) + c
                    if c:
                        clean[t] = c
                    else:
                        del clean[t]
        self.terms = clean

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __repr__(self):
        k = len(self.terms)
        return f"<AlgebraElement n={self.n} with {k} term{'s'[:k != 1]}>"

    def is_zero(self) -> bool:
        return not self.terms

    def items_sorted(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].blocks)

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scale(-1, other))

    def __rmul__(self, c):
        return scale(c, self)


def zero(n: int) -> AlgebraElement:
    return AlgebraElement(n)


def one(n: int) -> AlgebraElement:
    """The identity tangle with coefficient 1."""
    return AlgebraElement(n, {identity(n): Fraction(1)})


def add(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    if a.n != b.n:
        raise DegreeMismatch(f"degrees {a.n} and {b.n} differ")
    return AlgebraElement(a.n, [*a.terms.items(), *b.terms.items()])


def scale(c, a: AlgebraElement) -> AlgebraElement:
    c = _fraction(c)
    out = AlgebraElement(a.n)
    if c:
        out.terms = {t: c * v for t, v in a.terms.items()}
    return out


def _integer_terms(a: AlgebraElement, tab) -> tuple[list, int]:
    # per term (top half, bottom half, numerator over the lcm denominator)
    d = lcm(*(c.denominator for c in a.terms.values()))
    return [(*tab.halves_of(t), c.numerator * (d // c.denominator))
            for t, c in a.terms.items()], d


def alg_mul(a: AlgebraElement, b: AlgebraElement, delta) -> AlgebraElement:
    """Bilinear product; basis diagrams multiply with weight delta^loops.

    Each pair of terms costs a few lookups in the product table
    (`tangles._Table`), as in `compose`: the pairing of the left term's
    bottom half with the right term's top half gives the loop count and
    two fusions, and the fused halves the product's key, one int.  Each
    distinct key gives its shared `Tangle` once, built and checked when
    first met, a sum that cancels to zero included.  With delta = p/q and
    at most h = n // 2 loops, delta^m = p^m q^(h-m) / q^h, so the sums are
    integers over one denominator until the end, and each term of `a` has
    its coefficient multiplied by every weight first.  Equal sums share one
    `Fraction`, built once per call.
    """
    if a.n != b.n:
        raise DegreeMismatch(f"degrees {a.n} and {b.n} differ")
    n = a.n
    delta = _fraction(delta)
    p, q = delta.numerator, delta.denominator
    h = n // 2
    weight = [p ** m * q ** (h - m) for m in range(h + 1)]
    tab = _table(n)
    ia, da = _integer_terms(a, tab)
    ib, db = _integer_terms(b, tab)
    ib = [(tb.mask, bb, cb) for tb, bb, cb in ib]
    sums: dict[int, int] = {}
    for ta, ba, ca in ia:
        cw = [ca * w for w in weight]
        row = ba.pairs
        for tb, bb, cb in ib:
            m, fa, fb = row.get(tb) or tab.pairing(ba, tb)
            k = ta[fa] << n | bb[fb]
            sums[k] = sums.get(k, 0) + cw[m] * cb
    denom = da * db * q ** h
    coeff = {v: Fraction(v, denom) for v in set(sums.values()) if v}
    out = AlgebraElement(n)
    products = [(tab.product(k), v) for k, v in sums.items()]
    out.terms = {t: coeff[v] for t, v in products if v}
    return out


def alg_eval_word(w: Word, delta) -> AlgebraElement:
    """Image of a hook-alphabet word: delta^{loops} times its diagram."""
    if w.letters and not w.alphabets() <= {"E"}:
        raise AlphabetError("alg_eval_word takes a pure E word")
    delta = _fraction(delta)
    t, m = evaluate(w)
    return AlgebraElement(w.n, {t: delta ** m})


# -- the loop-weighted relation family, for every delta -----------------------

@dataclass(frozen=True)
class TwistedRelation:
    """delta^lhs_power * lhs = delta^rhs_power * rhs, for every delta."""

    rid: str
    lhs_power: int
    lhs: tuple[Letter, ...]
    rhs_power: int
    rhs: tuple[Letter, ...]


def twist_relations(n: int) -> list[TwistedRelation]:
    """The hook-algebra relation family obtained by loop-weighting Xi.

    Each side is weighted by delta raised to the number of loops the other
    side closes, as counted by `evaluate`, so only E1 picks up a power and
    becomes E_i E_i = delta * E_i.  Raises DegreeTooSmall for n < 3.
    """
    out = []
    for rel in relation_set(n, "Xi"):
        m_lhs = evaluate(Word(n, rel.lhs))[1]
        m_rhs = evaluate(Word(n, rel.rhs))[1]
        out.append(TwistedRelation(rel.rid, m_rhs, rel.lhs, m_lhs, rel.rhs))
    return out


# -- element text format ---------------------------------------------------------
# `delta=<rational>; n=<int>;` then one `<rational> * <tangle>` line per term,
# sorted canonically.  delta is recorded for safety even though elements do
# not carry it.

def element_to_text(a: AlgebraElement, delta) -> str:
    lines = [f"delta={_fraction(delta)}; n={a.n};"]
    for t, c in a.items_sorted():
        lines.append(f"{c} * {tangle_to_text(t)}")
    return "\n".join(lines) + "\n"


def rational(text: str) -> Fraction:
    """The rational written `text`, like `2`, `-1/3` or `0.5`.

    Each integer part is read only in the spelling `str(int)` gives it, a
    denominator must be positive and decimal digits ASCII.  Anything else,
    `+3`, `03`, `1_0`, `٣`, ` 3` and `1/0` included, raises ValueError
    naming the text; so does exponent notation such as `1e400`, which
    `Fraction` would expand into an integer of that many digits.
    """
    num, slash, den = text.partition("/")
    whole, point, digits = num.partition(".")
    if point:           # a decimal; its sign is the whole's, as in `-0.5`
        ok = not slash and digits.isascii() and digits.isdigit()
        whole = whole.removeprefix("-")
    else:
        ok = not slash or (_canonical_int(den) or 0) > 0
    if not ok or _canonical_int(whole) is None:
        raise ValueError(f"bad rational {text!r}; expected like 2, -1/3 or 0.5")
    return Fraction(text)


def _fraction(x) -> Fraction:
    # a caller's coefficient or delta: text is read by `rational`, which
    # refuses exponent notation that `Fraction` would expand in full
    return rational(x) if isinstance(x, str) else Fraction(x)


_ELEMENT_HEADER = re.compile(r"^delta=([^;]+);\s*n=(0|[1-9][0-9]*);$")


def element_from_text(text: str) -> tuple[AlgebraElement, Fraction]:
    lines = [ln for ln in map(str.strip, text.strip().splitlines()) if ln]
    if not lines:
        raise ValueError("empty element text")
    m = _ELEMENT_HEADER.match(lines[0])
    if not m:
        raise ValueError(f"bad element header {lines[0]!r}")
    delta = rational(m.group(1))
    n = int(m.group(2))
    terms = []
    for ln in lines[1:]:
        coeff, sep, tng = ln.partition(" * ")
        if not sep:
            raise ValueError(f"bad element line {ln!r}")
        terms.append((tangle_from_text(tng), rational(coeff)))
    return AlgebraElement(n, terms), delta
