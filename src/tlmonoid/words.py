"""Letters and words over the three generating alphabets of TL_n.

The alphabets are L = {L1..L(n-1)}, R = {R1..R(n-1)} and E = {E1..E(n-1)};
a word carries its degree explicitly and the empty word is the monoid
identity, printed `1`.  Evaluation sends a letter to its generator diagram
and multiplies left to right, accumulating the number of interior loops
closed along the way; by the cocycle identity for loop counts the total does
not depend on bracketing.  The hat substitution

    L_i -> E_i E_{i+1} ... E_{n-1},     R_i -> E_{n-1} ... E_{i+1} E_i

rewrites lambda/rho words over the hook alphabet without changing their
evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AlphabetError, DegreeMismatch, LengthMismatch
from .tangles import Tangle
from .tuples import TnTuple, _canonical_int, _check_degree, _integer

__all__ = [
    "Letter",
    "Word",
    "letter",
    "L",
    "R",
    "E",
    "word_from_text",
    "word_to_text",
    "evaluate",
    "generator",
    "build_tangle",
    "hat",
    "hooks_to_pairs",
    "tuple_words",
    "balanced_word",
]

# the alphabet of each generator kind `generator` accepts
_ALPHABET_KIND = {"lambda": "L", "l": "L", "rho": "R", "r": "R", "e": "E"}
_ALPHABETS = frozenset(_ALPHABET_KIND.values())


@dataclass(frozen=True, slots=True)
class Letter:
    """A letter: alphabet L, R or E, and an int index >= 1, not a bool."""

    alphabet: str
    index: int

    def __post_init__(self):
        if self.alphabet not in _ALPHABETS:
            raise AlphabetError(f"unknown alphabet {self.alphabet!r}")
        if _integer(self.index) < 1:
            raise ValueError(f"letter index must be >= 1, got {self.index}")

    def __str__(self) -> str:
        return f"{self.alphabet}{self.index}"


_CACHE: dict[tuple[str, int], Letter] = {}


def letter(alphabet: str, index: int) -> Letter:
    """The interned letter; its index is made an int before it keys the
    table, where True and 2.0 are 1 and 2.  `Letter` checks a new one."""
    if index.__class__ is not int:
        index = _integer(index)
    key = (alphabet, index)
    got = _CACHE.get(key)
    if got is None:
        got = _CACHE[key] = Letter(alphabet, index)
    return got


def L(i: int) -> Letter:
    return letter("L", i)


def R(i: int) -> Letter:
    return letter("R", i)


def E(i: int) -> Letter:
    return letter("E", i)


@dataclass(frozen=True)
class Word:
    """A word over L u R u E with explicit degree n."""

    n: int
    letters: tuple[Letter, ...]

    def __post_init__(self):
        _check_degree(self.n)
        for l in self.letters:
            if type(l) is not Letter:
                raise AlphabetError(f"word entry {l!r} is not a letter")
            if not 1 <= l.index <= self.n - 1:
                raise ValueError(
                    f"letter {l} has index outside [1, {self.n - 1}]")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __str__(self) -> str:
        return word_to_text(self)

    def alphabets(self) -> frozenset[str]:
        return frozenset(l.alphabet for l in self.letters)

    def concat(self, other: "Word") -> "Word":
        if self.n != other.n:
            raise DegreeMismatch(f"degrees {self.n} and {other.n} differ")
        return Word(self.n, self.letters + other.letters)


def word_to_text(w: Word) -> str:
    if not w.letters:
        return "1"
    return " ".join(str(l) for l in w.letters)


def word_from_text(n: int, text: str) -> Word:
    """Parse whitespace-separated tokens `L<i>` / `R<i>` / `E<i>`.

    Input is case-insensitive; `1` (or nothing) denotes the empty word.
    """
    toks = text.split()
    if toks == ["1"] or not toks:
        return Word(n, ())
    letters = []
    for tok in toks:
        head, i = tok[:1].upper(), _canonical_int(tok[1:])
        if head not in _ALPHABETS or i is None or i < 0:
            raise ValueError(f"bad word token {tok!r}")
        letters.append(letter(head, i))
    return Word(n, tuple(letters))


def _action(n: int, l: Letter) -> tuple[int, ...]:
    """(u, v, lo, hi, d, s, t): the generator of `l` under a diagram joins
    the lower points at positions u, v, moves the strings ending at
    positions lo..hi-1 by d and adds the lower arc (s, t).  Positions are
    those of `Tangle.partners`: -j is at 2n + 1 - j.
    """
    j, m = 2 * n - l.index, n + 1     # -(index + 1) is at j, -n at m
    if l.alphabet == "L":       # lower k -> k-2 for k >= index+2
        return j, j + 1, m, j, 2, m, m + 1
    if l.alphabet == "R":       # the dagger image of L
        return m, m + 1, m + 2, j + 2, -2, j, j + 1
    return j, j + 1, 0, 0, 0, j, j + 1     # E: `Letter` admits no other


def evaluate(w: Word) -> tuple[Tangle, int]:
    """Product of the generator diagrams of `w` and the total loop count.

    Letters act on one partner array, the identity's at first (`_action`);
    an upper arc meeting a lower one closes a loop.  `Tangle` checks the end.
    """
    n = w.n
    p = [0, *range(2 * n, 0, -1)]
    loops = 0
    for l in w.letters:
        u, v, lo, hi, d, s, t = _action(n, l)
        a, b = p[u], p[v]
        if a == v:
            loops += 1
        else:
            p[a], p[b] = b, a
        for x, q in enumerate(p[lo:hi], lo + d):
            if lo <= q < hi:
                q += d
            p[x], p[q] = q, x
        p[s], p[t] = t, s
    return Tangle(n, tuple(p)), loops


def generator(n: int, kind: str, i: int) -> Tangle:
    """One of the three basic diagrams of degree n.

    `lambda` joins i to i+1 on top and shifts the strands right of the arc
    two places left, closing with a lower arc at n-1, n; `rho` is its
    reflection; `e` is the hook with arcs {i, i+1} on both rows.  After the
    degree rule, raises IndexError unless 1 <= i <= n - 1 (so n >= 2).
    """
    alphabet = _ALPHABET_KIND.get(str(kind).lower())
    if alphabet is None:
        raise ValueError(f"unknown generator kind {kind!r}")
    _check_degree(n)
    if not 1 <= i <= n - 1:
        raise IndexError(f"generator index {i} outside [1, {n - 1}]")
    return evaluate(Word(n, (letter(alphabet, i),)))[0]


def balanced_word(x: TnTuple, y: TnTuple) -> Word:
    """The balanced word L_x R_y of a pair of tuples of one length.

    The lambda letters in entry order of x, then the rho letters in
    reversed entry order of y; the normal form of every word is one.
    """
    if x.n != y.n:
        raise DegreeMismatch(f"degrees {x.n} and {y.n} differ")
    if len(x) != len(y):
        raise LengthMismatch(f"|x|={len(x)} but |y|={len(y)}")
    return Word(x.n, tuple(letter("L", i) for i in x.entries)
                + tuple(letter("R", i) for i in reversed(y.entries)))


def build_tangle(x: TnTuple, y: TnTuple) -> Tangle:
    """Evaluate the balanced word L_x R_y (`balanced_word`).

    The result is the unique tangle with bl = x and br = y and rank
    n - 2|x|; the tests check this for every balanced pair up to n = 8.
    """
    return evaluate(balanced_word(x, y))[0]


def _hat_indices(n: int, letters) -> list[int]:
    """The hook indices of the hat image of lambda/rho `letters`."""
    out: list[int] = []
    for l in letters:
        if l.alphabet == "L":
            out.extend(range(l.index, n))
        elif l.alphabet == "R":
            out.extend(range(n - 1, l.index - 1, -1))
        else:
            raise AlphabetError(f"hat substitution is undefined on {l}")
    return out


def hat(w: Word) -> Word:
    """Letterwise hat substitution of a lambda/rho word into an E-word.

    A monoid morphism that preserves evaluation; raises AlphabetError if the
    word already contains E letters.
    """
    return Word(w.n, tuple(map(E, _hat_indices(w.n, w.letters))))


def hooks_to_pairs(w: Word) -> Word:
    """Replace every hook letter E_i by the pair L_i R_i.

    Evaluation is unchanged; lambda/rho letters pass through untouched.
    """
    out: list[Letter] = []
    for l in w.letters:
        if l.alphabet == "E":
            out.append(letter("L", l.index))
            out.append(letter("R", l.index))
        else:
            out.append(l)
    return Word(w.n, tuple(out))


def tuple_words(x: TnTuple) -> tuple[Word, Word]:
    """The words L_{x_1}..L_{x_k} and R_{x_k}..R_{x_1} for a tuple x.

    The empty tuple maps to two empty words.
    """
    w, k = balanced_word(x, x).letters, len(x)
    return Word(x.n, w[:k]), Word(x.n, w[k:])
