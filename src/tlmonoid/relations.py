"""The defining relations of TL_n over its three alphabets.

Family Omega lives on L u R and splits into

    L1(i):    L_i L_{n-1}            = L_i
    L2(i,j):  L_i L_j                = L_{j+2} L_i        (i <= j <= n-3)
    L3(i):    L_{n-2i+1}^i L_{n-2i}  = L_{n-2i+1}^i
    R1(i):    R_{n-1} R_i            = R_i
    R2(i,j):  R_j R_i                = R_i R_{j+2}        (i <= j <= n-3)
    R3(i):    R_{n-2i} R_{n-2i+1}^i  = R_{n-2i+1}^i
    RL1(i,j): R_i L_j                = L_{n-1} L_j R_{i-2}  (j <= i-2)
    RL2(i,j): R_i L_j                = L_{n-1}              (|i-j| <= 1)
    RL3(i,j): R_i L_j                = L_{n-1} L_{j-2} R_i  (j >= i+2)
    A:        L_{n-1}                = R_{n-1}

(the alias A carries the identification of the two top-index generators,
so every step names a single unambiguous replacement).  R1-R3 are the
dagger images of L1-L3: each side reversed, with L_i and R_i exchanged;
they are built that way.  Every `Relation` carries the id of its dagger
image (`mirror`), and `mirror_steps` reflects whole derivations by it.
Family Xi lives on the hook alphabet:

    E1(i):    E_i E_i     = E_i
    E2(i,j):  E_i E_j     = E_j E_i     (|i-j| > 1)
    E3(i,j):  E_i E_j E_i = E_i        (|i-j| = 1)

Each relation's constructor is the one statement of its domain.
`relation_by_id`, the one resolver of a step id, goes through it, and the
families enumerate the same constructors, so the two agree by construction.
A relation is in a checked family when its name is (`FAMILY_NAMES`).  Powers
in L3/R3 are stored as explicit letter repetitions so that positional
matching works on words.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import NamedTuple

from .errors import BadStep, FamilyViolation, NoMatch
from .tuples import _canonical_int, _check_degree
from .words import E as _E, L as _L, Letter, R as _R, Word, letter

__all__ = [
    "Relation",
    "Step",
    "relation_set",
    "relation_index",
    "relation_by_id",
    "mirror_steps",
    "replay",
    "apply_step",
    "step_to_text",
    "step_from_text",
    "FAMILIES",
    "FAMILY_NAMES",
]

# the relation names of each family, in enumeration order
_MEMBERS = {"OmegaL": ("L1", "L2", "L3"), "OmegaR": ("R1", "R2", "R3"),
            "Omega": tuple("L1 L2 L3 R1 R2 R3 RL1 RL2 RL3 A".split()),
            "Xi": ("E1", "E2", "E3")}
FAMILIES = tuple(_MEMBERS)

# the relation names of the two presentations a derivation is checked in
FAMILY_NAMES = {f: frozenset(_MEMBERS[f]) for f in ("Omega", "Xi")}


@dataclass(frozen=True)
class Relation:
    """A relation instance: its id, its sides, and the id's name and args."""

    rid: str
    lhs: tuple[Letter, ...]
    rhs: tuple[Letter, ...]
    name: str
    args: tuple[int, ...]
    mirror: str | None   # the id of the dagger image; None for RL1..RL3, A

    def __str__(self) -> str:
        lhs = " ".join(map(str, self.lhs)) or "1"
        rhs = " ".join(map(str, self.rhs)) or "1"
        return f"{self.rid}: {lhs} = {rhs}"


class Step(NamedTuple):
    """A single relation application at an absolute word position."""

    pos: int
    rid: str
    forward: bool = True

    def __str__(self) -> str:
        return step_to_text(self)


# certificates run to thousands of steps: build each one as a plain tuple,
# past the keyword-handling constructor
_new = tuple.__new__


def shift_steps(steps, d: int) -> list[Step]:
    """The steps moved `d` letters to the right; `steps` itself if d is 0."""
    if not d:
        return steps
    return [_new(Step, (p + d, rid, fwd)) for p, rid, fwd in steps]


def reverse_steps(steps) -> list[Step]:
    """The inverse chain: the steps in reverse order, each one undone."""
    return [_new(Step, (p, rid, not fwd)) for p, rid, fwd in reversed(steps)]


def _rid(name, args):
    return f"{name}({','.join(map(str, args))})" if args else name


# -- single-instance constructors: each returns None outside its domain ------

def _rel_L1(n, i):
    if 1 <= i <= n - 1:
        return _rel("L1", (i,), (_L(i), _L(n - 1)), (_L(i),))


def _rel_L2(n, i, j):
    if 1 <= i <= j <= n - 3:
        return _rel("L2", (i, j), (_L(i), _L(j)), (_L(j + 2), _L(i)))


def _rel_L3(n, i):
    k = n - 2 * i + 1
    if i >= 1 and k - 1 >= 1:
        return _rel("L3", (i,), (_L(k),) * i + (_L(k - 1),), (_L(k),) * i)


def _rel_RL1(n, i, j):
    if 1 <= j <= i - 2 and i <= n - 1:
        return _rel("RL1", (i, j), (_R(i), _L(j)),
                    (_L(n - 1), _L(j), _R(i - 2)))


def _rel_RL2(n, i, j):
    if 1 <= i <= n - 1 and 1 <= j <= n - 1 and abs(i - j) <= 1:
        return _rel("RL2", (i, j), (_R(i), _L(j)), (_L(n - 1),))


def _rel_RL3(n, i, j):
    if 1 <= i and i + 2 <= j <= n - 1:
        return _rel("RL3", (i, j), (_R(i), _L(j)),
                    (_L(n - 1), _L(j - 2), _R(i)))


def _rel_A(n):
    return _rel("A", (), (_L(n - 1),), (_R(n - 1),))


def _rel_E1(n, i):
    if 1 <= i <= n - 1:
        return _rel("E1", (i,), (_E(i), _E(i)), (_E(i),))


def _rel_E2(n, i, j):
    if 1 <= i <= n - 1 and 1 <= j <= n - 1 and abs(i - j) > 1:
        return _rel("E2", (i, j), (_E(i), _E(j)), (_E(j), _E(i)))


def _rel_E3(n, i, j):
    if 1 <= i <= n - 1 and 1 <= j <= n - 1 and abs(i - j) == 1:
        return _rel("E3", (i, j), (_E(i), _E(j), _E(i)), (_E(i),))


# -- the mirror rule -------------------------------------------------------------
# Dagger reverses a word and swaps L_i <-> R_i; E_i is its own image.  It
# carries L1/L2/L3 onto R1/R2/R3 with the same parameters, E2(i,j) onto
# E2(j,i), and E1, E3 onto themselves.  RL1..RL3 and A have no image among
# the relations.  `_rel` states each relation's image once, as its `mirror`.

_DAGGER_NAME = {"L1": "R1", "L2": "R2", "L3": "R3",
                "R1": "L1", "R2": "L2", "R3": "L3",
                "E1": "E1", "E2": "E2", "E3": "E3"}
_DAGGER_ALPHABET = {"L": "R", "R": "L", "E": "E"}


def _rel(name, args, lhs, rhs):
    image = _DAGGER_NAME.get(name)
    if image is not None:
        image = _rid(image, args[::-1] if name == "E2" else args)
    return Relation(_rid(name, args), lhs, rhs, name, args, image)


def _dagger_letters(letters):
    return tuple(letter(_DAGGER_ALPHABET[c.alphabet], c.index)
                 for c in reversed(letters))


def _mirrored(ctor):
    # R1..R3 from L1..L3: each relation `ctor` builds, with its sides
    # replaced by their dagger images and the same parameters
    def mirrored(n, *args):
        rel = ctor(n, *args)
        return rel and _rel(_DAGGER_NAME[rel.name], args,
                            _dagger_letters(rel.lhs), _dagger_letters(rel.rhs))
    return mirrored


def mirror_steps(n: int, length: int, steps) -> list[Step]:
    """Reflect a derivation on a word of `length` letters onto the reversed word.

    A step matching m letters at position p becomes the dagger image of its
    relation matching at `length - p - m`; the running length follows the
    relation's side lengths, so the word itself is never replayed.  The
    image's id is the relation's `mirror`; ValueError names a relation
    without one (RL1..RL3, A).  Reflecting twice returns the input.
    Reflecting with `length + d` instead of `length` places the image d
    letters further right.
    """
    out = []
    for p, rid, fwd in steps:
        rel = relation_by_id(n, rid)
        if rel.mirror is None:
            raise ValueError(f"{rid} has no mirror image among the relations")
        src, dst = len(rel.lhs), len(rel.rhs)
        if not fwd:
            src, dst = dst, src
        out.append(_new(Step, (length - p - src, rel.mirror, fwd)))
        length += dst - src
    return out


# -- families --------------------------------------------------------------------
# relation_by_id resolves an id through this table and the families enumerate
# it, so the ids a certificate may use are exactly the family members.

_CONSTRUCTORS = {
    "L1": (1, _rel_L1), "L2": (2, _rel_L2), "L3": (1, _rel_L3),
    "R1": (1, _mirrored(_rel_L1)), "R2": (2, _mirrored(_rel_L2)),
    "R3": (1, _mirrored(_rel_L3)),
    "RL1": (2, _rel_RL1), "RL2": (2, _rel_RL2), "RL3": (2, _rel_RL3),
    "A": (0, _rel_A),
    "E1": (1, _rel_E1), "E2": (2, _rel_E2), "E3": (2, _rel_E3),
}


@lru_cache(maxsize=None, typed=True)  # typed: a float or bool n is refused
def relation_index(n: int, which: str) -> dict[str, Relation]:
    """The named family at degree n by id, in enumeration order; for
    enumeration, not lookup.  The degree passes `_check_degree(n, 3)`."""
    _check_degree(n, 3)
    if which not in _MEMBERS:
        raise ValueError(
            f"unknown relation family {which!r}; pick from {FAMILIES}")
    return {r.rid: r for name in _MEMBERS[which]
            for arity, ctor in [_CONSTRUCTORS[name]]
            for args in product(range(1, n), repeat=arity)
            if (r := ctor(n, *args)) is not None}


def relation_set(n: int, which: str) -> list[Relation]:
    """All instances of the named family at degree n, deterministic order."""
    return list(relation_index(n, which).values())


_RID_RE = re.compile(r"^([A-Z]+[0-9]*)(?:\((\d+)(?:,(\d+))?\))?$")


@lru_cache(maxsize=None, typed=True)  # typed: a float or bool n is refused
def relation_by_id(n: int, rid: str) -> Relation:
    """The relation a canonical id names at degree n: exactly the ids of
    the Omega and Xi families.  A degree `tuples._check_degree(n, 3)`
    refuses raises its error; any other id, ValueError naming it."""
    _check_degree(n, 3)
    m = _RID_RE.match(rid)
    if not m:
        raise ValueError(f"malformed relation id {rid!r}")
    name = m.group(1)
    args = tuple(int(g) for g in m.groups()[1:] if g is not None)
    if _rid(name, args) != rid:
        raise ValueError(f"non-canonical relation id {rid!r}")
    arity, ctor = _CONSTRUCTORS.get(name, (None, None))
    if arity != len(args):
        raise ValueError(f"unknown relation id {rid!r}")
    rel = ctor(n, *args)
    if rel is None:
        raise ValueError(f"{rid}: outside its domain at n={n}")
    return rel


def replay(n: int, word: list, steps, family: str | None = None) -> list:
    """Replay `steps` in place on the list of letters `word`; return it.

    Each distinct (id, direction) is resolved once per call through
    `relation_by_id`.  An id it refuses, or whose relation is outside
    `family` (any family when None), raises FamilyViolation chained from the
    refusal; a side that does not match verbatim raises BadStep with the
    step index, chained from the NoMatch it describes.
    """
    names = _CONSTRUCTORS if family is None else FAMILY_NAMES.get(family)
    if names is None:
        raise FamilyViolation(f"unknown relation family {family!r}")
    _check_degree(n, 3)
    # rid -> (side matched as a list, its length, side put in its place)
    fwd_sides, bwd_sides = {}, {}
    for i, (p, rid, fwd) in enumerate(steps):
        sides = fwd_sides if fwd else bwd_sides
        side = sides.get(rid)
        if side is None:
            try:
                rel, cause = relation_by_id(n, rid), None
            except ValueError as exc:
                rel, cause = None, exc
            if rel is None or rel.name not in names:
                raise FamilyViolation(
                    f"step {i} uses {rid}, not a {family or 'known'} "
                    f"relation at n={n}") from cause
            src, dst = (rel.lhs, rel.rhs) if fwd else (rel.rhs, rel.lhs)
            side = sides[rid] = (list(src), len(src), dst)
        src, k, dst = side
        if p < 0 or word[p:p + k] != src:
            expected = " ".join(map(str, src))
            found = " ".join(map(str, word[p:p + k])) or "1"
            raise BadStep(i, f"{rid} expected {expected} at {p}, "
                             f"found {found}") from NoMatch(p, expected, found)
        word[p:p + k] = dst
    return word


def apply_step(w: Word, s: Step) -> Word:
    """Apply one relation instance at an explicit position, by `replay`.

    Forward replaces the left side by the right side; backward the reverse.
    Raises NoMatch (reporting expected versus found letters) if the matched
    side does not occur verbatim at the position, and relation_by_id's
    ValueError for an id it refuses.
    """
    try:
        return Word(w.n, tuple(replay(w.n, list(w.letters), (s,))))
    except (BadStep, FamilyViolation) as exc:
        raise exc.__cause__ from None


# -- step text format: `<pos>:<RelId>:<fwd|bwd>` ------------------------------

def step_to_text(s: Step) -> str:
    return f"{s.pos}:{s.rid}:{'fwd' if s.forward else 'bwd'}"


_WAYS = {"fwd": True, "bwd": False}


def step_from_text(text: str) -> Step:
    try:
        pos, rid, way = text.strip().split(":")
        forward = _WAYS[way]
    except (ValueError, KeyError):
        raise ValueError(f"bad step text {text!r}") from None
    p = _canonical_int(pos)
    if p is None:
        raise ValueError(f"bad step position {pos!r}")
    return _new(Step, (p, rid, forward))
