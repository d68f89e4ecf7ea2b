"""Rewriting certificates over the hook alphabet.

Under the substitution L_i -> E_i E_{i+1} .. E_{n-1}, R_i -> E_{n-1} .. E_i,
every lambda/rho relation instance maps to a fixed chain of E1/E2/E3
rewrites.  This module constructs those chains as step templates, checks
each one once by replaying it from hat(lhs) to hat(rhs), and translates a
whole Omega derivation into an E-alphabet derivation by placing the checked
templates at offsets; `normal_form_E` certifies a hook word this way, on
top of `rewrite.normal_form` of its lift.  The key ingredients:

  * the telescope E_i E_{i+1}..E_{n-1} E_{n-1}..E_{i+1} E_i collapses onto
    E_i by one E1 and a ladder of E3 contractions (and expands by the
    reverse chain);
  * far-apart letters commute, so whole segments can be walked across each
    other with E2 swaps;
  * the rho relations are the dagger images of the lambda relations, so
    each one's template is the template of its `mirror` reflected by
    `relations.mirror_steps`.

Templates are relative to position 0 and are cached per (degree, relation).
Because hat is a monoid homomorphism, a template checked on hat(lhs) is
valid on hat(u lhs v) once shifted by |hat(u)|.  A translation replays,
through `relations.replay`, the hook telescopes and the short L/R word,
never a placed template.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import BadStep, DegreeMismatch, FamilyViolation
from .relations import (
    Step,
    _check_degree,
    _new,
    mirror_steps,
    relation_by_id,
    replay,
    reverse_steps,
    shift_steps,
)
from .rewrite import Derivation, NormalForm, _only, normal_form
from .tangles import Tangle
from .words import (E as _E, Letter, Word, _hat_indices, evaluate, hat,
                    hooks_to_pairs)

__all__ = ["xi_template", "normal_form_E", "e_certificate", "certify",
           "EqualityResult", "equal_words"]


class _EBuilder:
    """Mutable E-word together with the steps that produced it.

    Every step is replayed by `relations.replay`, which matches it against
    the word before applying it; `word` is a read-only view of the word's
    indices.  Used for the hook expansion and for building and checking
    templates; templates are then placed by offset without a builder.
    """

    def __init__(self, n: int, idxs):
        self.n = n
        self.letters = list(map(_E, idxs))
        self.steps: list[Step] = []

    @property
    def word(self) -> list[int]:
        return [c.index for c in self.letters]

    def run(self, steps, offset=0):
        steps = shift_steps(steps, offset)
        try:
            replay(self.n, self.letters, steps, "Xi")
        except BadStep as exc:
            p, rid, _ = steps[exc.index]
            raise RuntimeError(f"{rid} does not match at {p}") from None
        except FamilyViolation as exc:
            raise RuntimeError(str(exc)) from None
        self.steps += steps

    def swap(self, pos):
        i, j = self.letters[pos].index, self.letters[pos + 1].index
        if abs(i - j) <= 1:
            raise RuntimeError(f"cannot commute E{i} past E{j}")
        self.run([Step(pos, f"E2({i},{j})")])

    def contract_e1(self, pos):
        self.run([Step(pos, f"E1({self.letters[pos].index})")])

    def contract_e3(self, pos):
        i, j = self.letters[pos].index, self.letters[pos + 1].index
        self.run([Step(pos, f"E3({i},{j})")])

    def move_right(self, start, length, count):
        # walk the block [start, start+length) right across `count` letters
        for t in range(count):
            for r in range(length - 1, -1, -1):
                self.swap(start + t + r)

    def wh_expand(self, *positions):
        # E_i -> E_i .. E_{n-1} E_{n-1} .. E_i at each position, given right
        # to left, from the outside inwards: the rung E3(k,k+1) backward at
        # pos + k - i, then E1(n-1) backward; all in one replay
        top, steps = self.n - 1, []
        for pos in positions:
            i = self.letters[pos].index
            steps += [_new(Step, (pos + k - i, f"E3({k},{k + 1})", False))
                      for k in range(i, top)]
            steps.append(_new(Step, (pos + top - i, f"E1({top})", False)))
        self.run(steps)


# -- per-relation template builders (forward: hat(lhs) -> hat(rhs)) -----------

def _tmpl_L1(n, i):
    b = _EBuilder(n, list(range(i, n)) + [n - 1])
    b.contract_e1(n - i - 1)
    return b.steps


def _tmpl_L2(n, i, j):
    # built from hat(L_{j+2} L_i) and reversed at the end
    b = _EBuilder(n, list(range(j + 2, n)) + list(range(i, n)))
    b.move_right(0, n - j - 2, j - i + 1)
    b.run([Step(j - i, f"E3({j},{j + 1})", False)])     # E_j -> E_j E_j+1 E_j
    b.move_right(j - i + 2, 1, n - j - 2)
    return reverse_steps(b.steps)


def _tmpl_L3(n, i):
    k = n - 2 * i + 1
    if i == 1:
        b = _EBuilder(n, [n - 1, n - 2, n - 1])
        b.contract_e3(0)
        return b.steps
    seg = 2 * i - 3                      # length of one copy of hat(L_{k+2})
    word = list(range(k, n)) * i + list(range(k - 1, n))
    b = _EBuilder(n, word)
    inner = xi_template(n, f"L2({k},{k})")
    for t in range(i - 1):
        b.run(inner, t * seg)
    b.move_right(0, (i - 1) * seg, 1)
    b.run(xi_template(n, f"L3({i - 1})"), 1)
    b.move_right(0, 1, (i - 1) * seg)
    b.contract_e3((i - 1) * seg)
    for t in range(i - 2, -1, -1):
        b.run(reverse_steps(inner), t * seg)
    return b.steps


def _tmpl_RL2(n, i, j):
    b = _EBuilder(n, list(range(n - 1, i - 1, -1)) + list(range(j, n)))
    if j == i:
        b.contract_e1(n - i - 1)
        t0 = i
    else:
        t0 = min(i, j)
    for t in range(t0, n - 1):
        b.contract_e3(n - t - 2)
    return b.steps


def _tmpl_RL1(n, i, j):
    b = _EBuilder(n, list(range(n - 1, i - 1, -1)) + list(range(j, n)))
    b.move_right(0, n - i, i - 1 - j)
    b.run(xi_template(n, f"RL2({i},{i - 1})"), i - 1 - j)
    b.move_right(0, i - 1 - j, 1)
    b.wh_expand(i - 1 - j)
    return b.steps


def _tmpl_RL3(n, i, j):
    b = _EBuilder(n, list(range(n - 1, i - 1, -1)) + list(range(j, n)))
    b.move_right(n - j + 1, j - i - 1, n - j)
    b.run(xi_template(n, f"RL2({j - 1},{j})"))
    b.wh_expand(1)
    return b.steps


# the builder of each relation's template; R1..R3 mirror those of L1..L3
_TEMPLATE_BUILDERS = {"A": lambda n: [], "L1": _tmpl_L1, "L2": _tmpl_L2,
                      "L3": _tmpl_L3, "RL1": _tmpl_RL1, "RL2": _tmpl_RL2,
                      "RL3": _tmpl_RL3}


@lru_cache(maxsize=None)
def xi_template(n: int, rid: str) -> tuple[Step, ...]:
    """E-alphabet steps turning hat(lhs) into hat(rhs) for an Omega relation.

    Positions are relative to the start of the hat image of the matched
    side; the surrounding word is never touched.
    """
    rel = relation_by_id(n, rid)      # validates the id and its parameters
    if rel.name in _TEMPLATE_BUILDERS:
        steps = _TEMPLATE_BUILDERS[rel.name](n, *rel.args)
    elif rel.name in ("R1", "R2", "R3"):
        # hat(dagger(w)) is hat(w) reversed, so the template of R1..R3 is
        # the template of its dagger image, `rel.mirror`, reflected
        steps = mirror_steps(n, len(_hat_indices(n, rel.lhs)),
                             xi_template(n, rel.mirror))
    else:
        raise ValueError(f"no hook-alphabet template for relation {rid!r}")
    # the proof every placement of this template rests on
    got = _EBuilder(n, _hat_indices(n, rel.lhs))
    got.run(steps)
    if got.word != _hat_indices(n, rel.rhs):
        raise RuntimeError(f"broken template {rid}")
    return tuple(steps)


def normal_form_E(w: Word) -> tuple[NormalForm, Word, Derivation]:
    """Normal form of a pure E-word, with a certificate over E1/E2/E3 only.

    The canonical E-word is the hat image of the balanced word L_x R_y (not
    a shortest representative).  The certificate first expands each hook
    through its lambda-rho telescope, then places the checked per-relation
    step template of each step of the lifted word's Omega certificate.
    """
    _check_degree(w.n)
    _only(w.letters, {"E"}, "normal_form_E")
    nf, lifted = normal_form(hooks_to_pairs(w))
    steps, end = _translate_certificate(w, lifted)
    return nf, Word(w.n, end), Derivation(w.n, "Xi", w.letters,
                                          tuple(steps), end)


def e_certificate(w: Word) -> tuple[tuple[Step, ...], tuple[Letter, ...]]:
    """The steps and end word of `normal_form_E`'s certificate for `w`."""
    d = normal_form_E(w)[2]
    return d.steps, d.end


def certify(w: Word) -> tuple[NormalForm, Derivation]:
    """The normal form of `w` and its certificate, which starts at `w`: over
    Xi for a non-empty E-word, else over Omega, where `normal_form` refuses
    a word mixing E with L/R letters.
    """
    if w.letters and w.alphabets() <= {"E"}:
        nf, _, d = normal_form_E(w)
        return nf, d
    return normal_form(w)


def _translate_certificate(w: Word, deriv):
    # `deriv` is the Omega certificate of the lifted word hooks_to_pairs(w)
    n = w.n
    b = _EBuilder(n, [c.index for c in w.letters])
    b.wh_expand(*range(len(w.letters) - 1, -1, -1))
    if b.word != _hat_indices(n, deriv.start):
        raise RuntimeError("hook expansion does not reach the lifted word")

    try:
        lr = replay(n, list(deriv.start), deriv.steps, "Omega")
    except BadStep as exc:
        p, rid, _ = deriv.steps[exc.index]
        raise RuntimeError(
            f"{rid} does not match the lifted word at {p}") from None
    # all steps match: place each template at its segment's hat offset
    steps = b.steps
    hl = [n - c.index for c in deriv.start]    # |hat(c)| = n - index, L and R
    placed: dict = {}   # (rid, forward, offset) -> (steps, |src|, hl of dst)
    for p, rid, fwd in deriv.steps:
        offset = sum(hl[:p])
        hit = placed.get((rid, fwd, offset))
        if hit is None:
            rel, tmpl = relation_by_id(n, rid), xi_template(n, rid)
            src, dst = (rel.lhs, rel.rhs) if fwd else (rel.rhs, rel.lhs)
            hit = placed[rid, fwd, offset] = (
                shift_steps(tmpl if fwd else reverse_steps(tmpl), offset),
                len(src), [n - c.index for c in dst])
        steps.extend(hit[0])
        hl[p:p + hit[1]] = hit[2]

    return steps, hat(Word(n, tuple(lr))).letters


@dataclass(frozen=True)
class EqualityResult:
    equal: bool
    nf1: NormalForm
    nf2: NormalForm
    derivation1: Derivation
    derivation2: Derivation
    witness: tuple[Tangle, Tangle] | None = None


def equal_words(w1: Word, w2: Word) -> EqualityResult:
    """Decide w1 ~ w2 by comparing the normal forms `certify` gives.

    A word mixing E with L/R letters is refused.  The derivations end at
    L_x R_y over Omega and at its hat image over Xi, so they meet only in
    one presentation; on failure the diagrams witness inequality.
    """
    if w1.n != w2.n:
        raise DegreeMismatch(f"degrees {w1.n} and {w2.n} differ")
    nf1, d1 = certify(w1)
    nf2, d2 = certify(w2)
    eq = nf1.x == nf2.x and nf1.y == nf2.y
    witness = None
    if not eq:
        witness = (evaluate(w1)[0], evaluate(w2)[0])
    return EqualityResult(eq, nf1, nf2, d1, d2, witness)
