"""Rewriting certificates over the hook alphabet.

Under the substitution L_i -> E_i E_{i+1} .. E_{n-1}, R_i -> E_{n-1} .. E_i,
every lambda/rho relation instance maps to a fixed chain of E1/E2/E3
rewrites.  This module builds those chains as step templates, lists of
steps computed from the hook indices of hat(lhs), and translates a whole
Omega derivation into an E-alphabet derivation by placing the templates at
offsets; `normal_form_E` certifies a hook word this way, on top of
`rewrite.normal_form` of its lift.  The key ingredients:

  * the telescope E_i E_{i+1}..E_{n-1} E_{n-1}..E_{i+1} E_i collapses onto
    E_i by one E1 and a ladder of E3 contractions; the reverse chain,
    `_telescope(n, i)`, is a lemma that expands a hook;
  * far-apart letters commute, so whole segments can be walked across each
    other with E2 swaps (`_walk`);
  * the rho relations are the dagger images of the lambda relations, so
    each one's template is the template of its `mirror` reflected by
    `relations.mirror_steps`.

Templates and telescopes are relative to position 0 and cached per degree.
Each is proved once, by `_proved`: one replay under Xi from its start word
to its end word.  Because hat is a monoid homomorphism, a template proved
on hat(lhs) is valid on hat(u lhs v) once shifted by |hat(u)|.  So a
translation replays only the short L/R word, never a placed lemma.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import BadStep, DegreeMismatch, FamilyViolation
from .relations import (
    Step,
    _new,
    mirror_steps,
    relation_by_id,
    replay,
    reverse_steps,
    shift_steps,
)
from .rewrite import Derivation, NormalForm, _entry, normal_form
from .tangles import Tangle
from .tuples import _check_degree
from .words import (E as _E, L as _L, Letter, R as _R, Word, _hat_indices,
                    evaluate, hat, hooks_to_pairs)

__all__ = ["xi_template", "normal_form_E", "e_certificate", "certify",
           "EqualityResult", "equal_words"]


def _proved(n, what, start, steps, end) -> tuple[Step, ...]:
    """`steps` as a tuple, once one replay under Xi takes the E-word with
    indices `start` to the one with indices `end`; else RuntimeError.

    The only replay of a template or telescope: every placement of one
    rests on this proof.
    """
    word = list(map(_E, start))
    try:
        replay(n, word, steps, "Xi")
    except BadStep as exc:
        p, rid, _ = steps[exc.index]
        raise RuntimeError(f"{rid} does not match at {p}") from None
    except FamilyViolation as exc:
        raise RuntimeError(str(exc)) from None
    if word != list(map(_E, end)):
        raise RuntimeError(f"broken {what}")
    return tuple(steps)


@lru_cache(maxsize=None, typed=True)  # typed: a float or bool n is refused
def _telescope(n: int, i: int) -> tuple[Step, ...]:
    """The lemma E_i -> hat(L_i R_i) = E_i .. E_{n-1} E_{n-1} .. E_i: the
    rungs E3(k,k+1) backward from the outside in, then E1(n-1) backward.
    """
    _check_degree(n, 3)
    top = n - 1
    steps = [_new(Step, (k - i, f"E3({k},{k + 1})", False))
             for k in range(i, top)]
    steps.append(_new(Step, (top - i, f"E1({top})", False)))
    return _proved(n, f"telescope E{i}", (i,), steps,
                   _hat_indices(n, (_L(i), _R(i))))


def _walk(block, crossed, start):
    # the E2 steps that carry the letters `block`, at `start`, right across
    # the letters `crossed` that follow it, one crossed letter at a time
    back = list(enumerate(block))[::-1]
    return [_new(Step, (start + t + r, f"E2({b},{c})", True))
            for t, c in enumerate(crossed) for r, b in back]


# -- per-relation template builders (forward: hat(lhs) -> hat(rhs)) -----------

def _tmpl_L1(n, i):
    return [Step(n - i - 1, f"E1({n - 1})")]


def _tmpl_L2(n, i, j):
    # built from hat(L_{j+2} L_i) and reversed at the end
    steps = _walk(range(j + 2, n), range(i, j + 1), 0)
    # E_j -> E_j E_{j+1} E_j, the one expansion
    steps.append(Step(j - i, f"E3({j},{j + 1})", False))
    return reverse_steps(steps + _walk((j,), range(j + 2, n), j - i + 2))


def _tmpl_L3(n, i):
    k = n - 2 * i + 1
    if i == 1:
        return [Step(0, f"E3({n - 1},{n - 2})")]
    seg = 2 * i - 3                      # length of one copy of hat(L_{k+2})
    tops = list(range(k + 2, n)) * (i - 1)
    inner = xi_template(n, f"L2({k},{k})")
    steps = [s for t in range(i - 1) for s in shift_steps(inner, t * seg)]
    steps += _walk(tops, (k,), 0)
    steps += shift_steps(xi_template(n, f"L3({i - 1})"), 1)
    steps += _walk((k,), tops, 0)
    steps.append(Step((i - 1) * seg, f"E3({k},{k - 1})"))
    inner = reverse_steps(inner)
    return steps + [s for t in range(i - 2, -1, -1)
                    for s in shift_steps(inner, t * seg)]


def _tmpl_RL2(n, i, j):
    steps = [Step(n - i - 1, f"E1({i})")] if j == i else []
    return steps + [Step(n - t - 2, f"E3({t + 1},{t})")
                    for t in range(min(i, j), n - 1)]


def _tmpl_RL1(n, i, j):
    steps = _walk(range(n - 1, i - 1, -1), range(j, i - 1), 0)
    steps += shift_steps(xi_template(n, f"RL2({i},{i - 1})"), i - 1 - j)
    steps += _walk(range(j, i - 1), (n - 1,), 0)
    return steps + shift_steps(_telescope(n, i - 2), i - 1 - j)


def _tmpl_RL3(n, i, j):
    steps = _walk(range(j - 2, i - 1, -1), range(j, n), n - j + 1)
    steps += xi_template(n, f"RL2({j - 1},{j})")
    return steps + shift_steps(_telescope(n, j - 2), 1)


# the builder of each relation's template; R1..R3 mirror those of L1..L3
_TEMPLATE_BUILDERS = {"A": lambda n: [], "L1": _tmpl_L1, "L2": _tmpl_L2,
                      "L3": _tmpl_L3, "RL1": _tmpl_RL1, "RL2": _tmpl_RL2,
                      "RL3": _tmpl_RL3}


@lru_cache(maxsize=None, typed=True)  # typed: a float or bool n is refused
def xi_template(n: int, rid: str) -> tuple[Step, ...]:
    """E-alphabet steps turning hat(lhs) into hat(rhs) for an Omega relation.

    Positions are relative to the start of the hat image of the matched
    side; the surrounding word is never touched.
    """
    rel = relation_by_id(n, rid)      # checks the degree, id and parameters
    if rel.name in _TEMPLATE_BUILDERS:
        steps = _TEMPLATE_BUILDERS[rel.name](n, *rel.args)
    elif rel.name in ("R1", "R2", "R3"):
        # hat(dagger(w)) is hat(w) reversed, so the template of R1..R3 is
        # the template of its dagger image, `rel.mirror`, reflected
        steps = mirror_steps(n, len(_hat_indices(n, rel.lhs)),
                             xi_template(n, rel.mirror))
    else:
        raise ValueError(f"no hook-alphabet template for relation {rid!r}")
    return _proved(n, f"template {rid}", _hat_indices(n, rel.lhs), steps,
                   _hat_indices(n, rel.rhs))


def normal_form_E(w: Word) -> tuple[NormalForm, Word, Derivation]:
    """Normal form of a pure E-word, with a certificate over E1/E2/E3 only.

    The canonical E-word is the hat image of the balanced word L_x R_y (not
    a shortest representative).  The certificate first expands each hook
    through its lambda-rho telescope, then places the checked per-relation
    step template of each step of the lifted word's Omega certificate.
    """
    _entry(w, {"E"}, "normal_form_E")
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
    # each hook E_i becomes hat(L_i R_i) by its lemma, placed right to left
    # so that every hook still left to expand sits at its index in w
    steps = []
    for p in range(len(w.letters) - 1, -1, -1):
        steps += shift_steps(_telescope(n, w.letters[p].index), p)
    if (_hat_indices(n, deriv.start)
            != _hat_indices(n, hooks_to_pairs(w).letters)):
        raise RuntimeError("hook expansion does not reach the lifted word")

    try:
        lr = replay(n, list(deriv.start), deriv.steps, "Omega")
    except BadStep as exc:
        p, rid, _ = deriv.steps[exc.index]
        raise RuntimeError(
            f"{rid} does not match the lifted word at {p}") from None
    # all steps match: place each template at its segment's hat offset
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
