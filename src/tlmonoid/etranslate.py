"""Rewriting certificates over the hook alphabet.

Under the substitution L_i -> E_i E_{i+1} .. E_{n-1}, R_i -> E_{n-1} .. E_i,
every lambda/rho relation instance maps to a fixed chain of E1/E2/E3
rewrites.  This module constructs those chains as step templates, checks
each one once by replaying it from hat(lhs) to hat(rhs), and translates a
whole Omega derivation into an E-alphabet derivation by placing the checked
templates at offsets.  The key ingredients:

  * the telescope E_i E_{i+1}..E_{n-1} E_{n-1}..E_{i+1} E_i collapses onto
    E_i by one E1 and a ladder of E3 contractions (and expands by the
    reverse chain);
  * far-apart letters commute, so whole segments can be walked across each
    other with E2 swaps;
  * the rho relations are the dagger images of the lambda relations, so
    their templates are the lambda templates reflected by
    `relations.mirror_steps`.

Templates are relative to position 0 and are cached per (degree, relation).
Because hat is a monoid homomorphism, a template checked on hat(lhs) is
valid on hat(u lhs v) once shifted by |hat(u)|; only the short L/R word is
replayed during a translation, never the E-word.
"""

from __future__ import annotations

from functools import lru_cache

from .relations import (
    FAMILY_NAMES,
    Step,
    _dagger,
    mirror_steps,
    relation_by_id,
    reverse_steps,
    shift_steps,
)
from .words import Letter, Word, _hat_indices, hat, hooks_to_pairs

__all__ = ["xi_template", "e_certificate"]


class _EBuilder:
    """Mutable E-word together with the steps that produced it.

    Every step is matched against the word before it is applied.  Used for
    the hook expansion and for building and checking templates; templates
    are then placed by offset without a builder.
    """

    def __init__(self, n: int, idxs):
        self.n = n
        self.word = list(idxs)
        self.steps: list[Step] = []

    def _emit(self, pos, rid, forward, src, dst):
        if pos < 0 or tuple(self.word[pos:pos + len(src)]) != src:
            raise RuntimeError(f"{rid} does not match at {pos}")
        self.steps.append(Step(pos, rid, forward))
        self.word[pos:pos + len(src)] = dst

    def swap(self, pos):
        i, j = self.word[pos], self.word[pos + 1]
        if abs(i - j) <= 1:
            raise RuntimeError(f"cannot commute E{i} past E{j}")
        self._emit(pos, f"E2({i},{j})", True, (i, j), (j, i))

    def contract_e1(self, pos):
        i = self.word[pos]
        self._emit(pos, f"E1({i})", True, (i, i), (i,))

    def expand_e1(self, pos):
        i = self.word[pos]
        self._emit(pos, f"E1({i})", False, (i,), (i, i))

    def contract_e3(self, pos):
        i, j = self.word[pos], self.word[pos + 1]
        self._emit(pos, f"E3({i},{j})", True, (i, j, i), (i,))

    def expand_e3(self, pos, j):
        i = self.word[pos]
        self._emit(pos, f"E3({i},{j})", False, (i,), (i, j, i))

    def move_right(self, start, length, count):
        # walk the block [start, start+length) right across `count` letters
        for t in range(count):
            for r in range(length - 1, -1, -1):
                self.swap(start + t + r)

    def wh_expand(self, pos):
        # E_i  ->  E_i .. E_{n-1} E_{n-1} .. E_i, from the outside inwards
        top = pos + self.n - 1 - self.word[pos]
        for p in range(pos, top):
            self.expand_e3(p, self.word[p] + 1)
        self.expand_e1(top)

    def run(self, steps, offset=0):
        for st in steps:
            try:
                rel = relation_by_id(self.n, st.rid)
            except ValueError:
                rel = None
            if rel is None or rel.name not in FAMILY_NAMES["Xi"]:
                raise RuntimeError(
                    f"{st.rid} is not an E relation at n={self.n}")
            lhs = tuple(c.index for c in rel.lhs)
            rhs = tuple(c.index for c in rel.rhs)
            src, dst = (lhs, rhs) if st.forward else (rhs, lhs)
            self._emit(st.pos + offset, st.rid, st.forward, src, dst)


# -- per-relation template builders (forward: hat(lhs) -> hat(rhs)) -----------

def _tmpl_L1(n, i):
    b = _EBuilder(n, list(range(i, n)) + [n - 1])
    b.contract_e1(n - i - 1)
    return b.steps


def _tmpl_L2(n, i, j):
    # built from hat(L_{j+2} L_i) and reversed at the end
    b = _EBuilder(n, list(range(j + 2, n)) + list(range(i, n)))
    b.move_right(0, n - j - 2, j - i + 1)
    b.expand_e3(j - i, j + 1)
    b.move_right(j - i + 2, 1, n - j - 2)
    if b.word != list(range(i, n)) + list(range(j, n)):
        raise RuntimeError(f"broken template L2({i},{j})")
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
    if b.word != list(range(k, n)) * i:
        raise RuntimeError(f"broken template L3({i})")
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
    if b.word != [n - 1]:
        raise RuntimeError(f"broken template RL2({i},{j})")
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


@lru_cache(maxsize=None)
def xi_template(n: int, rid: str) -> tuple[Step, ...]:
    """E-alphabet steps turning hat(lhs) into hat(rhs) for an Omega relation.

    Positions are relative to the start of the hat image of the matched
    side; the surrounding word is never touched.
    """
    rel = relation_by_id(n, rid)      # validates the id and its parameters
    name, args = rel.name, rel.args
    if name == "A":
        steps = []
    elif name == "L1":
        steps = _tmpl_L1(n, *args)
    elif name == "L2":
        steps = _tmpl_L2(n, *args)
    elif name == "L3":
        steps = _tmpl_L3(n, *args)
    elif name == "RL1":
        steps = _tmpl_RL1(n, *args)
    elif name == "RL2":
        steps = _tmpl_RL2(n, *args)
    elif name == "RL3":
        steps = _tmpl_RL3(n, *args)
    elif name in ("R1", "R2", "R3"):
        # hat(dagger(w)) is hat(w) reversed, so the template of R1..R3 is
        # the mirror of the template of the L relation it is the dagger of
        mate = _dagger(rel)
        steps = mirror_steps(n, len(_hat_indices(n, mate.lhs)),
                             xi_template(n, mate.rid))
    else:
        raise ValueError(f"no hook-alphabet template for relation {rid!r}")
    # the proof every placement of this template rests on
    got = _EBuilder(n, _hat_indices(n, rel.lhs))
    got.run(steps)
    if got.word != _hat_indices(n, rel.rhs):
        raise RuntimeError(f"broken template {rid}")
    return tuple(steps)


def e_certificate(w: Word) -> tuple[list[Step], tuple[Letter, ...]]:
    """Certificate over E1/E2/E3 carrying `w` to its canonical E-word.

    Phase one expands every hook through its telescope, reaching the hat
    image of the lifted lambda/rho word; phase two places, for each step of
    that word's Omega certificate, the relation's checked template at the
    offset of the matched segment's hat image.
    """
    from .rewrite import normal_form

    return _translate_certificate(w, normal_form(hooks_to_pairs(w))[1])


def _translate_certificate(w: Word, deriv):
    # `deriv` is the Omega certificate of the lifted word hooks_to_pairs(w);
    # normal_form_E passes the one it already has, so it is computed once
    n = w.n
    b = _EBuilder(n, [c.index for c in w.letters])
    for p in range(len(w.letters) - 1, -1, -1):
        b.wh_expand(p)
    if b.word != _hat_indices(n, deriv.start):
        raise RuntimeError("hook expansion does not reach the lifted word")

    steps = b.steps
    lr = list(deriv.start)
    hl = [n - c.index for c in lr]      # |hat(c)| = n - index, for L and R
    placed: dict = {}                 # (rid, forward, offset) -> steps
    for p, rid, fwd in deriv.steps:
        rel = relation_by_id(n, rid)
        src, dst = (rel.lhs, rel.rhs) if fwd else (rel.rhs, rel.lhs)
        k = len(src)
        if p < 0 or tuple(lr[p:p + k]) != src:
            raise RuntimeError(f"{rid} does not match the lifted word at {p}")
        offset = sum(hl[:p])
        key = (rid, fwd, offset)
        block = placed.get(key)
        if block is None:
            tmpl = xi_template(n, rid)
            block = placed[key] = shift_steps(
                tmpl if fwd else reverse_steps(tmpl), offset)
        steps.extend(block)
        lr[p:p + k] = dst
        hl[p:p + k] = [n - c.index for c in dst]

    return steps, hat(Word(n, tuple(lr))).letters
