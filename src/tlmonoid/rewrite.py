"""Certificate-producing normal forms for words over the TL_n alphabets.

Every word over L u R is equivalent, within the Omega relations, to a
unique balanced word L_{x_1}..L_{x_k} R_{y_k}..R_{y_1} where x and y are the
upper and lower arc tuples of the diagram the word evaluates to.  The
pipeline that finds it is:

  1. one-sided folding: a pure lambda word is folded letter by letter into
     tuple form; one loop of L2 moves carries each letter left, to join the
     tuple or be absorbed by L1/L3; a rho word is folded as the mirror of
     the L fold of its dagger image (`relations.mirror_steps`);
  2. separation: a mixed word is swept left to right by `_sweep_step`, the
     one transition of the state (x, v), the lambda tuple and the reduced
     rho suffix; it pushes each lambda letter through the rho suffix with
     the RL rules, and a memo maps each (suffix, letter) push to a node
     that points at its sub-pushes, so one walk makes each step once;
  3. balancing: the shorter side is padded one letter at a time, by a lemma
     block built in one loop over its levels, so the two tuples reach equal
     length, then re-folded.

Each stage emits explicit `Step` records, so the result of `normal_form` is
both the canonical word and a replayable proof of equivalence that
`check_derivation` validates independently.

The folds are strictly left-to-right and deterministic: identical input
yields a byte-identical derivation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import AlphabetError, DegreeMismatch, EndMismatch
from .relations import (
    Step,
    _check_degree,
    _new,
    mirror_steps,
    replay,
    reverse_steps,
    step_from_text,
    step_to_text,
)
from .tuples import TnTuple, check_tuple
from .words import (Letter, Word, balanced_word, evaluate, letter,
                    word_from_text, word_to_text)

__all__ = [
    "Derivation",
    "NormalForm",
    "reduce_one_sided",
    "push_lambda",
    "separate",
    "normal_form",
    "check_derivation",
    "derivation_to_text",
    "derivation_from_text",
]


@dataclass(frozen=True)
class Derivation:
    """A replayable chain of single-relation rewrite steps."""

    n: int
    family: str
    start: tuple[Letter, ...]
    steps: tuple[Step, ...]
    end: tuple[Letter, ...]

    def start_word(self) -> Word:
        return Word(self.n, self.start)

    def end_word(self) -> Word:
        return Word(self.n, self.end)


@dataclass(frozen=True)
class NormalForm:
    """The balanced pair (x, y) and its canonical word L_x R_y."""

    x: TnTuple
    y: TnTuple
    word: Word


# -- one-sided folding -----------------------------------------------------------
# The lambda block occupies positions 0..k-1 of the ambient word and the
# letter being folded sits at position k; emitted steps use those absolute
# positions and never touch the context beyond the letter.  A rho word is
# folded as the mirror image under dagger: `_refold_R` folds its reversed
# indices as a lambda word and reflects the steps.

def _fold_letter(n, x, j, out):
    """L_x L_j ~ L_y: append the steps to `out`, return y.

    L2 moves carry L_j left past each entry not above it; it then joins the
    tuple, or L1 or L3 absorbs it and y = x.  For j == n-2k with k >= 2,
    undoing k absorptions of L_{n-2k+1} grows its k-th power next to L_j;
    L3 collapses the two, and redoing the absorptions sheds the power.
    """
    k = len(x)
    if k >= 2 and j == n - 2 * k:
        tmpl: list[Step] = []
        _fold_letter(n, x, j + 1, tmpl)
        out.extend(reverse_steps(tmpl) * k)
        out.append(Step(k, f"L3({k})", True))
        out.extend(tmpl * k)
        return x
    while k and x[k - 1] <= j <= n - 3:
        out.append(Step(k - 1, f"L2({x[k - 1]},{j})", True))
        k, j = k - 1, j + 2
    if j <= n - 2 * k - 1:
        return x[:k] + (j,) + x[k:]
    if j == n - 1:
        out.append(Step(k - 1, f"L1({x[k - 1]})", True))
    elif x[k - 1] == n - 1:
        out.append(Step(k - 1, "L3(1)", True))
    else:
        out += (Step(k - 1, f"L1({x[k - 1]})", False), Step(k, "L3(1)", True),
                Step(k - 1, f"L1({x[k - 1]})", True))
    return x


def _fold_word(n, x, js, out, memo):
    """Fold the letters L_j, j in `js`, into the tuple x; returns the result.

    `memo` maps (x, j) to (y, steps) for the folds already made by the
    calling derivation.  The block starts at position 0, so the steps are
    absolute and are appended to `out` as they are, on a hit as on a miss.
    """
    get = memo.get
    for j in js:
        hit = get((x, j))
        if hit is None:
            steps: list[Step] = []
            y = _fold_letter(n, x, j, steps)
            hit = memo[x, j] = (y, tuple(steps))
        out.extend(hit[1])
        x = hit[0]
    return x


def _refold_R(n, idxs, out, offset, memo):
    """Fold the rho word R_idxs, which starts at `offset`; returns its indices.

    The R fold is the mirror of the L fold: the dagger image of R_idxs is
    the lambda word over reversed(idxs), which `_fold_word` folds with the
    derivation's fold memo, and `mirror_steps` reflects those steps back.
    Reflecting over `offset + len(idxs)` letters shifts them to the block.
    """
    steps: list[Step] = []
    y = _fold_word(n, (), reversed(idxs), steps, memo)
    out.extend(mirror_steps(n, offset + len(idxs), steps))
    return y[::-1]


# -- pushing a lambda letter through a rho word --------------------------------

def _push(n, p, j, memo):
    """P L_j ~ Lambda P' with only RL steps; returns the push node.

    The node is (lambda, residue, pos, rid, first, second, d): its own step
    is `rid` at `pos` (relative to P; rid None for a leaf, an empty P), and
    `first` and `second` are the nodes of the (P[:-1], n-1) sub-push and of
    the RL1/RL3 sub-push d letters right (None for RL2).  The residue is
    never longer than P, and strictly shorter after an RL2 step.

    RL1 and RL3 recurse twice and sub-pushes repeat, so `memo` maps (p, j)
    to the node of every push the calling derivation has made; nodes share
    sub-pushes and hold no step.  The build recurses once per rho letter.
    """
    hit = memo.get((p, j))
    if hit is not None:
        return hit
    if not p:
        node = (j,), (), 0, None, None, None, 0
    else:
        q, i = p[:-1], p[-1]
        first = _push(n, q, n - 1, memo)
        if abs(i - j) <= 1:
            node = first[0], first[1], len(q), f"RL2({i},{j})", first, None, 0
        else:
            if j <= i - 2:
                rid, j2, i2 = f"RL1({i},{j})", j, i - 2
            else:
                rid, j2, i2 = f"RL3({i},{j})", j - 2, i
            second = _push(n, first[1], j2, memo)
            node = (first[0] + second[0], second[1] + (i2,), len(q), rid,
                    first, second, len(first[0]))
    memo[p, j] = node
    return node


def _push_steps(node, off, out):
    """Append a push node's steps to `out`, each once, `off` letters right.

    The node's own step, its first sub-push, then its second at `off + d`.
    """
    stack = [(node, off)] if node[3] else []
    while stack:
        (_, _, pos, rid, first, second, d), off = stack.pop()
        out.append(_new(Step, (pos + off, rid, True)))
        if second and second[3]:
            stack.append((second, off + d))
        if first[3]:
            stack.append((first, off))


# -- padding the shorter side --------------------------------------------------

def _lrlr_lambda(n, x):
    # L_x ~ L_x R_{n-2k+1}: steps inserting the rho letter at position k
    steps = [Step(0, f"L1({x[0]})", False), Step(1, "A", True)]
    for i in range(1, len(x)):
        steps.append(Step(i, f"RL1({n - 2 * i + 1},{x[i]})", True))
        steps.append(Step(i - 1, f"L1({x[i - 1]})", True))
    return steps


def _lrlr_rho(n, z, off):
    # R_z ~ L_{n-2l+1} R_z for the rho block at `off`: level i of the lemma
    # acts l-i letters right of the block's start
    l = len(z)
    p = off + l - 1
    steps = [Step(p, f"R1({z[0]})", False), Step(p, "A", False)]
    for i in range(2, l + 1):
        p -= 1
        steps += (Step(p, f"RL3({z[i - 1]},{n - 2 * i + 3})", True),
                  Step(p, f"L2({n - 2 * i + 1},{n - 3})", False),
                  Step(p, f"L1({n - 2 * i + 1})", False),
                  Step(p + 1, f"RL3({z[i - 1]},{n - 1})", False),
                  Step(p + 2, "A", True),
                  Step(p + 2, f"R1({z[i - 2]})", True))
    return steps


# -- the pipeline ----------------------------------------------------------------

def _sweep_step(n, x, v, c, out, fold_memo, push_memo):
    """L_x R_v c ~ L_x' R_v': append the steps to `out`, return (x', v').

    The sweep's one transition: its steps depend only on (x, v, c) and stay
    inside `L_x R_v c`, which starts at position 0.
    """
    if c.alphabet == "R":
        return x, _refold_R(n, v + (c.index,), out, len(x), fold_memo)
    node = _push(n, v, c.index, push_memo)
    _push_steps(node, len(x), out)
    x = _fold_word(n, x, node[0], out, fold_memo)
    return x, _refold_R(n, node[1], out, len(x), fold_memo)


def _separate_fold(n, letters, out, fold_memo):
    """Sweep the word; keep the lambda tuple and the reduced rho suffix."""
    x, v, push_memo = (), (), {}
    for c in letters:
        x, v = _sweep_step(n, x, v, c, out, fold_memo, push_memo)
    return x, v


def _balance(n, x, v, out, fold_memo):
    # each padding step lengthens the shorter side by one letter; that the
    # tuples end equal and are the diagram's is proved for every state at
    # n <= 9 by tests/test_sweep_proof.py.  The longer side never changes,
    # so the lambda block is built once; a rho block is built at its offset
    k, l = len(x), len(v)
    if k > l:
        pad = _lrlr_lambda(n, x)
        for _ in range(k - l):
            out.extend(pad)
            v = _refold_R(n, (n - 2 * k + 1,) + v, out, k, fold_memo)
    elif l > k:
        z = v[::-1]
        for _ in range(l - k):
            out.extend(_lrlr_rho(n, z, len(x)))
            x = _fold_word(n, x, (n - 2 * l + 1,), out, fold_memo)
    return x, v


def _only(letters, allowed, what):
    for l in letters:
        if l.alphabet not in allowed:
            raise AlphabetError(f"{what} got a {l.alphabet} letter ({l})")


def reduce_one_sided(w: Word) -> tuple[TnTuple, Derivation]:
    """Fold a pure lambda word (or pure rho word) into tuple form.

    Returns the tuple x with L_x (resp. R_x) equivalent to the input, and a
    derivation using only the one-sided relations.
    """
    _check_degree(w.n)
    alphabets = w.alphabets()
    if not alphabets <= {"L"} and not alphabets <= {"R"}:
        raise AlphabetError("reduce_one_sided needs a pure L word or pure R word")
    steps: list[Step] = []
    if alphabets <= {"L"}:
        x = _fold_word(w.n, (), (c.index for c in w.letters), steps, {})
        end = tuple(letter("L", i) for i in x)
    else:
        v = _refold_R(w.n, [c.index for c in w.letters], steps, 0, {})
        end = tuple(letter("R", i) for i in v)
        x = v[::-1]
    return (check_tuple(w.n, x),
            Derivation(w.n, "Omega", w.letters, tuple(steps), end))


def push_lambda(p: Word, j: int) -> tuple[Word, Word, Derivation]:
    """Cross L_j leftwards through the pure rho word `p`.

    Returns words u (pure lambda) and p' (pure rho, never longer than p)
    with p L_j ~ u p', plus the RL-only derivation.
    """
    _check_degree(p.n)
    _only(p.letters, {"R"}, "push_lambda")
    if not 1 <= j <= p.n - 1:
        raise IndexError(f"letter index {j} outside [1, {p.n - 1}]")
    node = _push(p.n, tuple(c.index for c in p.letters), j, {})
    steps: list[Step] = []
    _push_steps(node, 0, steps)
    start = p.letters + (letter("L", j),)
    u = tuple(letter("L", i) for i in node[0])
    v = tuple(letter("R", i) for i in node[1])
    return (Word(p.n, u), Word(p.n, v),
            Derivation(p.n, "Omega", start, tuple(steps), u + v))


def separate(w: Word) -> tuple[Word, Word, Derivation]:
    """Split a mixed lambda/rho word as w ~ u v with u over L and v over R.

    Both parts are kept folded while sweeping, which bounds the rho suffix
    by n // 2 letters and so the push build, one level per rho letter.  RL1
    and RL3 each recurse twice, so one memo for the whole word maps every
    (suffix, letter) push to a node, and one walk makes each push step once,
    at its absolute position; a second memo holds the folds.
    """
    _check_degree(w.n)
    _only(w.letters, {"L", "R"}, "separate")
    steps: list[Step] = []
    x, v = _separate_fold(w.n, w.letters, steps, {})
    u_letters = tuple(letter("L", i) for i in x)
    v_letters = tuple(letter("R", i) for i in v)
    return (Word(w.n, u_letters), Word(w.n, v_letters),
            Derivation(w.n, "Omega", w.letters, tuple(steps),
                       u_letters + v_letters))


def normal_form(w: Word) -> tuple[NormalForm, Derivation]:
    """The canonical balanced word equivalent to `w`, with its certificate.

    `w` is an L/R word and the certificate starts at it; a hook letter is
    refused with `AlphabetError` (`etranslate.certify` certifies E-words).
    """
    _check_degree(w.n)
    _only(w.letters, {"L", "R"}, "normal_form")
    steps: list[Step] = []
    memo: dict = {}
    x, v = _separate_fold(w.n, w.letters, steps, memo)
    x, v = _balance(w.n, x, v, steps, memo)
    x, y = check_tuple(w.n, x), check_tuple(w.n, v[::-1])
    end = balanced_word(x, y)
    return (NormalForm(x, y, end),
            Derivation(w.n, "Omega", w.letters, tuple(steps), end.letters))


def check_derivation(d: Derivation, relation_family: str | None = None) -> Word:
    """Replay a derivation step by step and validate everything about it.

    `relations.replay` checks that every step names a relation of the
    declared family and matches the word verbatim at its position; then the
    replay must arrive at the recorded end word and, independently, start
    and end must evaluate to the same diagram.  Returns the end word.
    """
    word = replay(d.n, list(d.start), d.steps, relation_family or d.family)
    if tuple(word) != d.end:
        raise EndMismatch("replay did not reach the recorded end word")
    if evaluate(Word(d.n, d.start))[0] != evaluate(Word(d.n, d.end))[0]:
        raise EndMismatch("start and end words evaluate to different diagrams")
    return Word(d.n, d.end)


# -- derivation file format ------------------------------------------------------
# header `n=<int>; family=<Omega|Xi>`, one step per line, then `end=<word>`.
# The start word travels alongside the file (it names the claim being
# certified), so the loader takes it as an argument.

def derivation_to_text(d: Derivation) -> str:
    """The derivation file text; each distinct step is formatted once."""
    text = {s: step_to_text(s) for s in dict.fromkeys(d.steps)}
    return "\n".join([f"n={d.n}; family={d.family}",
                      *map(text.__getitem__, d.steps),
                      f"end={word_to_text(d.end_word())}"]) + "\n"


_DERIVATION_HEADER = re.compile(r"^n=(0|[1-9][0-9]*);\s*family=(Omega|Xi)$")


def derivation_from_text(text: str, start: Word) -> Derivation:
    """Parse a derivation file whose claim starts at `start`.

    Each distinct step line is parsed once, in order of first occurrence
    (so the first bad line raises first), and its `Step` is shared.
    """
    lines = [ln for ln in map(str.strip, text.strip().splitlines()) if ln]
    if not lines:
        raise ValueError("empty derivation text")
    head = lines[0]
    m = _DERIVATION_HEADER.match(head)
    if not m:
        raise ValueError(f"bad derivation header {head!r}")
    n, family = int(m.group(1)), m.group(2)
    _check_degree(n)
    if start.n != n:
        raise DegreeMismatch(f"start word degree {start.n} != header {n}")
    if not lines[-1].startswith("end="):
        raise ValueError("derivation text is missing its end line")
    end = word_from_text(n, lines.pop()[4:])
    del lines[0]                        # the header: the step lines remain
    parsed = {ln: step_from_text(ln) for ln in dict.fromkeys(lines)}
    return Derivation(n, family, start.letters,
                      tuple(map(parsed.__getitem__, lines)), end.letters)
