"""Machine checks of the presentation properties at desk scale.

This module is the enumeration oracle for TL_n (non-crossing perfect
matchings, counted by the Catalan numbers) together with the per-degree
checks, `verify_presentation` of both presentations and `verify_xi_prime`
of the loop-weighted Xi relations for every delta, each returning one
`PresentationReport` of named `CheckResult`s, and a seeded rewriting
fuzzer.  All randomness comes from a named seed recorded in the report, and
report rendering avoids set iteration order, so outputs can be diffed byte
by byte; elapsed times are collected but only printed on request.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass
from math import comb

from .algebra import twist_relations
from .errors import TLError
from .relations import apply_step, relation_index, relation_set, Step
from .tangles import (Tangle, _unchecked, boundary_tuples, compose,
                      factorize, identity)
from .tuples import _check_degree, enumerate_tuples
from .words import (Word, balanced_word, build_tangle, evaluate, hat,
                    hooks_to_pairs, letter)
from .rewrite import check_derivation, normal_form
from .etranslate import certify, equal_words

__all__ = [
    "catalan",
    "enumerate_TL",
    "verify_presentation",
    "verify_xi_prime",
    "fuzz_words",
    "PresentationReport",
    "FuzzReport",
    "CheckResult",
    "LaneStats",
]

_MAX_ENUM_DEGREE = 12


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def _offset_matchings(length: int, memo: dict) -> list[tuple[int, ...]]:
    """Non-crossing matchings of `length` consecutive boundary positions.

    Entry r of a matching is the offset from position r to its partner, so
    a matching fits any segment of its length.  The first position pairs
    with the one at odd offset t, splitting the rest into an enclosed
    segment and a tail: `(t, *inner, -t, *tail)`.  This is the classical
    Catalan recursion, in a fixed order, and `memo` holds each length once.
    """
    if length not in memo:
        memo[length] = [(t, *inner, -t, *tail)
                        for t in range(1, length, 2)
                        for inner in _offset_matchings(t - 1, memo)
                        for tail in _offset_matchings(length - t - 1, memo)]
    return memo[length]


def enumerate_TL(n: int) -> tuple[Tangle, ...]:
    """All tangles of degree n, deterministically ordered.

    The degree passes `_check_degree(n, most=12)`: 208012 diagrams at 12.
    The one writer to skip `Tangle`'s check (`_unchecked`): the diagrams
    are planar by construction, and checking each would more than double
    a call's time.  The tests check every one up to n = 8.  Each call
    builds a new tuple, and nothing is cached.
    """
    _check_degree(n, most=_MAX_ENUM_DEGREE)
    memo = {0: [()]}
    # the top level is streamed rather than stored in `memo`; position q's
    # partner is q plus its offset
    return tuple(_unchecked(n, (0, *[q + d for q, d in enumerate(m, 1)]))
                 for t in range(1, 2 * n, 2)
                 for inner in _offset_matchings(t - 1, memo)
                 for tail in _offset_matchings(2 * n - t - 1, memo)
                 for m in [(t, *inner, -t, *tail)])


# -- presentation checks ---------------------------------------------------------

class _Report:
    """A report dataclass; its document is its fields plus `passed`."""

    def to_doc(self, timings: bool = False) -> dict:
        doc = {**asdict(self), "passed": self.passed}
        if not timings:
            del doc["elapsed"]
        return doc


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    count: int
    detail: str = ""


@dataclass(frozen=True)
class PresentationReport(_Report):
    n: int
    checks: tuple[CheckResult, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self, timings: bool = False) -> str:
        lines = [f"verify n={self.n}"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            extra = f" ({c.detail})" if c.detail else ""
            lines.append(f"  {c.name}: {status} [{c.count}]{extra}")
        lines.append(f"result: {'pass' if self.passed else 'FAIL'}")
        if timings:
            lines.append(f"elapsed: {self.elapsed:.3f}s")
        return "\n".join(lines)


def verify_presentation(n: int) -> PresentationReport:
    """Exhaustively check both presentations against the diagram monoid.

    (a) every Omega and Xi relation instance evaluates to equal diagrams;
    (b) the balanced canonical words hit every diagram exactly once;
    (c) every diagram is reached by a word over the hook alphabet;
    (d) factorize / build round-trips on every diagram; 3 <= n <= 10.
    """
    _check_degree(n, 3, 10)
    t0 = time.perf_counter()
    checks = []

    rels = relation_set(n, "Omega") + relation_set(n, "Xi")
    bad = [r.rid for r in rels
           if evaluate(Word(n, r.lhs))[0] != evaluate(Word(n, r.rhs))[0]]
    checks.append(CheckResult(
        "relations evaluate to equal diagrams", not bad, len(rels),
        "" if not bad else "failing: " + " ".join(sorted(bad))))

    tangles = enumerate_TL(n)
    seen: dict[Tangle, tuple] = {}
    duplicates = 0
    for k in range(n // 2 + 1):
        tups = enumerate_tuples(n, k)
        for x in tups:
            for y in tups:
                t, _ = evaluate(balanced_word(x, y))
                if t in seen:
                    duplicates += 1
                seen[t] = (x.entries, y.entries)
    surjective = len(seen) == len(tangles) == catalan(n)
    checks.append(CheckResult(
        "canonical words biject onto the diagrams",
        duplicates == 0 and surjective, len(seen),
        f"catalan={catalan(n)}"))

    missed_e = sum(1 for t in tangles
                   if evaluate(hat(balanced_word(*factorize(t))))[0] != t)
    checks.append(CheckResult(
        "every diagram is an E-word image", missed_e == 0, len(tangles)))

    bad_rt = sum(1 for t in tangles if build_tangle(*factorize(t)) != t)
    checks.append(CheckResult(
        "factorize/build round-trip", bad_rt == 0, len(tangles)))

    return PresentationReport(n, tuple(checks), time.perf_counter() - t0)


def _side(n, letters, generators) -> tuple[Tangle, int]:
    # the letters' generator diagrams multiplied out by `compose`, which
    # reads the product table whose loop counts alg_mul weights
    t, loops = identity(n), 0
    for l in letters:
        t, m = compose(t, generators[l])
        loops += m
    return t, loops


def verify_xi_prime(n: int) -> PresentationReport:
    """Prove every loop-weighted relation of `twist_relations(n)`.

    Each side of delta^a u = delta^b v is one diagram times a power of
    delta, so the relation holds for every delta exactly when both sides
    have the same diagram and the same exponent: a plus the loops closed
    multiplying out u equals b plus those of v.  The sides are multiplied
    out by `compose`, independently of `evaluate`, which counted a and b.
    One check per relation, by its id.  Raises DegreeTooSmall for n < 3.
    """
    t0 = time.perf_counter()
    rels = twist_relations(n)
    generators = {l: evaluate(Word(n, (l,)))[0]
                  for rel in rels for l in rel.lhs + rel.rhs}
    checks = []
    for rel in rels:
        lhs, a = _side(n, rel.lhs, generators)
        rhs, b = _side(n, rel.rhs, generators)
        same = lhs == rhs and rel.lhs_power + a == rel.rhs_power + b
        checks.append(CheckResult(rel.rid, same, 1))
    return PresentationReport(n, tuple(checks), time.perf_counter() - t0)


# -- seeded fuzzing ---------------------------------------------------------------

@dataclass(frozen=True)
class LaneStats:
    alphabet: str
    words: int
    nf_mismatches: int
    cert_failures: int

    @property
    def passed(self) -> bool:
        return self.nf_mismatches == 0 and self.cert_failures == 0


@dataclass(frozen=True)
class FuzzReport(_Report):
    n: int
    seed: int
    count: int
    max_len: int
    lanes: tuple[LaneStats, ...]
    triples: int
    triple_failures: int
    elapsed: float

    @property
    def passed(self) -> bool:
        return (all(l.passed for l in self.lanes)
                and self.triple_failures == 0)

    def to_text(self, timings: bool = False) -> str:
        lines = [f"fuzz n={self.n} seed={self.seed} count={self.count}"
                 f" max_len={self.max_len}"]
        for l in self.lanes:
            lines.append(
                f"  lane {l.alphabet}: words={l.words}"
                f" nf_mismatches={l.nf_mismatches}"
                f" cert_failures={l.cert_failures}")
        lines.append(f"  equality triples: {self.triples}"
                     f" failures={self.triple_failures}")
        lines.append(f"result: {'pass' if self.passed else 'FAIL'}")
        if timings:
            lines.append(f"elapsed: {self.elapsed:.3f}s")
        return "\n".join(lines)


def _random_word(rng, n, alphabet, max_len) -> Word:
    length = rng.randint(0, max_len)
    return Word(n, tuple(letter(rng.choice(alphabet), rng.randint(1, n - 1))
                         for _ in range(length)))


def _mutate(rng, w: Word, rounds: int = 3) -> Word:
    """Apply a few random relation steps; the result stays equivalent."""
    idx = relation_index(w.n, "Omega")
    rids = sorted(idx)
    for _ in range(rounds):
        for _attempt in range(8):
            rid = rids[rng.randrange(len(rids))]
            rel = idx[rid]
            forward = rng.random() < 0.5
            src = rel.lhs if forward else rel.rhs
            spots = [p for p in range(len(w.letters) - len(src) + 1)
                     if w.letters[p:p + len(src)] == src]
            if spots:
                w = apply_step(w, Step(rng.choice(spots), rid, forward))
                break
    return w


def fuzz_words(n: int, count: int, max_len: int = 50,
               seed: int = 0) -> FuzzReport:
    """Seeded random soundness check of the rewriting pipeline.

    Three lanes: words over L u R go through `normal_form` and words over E
    through `normal_form` of their lift E_i -> L_i R_i, at full count; a
    smaller lane drives `certify`, whose Xi certificates expand each
    relation application into its E-alphabet template and are far longer.
    Every certificate is replayed by `check_derivation`, and every normal
    form and certificate end word is compared against direct diagram
    evaluation.  Also spot checks that word equality is an equivalence
    relation agreeing with diagram equality on mutated triples.  Raises
    DegreeTooSmall for n < 3, ValueError for a negative count or max_len.
    """
    _check_degree(n, 3)
    if count < 0 or max_len < 0:
        raise ValueError(f"fuzzing needs count >= 0 and max_len >= 0,"
                         f" got {count} and {max_len}")
    t0 = time.perf_counter()
    rng = random.Random(seed)
    lanes = []
    for lane, alphabet, words, length, certifier in (
            ("LR", "LR", count, max_len, normal_form),
            ("E", "E", count, max_len,
             lambda w: normal_form(hooks_to_pairs(w))),
            ("E/xi", "E", min(count, 150), min(max_len, 12), certify)):
        nf_bad = cert_bad = 0
        for _ in range(words):
            w = _random_word(rng, n, alphabet, length)
            t, _ = evaluate(w)
            nf, d = certifier(w)
            if ((nf.x, nf.y) != boundary_tuples(t)
                    or evaluate(d.end_word())[0] != t):
                nf_bad += 1
            try:
                check_derivation(d)
            except TLError:
                cert_bad += 1
        lanes.append(LaneStats(lane, words, nf_bad, cert_bad))

    triples = min(25, count)
    triple_bad = 0
    for _ in range(triples):
        u = _random_word(rng, n, "LR", min(max_len, 15))
        v = _mutate(rng, u)
        w2 = _random_word(rng, n, "LR", min(max_len, 15))
        uu = equal_words(u, u)
        uv = equal_words(u, v)
        vu = equal_words(v, u)
        uw = equal_words(u, w2)
        vw = equal_words(v, w2)
        ok = uu.equal and uv.equal and vu.equal == uv.equal
        ok = ok and uw.equal == vw.equal        # transitivity both ways
        ok = ok and uw.equal == (evaluate(u)[0] == evaluate(w2)[0])
        if not ok:
            triple_bad += 1
    return FuzzReport(n, seed, count, max_len, tuple(lanes),
                      triples, triple_bad, time.perf_counter() - t0)
