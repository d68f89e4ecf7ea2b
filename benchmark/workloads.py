"""The three benchmark workloads: inputs, the timed item, probes and checks.

Each workload makes its inputs from a seed with its own random generator and
hands the package only those inputs, through the public API.  One item is
one user operation.  `item` is the same code in the untraced and the traced
phase: in the untraced phase `span` is a no-op.  `probes` makes extra public
calls on an item's input, only in the traced phase, so that single layers
can be timed from outside.  `counts` derives deterministic counters from an
item's output, untimed.  `check` compares an output with `oracle`, untimed.
"""

from __future__ import annotations

import random
from collections import Counter
from contextlib import nullcontext
from fractions import Fraction

import oracle
from tlmonoid import (
    AlgebraElement,
    alg_mul,
    check_derivation,
    compose,
    derivation_from_text,
    derivation_to_text,
    element_to_text,
    enumerate_TL,
    evaluate,
    hooks_to_pairs,
    normal_form,
    normal_form_E,
    relation_index,
    separate,
    tangle_to_doc,
    tangle_to_text,
    word_from_text,
    word_to_text,
    xi_template,
)
from tlmonoid.etranslate import e_certificate


def no_span(name):
    return nullcontext()


def _random_word(rng, n, alphabet, length):
    return " ".join(f"{rng.choice(alphabet)}{rng.randint(1, n - 1)}"
                    for _ in range(length))


def _cert_counts(text):
    """Step mix, step count and size of a certificate in its text format."""
    lines = text.splitlines()[1:-1]         # drop the header and end lines
    c = Counter(ln.split(":")[1].partition("(")[0] for ln in lines)
    c["cert_steps"] = len(lines)
    c["cert_bytes"] = len(text.encode())
    return c


def _evaluate_probe(w, end, span):
    """The start and end evaluations that `check_derivation` performs."""
    with span("words.evaluate"):
        evaluate(w)
        evaluate(end)
    return Counter(letters_evaluated=len(w) + len(end))


def _oracle_tuples(w):
    """(bl, br) of the oracle's evaluation of the word `w`."""
    t, _ = oracle.evaluate(w.n, oracle.parse_word(word_to_text(w)))
    return oracle.boundary_tuples(t)


def _warm_letters(n, alphabets):
    # evaluate every generator once, so generator diagrams are built here
    toks = [f"{a}{i}" for a in alphabets for i in range(1, n)]
    evaluate(word_from_text(n, " ".join(toks)))


class LRCertify:
    """nf --cert then check-cert, in process, on mixed L/R words.

    Degrees 13, 17 and 21: certificate length grows steeply with n, and at
    higher degrees a single word can take seconds, which leaves too few
    items per run for a stable tail percentile.
    """

    name = "lr_certify"
    degrees = (13, 17, 21)
    word_len = 40

    def __init__(self, pool=3000, count_set=1500):
        self.pool = pool
        self.count_set = count_set

    def warm_up(self, span=no_span):
        for n in self.degrees:
            with span("relations.relation_index"):
                relation_index(n, "Omega")
            _warm_letters(n, "LR")

    def inputs(self, seed):
        rng = random.Random(seed)
        degs = self.degrees
        return [word_from_text(degs[i % len(degs)],
                               _random_word(rng, degs[i % len(degs)], "LR",
                                            self.word_len))
                for i in range(self.pool)]

    def item(self, w, span=no_span):
        with span("rewrite.normal_form"):
            nf, d = normal_form(w)
        with span("rewrite.derivation_to_text"):
            text = derivation_to_text(d)
        with span("rewrite.derivation_from_text"):
            d2 = derivation_from_text(text, w)
        with span("rewrite.check_derivation"):
            end = check_derivation(d2)
        return nf, text, end

    def key(self, out):
        nf, _, end = out
        return nf.x.entries, nf.y.entries, word_to_text(end)

    def counts(self, w, out):
        return _cert_counts(out[1])

    def probes(self, w, out, span):
        with span("rewrite.separate"):
            separate(w)
        return _evaluate_probe(w, out[2], span)

    def check(self, w, out):
        x, y = _oracle_tuples(w)
        return self.key(out) == (x, y, oracle.canonical_lr(x, y))


class HookCertify:
    """nf --cert then check-cert, in process, on E-words under family Xi."""

    name = "hook_certify"
    degrees = (9, 12)
    max_len = 20

    def __init__(self, pool=3000, count_set=1200):
        self.pool = pool
        self.count_set = count_set

    def warm_up(self, span=no_span):
        for n in self.degrees:
            with span("relations.relation_index"):
                rids = relation_index(n, "Omega")
                relation_index(n, "Xi")
            with span("etranslate.xi_template"):
                for rid in rids:
                    xi_template(n, rid)
            _warm_letters(n, "LRE")

    def inputs(self, seed):
        # lengths cycle through 1..max_len at each degree, so that every
        # stretch of 2 * max_len items has the same mix of sizes
        rng = random.Random(seed)
        degs = self.degrees
        out = []
        for i in range(self.pool):
            n = degs[i % len(degs)]
            length = 1 + (i // len(degs)) % self.max_len
            out.append(word_from_text(n, _random_word(rng, n, "E", length)))
        return out

    def item(self, w, span=no_span):
        with span("rewrite.normal_form_E"):
            nf, canonical, d = normal_form_E(w)
        with span("rewrite.derivation_to_text"):
            text = derivation_to_text(d)
        with span("rewrite.derivation_from_text"):
            d2 = derivation_from_text(text, w)
        with span("rewrite.check_derivation"):
            end = check_derivation(d2, "Xi")
        return nf, text, end, canonical

    def key(self, out):
        nf, _, end, canonical = out
        return (nf.x.entries, nf.y.entries, word_to_text(end),
                word_to_text(canonical))

    def counts(self, w, out):
        return _cert_counts(out[1])

    def probes(self, w, out, span):
        with span("etranslate.e_certificate"):
            e_certificate(w)
        lifted = hooks_to_pairs(w)
        with span("etranslate.lifted_nf"):
            normal_form(lifted)
        return _evaluate_probe(w, out[2], span)

    def check(self, w, out):
        x, y = _oracle_tuples(w)
        canon = oracle.canonical_e(w.n, x, y)
        return self.key(out) == (x, y, canon, canon)


def _blocks(t):
    return frozenset(frozenset(b) for b in tangle_to_doc(t)["blocks"])


class AlgebraDense:
    """alg_mul on dense elements, delta = 2 and 1/3 interleaved.

    Inputs cycle through a small pool so that the oracle, which is slower
    than the package, has few distinct products to check.
    """

    name = "algebra_dense"
    degrees = (9, 10)
    deltas = (Fraction(2), Fraction(1, 3))

    def __init__(self, pool=48, count_set=48, terms=40):
        self.pool = pool
        self.count_set = count_set
        self.terms = terms

    def warm_up(self, span=no_span):
        for n in self.degrees:
            with span("verify.enumerate_TL"):
                enumerate_TL(n)

    def _element(self, rng, n, basis):
        picks = rng.sample(range(len(basis)), self.terms)
        return AlgebraElement(n, {
            basis[p]: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                               rng.randint(1, 9))
            for p in picks})

    def inputs(self, seed):
        rng = random.Random(seed)
        # sort by the text format so inputs do not depend on enumeration order
        bases = {n: sorted(enumerate_TL(n), key=tangle_to_text)
                 for n in self.degrees}
        out = []
        for i in range(self.pool):
            n = self.degrees[i % 2]
            delta = self.deltas[(i // 2) % 2]
            out.append((self._element(rng, n, bases[n]),
                        self._element(rng, n, bases[n]), delta))
        return out

    def item(self, inp, span=no_span):
        a, b, delta = inp
        name = "algebra.alg_mul.delta_2" if delta == 2 else \
            "algebra.alg_mul.delta_1-3"
        with span(name):
            return alg_mul(a, b, delta)

    def key(self, out):
        # a digest, so that products need not be kept between items
        return hash(frozenset(out.terms.items()))

    def counts(self, inp, out):
        a, b, delta = inp
        return Counter(pairs=len(a.terms) * len(b.terms),
                       output_terms=len(out.terms),
                       cert_bytes=len(element_to_text(out, delta).encode()))

    def probes(self, inp, out, span):
        a, b, _ = inp
        loops = 0
        with span("tangles.compose"):
            for ta in a.terms:
                for tb in b.terms:
                    loops += compose(ta, tb)[1]
        return Counter(compose_calls=len(a.terms) * len(b.terms),
                       loops_closed=loops)

    def check(self, inp, out):
        a, b, delta = inp
        raw = [{_blocks(t): c for t, c in e.terms.items()} for e in (a, b)]
        want = oracle.alg_mul(a.n, raw[0], raw[1], delta)
        return {_blocks(t): c for t, c in out.terms.items()} == want


WORKLOADS = {w.name: w for w in (LRCertify, HookCertify, AlgebraDense)}
