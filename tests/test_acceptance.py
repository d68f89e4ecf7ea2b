"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The heavy fuzzing criterion parallelizes across degrees; per
degree everything is seeded, so results do not depend on scheduling.
"""

import itertools
import json
import multiprocessing
import random
import subprocess
import sys
import time
from fractions import Fraction

from tlmonoid import (
    AlgebraElement,
    alg_mul,
    boundary_tuples,
    build_tangle,
    catalan,
    check_tuple,
    compose,
    dagger,
    enumerate_TL,
    enumerate_tuples,
    evaluate,
    fuzz_words,
    make_tangle,
    profile,
    relation_set,
    tuple_words,
    verify_presentation,
    verify_xi_prime,
    Word,
)

ALPHA = make_tangle(9, [(1, -3), (8, -6), (9, -9), (2, 7), (3, 4), (5, 6),
                        (-1, -2), (-4, -5), (-7, -8)])
BETA = make_tangle(9, [(1, 2), (3, 4), (5, 6), (8, 9), (7, -7),
                       (-1, -2), (-4, -5), (-3, -6), (-8, -9)])
ALPHA_BETA = make_tangle(9, [(1, 8), (2, 7), (3, 4), (5, 6), (9, -7),
                             (-1, -2), (-3, -6), (-4, -5), (-8, -9)])

CATALAN_3_TO_9 = (5, 14, 42, 132, 429, 1430, 4862)


def report(num, ok, desc):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_product_reproduction():
    compose(ALPHA, BETA)                      # warm generator/pairing caches
    t0 = time.perf_counter()
    prod, loops = compose(ALPHA, BETA)
    elapsed = time.perf_counter() - t0
    ok = prod == ALPHA_BETA and loops == 1 and elapsed < 1e-3
    report(1, ok, f"9-strand product with one loop in {elapsed * 1e6:.0f}us")


def test_criterion_2_arc_data():
    bl, br = boundary_tuples(ALPHA)
    ok = (bl.entries, br.entries) == ((5, 3, 2), (7, 4, 1))
    bl2, br2 = boundary_tuples(BETA)
    ok = ok and (bl2.entries, br2.entries) == ((8, 5, 3, 1), (8, 4, 3, 1))
    rank, dom, codom = profile(ALPHA)
    ok = ok and (rank, dom, codom) == (3, {1, 8, 9}, {3, 6, 9})
    report(2, ok, "arc tuples and through-strand profile are exact")


def test_criterion_3_factorization():
    t = build_tangle(check_tuple(9, (5, 3, 2)), check_tuple(9, (7, 4, 1)))
    report(3, t == ALPHA, "balanced pair (5,3,2)/(7,4,1) rebuilds the example")


def test_criterion_4_relation_soundness():
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for n in range(3, 11):
        for rel in relation_set(n, "Omega") + relation_set(n, "Xi"):
            lt, _ = evaluate(Word(n, rel.lhs))
            rt, _ = evaluate(Word(n, rel.rhs))
            ok = ok and lt == rt
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10
    report(4, ok, f"{checked} relation instances sound for n=3..10 "
                  f"in {elapsed:.1f}s")


def test_criterion_5_normal_form_bijection():
    t0 = time.perf_counter()
    ok = True
    counts = []
    for n in range(3, 10):
        rep = verify_presentation(n)
        ok = ok and rep.passed
        got = next(c.count for c in rep.checks
                   if c.name == "canonical words biject onto the diagrams")
        counts.append(got)
    elapsed = time.perf_counter() - t0
    ok = ok and tuple(counts) == CATALAN_3_TO_9 and elapsed < 60
    report(5, ok, f"canonical-word counts {counts} for n=3..9 "
                  f"in {elapsed:.1f}s")


def _fuzz_degree(n):
    return fuzz_words(n, 10_000, max_len=50, seed=42)


def test_criterion_6_rewriting_fuzz():
    t0 = time.perf_counter()
    degrees = list(range(3, 10))
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(min(len(degrees), multiprocessing.cpu_count())) as pool:
        reports = pool.map(_fuzz_degree, degrees)
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in reports) and elapsed < 300
    words = sum(l.words for r in reports for l in r.lanes)
    report(6, ok, f"{words} fuzzed words across n=3..9, all certificates "
                  f"replay, in {elapsed:.0f}s")


def test_criterion_7_star_monoid_and_cocycle():
    t0 = time.perf_counter()
    ok = True
    # exhaustive through degree 5
    for n in range(1, 6):
        ts = enumerate_TL(n)
        for a in ts:
            ad = dagger(a)
            ok = ok and dagger(ad) == a
            x, _ = compose(a, ad)
            x, _ = compose(x, a)
            ok = ok and x == a
        prod = {}
        for i, a in enumerate(ts):
            for j, b in enumerate(ts):
                prod[i, j] = compose(a, b)
        for i, a in enumerate(ts):
            for j, b in enumerate(ts):
                ab, m_ab = prod[i, j]
                dab = dagger(ab)
                dd, _ = compose(dagger(b), dagger(a))
                ok = ok and dab == dd
                for k, c in enumerate(ts):
                    bc, m_bc = prod[j, k]
                    left, m_l = compose(ab, c)
                    right, m_r = compose(a, bc)
                    ok = ok and left == right and m_ab + m_l == m_bc + m_r
        assert ok, f"exhaustive check failed at degree {n}"
    # randomized: 100k triples over degrees 6..9
    rng = random.Random(20_240_601)
    for n in (6, 7, 8, 9):
        ts = enumerate_TL(n)
        for _ in range(25_000):
            a, b, c = rng.choice(ts), rng.choice(ts), rng.choice(ts)
            ab, m_ab = compose(a, b)
            bc, m_bc = compose(b, c)
            left, m_l = compose(ab, c)
            right, m_r = compose(a, bc)
            ok = ok and left == right and m_ab + m_l == m_bc + m_r
    elapsed = time.perf_counter() - t0
    report(7, ok, f"involution and loop-cocycle laws, exhaustive n<=5 plus "
                  f"100000 random triples, in {elapsed:.0f}s")


def test_criterion_8_algebra():
    t0 = time.perf_counter()
    deltas = (Fraction(2), Fraction(-1), Fraction(1, 3))
    ok = True
    for n in range(3, 7):
        rep = verify_xi_prime(n)
        ok = ok and rep.passed
        ok = ok and any(c.name.startswith("E1") for c in rep.checks)
    rng = random.Random(8)

    def rand_elem(n, ts):
        return AlgebraElement(n, {
            rng.choice(ts): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for _ in range(5)})

    triples = 0
    for n in range(3, 7):
        ts = enumerate_TL(n)
        for delta in deltas:
            for _ in range(1000):
                a, b, c = rand_elem(n, ts), rand_elem(n, ts), rand_elem(n, ts)
                left = alg_mul(alg_mul(a, b, delta), c, delta)
                right = alg_mul(a, alg_mul(b, c, delta), delta)
                ok = ok and left == right
                triples += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120
    report(8, ok, f"loop-weighted relations for n<=6 for every delta and "
                  f"{triples} associativity triples at delta in {{2,-1,1/3}} "
                  f"in {elapsed:.0f}s")


def _run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "tlmonoid", *args],
                          capture_output=True)
    return proc.returncode, proc.stdout


def test_criterion_9_determinism():
    runs = {_run_cli("nf", "--n", "9", "L5 L3 L2 R1 R4 R7") for _ in range(2)}
    ok = len(runs) == 1
    runs = {_run_cli("nf", "--n", "6", "E1 E4 E2 E1") for _ in range(2)}
    ok = ok and len(runs) == 1
    runs = {_run_cli("verify", "4", "--fuzz", "200", "--seed", "42")
            for _ in range(2)}
    ok = ok and len(runs) == 1
    code, out = next(iter(runs))
    ok = ok and code == 0 and b"result: pass" in out
    report(9, ok, "nf and seeded verify outputs are byte-identical")
