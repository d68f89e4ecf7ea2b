import random
import re
from fractions import Fraction

import pytest

from tlmonoid import (
    AlgebraElement,
    AlphabetError,
    CrossingError,
    DegreeError,
    DegreeMismatch,
    DegreeTooSmall,
    NotAMatching,
    Tangle,
    add,
    alg_eval_word,
    alg_mul,
    compose,
    element_from_text,
    element_to_text,
    enumerate_TL,
    generator,
    identity,
    one,
    scale,
    twist_relations,
    verify_xi_prime,
    word_from_text,
    zero,
)

from tlmonoid import tangles

from oracles import as_blockset, naive_alg_mul, naive_compose


def hook(n, i):
    return AlgebraElement(n, {generator(n, "e", i): Fraction(1)})


def test_add_doubles():
    e1 = hook(5, 1)
    s = add(e1, e1)
    assert s.terms == {generator(5, "e", 1): Fraction(2)}
    assert e1 + e1 == s


def test_scale_to_zero():
    assert scale(0, hook(5, 2)) == zero(5)
    assert scale(0, hook(5, 2)).is_zero()


def test_add_cancels():
    e1 = hook(5, 1)
    assert add(e1, scale(-1, e1)) == zero(5)
    assert (e1 - e1).is_zero()


def test_add_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        add(hook(5, 1), hook(6, 1))


def test_elements_refuse_a_term_that_is_not_a_tangle():
    for bad in ("x", (0, 2, 1), 1, None):
        with pytest.raises(NotAMatching, match="is not a Tangle"):
            AlgebraElement(1, {bad: 1})
        with pytest.raises(NotAMatching):
            AlgebraElement(1, [(identity(1), 1), (bad, 0)])
    # the bad tangles these terms would need cannot be made
    with pytest.raises(NotAMatching):
        AlgebraElement(1, {Tangle(1, [0, 2, 1]): 1})
    with pytest.raises(DegreeError):
        AlgebraElement(1, [(Tangle(1.0, (0, 2, 1)), 1)])


def test_elements_refuse_terms_of_another_degree():
    with pytest.raises(DegreeMismatch, match="degree 7"):
        AlgebraElement(5, {identity(7): 1})
    with pytest.raises(DegreeMismatch):
        AlgebraElement(5, [(identity(5), 1), (identity(7), 0)])
    with pytest.raises(DegreeMismatch):
        element_from_text("delta=2; n=5;\n"
                          "1 * n=7; blocks=(1,-1)(2,-2)(3,-3)(4,-4)(5,-5)"
                          "(6,-6)(7,-7)\n")
    with pytest.raises(DegreeMismatch):
        alg_mul(one(5), one(7), 2)


# a crossing partner array of degree 3: blocks (1,-2)(2,-1)(3,-3)
CROSSING = (0, 5, 6, 4, 3, 1, 2)


def inject_crossings(monkeypatch, bad_pairs):
    # the product table builds CROSSING for the products of the given
    # tangle pairs, recognised by their diagrams as the oracle gives them
    bad = {naive_compose(s.n, s.blocks, t.blocks)[0] for s, t in bad_pairs}
    join = tangles._join

    def crossing_join(n, top, bottom):
        p = join(n, top, bottom)
        return CROSSING if as_blockset(Tangle(n, p)) in bad else p

    monkeypatch.setattr(tangles, "_join", crossing_join)


def miscount_loops(monkeypatch):
    # one loop too many on every pairing that closes one
    pairing = tangles._pairing

    def miscounting_pairing(n, low, up):
        m, fa, fb = pairing(n, low, up)
        return m + 1 if m else m, fa, fb

    monkeypatch.setattr(tangles, "_pairing", miscounting_pairing)


E1, E2, I3 = generator(3, "e", 1), generator(3, "e", 2), identity(3)
# (the pair whose product is damaged, a, b): its sum in a.b survives, or
# cancels, as e1.1 = e1 and e1.e1 = delta e1 at delta = 2
FAULTS = {"survives": ((E1, E2), {E1: 1, I3: 1}, {E2: 2}),
          "cancels": ((E1, I3), {E1: 1}, {I3: 2, E1: -1})}


def refuses_a_damaged_product(monkeypatch, case):
    # against fresh tables, so that no stored product hides the damage
    pair, a, b = FAULTS[case]
    monkeypatch.setattr(tangles, "_TABLES", {})
    inject_crossings(monkeypatch, [pair])
    with pytest.raises(CrossingError):
        alg_mul(AlgebraElement(3, a), AlgebraElement(3, b), 2)


def test_alg_mul_checks_a_surviving_product(monkeypatch):
    refuses_a_damaged_product(monkeypatch, "survives")


def test_alg_mul_checks_a_product_that_cancels(monkeypatch):
    refuses_a_damaged_product(monkeypatch, "cancels")


def _oracle_product(a, b, delta):
    return naive_alg_mul(a.n, {t.blocks: c for t, c in a.terms.items()},
                         {t.blocks: c for t, c in b.terms.items()}, delta)


def test_no_table_entry_is_poisoned_by_a_refused_fault(monkeypatch):
    # entries are stored only after their check has passed: once a crossing
    # has been refused and the injection undone, the same tables give the
    # oracle's products.  A miscounting walk, which no check sees, runs
    # against tables of its own, and the tables outside it give the right
    # counts after it.
    monkeypatch.setattr(tangles, "_TABLES", {})
    for pair, a, b in FAULTS.values():
        a, b = AlgebraElement(3, a), AlgebraElement(3, b)
        with monkeypatch.context() as patch:
            inject_crossings(patch, [pair])
            for product in (lambda: alg_mul(a, b, 2), lambda: compose(*pair)):
                with pytest.raises(CrossingError):
                    product()
        got = alg_mul(a, b, 2)
        assert {as_blockset(t): c for t, c in got.terms.items()} == \
            _oracle_product(a, b, 2)
        t, m = compose(*pair)
        assert (as_blockset(t), m) == naive_compose(3, *(x.blocks for x in pair))
    assert alg_mul(*(AlgebraElement(3, x) for x in FAULTS["cancels"][1:]),
                   2).is_zero()
    e = AlgebraElement(5, {generator(5, "e", i): 1 for i in range(1, 5)})
    with monkeypatch.context() as patch:
        patch.setattr(tangles, "_TABLES", {})
        miscount_loops(patch)
        assert not verify_xi_prime(5).passed
        assert {as_blockset(t): c for t, c in alg_mul(e, e, 2).terms.items()} \
            != _oracle_product(e, e, 2)
    assert verify_xi_prime(5).passed
    assert {as_blockset(t): c for t, c in alg_mul(e, e, 2).terms.items()} == \
        _oracle_product(e, e, 2)


def test_hook_squares_scale_by_delta():
    e4 = hook(5, 4)
    assert alg_mul(e4, e4, 3) == scale(3, e4)


def test_alg_mul_bilinear_example():
    e1, e2 = hook(5, 1), hook(5, 2)
    prod = alg_mul(add(e1, e2), e2, 3)
    from tlmonoid import compose

    t12, m = compose(generator(5, "e", 1), generator(5, "e", 2))
    assert m == 0
    want = add(AlgebraElement(5, {t12: Fraction(1)}), scale(3, e2))
    assert prod == want


def test_one_is_neutral():
    rng = random.Random(1)
    ts = enumerate_TL(5)
    for _ in range(20):
        x = AlgebraElement(5, {rng.choice(ts): Fraction(rng.randint(-3, 3))
                               for _ in range(3)})
        assert alg_mul(one(5), x, 7) == x
        assert alg_mul(x, one(5), 7) == x


def test_alg_eval_word_examples():
    w = word_from_text(5, "E4 E4")
    assert alg_eval_word(w, 2) == scale(2, hook(5, 4))
    w = word_from_text(5, "E1 E2 E1")
    assert alg_eval_word(w, 2) == hook(5, 1)
    assert alg_eval_word(word_from_text(7, "1"), 7) == one(7)


def test_alg_eval_word_rejects_other_alphabets():
    with pytest.raises(AlphabetError):
        alg_eval_word(word_from_text(5, "L1"), 2)


def test_alg_eval_word_is_multiplicative():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(3, 6)
        delta = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        letters = [f"E{rng.randint(1, n - 1)}" for _ in range(rng.randint(0, 8))]
        cut = rng.randint(0, len(letters))
        wu = word_from_text(n, " ".join(letters[:cut]) or "1")
        wv = word_from_text(n, " ".join(letters[cut:]) or "1")
        w = word_from_text(n, " ".join(letters) or "1")
        assert alg_eval_word(w, delta) == alg_mul(
            alg_eval_word(wu, delta), alg_eval_word(wv, delta), delta)


def random_element(rng, n, terms=4):
    ts = enumerate_TL(n)
    return AlgebraElement(n, {
        rng.choice(ts): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for _ in range(terms)})


def test_star_product_associative_random():
    rng = random.Random(3)
    for n in (3, 4, 5):
        for delta in (Fraction(2), Fraction(-1), Fraction(1, 3)):
            for _ in range(40):
                a = random_element(rng, n)
                b = random_element(rng, n)
                c = random_element(rng, n)
                left = alg_mul(alg_mul(a, b, delta), c, delta)
                right = alg_mul(a, alg_mul(b, c, delta), delta)
                assert left == right


def test_distributivity_and_delta_naturality():
    rng = random.Random(4)
    for _ in range(40):
        a, b, c = (random_element(rng, 5) for _ in range(3))
        d = Fraction(3, 2)
        assert alg_mul(a, add(b, c), d) == add(alg_mul(a, b, d), alg_mul(a, c, d))
        assert alg_mul(add(a, b), c, d) == add(alg_mul(a, c, d), alg_mul(b, c, d))
    # scaling delta only reweights loop-creating products
    e4 = hook(5, 4)
    assert alg_mul(e4, e4, 2) == scale(2, e4)
    assert alg_mul(e4, e4, 5) == scale(5, e4)


def test_verify_xi_prime_passes():
    for n in range(3, 12):
        rep = verify_xi_prime(n)
        assert rep.passed and all(c.passed for c in rep.checks), n
        assert [(c.name, c.count) for c in rep.checks] == \
            [(r.rid, 1) for r in twist_relations(n)]
        assert rep.to_text().splitlines()[0] == f"verify n={n}"


def test_verify_xi_prime_rejects_zero_delta():
    with pytest.raises(DegreeTooSmall):
        verify_xi_prime(2)


def test_verify_xi_prime_catches_a_miscounted_loop(monkeypatch):
    # one loop too many on every product that closes one, against fresh
    # tables: only the E1 relations close a loop, so exactly they must fail
    monkeypatch.setattr(tangles, "_TABLES", {})
    miscount_loops(monkeypatch)
    rep = verify_xi_prime(5)
    assert not rep.passed
    failed = {c.name for c in rep.checks if not c.passed}
    assert failed == {c.name for c in rep.checks if c.name.startswith("E1(")}
    assert failed == {f"E1({i})" for i in range(1, 5)}


def test_element_text_round_trip():
    e = add(scale(Fraction(1, 3), hook(5, 1)), scale(-2, hook(5, 3)))
    text = element_to_text(e, Fraction(1, 3))
    assert text.splitlines()[0] == "delta=1/3; n=5;"
    back, delta = element_from_text(text)
    assert back == e and delta == Fraction(1, 3)


def test_rationals_with_a_zero_denominator_raise_value_error():
    from tlmonoid.algebra import rational
    assert rational("1/3") == Fraction(1, 3) and rational("-2") == -2
    for bad in ("1/0", "x"):
        with pytest.raises(ValueError, match=bad):
            rational(bad)
    with pytest.raises(ValueError, match="1/0"):
        element_from_text("delta=1/0; n=5;")
    with pytest.raises(ValueError, match="1/0"):
        element_from_text("delta=2; n=5;\n"
                          "1/0 * n=5; blocks=(1,-1)(2,-2)(3,-3)(4,5)(-5,-4)\n")


# every integer is read only in the spelling `str(int)` gives
@pytest.mark.parametrize("text, token", [
    ("delta=2; n=\u0662;", "n=\u0662"),
    ("delta=2; n=02;", "n=02"),
    ("delta=2; n=+2;", "n=+2"),
    ("delta=2; n=2;\n1 * n=02; blocks=(1,2)(-1,-2)", "n=02"),
    ("delta=2; n=2;\n1 * n=2; blocks=(01,2)(-1,-2)", "(01,2)"),
    ("delta=+03; n=2;", "+03"),
    ("delta=2; n=2;\n1_0 * n=2; blocks=(1,2)(-1,-2)", "1_0"),
])
def test_element_from_text_refuses_non_canonical_integers(text, token):
    with pytest.raises(ValueError, match=re.escape(token)):
        element_from_text(text)


def test_rationals_in_exponent_notation_raise_value_error():
    from tlmonoid.algebra import rational
    assert rational("0.5") == Fraction(1, 2)
    for bad in ("1e400", "1E400", "2.5e-3"):
        with pytest.raises(ValueError, match=bad):
            rational(bad)
    with pytest.raises(ValueError, match="1e400"):
        element_from_text("delta=1e400; n=5;")
    with pytest.raises(ValueError, match="1e400"):
        element_from_text("delta=2; n=5;\n"
                          "1e400 * n=5; blocks=(1,-1)(2,-2)(3,-3)(4,5)(-5,-4)\n")


# each integer part of a rational is read only as `str(int)` spells it
@pytest.mark.parametrize("text", [
    "+3", "03", "1_0", "\u0663", " 3", "3 ", "-0", "+1/3", "1/03", "1/+3",
    "1/-3", "-0/3", "1.", ".5", "+0.5", "00.5", "0.\u0665", "1/2.5", "0x10",
])
def test_rationals_with_non_canonical_integer_parts_raise_value_error(text):
    from tlmonoid.algebra import rational
    with pytest.raises(ValueError, match=re.escape(repr(text))):
        rational(text)


@pytest.mark.parametrize("text, value", [
    ("2", 2), ("-2", -2), ("0", 0), ("1/3", Fraction(1, 3)),
    ("-1/3", Fraction(-1, 3)), ("0.5", Fraction(1, 2)),
    ("-0.5", Fraction(-1, 2)), ("0.05", Fraction(1, 20)),
])
def test_rationals_in_canonical_spelling_read(text, value):
    from tlmonoid.algebra import rational
    assert rational(text) == value


@pytest.mark.parametrize("call", [
    lambda x: AlgebraElement(5, {identity(5): x}),
    lambda x: scale(x, one(5)),
    lambda x: alg_mul(one(5), one(5), x),
    lambda x: alg_eval_word(word_from_text(5, "E1 E1"), x),
    lambda x: element_to_text(one(5), x),
], ids=["AlgebraElement", "scale", "alg_mul", "alg_eval_word",
        "element_to_text"])
def test_exponent_notation_is_refused_at_every_entry_point(call):
    # Fraction("1e10000000") would build a ten-million-digit integer
    with pytest.raises(ValueError, match="1e10000000"):
        call("1e10000000")
    assert call("-1/3") == call(Fraction(-1, 3))
    assert call(2) == call(Fraction(2))


def test_element_text_golden():
    e = scale(2, hook(5, 4))
    assert element_to_text(e, 2) == (
        "delta=2; n=5;\n2 * n=5; blocks=(1,-1)(2,-2)(3,-3)(4,5)(-5,-4)\n")


def dense_element(rng, n, basis, terms):
    return AlgebraElement(n, {
        t: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        for t in rng.sample(basis, terms)})


def cancelling_pair(rng, basis):
    # t, s1 != s2 with the same product and loop count, so t * (s1 - s2) = 0
    while True:
        t = rng.choice(basis)
        seen = {}
        for s in rng.sample(basis, len(basis)):
            prod = compose(t, s)
            if prod in seen:
                return t, seen[prod], s
            seen[prod] = s


@pytest.mark.parametrize("delta", [0, 2, Fraction(1, 3), Fraction(-3, 2), 1])
def test_alg_mul_matches_fraction_double_loop(delta):
    rng = random.Random(13)
    for n in (2, 4, 5, 7):
        basis = list(enumerate_TL(n))
        cases = [(dense_element(rng, n, basis, min(len(basis), 12)),
                  dense_element(rng, n, basis, min(len(basis), 12)))
                 for _ in range(4)]
        if n > 2:
            t, s1, s2 = cancelling_pair(rng, basis)
            c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            a = AlgebraElement(n, {t: Fraction(5, 7)})
            b = AlgebraElement(n, {s1: c, s2: -c})
            assert alg_mul(a, b, delta).is_zero()
            extra = dense_element(rng, n, basis, 3)
            cases += [(a, b), (a + extra, b), (b, a)]
        # unit coefficients: many sums coincide and share one Fraction
        units = AlgebraElement(n, dict.fromkeys(basis[:24], 1))
        cases += [(units, units), (units, cases[0][1])]
        for a, b in cases:
            got = alg_mul(a, b, delta)
            want = naive_alg_mul(
                n, {t.blocks: c for t, c in a.terms.items()},
                {t.blocks: c for t, c in b.terms.items()}, delta)
            assert {as_blockset(t): c for t, c in got.terms.items()} == want
            assert all(type(c) is Fraction and c for c in got.terms.values())
