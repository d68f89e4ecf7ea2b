import json
import random
import re

import pytest

from tlmonoid import (
    AlphabetError,
    E,
    L,
    R,
    Word,
    balanced_word,
    boundary_tuples,
    build_tangle,
    check_tuple,
    enumerate_tuples,
    evaluate,
    generator,
    hat,
    hooks_to_pairs,
    identity,
    letter,
    make_tangle,
    normal_form,
    push_lambda,
    tuple_words,
    word_from_text,
    word_to_text,
)


def W(n, text):
    return word_from_text(n, text)


def test_parse_and_print():
    w = W(9, "L5 L3 L2 R1 R4 R7")
    assert w.letters == (L(5), L(3), L(2), R(1), R(4), R(7))
    assert word_to_text(w) == "L5 L3 L2 R1 R4 R7"
    assert word_to_text(W(6, "1")) == "1"
    assert W(6, "") == W(6, "1")


def test_parse_case_insensitive():
    assert W(5, "l2 e3 r4") == Word(5, (L(2), E(3), R(4)))


def test_parse_rejects_bad_tokens():
    with pytest.raises(ValueError):
        W(5, "L2 X3")
    with pytest.raises(ValueError):
        W(5, "L")
    with pytest.raises(ValueError):
        W(5, "L5")  # index out of range for degree 5


def test_evaluate_worked_example():
    t, m = evaluate(W(9, "L5 L3 L2 R1 R4 R7"))
    alpha = make_tangle(9, [(1, -3), (8, -6), (9, -9), (2, 7), (3, 4), (5, 6),
                            (-1, -2), (-4, -5), (-7, -8)])
    assert t == alpha
    # each rho letter fuses its top arc with the packed lower arcs of the
    # lambda prefix; frozen from the union-find oracle
    assert m == 3


def test_evaluate_counts_loops():
    t, m = evaluate(W(5, "E4 E4"))
    assert t == generator(5, "e", 4)
    assert m == 1


def test_evaluate_empty_word():
    assert evaluate(W(6, "1")) == (identity(6), 0)


def test_evaluate_mixed_alphabets():
    t, m = evaluate(W(5, "L2 R2"))
    assert t == generator(5, "e", 2) and m == 1


def test_generator_identities_under_evaluation():
    # L_i R_i gives the i-th hook, R_i L_i the top hook
    for n in range(3, 11):
        for i in range(1, n):
            t, _ = evaluate(Word(n, (L(i), R(i))))
            assert t == generator(n, "e", i)
            t, _ = evaluate(Word(n, (R(i), L(i))))
            assert t == generator(n, "e", n - 1)


def test_hat_examples():
    assert hat(W(5, "L2")) == W(5, "E2 E3 E4")
    assert hat(W(5, "R4")) == W(5, "E4")
    assert hat(W(4, "L1 R1")) == W(4, "E1 E2 E3 E3 E2 E1")


def test_hat_is_a_morphism():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(3, 8)
        mk = lambda ln: Word(n, tuple(
            (L if rng.random() < 0.5 else R)(rng.randint(1, n - 1))
            for _ in range(ln)))
        u, v = mk(rng.randint(0, 6)), mk(rng.randint(0, 6))
        assert hat(u.concat(v)) == hat(u).concat(hat(v))


def test_hat_preserves_evaluation():
    rng = random.Random(6)
    for _ in range(80):
        n = rng.randint(3, 9)
        w = Word(n, tuple(
            (L if rng.random() < 0.5 else R)(rng.randint(1, n - 1))
            for _ in range(rng.randint(0, 12))))
        assert evaluate(hat(w))[0] == evaluate(w)[0]


def test_hat_rejects_hooks():
    with pytest.raises(AlphabetError):
        hat(W(5, "E2"))


def test_hooks_to_pairs_preserves_evaluation():
    w = W(5, "E1 E3 E1")
    lifted = hooks_to_pairs(w)
    assert lifted == W(5, "L1 R1 L3 R3 L1 R1")
    assert evaluate(lifted)[0] == evaluate(w)[0]


def test_tuple_words_examples():
    lam, rho = tuple_words(check_tuple(9, (5, 3, 2)))
    assert word_to_text(lam) == "L5 L3 L2"
    assert word_to_text(rho) == "R2 R3 R5"
    lam, rho = tuple_words(check_tuple(6, ()))
    assert len(lam) == 0 and len(rho) == 0
    lam, rho = tuple_words(check_tuple(5, (4,)))
    assert (word_to_text(lam), word_to_text(rho)) == ("L4", "R4")


def test_tuple_words_recover_arcs():
    x = check_tuple(9, (5, 3, 2))
    lam, _ = tuple_words(x)
    bl, _ = boundary_tuples(evaluate(lam)[0])
    assert bl == x


# every index is read only in the spelling `str(int)` gives
@pytest.mark.parametrize("token", [
    "L03", "L\u0663", "L\u00b2", "R+3", "E1_0", "L-1", "R0x1", "E",
])
def test_word_from_text_refuses_non_canonical_indices(token):
    with pytest.raises(ValueError,
                       match=re.escape(f"bad word token {token!r}")):
        W(12, f"L1 {token} R2")


def test_word_from_text_reads_canonical_indices():
    assert W(12, "L3 r11 e10") == Word(12, (L(3), R(11), E(10)))


def balanced_pairs(n):
    for k in range(n // 2 + 1):
        tups = enumerate_tuples(n, k)
        for x in tups:
            for y in tups:
                yield x, y


def test_balanced_word_agrees_with_normal_form_build_tangle_and_nf(capsys):
    from tlmonoid.cli import main
    for n in range(3, 8):
        for x, y in balanced_pairs(n):
            w = balanced_word(x, y)
            assert normal_form(w)[1].end_word() == w
            assert build_tangle(x, y) == evaluate(w)[0]
            assert main(["nf", "--n", str(n), word_to_text(w),
                         "--format", "doc"]) == 0
            assert json.loads(capsys.readouterr().out)["word"] == \
                word_to_text(w)


def test_balanced_word_letters():
    w = balanced_word(check_tuple(9, (5, 3, 2)), check_tuple(9, (7, 4, 1)))
    assert word_to_text(w) == "L5 L3 L2 R1 R4 R7"
    assert balanced_word(check_tuple(4, ()), check_tuple(4, ())) == W(4, "1")


@pytest.mark.parametrize("call", [
    lambda: letter("L", True),
    lambda: letter("E", 2.0),
    lambda: generator(5, "e", True),
    lambda: push_lambda(W(5, "R4"), True),
], ids=["bool", "float", "generator", "push_lambda"])
def test_letter_refuses_a_bool_or_float_index(call):
    # True == 1 and 2.0 == 2 as cache keys: the refusal comes first, so
    # the cached L1 and E2 stay as they are
    L(1), E(2)
    with pytest.raises(ValueError, match="not an integer"):
        call()
    assert (str(L(1)), str(E(2))) == ("L1", "E2")
    assert str(W(5, "L1 R2")) == "L1 R2"
