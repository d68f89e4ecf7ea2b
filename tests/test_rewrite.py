import itertools
import random

import pytest

from tlmonoid import (
    AlphabetError,
    BadStep,
    BudgetExceeded,
    DegreeError,
    DegreeTooSmall,
    Derivation,
    EndMismatch,
    FamilyViolation,
    Letter,
    Step,
    Word,
    boundary_tuples,
    certify,
    check_derivation,
    derivation_from_text,
    derivation_to_text,
    enumerate_tuples,
    equal_words,
    evaluate,
    hooks_to_pairs,
    letter,
    normal_form,
    push_lambda,
    reduce_one_sided,
    separate,
    tuple_words,
    word_from_text,
    word_to_text,
)
from tlmonoid import rewrite
from tlmonoid.relations import replay
from tlmonoid.rewrite import _lrlr_lambda, _lrlr_rho

from oracles import flat_push


def W(n, text):
    return word_from_text(n, text)


def random_lr_word(rng, n, max_len):
    return Word(n, tuple(
        W(n, f"{rng.choice('LR')}{rng.randint(1, n - 1)}").letters[0]
        for _ in range(rng.randint(0, max_len))))


# -- one-sided reduction -------------------------------------------------------

def test_reduce_absorb_by_top_letter():
    x, d = reduce_one_sided(W(5, "L1 L4"))
    assert x.entries == (1,)
    assert [str(s) for s in d.steps] == ["0:L1(1):fwd"]
    assert check_derivation(d) == W(5, "L1")


def test_reduce_power_collapse():
    x, d = reduce_one_sided(W(5, "L4 L3"))
    assert x.entries == (4,)
    assert [str(s) for s in d.steps] == ["0:L3(1):fwd"]


def test_reduce_insert_with_shift():
    x, d = reduce_one_sided(W(5, "L1 L1"))
    assert x.entries == (3, 1)
    assert [str(s) for s in d.steps] == ["0:L2(1,1):fwd"]
    assert check_derivation(d) == W(5, "L3 L1")


def test_reduce_rho_side():
    x, d = reduce_one_sided(W(5, "R4 R1"))
    assert x.entries == (1,)
    assert check_derivation(d) == W(5, "R1")
    x, d = reduce_one_sided(W(5, "R1 R1"))
    assert x.entries == (3, 1)
    assert check_derivation(d) == W(5, "R1 R3")


def test_reduce_uses_only_one_sided_relations():
    rng = random.Random(3)
    for n in (3, 5, 8):
        for alph in "LR":
            for _ in range(80):
                w = Word(n, tuple(
                    W(n, f"{alph}{rng.randint(1, n - 1)}").letters[0]
                    for _ in range(rng.randint(1, 25))))
                x, d = reduce_one_sided(w)
                assert all(s.rid.startswith(alph) for s in d.steps)
                check_derivation(d)
                bl, br = boundary_tuples(evaluate(w)[0])
                assert x == (bl if alph == "L" else br)


def test_reduce_rejects_mixed():
    with pytest.raises(AlphabetError):
        reduce_one_sided(W(5, "L1 R1"))
    with pytest.raises(DegreeTooSmall):
        reduce_one_sided(W(2, "L1"))


def test_reduce_empty_word():
    x, d = reduce_one_sided(W(5, "1"))
    assert x.entries == () and d.steps == ()


# -- pushing ---------------------------------------------------------------------

def test_push_through_matching_index():
    lam, resid, d = push_lambda(W(5, "R2"), 2)
    assert word_to_text(lam) == "L4" and len(resid) == 0
    assert [str(s) for s in d.steps] == ["0:RL2(2,2):fwd"]


def test_push_low_letter():
    lam, resid, d = push_lambda(W(5, "R4"), 1)
    assert word_to_text(lam) == "L4 L1"
    assert word_to_text(resid) == "R2"
    assert [str(s) for s in d.steps] == ["0:RL1(4,1):fwd"]


def test_push_through_nothing():
    lam, resid, d = push_lambda(W(7, "1"), 3)
    assert word_to_text(lam) == "L3" and len(resid) == 0 and not d.steps


def test_push_residue_never_grows():
    rng = random.Random(4)
    for n in (4, 6, 9):
        for _ in range(150):
            p = Word(n, tuple(W(n, f"R{rng.randint(1, n - 1)}").letters[0]
                              for _ in range(rng.randint(0, 6))))
            j = rng.randint(1, n - 1)
            lam, resid, d = push_lambda(p, j)
            assert len(resid) <= len(p)
            assert all(s.rid.startswith("RL") for s in d.steps)
            if any(s.rid.startswith("RL2") for s in d.steps):
                assert len(resid) < len(p)
            check_derivation(d)


def _agrees_with_flat_push(n, p, j):
    lam, resid, d = push_lambda(W(n, " ".join(f"R{i}" for i in p) or "1"), j)
    assert (tuple(c.index for c in lam.letters),
            tuple(c.index for c in resid.letters),
            d.steps) == flat_push(n, p, j)


def test_push_agrees_with_flat_push_oracle():
    # every rho word of length <= 4 at n = 4..7, then random longer words
    for n in range(4, 8):
        for length in range(5):
            for p in itertools.product(range(1, n), repeat=length):
                for j in range(1, n):
                    _agrees_with_flat_push(n, p, j)
    rng = random.Random(13)
    for n in (13, 21):
        for _ in range(200):
            p = [rng.randint(1, n - 1) for _ in range(rng.randint(0, 10))]
            _agrees_with_flat_push(n, p, rng.randint(1, n - 1))


@pytest.mark.parametrize("k", range(1, 13))
def test_push_through_alternate_odd_rho_letters(k):
    # W_k = R1 R3 .. R(2k-1) L1 at n = 2k+1: each RL1/RL3 step pushes an
    # L_{n-1} through the rest of the suffix, so T(k) = 2T(k-1) + 1 steps,
    # a length random words never reach
    n = 2 * k + 1
    rho = " ".join(f"R{i}" for i in range(1, 2 * k, 2))
    lam, resid, d = push_lambda(W(n, rho), 1)
    assert len(d.steps) == 2 ** k - 1
    assert all(s.rid.startswith("RL") for s in d.steps)
    check_derivation(d)
    _, nf_d = normal_form(W(n, rho + " L1"))
    check_derivation(nf_d)


def test_a_push_past_its_step_budget_is_refused(monkeypatch):
    # W_12's push takes 2^12 - 1 = 4095 RL steps: a budget of exactly that
    # many admits it, one less refuses it in normal_form and in certify
    w = W(25, " ".join(f"R{i}" for i in range(1, 24, 2)) + " L1")
    monkeypatch.setattr(rewrite, "MAX_PUSH_STEPS", 2 ** 12 - 1)
    check_derivation(normal_form(w)[1])
    monkeypatch.setattr(rewrite, "MAX_PUSH_STEPS", 2 ** 12 - 2)
    for entry in (normal_form, certify):
        with pytest.raises(BudgetExceeded, match="more than 4094 RL steps"):
            entry(w)


def test_push_through_more_rho_letters_than_the_recursion_limit():
    # each RL2 step leaves L4, which meets the next R4: one loop turn each
    lam, resid, d = push_lambda(W(5, " ".join(["R4"] * 1500)), 4)
    assert word_to_text(lam) == "L4" and len(resid) == 0
    assert [str(s) for s in d.steps] == [
        f"{p}:RL2(4,4):fwd" for p in range(1499, -1, -1)]
    assert check_derivation(d) == W(5, "L4")


# a tuple longer than the interpreter's recursion limit: every fold, carry
# and padding block is a loop
_DEEP_N, _DEEP_X = 2501, tuple(range(1200, 0, -1))


@pytest.mark.parametrize("fold", [
    lambda w: separate(w)[2], lambda w: reduce_one_sided(w)[1]],
    ids=["separate", "reduce_one_sided"])
def test_fold_carries_a_letter_past_a_long_tuple(fold):
    # L1 is carried left past all 1,200 entries by L2 moves, then joins
    text = " ".join(f"L{i}" for i in _DEEP_X)
    d = fold(W(_DEEP_N, text + " L1"))
    assert len(d.steps) == 1200
    assert all(s.rid.startswith("L2(") for s in d.steps)
    assert check_derivation(d) == W(_DEEP_N, "L2401 " + text)


def test_padding_blocks_of_a_long_tuple_replay():
    n, x = _DEEP_N, _DEEP_X
    k = len(x)
    lam = [letter("L", i) for i in x]
    rho = [letter("R", i) for i in reversed(x)]
    assert replay(n, lam[:], _lrlr_lambda(n, x), "Omega") == (
        lam + [letter("R", n - 2 * k + 1)])
    assert replay(n, rho[:], _lrlr_rho(n, x, 0), "Omega") == (
        [letter("L", n - 2 * k + 1)] + rho)


def test_push_rejects_bad_input():
    with pytest.raises(AlphabetError):
        push_lambda(W(5, "L2"), 1)
    with pytest.raises(IndexError):
        push_lambda(W(5, "R2"), 5)


@pytest.mark.parametrize("j, i", [(True, 40), (1.0, 41)],
                         ids=["bool", "float"])
def test_push_refuses_a_bool_or_float_index_before_its_rules(j, i):
    # True == 1.0 == 1 as cache keys: the refusal comes before any RL rule
    # is cached, so Ri L1 at n = 61 (met by no other test) still reads 1
    with pytest.raises(ValueError, match="not an integer"):
        push_lambda(W(61, f"R{i}"), j)
    d = push_lambda(W(61, f"R{i}"), 1)[2]
    assert [s.rid for s in d.steps] == [f"RL1({i},1)"]
    assert check_derivation(d) == d.end_word()


@pytest.mark.parametrize("n, i, bad, error, match", [
    (67, 40, lambda: Word(67.0, (letter("R", 40), letter("L", 1))),
     DegreeError, "^degree must be a positive integer, got 67.0$"),
    (71, 50, lambda: Word(71, (letter("R", 50), Letter("L", True))),
     ValueError, "^True is not an integer$"),
], ids=["float degree", "bool index"])
def test_normal_form_refuses_a_bad_word_before_its_rules(n, i, bad, error,
                                                         match):
    # 67.0 == 67 and True == 1 as cache keys: the word is refused before
    # `_rl` caches a rule, so Ri L1 at n = 67 or 71 (met by no other test)
    # still answers
    with pytest.raises(error, match=match):
        normal_form(bad())
    _, d = normal_form(W(n, f"R{i} L1"))
    assert check_derivation(d) == d.end_word()


# -- separation -------------------------------------------------------------------

def test_separate_examples():
    u, v, d = separate(W(5, "R2 L2"))
    assert (word_to_text(u), word_to_text(v)) == ("L4", "1")
    u, v, d = separate(W(5, "L1 R2 L2"))
    assert (word_to_text(u), word_to_text(v)) == ("L1", "1")
    assert [s.rid for s in d.steps] == ["RL2(2,2)", "L1(1)"]
    u, v, d = separate(W(9, "L5 L3 L2 R1 R4 R7"))
    assert (word_to_text(u), word_to_text(v)) == ("L5 L3 L2", "R1 R4 R7")
    assert d.steps == ()


def test_separate_soundness():
    rng = random.Random(5)
    for n in (3, 5, 9):
        for _ in range(100):
            w = random_lr_word(rng, n, 30)
            u, v, d = separate(w)
            assert set(l.alphabet for l in u.letters) <= {"L"}
            assert set(l.alphabet for l in v.letters) <= {"R"}
            assert evaluate(u.concat(v))[0] == evaluate(w)[0]
            check_derivation(d)


def test_separate_rejects_hooks():
    with pytest.raises(AlphabetError):
        separate(W(5, "E1"))


# -- normal form ------------------------------------------------------------------

def test_normal_form_worked_example():
    nf, d = normal_form(W(9, "L5 L3 L2 R1 R4 R7"))
    assert (nf.x.entries, nf.y.entries) == ((5, 3, 2), (7, 4, 1))
    assert word_to_text(nf.word) == "L5 L3 L2 R1 R4 R7"
    assert d.steps == ()


def test_normal_form_balances():
    nf, d = normal_form(W(5, "R2 L2"))
    assert (nf.x.entries, nf.y.entries) == ((4,), (4,))
    assert check_derivation(d) == W(5, "L4 R4")


def test_normal_form_empty():
    nf, d = normal_form(W(6, "1"))
    assert (nf.x.entries, nf.y.entries) == ((), ())
    assert d.steps == ()


def test_normal_form_refuses_hook_letters():
    # a certificate starts at its word, and Omega has no E letter
    with pytest.raises(AlphabetError, match="normal_form got a E letter"):
        normal_form(W(5, "E1 E2 E1"))


def test_normal_form_of_the_lifted_hook_word():
    nf, d = normal_form(hooks_to_pairs(W(5, "E1 E2 E1")))
    assert (nf.x.entries, nf.y.entries) == ((1,), (1,))
    assert d.start == W(5, "L1 R1 L2 R2 L1 R1").letters
    assert check_derivation(d) == nf.word


def test_normal_form_word_length_bound():
    # the canonical word has length |x| + |y| <= n
    rng = random.Random(6)
    for n in (3, 6, 9):
        for _ in range(150):
            nf, _ = normal_form(random_lr_word(rng, n, 40))
            assert len(nf.word) == 2 * len(nf.x) <= n


def test_normal_form_idempotent_on_canonical_words():
    # every balanced pair round-trips with an empty derivation, n <= 8
    for n in range(3, 9):
        for k in range(n // 2 + 1):
            tups = enumerate_tuples(n, k)
            for x in tups:
                for y in tups:
                    w = tuple_words(x)[0].concat(tuple_words(y)[1])
                    nf, d = normal_form(w)
                    assert (nf.x, nf.y) == (x, y)
                    assert d.steps == ()


def test_normal_form_soundness_random():
    rng = random.Random(7)
    for n in (3, 4, 5, 6, 7, 8, 9):
        for _ in range(120):
            w = random_lr_word(rng, n, 50)
            t, _ = evaluate(w)
            bl, br = boundary_tuples(t)
            nf, d = normal_form(w)
            assert (nf.x, nf.y) == (bl, br)
            assert evaluate(nf.word)[0] == t
            check_derivation(d)


def test_normal_form_deterministic():
    rng = random.Random(8)
    for _ in range(30):
        w = random_lr_word(rng, 7, 35)
        nf1, d1 = normal_form(w)
        nf2, d2 = normal_form(w)
        assert d1 == d2 and nf1 == nf2
        assert derivation_to_text(d1) == derivation_to_text(d2)


# -- completeness at small scale ---------------------------------------------------

def test_word_equality_agrees_with_diagram_equality():
    # all words of length <= 4 for small degrees: the normal form is a
    # complete invariant, so pairwise agreement follows from per-word checks
    import itertools

    for n in (3, 4):
        alphabet = [f"L{i}" for i in range(1, n)] + [f"R{i}" for i in range(1, n)]
        for ln in range(5):
            for combo in itertools.product(alphabet, repeat=ln):
                w = W(n, " ".join(combo))
                t, _ = evaluate(w)
                bl, br = boundary_tuples(t)
                nf, _ = normal_form(w)
                assert (nf.x, nf.y) == (bl, br)


def test_equal_words_spot_checks():
    rng = random.Random(9)
    for n in (5, 6):
        for _ in range(120):
            w1 = random_lr_word(rng, n, 4)
            w2 = random_lr_word(rng, n, 4)
            res = equal_words(w1, w2)
            assert res.equal == (evaluate(w1)[0] == evaluate(w2)[0])
            if not res.equal:
                assert res.witness[0] != res.witness[1]
            else:
                assert res.nf1 == res.nf2
                check_derivation(res.derivation1)
                check_derivation(res.derivation2)


# -- certificates -------------------------------------------------------------------

def test_check_derivation_rejects_forged_step():
    _, d = reduce_one_sided(W(5, "L1 L4"))
    forged = Derivation(5, "Omega", d.start,
                        (Step(0, "E3(1,2)", True),) + d.steps, d.end)
    with pytest.raises(FamilyViolation):
        check_derivation(forged)
    forged = Derivation(5, "Omega", d.start,
                        (Step(1, "L1(2)", True),) + d.steps, d.end)
    with pytest.raises(BadStep):
        check_derivation(forged)


def test_check_derivation_rejects_wrong_end():
    _, d = reduce_one_sided(W(5, "L1 L4"))
    wrong = Derivation(5, "Omega", d.start, d.steps, W(5, "L2").letters)
    with pytest.raises(EndMismatch):
        check_derivation(wrong)


def test_check_derivation_empty():
    d = Derivation(5, "Omega", W(5, "L1").letters, (), W(5, "L1").letters)
    assert check_derivation(d) == W(5, "L1")


def test_derivation_file_round_trip():
    nf, d = normal_form(W(5, "R2 L2 L1 R3"))
    text = derivation_to_text(d)
    assert text.splitlines()[0] == "n=5; family=Omega"
    assert text.splitlines()[-1].startswith("end=")
    back = derivation_from_text(text, d.start_word())
    assert back == d
    check_derivation(back)


def test_derivation_text_rejects_garbage():
    with pytest.raises(ValueError):
        derivation_from_text("family=Omega", W(5, "1"))
    with pytest.raises(ValueError):
        derivation_from_text("n=5; family=Omega\n0:L1(1):fwd", W(5, "L1 L4"))
    # the degree is read only in the spelling str(int) gives it
    for n in ("05", "\u0665", "+5", "5.0"):
        with pytest.raises(ValueError, match="bad derivation header"):
            derivation_from_text(f"n={n}; family=Omega\nend=L1", W(5, "L1"))
    # the family is read only as one of the two presentations
    for family in ("Sigma", "OmegaL", "omega", "Xi2"):
        with pytest.raises(ValueError, match="bad derivation header"):
            derivation_from_text(f"n=5; family={family}\nend=L1", W(5, "L1"))
    # a step position that parses but lies before the word is refused by
    # the replay
    d = derivation_from_text("n=5; family=Omega\n-1:A:fwd\nend=R4",
                             W(5, "L4"))
    with pytest.raises(BadStep, match="step 0: A expected L4 at -1"):
        check_derivation(d)
