import os
import random
import re
import subprocess
import sys
import textwrap

import pytest

from tlmonoid import (
    AlphabetError,
    Derivation,
    Step,
    Word,
    boundary_tuples,
    check_derivation,
    equal_words,
    evaluate,
    hat,
    hooks_to_pairs,
    normal_form,
    normal_form_E,
    relation_set,
    word_from_text,
    word_to_text,
    xi_template,
)
from tlmonoid import etranslate
from tlmonoid.etranslate import (_hat_indices, _proved, _telescope,
                                 _translate_certificate)
from tlmonoid.relations import replay, reverse_steps, shift_steps
from tlmonoid.words import E

from oracles import replay_translate


def W(n, text):
    return word_from_text(n, text)


def _e_word(idxs):
    return list(map(E, idxs))


def test_every_template_replays_to_the_hat_image():
    # replay every Omega relation's template on hat(lhs), with context on
    # both sides, and land exactly on hat(rhs)
    for n in range(3, 10):
        for rel in relation_set(n, "Omega"):
            tmpl = xi_template(n, rel.rid)
            pad = [n - 1, 1]
            word = _e_word(pad + _hat_indices(n, rel.lhs) + pad)
            replay(n, word, shift_steps(tmpl, len(pad)), "Xi")
            assert word == _e_word(pad + _hat_indices(n, rel.rhs) + pad), \
                rel.rid


def test_template_steps_are_pure_xi():
    for n in (3, 5, 7):
        for rel in relation_set(n, "Omega"):
            for s in xi_template(n, rel.rid):
                assert s.rid.startswith("E")


def test_alias_template_is_empty():
    assert xi_template(5, "A") == ()


def test_telescope_expansion_round_trip():
    word = replay(6, _e_word([3]), _telescope(6, 3), "Xi")
    assert word == _e_word([3, 4, 5, 5, 4, 3])
    assert replay(6, word, reverse_steps(_telescope(6, 3)), "Xi") == [E(3)]


def test_every_telescope_expands_to_the_hat_of_its_pair():
    # E_i -> hat(L_i R_i) at every index, and back by the reversed lemma
    for n in range(3, 11):
        for i in range(1, n):
            tele = _telescope(n, i)
            pair = _e_word([*range(i, n), *range(n - 1, i - 1, -1)])
            word = replay(n, [E(i)], tele, "Xi")
            assert word == pair, (n, i)
            assert replay(n, word, reverse_steps(tele), "Xi") == [E(i)]


def test_normal_form_E_examples():
    nf, canonical, d = normal_form_E(W(5, "E1 E2 E1"))
    assert (nf.x.entries, nf.y.entries) == ((1,), (1,))
    assert word_to_text(canonical) == "E1 E2 E3 E4 E4 E3 E2 E1"
    assert check_derivation(d) == canonical

    nf, canonical, d = normal_form_E(W(5, "E4 E4"))
    assert (nf.x.entries, nf.y.entries) == ((4,), (4,))
    assert word_to_text(canonical) == "E4 E4"
    check_derivation(d)


def test_normal_form_E_far_commutation():
    a = normal_form_E(W(5, "E1 E3"))
    b = normal_form_E(W(5, "E3 E1"))
    assert (a[0].x, a[0].y) == (b[0].x, b[0].y)
    assert a[1] == b[1]


def test_normal_form_E_canonical_is_hat_of_balanced_word():
    rng = random.Random(11)
    for n in (3, 5, 7):
        for _ in range(40):
            w = Word(n, tuple(W(n, f"E{rng.randint(1, n - 1)}").letters[0]
                              for _ in range(rng.randint(0, 10))))
            nf, canonical, d = normal_form_E(w)
            assert canonical == hat(nf.word)
            t, _ = evaluate(w)
            bl, br = boundary_tuples(t)
            assert (nf.x, nf.y) == (bl, br)
            assert evaluate(canonical)[0] == t
            assert d.family == "Xi"
            assert all(s.rid.startswith("E") for s in d.steps)
            check_derivation(d)


def test_normal_form_E_empty_word():
    nf, canonical, d = normal_form_E(W(6, "1"))
    assert (nf.x.entries, nf.y.entries) == ((), ())
    assert len(canonical) == 0 and d.steps == ()


def test_normal_form_E_rejects_lambda_letters():
    with pytest.raises(AlphabetError):
        normal_form_E(W(5, "L1"))


@pytest.mark.parametrize("text", ["L1 R2", "E1 L1", "R3"])
def test_e_certificate_rejects_words_not_over_E(text):
    with pytest.raises(AlphabetError, match="normal_form_E"):
        etranslate.e_certificate(W(5, text))


def test_e_certificate_is_the_normal_form_E_certificate():
    w = W(7, "E3 E1 E6 E2 E3")
    _, canonical, d = normal_form_E(w)
    assert etranslate.e_certificate(w) == (d.steps, canonical.letters)


def test_equal_words_across_alphabets():
    res = equal_words(W(5, "E2"), W(5, "L2 R2"))
    assert res.equal
    assert res.derivation1.family == "Xi"
    assert res.derivation2.family == "Omega"


@pytest.mark.parametrize("word", ["E1 L2", "R3 E2"])
def test_certify_and_equal_words_refuse_a_mixed_word(word):
    # neither presentation has both E and L/R letters
    with pytest.raises(AlphabetError, match="normal_form got a E letter"):
        etranslate.certify(W(5, word))
    with pytest.raises(AlphabetError):
        equal_words(W(5, "E1"), W(5, word))


def _random_e_word(rng, n, length):
    return Word(n, tuple(W(n, f"E{rng.randint(1, n - 1)}").letters[0]
                         for _ in range(length)))


def test_normal_form_E_matches_whole_word_replay():
    rng = random.Random(4)
    for n in (3, 4, 5, 9, 12, 15):
        for length in range(26):
            w = _random_e_word(rng, n, length)
            _, canonical, d = normal_form_E(w)
            steps, end = replay_translate(w)
            assert d.steps == tuple(steps), word_to_text(w)
            assert tuple(c.index for c in canonical.letters) == end
            assert tuple(c.index for c in d.end) == end


def test_backward_omega_steps_place_inverted_templates():
    # normal_form only emits forward steps; a certificate that goes to the
    # normal form and back exercises the backward placements as well
    rng = random.Random(5)
    for n in (4, 9, 12):
        for length in (3, 8, 14):
            w = _random_e_word(rng, n, length)
            d = normal_form(hooks_to_pairs(w))[1]
            back = tuple(reverse_steps(d.steps))
            there_and_back = Derivation(n, "Omega", d.start, d.steps + back,
                                        d.start)
            steps, end = _translate_certificate(w, there_and_back)
            want_steps, want_end = replay_translate(w, there_and_back)
            assert steps == want_steps, word_to_text(w)
            assert tuple(c.index for c in end) == want_end
            xi = Derivation(n, "Xi", w.letters, tuple(steps), end)
            assert check_derivation(xi, "Xi") == hat(d.start_word())


def test_builder_mismatch_raises_runtime_error():
    with pytest.raises(RuntimeError, match=re.escape("E1(1) does not match "
                                                     "at 0")):
        _proved(5, "lemma", [1, 2], [Step(0, "E1(1)")], [1])
    # E1 and E2 do not commute: E2's domain refuses the step
    with pytest.raises(RuntimeError, match=re.escape("step 0 uses E2(1,2)")):
        _proved(5, "lemma", [1, 2], [Step(0, "E2(1,2)")], [2, 1])
    with pytest.raises(RuntimeError, match="broken lemma"):
        _proved(5, "lemma", [1, 1], [Step(0, "E1(1)")], [1, 1])


def test_lifted_replay_refuses_a_moved_step():
    # the lifted certificate of E1 E3 E2 at n = 5 moved by one letter at
    # its fifth step, RL3(1,4) at 2
    w = W(5, "E1 E3 E2")
    d = normal_form(hooks_to_pairs(w))[1]
    assert d.steps[4] == Step(2, "RL3(1,4)")
    steps = list(d.steps)
    steps[4] = Step(3, "RL3(1,4)")
    moved = Derivation(5, "Omega", d.start, tuple(steps), d.end)
    with pytest.raises(RuntimeError,
                       match=re.escape("RL3(1,4) does not match the lifted "
                                       "word at 3")):
        _translate_certificate(w, moved)


def _drop_last_rl2_step(monkeypatch):
    build = etranslate._TEMPLATE_BUILDERS["RL2"]
    monkeypatch.setitem(etranslate._TEMPLATE_BUILDERS, "RL2",
                        lambda n, i, j: build(n, i, j)[:-1])


@pytest.fixture
def fresh_templates():
    xi_template.cache_clear()
    yield
    xi_template.cache_clear()


def test_broken_template_is_caught(monkeypatch, fresh_templates):
    _drop_last_rl2_step(monkeypatch)
    # the lifted certificate of E2 E2 is RL2(2,2) then L1(2)
    with pytest.raises(RuntimeError, match=r"broken template RL2\(2,2\)"):
        normal_form_E(W(5, "E2 E2"))


def test_broken_template_is_caught_under_optimize():
    script = textwrap.dedent("""
        import sys
        from tlmonoid import check_derivation, normal_form_E, word_from_text
        from tlmonoid import etranslate, xi_template

        if __debug__:
            sys.exit("not running under -O")
        w = word_from_text(12, "E3 E7 E4 E11 E3 E2 E8 E8 E1 E5")
        _, canonical, d = normal_form_E(w)
        end = check_derivation(d, "Xi")
        if end != canonical:
            sys.exit("certificate does not end on the canonical word")

        builders = etranslate._TEMPLATE_BUILDERS
        build = builders["RL2"]
        builders["RL2"] = lambda n, i, j: build(n, i, j)[:-1]
        xi_template.cache_clear()
        try:
            normal_form_E(word_from_text(5, "E2 E2"))
        except RuntimeError as exc:
            print(exc)
        else:
            sys.exit("broken template accepted")
    """)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    res = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "broken template RL2(2,2)"


def test_builder_run_refuses_ids_outside_xi():
    for rid in ("E1(01)", "E2(1,2)", "E9(1)", "L1(1)", "bogus"):
        with pytest.raises(RuntimeError, match=re.escape(rid)):
            _proved(5, "lemma", [1, 1], [Step(0, rid)], [1])


def test_large_degree_telescope_needs_no_recursion():
    # the hook E1 at n = 1500 expands through a telescope of 2998 letters,
    # one E3 per rung and one E1 at the top
    n = 1500
    _, canonical, d = normal_form_E(W(n, "E1"))
    assert canonical == hat(W(n, "L1 R1"))
    assert len(d.steps) == n - 1
    assert check_derivation(d, "Xi") == canonical
