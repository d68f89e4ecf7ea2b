"""Property tests of certificates over random L/R/E words.

Hypothesis runs under a derandomized profile, so every run of the suite
draws the same examples and a failure reproduces without a database.
"""

import dataclasses

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tlmonoid import (
    Derivation,
    Step,
    Word,
    boundary_tuples,
    check_derivation,
    derivation_from_text,
    derivation_to_text,
    evaluate,
    letter,
    mirror_steps,
    normal_form,
    normal_form_E,
    reduce_one_sided,
    relation_index,
)

from oracles import (as_blockset, dagger_letters, naive_evaluate, replay_check,
                     replay_translate)

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          max_examples=150, database=None)
DETERMINISTIC = settings.get_profile("deterministic")


@st.composite
def words(draw):
    n = draw(st.integers(3, 15))
    alphabet = draw(st.sampled_from(["L", "R", "E", "LR", "LRE"]))
    letters = draw(st.lists(
        st.tuples(st.sampled_from(alphabet), st.integers(1, n - 1)),
        max_size=30))
    return Word(n, tuple(letter(a, i) for a, i in letters))


def certificate(w):
    """The derivation `tln nf` certifies: Xi for pure E-words, else Omega."""
    if w.letters and w.alphabets() <= {"E"}:
        nf, canonical, d = normal_form_E(w)
    else:
        nf, d = normal_form(w)
        canonical = nf.word
    return canonical, d


@DETERMINISTIC
@given(words())
def test_normal_form_certificate_replays(w):
    canonical, d = certificate(w)
    assert check_derivation(d) == canonical


@DETERMINISTIC
@given(words())
def test_certificate_text_round_trips(w):
    _, d = certificate(w)
    back = derivation_from_text(derivation_to_text(d), d.start_word())
    # the note (hook expansion) is not part of the text format
    assert back == dataclasses.replace(d, note="")


@st.composite
def e_words(draw):
    n = draw(st.integers(3, 15))
    indices = draw(st.lists(st.integers(1, n - 1), max_size=25))
    return Word(n, tuple(letter("E", i) for i in indices))


@DETERMINISTIC
@given(e_words())
def test_xi_certificate_matches_whole_word_replay(w):
    _, canonical, d = normal_form_E(w)
    steps, end = replay_translate(w)
    assert d.steps == tuple(steps)
    assert tuple(c.index for c in canonical.letters) == end


@DETERMINISTIC
@given(words())
def test_normal_form_is_the_balanced_pair_of_the_diagram(w):
    nf, _ = normal_form(w)
    assert (nf.x, nf.y) == boundary_tuples(evaluate(w)[0])


@st.composite
def l_words(draw):
    n = draw(st.integers(3, 15))
    indices = draw(st.lists(st.integers(1, n - 1), max_size=30))
    return Word(n, tuple(letter("L", i) for i in indices))


@DETERMINISTIC
@given(l_words())
def test_mirrored_l_fold_replays_from_the_dagger_word(w):
    x, d = reduce_one_sided(w)
    image = Derivation(w.n, "Omega", dagger_letters(d.start),
                       tuple(mirror_steps(w.n, len(d.start), d.steps)),
                       dagger_letters(d.end))
    assert check_derivation(image).letters == dagger_letters(d.end)
    assert reduce_one_sided(image.start_word())[0] == x


@DETERMINISTIC
@given(e_words())
def test_mirrored_xi_certificate_replays_from_the_reversed_word(w):
    _, canonical, d = normal_form_E(w)
    image = Derivation(w.n, "Xi", d.start[::-1],
                       tuple(mirror_steps(w.n, len(d.start), d.steps)),
                       d.end[::-1])
    assert check_derivation(image).letters == canonical.letters[::-1]


CORRUPTIONS = {
    "direction": lambda ln: ln.rsplit(":", 1)[0] + ":sideways",
    "missing field": lambda ln: ln.rsplit(":", 1)[0],
    "extra field": lambda ln: ln + ":again",
}


@DETERMINISTIC
@given(words(), st.sampled_from(sorted(CORRUPTIONS)), st.data())
def test_corrupt_step_line_is_named(w, kind, data):
    _, d = certificate(w)
    assume(d.steps)
    lines = derivation_to_text(d).splitlines()
    k = data.draw(st.integers(1, len(d.steps)), label="line")
    bad = CORRUPTIONS[kind](lines[k])
    lines[k] = bad
    # a later bad line must not be reported in place of the first one
    if k + 1 < len(lines) - 1:
        lines[k + 1] = "garbage"
    with pytest.raises(ValueError) as exc:
        derivation_from_text("\n".join(lines) + "\n", d.start_word())
    assert repr(bad) in str(exc.value)


NON_CANONICAL_IDS = ["L1(01)", "E2(1,03)", "RL2(2, 2)", "Q9", ""]


@DETERMINISTIC
@given(words(), st.sampled_from(["position", "rid", "direction"]), st.data())
def test_replay_agrees_with_the_per_step_oracle_on_a_corrupt_step(w, kind,
                                                                   data):
    _, d = certificate(w)
    assume(d.steps)
    steps = list(d.steps)
    k = data.draw(st.integers(0, len(steps) - 1), label="step")
    p, rid, fwd = steps[k]
    if kind == "position":
        p = data.draw(st.integers(-2, len(d.start) + 4), label="pos")
    elif kind == "rid":
        ids = (sorted(relation_index(d.n, "Omega"))
               + sorted(relation_index(d.n, "Xi")) + NON_CANONICAL_IDS)
        rid = data.draw(st.sampled_from(ids), label="rid")
    else:
        fwd = not fwd
    steps[k] = Step(p, rid, fwd)
    bad = dataclasses.replace(d, steps=tuple(steps))

    def verdict(check):
        try:
            return "ok", check(bad, d.family)
        except Exception as exc:
            return type(exc), str(exc), getattr(exc, "index", None)

    assert verdict(check_derivation) == verdict(replay_check)


@st.composite
def any_degree_words(draw):
    n = draw(st.integers(1, 40))
    alphabet = draw(st.sampled_from(["L", "R", "E", "LR", "LRE"]))
    letters = draw(st.lists(
        st.tuples(st.sampled_from(alphabet), st.integers(1, max(n - 1, 1))),
        max_size=30 if n > 1 else 0))
    return Word(n, tuple(letter(a, i) for a, i in letters))


@DETERMINISTIC
@given(any_degree_words())
def test_evaluate_agrees_with_the_union_find_oracle(w):
    t, loops = evaluate(w)
    assert (as_blockset(t), loops) == naive_evaluate(w.n, w.letters)
