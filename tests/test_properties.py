"""Property tests of certificates over random L/R/E words, and of the
diagram and algebra products over random diagrams.

Hypothesis runs under a derandomized profile, so every run of the suite
draws the same examples and a failure reproduces without a database.
"""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tlmonoid import (
    AlgebraElement,
    Derivation,
    Step,
    Word,
    alg_mul,
    boundary_tuples,
    check_derivation,
    compose,
    derivation_from_text,
    derivation_to_text,
    evaluate,
    letter,
    make_tangle,
    mirror_steps,
    normal_form,
    normal_form_E,
    reduce_one_sided,
    relation_index,
)

from oracles import (as_blockset, dagger_letters, naive_alg_mul, naive_compose,
                     naive_evaluate, replay_check, replay_translate)

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


@st.composite
def rows(draw, n, rank):
    """One row of n points: `rank` through points and nested arcs elsewhere.

    Returns (arcs, through points), each arc a (left, right) pair.  No
    through point lies under an arc, so rows of equal rank join into a
    planar diagram.
    """
    arcs, through, opened = [], [], []
    for i in range(1, n + 1):
        left = n - i                    # points after this one
        need = rank - len(through)
        moves = []
        if len(opened) + 1 + need <= left:
            moves.append("open")
        if opened and len(opened) - 1 + need <= left:
            moves.append("close")
        if not opened and need:
            moves.append("through")
        move = draw(st.sampled_from(moves))
        if move == "open":
            opened.append(i)
        elif move == "close":
            arcs.append((opened.pop(), i))
        else:
            through.append(i)
    return arcs, through


def joined(top, bottom):
    """Blocks of the diagram with upper row `top` and lower row `bottom`."""
    (up, ut), (lo, lt) = top, bottom
    return ([(i, j) for i, j in up] + [(-i, -j) for i, j in lo]
            + [(i, -j) for i, j in zip(ut, lt)])


def ranks(n):
    # all arcs (the lowest rank, the most loops), all through strands, mixed
    return st.sampled_from([n % 2, n]) | st.sampled_from(range(n % 2, n + 1, 2))


@st.composite
def diagrams(draw, n):
    rank = draw(ranks(n))
    return joined(draw(rows(n, rank)), draw(rows(n, rank)))


@DETERMINISTIC
@given(st.integers(1, 40).flatmap(
    lambda n: st.tuples(st.just(n), diagrams(n), diagrams(n))))
def test_compose_agrees_with_the_union_find_oracle(case):
    n, blocks_a, blocks_b = case
    t, loops = compose(make_tangle(n, blocks_a), make_tangle(n, blocks_b))
    assert (as_blockset(t), loops) == naive_compose(n, blocks_a, blocks_b)


@st.composite
def shared_half_terms(draw, n):
    """Terms built from few rows, so that many share an upper or lower half.

    Each rank group joins every drawn top row with every drawn bottom row;
    coefficients come from a small set, so products cancel often.
    """
    terms = {}
    for rank in draw(st.lists(ranks(n), min_size=1, max_size=2)):
        tops = draw(st.lists(rows(n, rank), min_size=2, max_size=3))
        bottoms = draw(st.lists(rows(n, rank), min_size=2, max_size=3))
        for top in tops:
            for bottom in bottoms:
                blocks = tuple(joined(top, bottom))
                terms[blocks] = Fraction(
                    draw(st.sampled_from([-2, -1, 1, 2, 3])),
                    draw(st.sampled_from([1, 3])))
    return terms


@DETERMINISTIC
@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), shared_half_terms(n),
                        shared_half_terms(n))),
       st.sampled_from([Fraction(2), Fraction(1, 3), Fraction(-3, 2)]))
def test_alg_mul_agrees_with_the_fraction_double_loop(case, delta):
    n, terms_a, terms_b = case

    def element(terms):
        return AlgebraElement(n, {make_tangle(n, blocks): c
                                  for blocks, c in terms.items()})

    got = alg_mul(element(terms_a), element(terms_b), delta)
    assert ({as_blockset(t): c for t, c in got.terms.items()}
            == naive_alg_mul(n, terms_a, terms_b, delta))
