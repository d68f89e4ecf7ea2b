"""Property tests of certificates over random L/R/E words, and of the
diagram and algebra products over random diagrams.

Hypothesis runs under a derandomized profile, so every run of the suite
draws the same examples and a failure reproduces without a database.
"""

import contextlib
import dataclasses
import io
import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tlmonoid import (
    AlgebraElement,
    AlphabetError,
    Derivation,
    Step,
    TLError,
    Word,
    alg_mul,
    boundary_tuples,
    certify,
    check_derivation,
    compose,
    derivation_from_text,
    derivation_to_text,
    element_from_text,
    element_to_text,
    evaluate,
    hat,
    hooks_to_pairs,
    letter,
    make_tangle,
    mirror_steps,
    normal_form,
    normal_form_E,
    rational,
    reduce_one_sided,
    relation_index,
    step_from_text,
    step_to_text,
    tangle_from_doc,
    tangle_from_text,
    tangle_to_doc,
    tangle_to_text,
    tuple_from_text,
    tuple_to_text,
    word_from_text,
    word_to_text,
)
from tlmonoid import cli

from oracles import (as_blockset, dagger_letters, naive_alg_mul, naive_compose,
                     naive_evaluate, replay_check, replay_translate)

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          max_examples=150, database=None)
DETERMINISTIC = settings.get_profile("deterministic")


@st.composite
def words(draw, alphabets=("L", "R", "E", "LR", "LRE")):
    n = draw(st.integers(3, 15))
    alphabet = draw(st.sampled_from(alphabets))
    letters = draw(st.lists(
        st.tuples(st.sampled_from(alphabet), st.integers(1, n - 1)),
        max_size=30))
    return Word(n, tuple(letter(a, i) for a, i in letters))


@st.composite
def mixed_words(draw):
    """A word with at least one E letter and one L or R letter."""
    w = draw(words(("LRE",)))
    letters = list(w.letters)
    for a in ("E", draw(st.sampled_from("LR"))):
        letters.insert(draw(st.integers(0, len(letters))),
                       letter(a, draw(st.integers(1, w.n - 1))))
    return Word(w.n, tuple(letters))


def is_mixed(w):
    return "E" in w.alphabets() and len(w.alphabets()) > 1


def certificate(w):
    """`certify`'s normal form and certificate of `w`, or of its lift
    E_i -> L_i R_i if `w` mixes the alphabets, which neither presentation
    certifies."""
    return certify(hooks_to_pairs(w) if is_mixed(w) else w)


@DETERMINISTIC
@given(words())
def test_normal_form_certificate_replays(w):
    nf, d = certificate(w)
    canonical = hat(nf.word) if d.family == "Xi" else nf.word
    assert check_derivation(d) == canonical


@DETERMINISTIC
@given(words(("L", "R", "E", "LR")))
def test_a_certificate_starts_at_its_word(w):
    _, d = certify(w)
    assert d.start == w.letters
    assert check_derivation(d) == d.end_word()


@DETERMINISTIC
@given(mixed_words())
def test_a_word_mixing_the_alphabets_is_refused(w):
    for certifier in (certify, normal_form):
        with pytest.raises(AlphabetError):
            certifier(w)


@DETERMINISTIC
@given(words())
def test_certificate_text_round_trips(w):
    _, d = certificate(w)
    back = derivation_from_text(derivation_to_text(d), d.start_word())
    assert back == d


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
    nf, _ = normal_form(hooks_to_pairs(w))
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


# -- text formats: every writer's output reads back, and every reader
# refuses drawn text only with a typed error.  Degrees stay at 30 or below
# and words at 20 letters or fewer, so that no certificate blows up.

@st.composite
def small_words(draw, n=None, alphabets=("L", "R", "E", "LR", "LRE")):
    n = n or draw(st.integers(3, 30))
    alphabet = draw(st.sampled_from(alphabets))
    letters = draw(st.lists(
        st.tuples(st.sampled_from(alphabet), st.integers(1, n - 1)),
        max_size=20))
    return Word(n, tuple(letter(a, i) for a, i in letters))


def tangles(max_n=30):
    return st.integers(1, max_n).flatmap(
        lambda n: diagrams(n).map(lambda blocks: make_tangle(n, blocks)))


def steps(n):
    ids = sorted(relation_index(n, "Omega")) + sorted(relation_index(n, "Xi"))
    return st.builds(Step, st.integers(-3, 60), st.sampled_from(ids),
                     st.booleans())


@st.composite
def elements(draw):
    n = draw(st.integers(1, 6))
    coeffs = st.fractions(max_denominator=9).filter(lambda c: abs(c) < 100)
    terms = draw(st.lists(st.tuples(diagrams(n), coeffs), max_size=4))
    return (AlgebraElement(n, [(make_tangle(n, b), c) for b, c in terms]),
            draw(coeffs))


@DETERMINISTIC
@given(tangles())
def test_tangle_text_and_json_round_trip(t):
    assert tangle_from_text(tangle_to_text(t)) == t
    assert tangle_from_doc(json.loads(json.dumps(tangle_to_doc(t)))) == t


@DETERMINISTIC
@given(small_words())
def test_word_text_round_trips(w):
    assert word_from_text(w.n, word_to_text(w)) == w


@DETERMINISTIC
@given(tangles())
def test_tuple_text_round_trips(t):
    for x in boundary_tuples(t):
        assert tuple_from_text(tuple_to_text(x)) == x


@DETERMINISTIC
@given(st.integers(3, 30).flatmap(steps))
def test_step_text_round_trips(step):
    assert step_from_text(step_to_text(step)) == step


@DETERMINISTIC
@given(elements())
def test_element_text_round_trips(case):
    e, delta = case
    assert element_from_text(element_to_text(e, delta)) == (e, delta)


# characters the formats give meaning to, and a few that look like digits
FORMAT_CHARS = "0123456789-+_()=;,.:/* \nLREnxblocksfamilyOmegaXiendfwdbwd\u0663\u00b2"


@st.composite
def edited(draw, texts):
    """Text from `texts` with up to three short spans replaced, or any text."""
    if draw(st.booleans()):
        return draw(st.text(max_size=40))
    text = draw(texts)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 3)))
        text = text[:i] + draw(st.text(FORMAT_CHARS, max_size=3)) + text[j:]
    return text


def _certificate_text(w):
    return derivation_to_text(certificate(w)[1])


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-40, 40) | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=8)
DOCS = st.fixed_dictionaries(
    {"n": st.integers(1, 8) | JSON, "blocks": JSON}).map(json.dumps)


def _json_or_text(text):
    try:
        return json.loads(text)
    except ValueError:
        return text


READERS = {
    "word_from_text": (small_words().map(word_to_text),
                       lambda text: word_from_text(7, text)),
    "tuple_from_text": (tangles().map(
        lambda t: tuple_to_text(boundary_tuples(t)[0])), tuple_from_text),
    "tangle_from_text": (tangles().map(tangle_to_text), tangle_from_text),
    "tangle_from_doc": (
        tangles().map(lambda t: json.dumps(tangle_to_doc(t))) | DOCS,
        lambda text: tangle_from_doc(_json_or_text(text))),
    "step_from_text": (st.integers(3, 30).flatmap(steps).map(step_to_text),
                       step_from_text),
    "derivation_from_text": (
        small_words(7).map(_certificate_text),
        lambda text: derivation_from_text(text, word_from_text(7, "E1 L2"))),
    "element_from_text": (elements().map(lambda c: element_to_text(*c)),
                          element_from_text),
    "rational": (st.sampled_from(["2", "-2", "1/3", "-1/3", "0.5", "-0.5"]),
                 rational),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_readers_refuse_drawn_text_with_a_typed_error(reader):
    texts, read = READERS[reader]

    @DETERMINISTIC
    @given(edited(texts))
    def check(text):
        try:
            read(text)
        except (TLError, ValueError):
            pass

    check()


# `tln` ends with 0 to 4 whatever it is given, and with 1 only from `eq`
ALPHABETS = ("L", "R", "E", "LR", "LRE")
BAD_DEGREES = ["05", "+5", "\u0665", "5_0", " 5", "", "x", "-3", "0", "2"]
DELTAS = ["2", "-1/3", "0.5", "0"]
BAD_DELTAS = ["+2", "02", "1/0", "1e400", "x", " 2", "1_0"]


@st.composite
def tln_argv(draw, tmp):
    """An argv with at most one fault: in the degree, in a word, or in the
    command's own input (a delta, a certificate file, an output path)."""
    command = draw(st.sampled_from(["eval", "nf", "eq", "alg", "check-cert"]))
    fault = draw(st.sampled_from([None, None, "degree", "word", "input"]))
    n = draw(st.integers(3, 30))
    degree = (draw(st.sampled_from(BAD_DEGREES)) if fault == "degree"
              else str(n))
    texts = small_words(n, ("E",) if command == "alg" else ALPHABETS)
    texts = texts.map(word_to_text)
    word = edited(texts) if fault == "word" else texts
    argv = [command, "--n", degree]
    if command == "check-cert":
        start = draw(small_words(n))
        text = _certificate_text(start)
        if fault == "input":
            text = draw(edited(st.just(text)))
        cert = os.path.join(tmp, "drawn.cert")
        with open(cert, "w", encoding="utf-8") as fh:
            fh.write(text)
        start = word if fault == "word" else st.just(word_to_text(start))
        return argv + [cert, draw(start)] + draw(st.sampled_from(
            [[], ["--family", "Omega"], ["--family", "Xi"]]))
    argv += [draw(word) for _ in range(2 if command == "eq" else 1)]
    bad = fault == "input"
    if command == "alg":
        argv += ["--delta", draw(st.sampled_from(BAD_DELTAS if bad else DELTAS))]
    elif command == "nf" and (bad or draw(st.booleans())):
        argv += ["--cert", os.path.join(tmp, "no-such-dir" if bad else "",
                                        "out.cert")]
    elif bad:
        argv += ["--format", "xml"]
    return argv + draw(st.sampled_from([[], ["--format", "doc"]]))


def test_tln_exits_only_with_its_documented_codes():
    with tempfile.TemporaryDirectory() as tmp:

        @DETERMINISTIC
        @given(tln_argv(tmp))
        def check(argv):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                try:
                    code = cli.main(argv)
                except SystemExit as exc:   # argparse refused the argv
                    code = exc.code
            assert code in (0, 1, 2, 3, 4), argv
            assert code != 1 or argv[0] == "eq", argv
            assert code != 4, (argv, err.getvalue())

        check()
