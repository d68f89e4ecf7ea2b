import re

import pytest

from tlmonoid import (
    AlgebraElement,
    BoundViolation,
    DegreeError,
    DegreeTooLarge,
    DegreeTooSmall,
    LengthOutOfRange,
    NotDecreasing,
    Word,
    check_tuple,
    derivation_from_text,
    element_from_text,
    entries_from_text,
    enumerate_tuples,
    fuzz_words,
    generator,
    identity,
    make_tangle,
    one,
    reduce_one_sided,
    relation_by_id,
    relation_set,
    tangle_from_text,
    tuple_from_text,
    tuple_to_text,
    twist_relations,
    verify_presentation,
    verify_xi_prime,
    word_from_text,
    xi_template,
    zero,
)
from tlmonoid.etranslate import _telescope
from tlmonoid.relations import replay
from tlmonoid.tuples import MAX_DEGREE

from oracles import catalan


def entries(tuples):
    return [t.entries for t in tuples]


def test_valid_tuple():
    x = check_tuple(9, (5, 3, 2))
    assert x.entries == (5, 3, 2)
    assert len(x) == 3


def test_empty_tuple_is_valid():
    x = check_tuple(9, ())
    assert len(x) == 0
    assert str(x) == "()"


def test_bound_violation_reports_index_and_bound():
    with pytest.raises(BoundViolation) as exc:
        check_tuple(5, (4, 3))
    assert exc.value.position == 2
    assert exc.value.bound == 2
    assert exc.value.entry == 3


def test_not_decreasing():
    with pytest.raises(NotDecreasing):
        check_tuple(7, (3, 3))
    with pytest.raises(NotDecreasing):
        check_tuple(7, (2, 5))
    with pytest.raises(NotDecreasing):
        check_tuple(7, (2, 0))


def test_enumerate_length_one():
    assert entries(enumerate_tuples(5, 1)) == [(1,), (2,), (3,), (4,)]


def test_enumerate_length_two():
    assert entries(enumerate_tuples(5, 2)) == [
        (2, 1), (3, 1), (3, 2), (4, 1), (4, 2)]


def test_enumerate_length_zero():
    assert entries(enumerate_tuples(4, 0)) == [()]


def test_enumerate_all_is_lexicographic_and_valid():
    for n in range(1, 9):
        ts = enumerate_tuples(n)
        ents = entries(ts)
        assert ents == sorted(ents)
        assert len(set(ents)) == len(ents)
        for e in ents:
            check_tuple(n, e)


def test_length_out_of_range():
    with pytest.raises(LengthOutOfRange):
        enumerate_tuples(5, 3)
    with pytest.raises(LengthOutOfRange):
        enumerate_tuples(5, -1)


def test_enumerate_refuses_a_bad_degree():
    for n in (0, -1, True, 2.0):
        with pytest.raises(DegreeError, match="^degree must be a positive"):
            enumerate_tuples(n)


# `tuples._check_degree` is the one degree rule; each entry reaches it
# before the degree keys a cache, where 3.0 == 3 and True == 1
@pytest.mark.parametrize("call", [
    lambda: relation_set(3.0, "Omega"),
    lambda: verify_presentation(3.0),
    lambda: twist_relations(3.0),
    lambda: relation_by_id(3.0, "A"),
    lambda: replay(3.0, [], []),
    lambda: word_from_text(3.5, "L1"),
    lambda: zero(0),
    lambda: zero(True),
    lambda: AlgebraElement(2.5),
    lambda: element_from_text("delta=1; n=0;"),
], ids=["relation_set", "verify_presentation", "twist_relations",
        "relation_by_id", "replay", "word_from_text", "zero", "zero-bool",
        "AlgebraElement", "element_from_text"])
def test_a_degree_that_is_no_positive_int_is_refused(call):
    with pytest.raises(DegreeError, match="^degree must be a positive integer"):
        call()


@pytest.mark.parametrize("call", [
    lambda: relation_set(2, "Omega"),
    lambda: reduce_one_sided(word_from_text(2, "L1")),
    lambda: verify_xi_prime(2),
    lambda: fuzz_words(2, 1),
], ids=["relation_set", "reduce_one_sided", "verify_xi_prime", "fuzz_words"])
def test_the_presentations_refuse_degree_two(call):
    with pytest.raises(DegreeTooSmall,
                       match=r"^presentations need n >= 3, got 2$"):
        call()


# MAX_DEGREE bounds every entry, so a degree alone never builds an O(n)
# array it cannot hold; each call below is refused before it allocates
@pytest.mark.parametrize("call", [
    lambda n: Word(n, ()),
    zero,
    identity,
    one,
    lambda n: check_tuple(n, ()),
    lambda n: enumerate_tuples(n, 0),
    lambda n: relation_by_id(n, "A"),
    lambda n: replay(n, [], []),
    lambda n: make_tangle(n, [(1, -1)]),
    lambda n: tangle_from_text(f"n={n}; blocks=(1,-1)"),
    lambda n: derivation_from_text(f"n={n}; family=Omega\nend=1",
                                   Word(7, ())),
    lambda n: generator(n, "e", 1),
], ids=["Word", "zero", "identity", "one", "check_tuple", "enumerate_tuples",
        "relation_by_id", "replay", "make_tangle", "tangle_from_text",
        "derivation_from_text", "generator"])
def test_a_degree_above_the_bound_is_refused(call):
    with pytest.raises(DegreeTooLarge,
                       match=f"^degree must be at most {MAX_DEGREE}, "
                             f"got {MAX_DEGREE + 1}$"):
        call(MAX_DEGREE + 1)


def test_the_bound_itself_is_accepted():
    assert Word(MAX_DEGREE, ()).n == MAX_DEGREE
    assert zero(MAX_DEGREE).n == MAX_DEGREE


def test_a_float_or_bool_degree_is_refused_whatever_was_cached():
    # 3.0 == 3 and True == 1 as cache keys: a typed cache behind the rule
    # refuses them even after the int degree was cached
    xi_template(3, "L1(1)")
    _telescope(5, 2)
    generator(3, "e", 1)
    for call in (lambda: xi_template(3.0, "L1(1)"),
                 lambda: _telescope(5.0, 2),
                 lambda: generator(3.0, "e", 1),
                 lambda: generator(True, "e", 1)):
        with pytest.raises(DegreeError,
                           match="^degree must be a positive integer"):
            call()


def test_square_sum_of_length_counts_is_catalan():
    # the balanced pairs (x, y) with |x| = |y| biject with the tangles
    for n in range(1, 9):
        counts = [len(enumerate_tuples(n, k)) for k in range(n // 2 + 1)]
        assert sum(c * c for c in counts) == catalan(n)


def test_text_round_trip():
    x = check_tuple(9, (5, 3, 2))
    assert tuple_to_text(x) == "n=9; x=(5,3,2)"
    assert tuple_from_text("n=9; x=(5,3,2)") == x
    e = check_tuple(4, ())
    assert tuple_to_text(e) == "n=4; x=()"
    assert tuple_from_text("n=4; x=()") == e


def test_text_rejects_garbage():
    with pytest.raises(ValueError):
        tuple_from_text("x=(1,2)")


def test_text_reads_canonical_integers_with_space_around_entries():
    assert tuple_from_text("n=9; x=( 5, 3 ,2 )") == check_tuple(9, (5, 3, 2))
    assert entries_from_text(" ( 5, 3 ,2 ) ") == [5, 3, 2]
    assert entries_from_text("( )") == entries_from_text("()") == []


# every integer is read only in the spelling `str(int)` gives
@pytest.mark.parametrize("text, token", [
    ("n=\u0665; x=(\u0663)", "\u0665"),
    ("n=05; x=(3)", "05"),
    ("n=+5; x=(3)", "+5"),
    ("n=5; x=(03)", "03"),
    ("n=5; x=(\u0663)", "\u0663"),
    ("n=5; x=(+3)", "+3"),
    ("n=5; x=(3_0)", "3_0"),
    ("n=5; x=(\u00b2)", "\u00b2"),
])
def test_tuple_from_text_refuses_non_canonical_integers(text, token):
    with pytest.raises(ValueError, match=re.escape(token)):
        tuple_from_text(text)


@pytest.mark.parametrize("text", [
    "(+5, 3,2)", "(05)", "(\u0663)", "(5,,3)", "5,3", "(5;3)", "(1_0)", "(",
])
def test_entries_from_text_refuses_and_names_bad_tokens(text):
    with pytest.raises(ValueError,
                       match=re.escape(f"bad tuple token {text!r}")):
        entries_from_text(text)


@pytest.mark.parametrize("n, entries, bad", [
    (5, [2.7], "2.7"),
    (5, ["2"], "'2'"),
    (5.0, [2], "5.0"),
])
def test_check_tuple_refuses_non_integers(n, entries, bad):
    with pytest.raises(ValueError, match=re.escape(bad)):
        check_tuple(n, entries)
