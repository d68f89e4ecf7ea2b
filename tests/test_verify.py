import pytest

from tlmonoid import (
    DegreeError,
    DegreeTooLarge,
    DegreeTooSmall,
    boundary_tuples,
    catalan,
    dagger,
    enumerate_TL,
    fuzz_words,
    make_tangle,
    profile,
    verify_presentation,
)

from oracles import (
    all_matchings,
    as_blockset,
    enumeration_order,
    naive_noncrossing,
)


def test_counts_match_catalan():
    want = {1: 1, 2: 2, 3: 5, 4: 14, 5: 42, 6: 132, 7: 429, 8: 1430,
            9: 4862, 10: 16796}
    for n, c in want.items():
        assert len(enumerate_TL(n)) == c == catalan(n)


def test_counts_match_catalan_at_the_largest_degrees():
    want = {11: 58786, 12: 208012}
    for n, c in want.items():
        assert len(enumerate_TL(n)) == c == catalan(n)


def test_each_enumeration_is_built_afresh():
    # nothing keeps a basis alive for the process: equal, never the same
    for n in (1, 5, 9):
        first, second = enumerate_TL(n), enumerate_TL(n)
        assert first == second
        assert first is not second
        assert all(s is not t for s, t in zip(first, second))


def test_enumeration_bounds():
    with pytest.raises(DegreeTooLarge):
        enumerate_TL(13)
    with pytest.raises(DegreeError):
        enumerate_TL(0)
    enumerate_TL(1)
    with pytest.raises(DegreeError):
        enumerate_TL(True)


def test_enumeration_matches_brute_force():
    # filter all perfect matchings through the independent crossing test
    for n in (1, 2, 3, 4):
        points = [i for i in range(1, n + 1)] + [-i for i in range(1, n + 1)]
        valid = set()
        for m in all_matchings(points):
            if naive_noncrossing(n, m):
                valid.add(frozenset(frozenset(b) for b in m))
        got = {frozenset(frozenset(b) for b in t.blocks)
               for t in enumerate_TL(n)}
        assert got == valid


def test_enumeration_keeps_the_order_of_the_segment_recursion():
    for n in range(1, 11):
        got = [as_blockset(t) for t in enumerate_TL(n)]
        assert got == enumeration_order(n), n


def test_enumeration_is_canonical_and_deterministic():
    # enumerate_TL builds partner arrays unchecked; make_tangle checks each
    for n in range(1, 9):
        ts = enumerate_TL(n)
        assert len(set(ts)) == len(ts)
        for t in ts:
            assert make_tangle(n, t.blocks) == t
        assert ts == enumerate_TL(n)


def test_enumeration_closed_under_dagger():
    for n in (2, 4, 5):
        ts = set(enumerate_TL(n))
        assert {dagger(t) for t in ts} == ts


def test_rank_parity_on_everything():
    for n in (3, 4, 5, 6):
        for t in enumerate_TL(n):
            rank, _, _ = profile(t)
            assert rank % 2 == n % 2
            bl, br = boundary_tuples(t)
            assert len(bl) == len(br) == (n - rank) // 2


def test_verify_presentation_small_degrees():
    for n in (3, 4, 5, 6):
        rep = verify_presentation(n)
        assert rep.passed
        counts = {c.name: c.count for c in rep.checks}
        assert counts["canonical words biject onto the diagrams"] == catalan(n)


def test_verify_presentation_range():
    with pytest.raises(DegreeTooSmall,
                       match=r"^presentations need n >= 3, got 2$"):
        verify_presentation(2)
    with pytest.raises(DegreeTooLarge,
                       match=r"^degree must be at most 10, got 11$"):
        verify_presentation(11)


def test_fuzz_small_run_passes():
    rep = fuzz_words(3, 100, max_len=20, seed=0)
    assert rep.passed
    assert rep.seed == 0
    lanes = {l.alphabet: l for l in rep.lanes}
    assert lanes["LR"].words == 100 and lanes["E"].words == 100


def test_fuzz_empty_run():
    rep = fuzz_words(5, 0, max_len=10, seed=3)
    assert rep.passed
    assert all(l.words == 0 for l in rep.lanes)
    assert rep.triples == 0


def test_fuzz_rejects_negative_sizes():
    with pytest.raises(ValueError, match="-5"):
        fuzz_words(3, -5)
    with pytest.raises(ValueError, match="-1"):
        fuzz_words(3, 4, max_len=-1)


def test_fuzz_reports_are_reproducible():
    a = fuzz_words(4, 60, max_len=25, seed=42)
    b = fuzz_words(4, 60, max_len=25, seed=42)
    assert a.to_text() == b.to_text()
    assert a.to_doc() == b.to_doc()
    # different seeds still pass but are independent runs
    c = fuzz_words(4, 60, max_len=25, seed=43)
    assert c.passed


def test_report_text_has_no_timing_by_default():
    rep = verify_presentation(3)
    assert "elapsed" not in rep.to_text()
    assert "elapsed" in rep.to_text(timings=True)
    assert "elapsed" not in rep.to_doc()


def test_timed_documents_add_only_the_elapsed_time():
    for rep in (verify_presentation(3), fuzz_words(3, 5, max_len=6)):
        assert rep.to_doc(timings=True) == {**rep.to_doc(),
                                             "elapsed": rep.elapsed}
