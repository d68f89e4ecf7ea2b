import collections
import copy
import itertools
import json
import math
import pickle
import random
import re

import pytest

from tlmonoid import (
    AlgebraElement,
    CrossingError,
    DegreeError,
    DegreeMismatch,
    DegreeTooLarge,
    LengthMismatch,
    NotAMatching,
    Tangle,
    alg_mul,
    boundary_tuples,
    build_tangle,
    check_tuple,
    compose,
    dagger,
    enumerate_tuples,
    evaluate,
    factorize,
    generator,
    identity,
    make_tangle,
    profile,
    simplicity,
    tangle_from_doc,
    tangle_from_text,
    tangle_to_doc,
    tangle_to_text,
    word_from_text,
)

from tlmonoid import tangles

from oracles import (all_matchings, as_blockset, naive_bl_br, naive_compose,
                     naive_noncrossing, pos)

# the worked 9-strand pair used throughout: alpha has bl (5,3,2), br (7,4,1)
ALPHA_BLOCKS = [(1, -3), (8, -6), (9, -9), (2, 7), (3, 4), (5, 6),
                (-1, -2), (-4, -5), (-7, -8)]
BETA_BLOCKS = [(1, 2), (3, 4), (5, 6), (8, 9), (7, -7),
               (-1, -2), (-4, -5), (-3, -6), (-8, -9)]


@pytest.fixture
def alpha():
    return make_tangle(9, ALPHA_BLOCKS)


@pytest.fixture
def beta():
    return make_tangle(9, BETA_BLOCKS)


def all_tangles(n):
    from tlmonoid import enumerate_TL
    return enumerate_TL(n)


# -- construction -------------------------------------------------------------

def test_make_tangle_canonicalizes(alpha):
    shuffled = list(reversed([tuple(reversed(b)) for b in ALPHA_BLOCKS]))
    assert make_tangle(9, shuffled) == alpha
    assert tangle_to_text(alpha) == (
        "n=9; blocks=(1,-3)(2,7)(3,4)(5,6)(8,-6)(9,-9)(-8,-7)(-5,-4)(-2,-1)")


def test_make_tangle_degree_one_identity():
    t = make_tangle(1, [(1, -1)])
    assert t == identity(1)


def test_make_tangle_rejects_crossing():
    with pytest.raises(CrossingError):
        make_tangle(2, [(1, -2), (2, -1)])


def test_crossing_error_names_first_crossing_pair():
    # (4,6) crosses (5,-7) first along the boundary, but the first block in
    # canonical order with a crossing is (3,-2), whose first partner is (7,-1)
    with pytest.raises(CrossingError) as exc:
        make_tangle(7, [(1, 2), (3, -2), (4, 6), (5, -7), (7, -1),
                        (-3, -4), (-5, -6)])
    assert (exc.value.block_a, exc.value.block_b) == ((3, -2), (7, -1))
    assert str(exc.value) == "blocks (3, -2) and (7, -1) cross"
    with pytest.raises(CrossingError) as exc:
        make_tangle(6, [(1, 4), (2, 5), (3, -1), (6, -4), (-2, -6), (-3, -5)])
    assert (exc.value.block_a, exc.value.block_b) == ((1, 4), (2, 5))


def _crosses(n, a, b):
    return not naive_noncrossing(n, [a, b])


def test_planarity_scan_agrees_with_oracle_on_every_matching():
    # every perfect matching of the 2n points up to n = 5 (945 at n = 5):
    # accepted exactly when planar, with each partner at its block mate's
    # position; else the error names the first block in canonical order
    # that crosses a later one, and the first later block it crosses
    for n in range(1, 6):
        points = [*range(1, n + 1), *range(-1, -n - 1, -1)]
        for blocks in all_matchings(points):
            canon = sorted((tuple(sorted(b, key=lambda v: pos(v, n)))
                            for b in blocks), key=lambda b: pos(b[0], n))
            if naive_noncrossing(n, blocks):
                t = make_tangle(n, blocks)
                assert t.blocks == tuple(canon)
                for u, v in blocks:
                    assert t.partners[pos(u, n)] == pos(v, n)
                    assert t.partners[pos(v, n)] == pos(u, n)
                continue
            with pytest.raises(CrossingError) as exc:
                make_tangle(n, blocks)
            a = next(a for i, a in enumerate(canon)
                     if any(_crosses(n, a, b) for b in canon[i + 1:]))
            b = next(b for b in canon[canon.index(a) + 1:]
                     if _crosses(n, a, b))
            assert (exc.value.block_a, exc.value.block_b) == (a, b)


def test_every_partner_array_writer_agrees(monkeypatch):
    # make_tangle, the evaluate kernel (build_tangle), the product table's
    # join (from a cold table), dagger and identity all write one layout
    monkeypatch.setattr(tangles, "_TABLES", {})
    for n in range(1, 8):
        one = identity(n)
        assert one == make_tangle(n, [(i, -i) for i in range(1, n + 1)])
        for t in all_tangles(n):
            assert make_tangle(n, t.blocks).partners == t.partners
            assert build_tangle(*factorize(t)).partners == t.partners
            assert compose(t, one)[0].partners == t.partners
            assert dagger(t) == make_tangle(n, [(-u, -v) for u, v in t.blocks])


# every integer is read only in the spelling `str(int)` gives
@pytest.mark.parametrize("text, token", [
    ("n=02; blocks=(1,2)(-1,-2)", "n=02"),
    ("n=\u0662; blocks=(1,2)(-1,-2)", "n=\u0662"),
    ("n=+2; blocks=(1,2)(-1,-2)", "n=+2"),
    ("n=2; blocks=(01,2)(-1,-2)", "(01,2)"),
    ("n=2; blocks=(1,2)(-01,-2)", "(-01,-2)"),
    ("n=2; blocks=(+1,2)(-1,-2)", "(+1,2)"),
    ("n=2; blocks=(1,2)(-1,-\u0662)", "(-1,-\u0662)"),
    ("n=2; blocks=(1,2)(-0,-2)", "(-0,-2)"),
    ("n=2; blocks=(1, 2)(-1,-2)", "(1, 2)"),
])
def test_tangle_from_text_refuses_non_canonical_integers(text, token):
    with pytest.raises(ValueError, match=re.escape(token)):
        tangle_from_text(text)


def test_make_tangle_rejects_huge_degree_without_allocating():
    with pytest.raises(DegreeTooLarge):
        tangle_from_text("n=1000000000000; blocks=")
    with pytest.raises(DegreeTooLarge):
        make_tangle(10 ** 12, [(1, -1)])


def test_make_tangle_rejects_bad_degree():
    with pytest.raises(DegreeError):
        make_tangle(0, [])
    with pytest.raises(DegreeError,
                       match="^degree must be a positive integer, got True$"):
        make_tangle(True, [(1, -1)])


def test_make_tangle_rejects_non_matching():
    with pytest.raises(NotAMatching):
        make_tangle(2, [(1, 2), (1, -2)])
    with pytest.raises(NotAMatching):
        make_tangle(2, [(1, 2)])
    with pytest.raises(NotAMatching):
        make_tangle(2, [(1, 2, -1), (-2,)])
    with pytest.raises(NotAMatching):
        make_tangle(2, [(1, 3), (2, -1)])


# -- generators and identity ---------------------------------------------------

def test_lambda_generator_blocks():
    want = make_tangle(5, [(1, -1), (2, 3), (4, -2), (5, -3), (-4, -5)])
    assert generator(5, "lambda", 2) == want


def test_hook_generator_blocks():
    want = make_tangle(5, [(1, -1), (2, -2), (3, -3), (4, 5), (-4, -5)])
    assert generator(5, "e", 4) == want


def test_top_index_generators_coincide():
    assert generator(5, "rho", 4) == generator(5, "lambda", 4)
    assert generator(5, "rho", 4) == generator(5, "e", 4)


def test_generator_index_errors():
    with pytest.raises(IndexError):
        generator(5, "lambda", 0)
    with pytest.raises(IndexError):
        generator(5, "e", 5)
    with pytest.raises(IndexError):
        generator(1, "e", 1)
    with pytest.raises(ValueError):
        generator(5, "sigma", 1)


def test_identity_blocks():
    assert identity(3).blocks == ((1, -1), (2, -2), (3, -3))
    with pytest.raises(DegreeError):
        identity(0)
    identity(1)
    with pytest.raises(DegreeError):
        identity(True)
    with pytest.raises(DegreeTooLarge):
        identity(10 ** 8)   # before any array is built
    assert identity(4) == identity(4) and identity(4) is not identity(4)


def test_identity_is_neutral():
    e2 = generator(5, "e", 2)
    left, m = compose(identity(5), e2)
    assert (left, m) == (e2, 0)
    right, m = compose(e2, identity(5))
    assert (right, m) == (e2, 0)


def test_identity_self_dual():
    assert dagger(identity(4)) == identity(4)


# -- composition ---------------------------------------------------------------

def test_nine_strand_product_and_loop_count(alpha, beta):
    prod, m = compose(alpha, beta)
    want = make_tangle(9, [(1, 8), (2, 7), (3, 4), (5, 6), (9, -7),
                           (-1, -2), (-3, -6), (-4, -5), (-8, -9)])
    assert prod == want
    assert m == 1


def test_lambda_rho_products_make_hooks():
    # loop counts frozen from the union-find oracle
    l2, r2 = generator(5, "lambda", 2), generator(5, "rho", 2)
    assert compose(l2, r2) == (generator(5, "e", 2), 1)
    assert compose(r2, l2) == (generator(5, "e", 4), 1)
    got, loops = naive_compose(5, l2.blocks, r2.blocks)
    assert loops == 1 and got == as_blockset(generator(5, "e", 2))


def test_compose_checks_planarity_of_every_product(monkeypatch):
    # a crossing partner array, +1 ~ -2 and +2 ~ -1, is refused when it is
    # made; a product table whose `_join` builds it for every product is
    # refused the same way by compose and by alg_mul, again on a second
    # try, since a refused product is not stored
    with pytest.raises(CrossingError) as exc:
        Tangle(2, (0, 3, 4, 1, 2))
    assert (exc.value.block_a, exc.value.block_b) == ((1, -2), (2, -1))

    def mul(a, b):
        return alg_mul(AlgebraElement(2, {a: 1}), AlgebraElement(2, {b: 1}), 2)

    monkeypatch.setattr(tangles, "_TABLES", {})
    monkeypatch.setattr(tangles, "_join", lambda n, top, bottom:
                        (0, 3, 4, 1, 2))
    e1 = generator(2, "e", 1)
    for _ in range(2):
        for a, b in ((e1, identity(2)), (identity(2), e1)):
            for product in (compose, mul):
                with pytest.raises(CrossingError) as exc:
                    product(a, b)
                assert (exc.value.block_a, exc.value.block_b) == \
                    ((1, -2), (2, -1))
    assert not tangles._TABLES[2].products


def test_the_constructor_refuses_every_array_but_a_planar_matching(
        monkeypatch):
    # every array (0, *e) with e in {1..2n}^2n, n <= 3, built once as either
    # factor of a lambda against fresh tables: the 8 planar matchings
    # compose as the oracle says, the 11 crossing ones raise CrossingError
    # and the 46897 others NotAMatching, each time they are built
    monkeypatch.setattr(tangles, "_TABLES", {})
    outcomes = collections.Counter()
    for n in range(1, 4):
        other = generator(n, "lambda", 1) if n > 1 else identity(1)
        for e in itertools.product(range(1, 2 * n + 1), repeat=2 * n):
            p = (0, *e)
            blocks = [((q if q <= n else q - 2 * n - 1),
                       (r if r <= n else r - 2 * n - 1))
                      for q, r in enumerate(p) if r > q]
            if any(r == q or p[r] != q for q, r in enumerate(p) if q):
                want = NotAMatching
            elif not naive_noncrossing(n, blocks):
                want = CrossingError
            else:
                want = "planar"
            for first in (True, False):
                if want == "planar":
                    t = Tangle(n, p)
                    a, b = (t, other) if first else (other, t)
                    got, m = compose(a, b)
                    assert (as_blockset(got), m) == \
                        naive_compose(n, a.blocks, b.blocks)
                else:
                    with pytest.raises(want):
                        Tangle(n, p)
                outcomes[want] += 1
    assert outcomes == {"planar": 16, CrossingError: 22, NotAMatching: 93794}
    # of the wrong length, not 0 first, or with an entry outside 1..2n
    for n, p in ((2, (0, 2, 1)), (1, (0, 2, 1, 0)), (1, (1, 0, 2)),
                 (1, (0, 0, 2)), (1, (0, 3, 1)), (1, (0, -1, 1))):
        with pytest.raises(NotAMatching):
            Tangle(n, p)


def test_a_hand_built_tangle_is_checked_when_it_is_made(monkeypatch):
    # a degree the degree rule refuses, or partners that are not a tuple of
    # ints, are refused by the constructor, and so never reach compose,
    # alg_mul or a product table: only ints key the tables.  Each tangle is
    # scanned once, when it is made, and each product diagram once, when
    # the table first builds it, not once per product.
    monkeypatch.setattr(tangles, "_TABLES", {})
    bad = [(DegreeError, (True, (0, 2, 1))),
           (DegreeError, (1.0, (0, 2, 1))),
           (DegreeError, (0, (0,))),
           (NotAMatching, (1, (0, "2", 1))),
           (NotAMatching, (1, (0, 2.0, 1))),
           (NotAMatching, (1, [0, 2, 1])),
           (NotAMatching, (2, (0, 2, True, 4, 3)))]
    for want, args in bad:
        with pytest.raises(want):
            Tangle(*args)
    for n in (1, 2):
        assert compose(identity(n), identity(n)) == (identity(n), 0)
    assert all(type(k) is int for k in tangles._TABLES)

    calls = []

    def counted(n, p):
        calls.append(n)
        return check_planar(n, p)

    check_planar = tangles._check_planar
    monkeypatch.setattr(tangles, "_TABLES", {})
    monkeypatch.setattr(tangles, "_check_planar", counted)
    a, b = Tangle(3, (0, 6, 5, 4, 3, 2, 1)), Tangle(3, (0, 2, 1, 4, 3, 6, 5))
    x, y = AlgebraElement(3, {a: 1, b: 2}), AlgebraElement(3, {b: 3})
    for _ in range(5):
        compose(a, b), compose(b, a), compose(b, b), alg_mul(x, y, 2)
    assert calls == [3, 3, 3]          # a, b, then the one product b


class _Forged:
    # pickles as the payload it is given, whatever it holds
    def __init__(self, *args):
        self.args = args

    def __reduce__(self):
        return Tangle, self.args


def test_a_pickle_is_checked_when_it_is_loaded():
    for want, args in ((CrossingError, (2, (0, 3, 4, 1, 2))),
                       (NotAMatching, (2, (0, 2, 1, 4, 1))),
                       (NotAMatching, (1, [0, 2, 1])),
                       (DegreeError, (True, (0, 2, 1)))):
        data = pickle.dumps(_Forged(*args))
        with pytest.raises(want):
            pickle.loads(data)
    for t in (identity(1), generator(4, "lambda", 2),
              make_tangle(9, ALPHA_BLOCKS),
              evaluate(word_from_text(6, "R2 E4 L1"))[0]):
        assert t.__reduce__() == (Tangle, (t.n, t.partners))   # checked
        back = pickle.loads(pickle.dumps(t))
        assert back == t and back.n == t.n and factorize(back) == factorize(t)


def test_compose_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        compose(identity(3), identity(4))


def word_tangles(n, count, rng):
    # tangles evaluated from random words over all three alphabets
    return [evaluate(word_from_text(n, " ".join(
                f"{rng.choice('LRE')}{rng.randint(1, n - 1)}"
                for _ in range(rng.randint(0, 3 * n)))))[0]
            for _ in range(count)]


def test_compose_agrees_with_union_find_oracle():
    # every pair up to degree 6, where the planarity scan of each product
    # covers only the through-strand ends; random pairs above
    rng = random.Random(7)
    pairs = [itertools.product(all_tangles(n), repeat=2) for n in range(1, 7)]
    for ts in [all_tangles(9), all_tangles(10), word_tangles(33, 40, rng)]:
        pairs.append([(rng.choice(ts), rng.choice(ts)) for _ in range(120)])
    for a, b in itertools.chain(*pairs):
        got, m = compose(a, b)
        want_blocks, want_loops = naive_compose(a.n, a.blocks, b.blocks)
        assert as_blockset(got) == want_blocks
        assert m == want_loops


def _fresh(t):
    # the same diagram as a new object, with no halves prepared
    return Tangle(t.n, t.partners)


def test_compose_agrees_with_the_oracle_before_and_after_halves_are_kept(
        monkeypatch):
    # against fresh tables, on fresh copies, a.b takes the halves of a and b
    # and fills a pairing, two fusions and a product, and b.a the other
    # pairing; a.b again, a.a and b.b then read kept halves and partly
    # filled tables, and a fresh c.c takes both halves of one tangle in one
    # product.  A second pass over the same pairs reads only warm tables.
    monkeypatch.setattr(tangles, "_TABLES", {})
    rng = random.Random(16)
    pairs = [list(itertools.product(all_tangles(n), repeat=2))
             for n in range(1, 6)]
    for n in (8, 9, 10):
        ts = all_tangles(n)
        pairs.append([(rng.choice(ts), rng.choice(ts)) for _ in range(100)])
    for warm in (False, True):
        for a, b in itertools.chain(*pairs):
            if not warm:
                a, b = _fresh(a), _fresh(b)
            for x, y in ((a, b), (b, a), (a, b), (a, a), (b, b),
                         (_fresh(a), _fresh(a))):
                got, m = compose(x, y)
                assert (as_blockset(got), m) == naive_compose(x.n, x.blocks,
                                                              y.blocks)


def _mask(n, entries):
    # the mask of a row whose arcs have these left ends: bit n - i for i
    return sum(1 << n - i for i in entries)


def test_kept_halves_are_unchanged_by_products():
    # a tangle keeps its halves as the opener masks of its two rows, the
    # tuples `boundary_tuples` gives; products change neither them nor the
    # table's halves for them
    rng = random.Random(17)
    for n in (5, 8):
        ts = [_fresh(t) for t in rng.sample(all_tangles(n), 30)]
        tab = tangles._table(n)

        def kept():
            return [(tab.halves_of(t), t._halves,
                     [(h.mask, h.row, h.through) for h in tab.halves_of(t)])
                    for t in ts]

        before = kept()
        for t in ts:
            bl, br = boundary_tuples(t)
            assert t._halves == _mask(n, bl.entries) << n | _mask(n, br.entries)
        for a, b in itertools.product(ts, repeat=2):
            compose(a, b)
        e = AlgebraElement(n, dict.fromkeys(ts, 1))
        alg_mul(e, e, 2)
        assert kept() == before


def test_kept_halves_leave_value_and_formats_alone():
    rng = random.Random(18)
    for t in [*all_tangles(5), *word_tangles(10, 20, rng)]:
        fresh, kept = _fresh(t), _fresh(t)
        compose(kept, kept)
        assert not hasattr(fresh, "_halves") and hasattr(kept, "_halves")
        assert pickle.dumps(kept) == pickle.dumps(fresh)
        for twin in (kept, pickle.loads(pickle.dumps(kept)), copy.copy(kept)):
            assert twin == fresh and hash(twin) == hash(fresh)
            assert repr(twin) == repr(fresh)
            assert tangle_to_text(twin) == tangle_to_text(fresh)
            assert compose(twin, t) == compose(_fresh(t), t)


def test_products_are_shared():
    # one Tangle per diagram, whichever pair or entry point produced it
    e1, e2 = generator(4, "e", 1), generator(4, "e", 2)
    t, _ = compose(e1, e2)
    assert compose(e1, e2)[0] is t
    assert compose(compose(e1, e2)[0], identity(4))[0] is t
    prod = alg_mul(AlgebraElement(4, {e1: 1}), AlgebraElement(4, {e2: 1}), 2)
    assert [*prod.terms] == [t] and [*prod.terms][0] is t


# halves, pairings, fusions and products of degree n once every pairing
# and every fusion the products reach are filled
TABLE_COUNTS = {3: (3, 9, 5, 4), 4: (6, 36, 14, 10), 5: (10, 100, 27, 21),
                6: (20, 400, 73, 50), 7: (35, 1225, 151, 106),
                8: (70, 4900, 400, 242)}


def test_the_product_table_is_proved_at_small_degrees(monkeypatch):
    # a product a.b reads a's bottom and b's top half only through their
    # pairing, a's top half only through its fusion by fa and b's bottom
    # half only through its fusion by fb.  So an entry checked against the
    # oracle on one pair of tangles that reaches it holds for every pair,
    # and filling every pairing and every fusion the products reach proves
    # the table at that degree.
    counts = {}
    for n in TABLE_COUNTS:
        monkeypatch.setattr(tangles, "_TABLES", {})
        tab = tangles._table(n)
        by_halves = {}
        for t in all_tangles(n):
            bl, br = naive_bl_br(n, t.blocks)
            by_halves[_mask(n, bl), _mask(n, br)] = t
        tops = {x: t for (x, _), t in by_halves.items()}
        bottoms = {y: t for (_, y), t in by_halves.items()}
        assert len(tops) == len(bottoms) == math.comb(n, n // 2)

        def through(mask):
            return n - 2 * bin(mask).count("1")

        def check(a, b):
            # the product of a and b against the oracle; returns its masks
            want, loops = naive_compose(n, a.blocks, b.blocks)
            got, m = compose(a, b)
            assert (as_blockset(got), m) == (want, loops)
            bl, br = naive_bl_br(n, want)
            return _mask(n, bl), _mask(n, br)

        reach_a, reach_b = {}, {}
        for y, a in bottoms.items():
            for x, b in tops.items():
                check(a, b)
                _, fa, fb = tab.pairing(tab[y], x)
                reach_a.setdefault((through(y), fa), (y, b))
                reach_b.setdefault((through(x), fb), (a, x))
        checked = set()
        for h in tops:
            fused = tab[h]
            for (r, f), (y, b) in reach_a.items():
                if r == through(h):
                    assert fused[f] == check(by_halves[h, y], b)[0]
                    checked.add((h, f))
            for (r, f), (a, x) in reach_b.items():
                if r == through(h):
                    assert fused[f] == check(a, by_halves[x, h])[1]
                    checked.add((h, f))
        fusions = sum(map(len, tab.values()))
        assert fusions == len(checked)
        counts[n] = (len(tab), sum(len(h.pairs) for h in tab.values()),
                     fusions, len(tab.products))
    assert counts == TABLE_COUNTS


def test_associativity_and_loop_cocycle_small():
    # exhaustive for n <= 4; degree 5 is covered by the acceptance suite
    for n in (1, 2, 3, 4):
        ts = all_tangles(n)
        for a, b, c in itertools.product(ts, repeat=3):
            ab, m_ab = compose(a, b)
            bc, m_bc = compose(b, c)
            left, m_l = compose(ab, c)
            right, m_r = compose(a, bc)
            assert left == right
            assert m_ab + m_l == m_bc + m_r


def test_rank_monotonicity_random():
    rng = random.Random(11)
    ts = all_tangles(6)
    for _ in range(300):
        a, b = rng.choice(ts), rng.choice(ts)
        ab, _ = compose(a, b)
        ra, da, ca = profile(a)
        rb, db, cb = profile(b)
        rab, dab, cab = profile(ab)
        assert rab <= min(ra, rb)
        assert dab <= da and cab <= cb
        if ca <= db:
            assert rab == ra


# -- involution ----------------------------------------------------------------

def test_dagger_of_worked_example(alpha):
    want = make_tangle(9, [(3, -1), (6, -8), (9, -9), (-2, -7), (-3, -4),
                           (-5, -6), (1, 2), (4, 5), (7, 8)])
    assert dagger(alpha) == want


def test_dagger_involution(beta):
    assert dagger(dagger(beta)) == beta


def test_dagger_swaps_lambda_rho():
    for n in (3, 5, 8):
        for i in range(1, n):
            assert dagger(generator(n, "lambda", i)) == generator(n, "rho", i)
            assert dagger(generator(n, "e", i)) == generator(n, "e", i)


def test_regular_star_axioms_exhaustive():
    for n in (1, 2, 3, 4):
        ts = all_tangles(n)
        for a in ts:
            ad = dagger(a)
            assert dagger(ad) == a
            x, _ = compose(a, ad)
            x, _ = compose(x, a)
            assert x == a
        for a, b in itertools.product(ts, repeat=2):
            ab, _ = compose(a, b)
            ba_d, _ = compose(dagger(b), dagger(a))
            assert dagger(ab) == ba_d


# -- invariants ----------------------------------------------------------------

def test_profile_of_worked_example(alpha):
    rank, dom, codom = profile(alpha)
    assert rank == 3
    assert dom == {1, 8, 9}
    assert codom == {3, 6, 9}


def test_profile_identity():
    rank, dom, codom = profile(identity(7))
    assert rank == 7
    assert dom == codom == set(range(1, 8))


def test_profile_hook():
    rank, dom, codom = profile(generator(5, "e", 2))
    assert (rank, dom, codom) == (3, {1, 4, 5}, {1, 4, 5})


def test_boundary_tuples_worked_examples(alpha, beta):
    bl, br = boundary_tuples(alpha)
    assert (bl.entries, br.entries) == ((5, 3, 2), (7, 4, 1))
    bl, br = boundary_tuples(beta)
    assert (bl.entries, br.entries) == ((8, 5, 3, 1), (8, 4, 3, 1))


def test_boundary_tuples_identity():
    bl, br = boundary_tuples(identity(6))
    assert bl.entries == () and br.entries == ()


def test_boundary_tuples_match_oracle():
    for n in (3, 4, 5):
        for t in all_tangles(n):
            bl, br = boundary_tuples(t)
            assert (bl.entries, br.entries) == naive_bl_br(n, t.blocks)
            assert bl == boundary_tuples(dagger(t))[1]


# -- simplicity ----------------------------------------------------------------

def test_right_simple_worked_example():
    gamma = make_tangle(9, [(1, -1), (8, -2), (9, -3), (2, 7), (3, 4), (5, 6),
                            (-4, -5), (-6, -7), (-8, -9)])
    left, right = simplicity(gamma)
    assert right and not left


def test_lambda_generators_are_right_simple():
    for n in (3, 5, 9):
        for i in range(1, n):
            left, right = simplicity(generator(n, "lambda", i))
            assert right
            left, right = simplicity(generator(n, "rho", i))
            assert left


def test_worked_example_is_not_simple(alpha):
    assert simplicity(alpha) == (False, False)


def test_simplicity_duality():
    for t in all_tangles(5):
        l, r = simplicity(t)
        ld, rd = simplicity(dagger(t))
        assert (l, r) == (rd, ld)


# -- factorization --------------------------------------------------------------

def test_build_tangle_worked_example(alpha):
    x = check_tuple(9, (5, 3, 2))
    y = check_tuple(9, (7, 4, 1))
    assert build_tangle(x, y) == alpha


def test_build_tangle_empty_pair_is_identity():
    x = check_tuple(6, ())
    assert build_tangle(x, x) == identity(6)


def test_build_tangle_small_pair():
    x = check_tuple(5, (2,))
    y = check_tuple(5, (4,))
    want = make_tangle(5, [(2, 3), (-4, -5), (1, -1), (4, -2), (5, -3)])
    assert build_tangle(x, y) == want


def test_build_tangle_length_mismatch():
    with pytest.raises(LengthMismatch):
        build_tangle(check_tuple(5, (2,)), check_tuple(5, ()))
    with pytest.raises(DegreeMismatch):
        build_tangle(check_tuple(5, (2,)), check_tuple(6, (2,)))


def test_factorize_worked_example(alpha):
    x, y = factorize(alpha)
    assert (x.entries, y.entries) == ((5, 3, 2), (7, 4, 1))


def test_factorize_identity_and_hook():
    assert tuple(t.entries for t in factorize(identity(9))) == ((), ())
    e2 = generator(5, "e", 2)
    assert tuple(t.entries for t in factorize(e2)) == ((2,), (2,))


def test_round_trip_build_factorize():
    for n in range(1, 7):
        for t in all_tangles(n):
            assert build_tangle(*factorize(t)) == t


def test_balanced_pairs_biject_onto_tangles():
    for n in range(1, 7):
        seen = {}
        for k in range(n // 2 + 1):
            tups = enumerate_tuples(n, k)
            for x in tups:
                for y in tups:
                    t = build_tangle(x, y)
                    assert t not in seen
                    seen[t] = (x, y)
        assert len(seen) == len(all_tangles(n))


def test_profile_rank_has_the_parity_of_n():
    for n in range(1, 9):
        for t in all_tangles(n):
            rank, dom, codom = profile(t)
            assert rank % 2 == n % 2
            assert len(dom) == len(codom) == rank


def test_build_tangle_has_its_tuples_and_rank():
    for n in range(1, 9):
        for k in range(n // 2 + 1):
            tups = enumerate_tuples(n, k)
            for x in tups:
                for y in tups:
                    t = build_tangle(x, y)
                    assert boundary_tuples(t) == (x, y)
                    assert profile(t)[0] == n - 2 * k


def test_left_simple_tangle_determined_by_bl():
    # rebuilding from the lambda word alone recovers every member of T_n
    for n in range(3, 9):
        for x in enumerate_tuples(n):
            t = identity(n)
            for i in x.entries:
                t, _ = compose(t, generator(n, "lambda", i))
            bl, br = boundary_tuples(t)
            assert bl == x
            assert simplicity(t)[1]


# -- canonical storage and formats ----------------------------------------------

def test_canonicalization_idempotent(alpha):
    again = make_tangle(alpha.n, alpha.blocks)
    assert again == alpha and again.blocks == alpha.blocks


def test_text_round_trip(alpha):
    assert tangle_from_text(tangle_to_text(alpha)) == alpha
    assert tangle_from_text("n=1; blocks=(1,-1)") == identity(1)


def test_text_rejects_bad_tokens():
    with pytest.raises(ValueError):
        tangle_from_text("blocks=(1,-1)")
    with pytest.raises(ValueError):
        tangle_from_text("n=2; blocks=(1,-1)(2,x)")


def test_doc_round_trip(alpha):
    doc = tangle_to_doc(alpha)
    assert doc["n"] == 9
    assert doc["blocks"][0] == [1, -3]
    assert tangle_from_doc(doc) == alpha


def test_doc_rejects_missing_keys_and_non_objects():
    with pytest.raises(ValueError, match="'blocks'"):
        tangle_from_doc({"n": 3})
    with pytest.raises(ValueError, match="'n'"):
        tangle_from_doc({"blocks": [[1, -1]]})
    with pytest.raises(ValueError, match="list"):
        tangle_from_doc([1, [[1, -1]]])


@pytest.mark.parametrize("doc", [
    {"n": None, "blocks": []},
    {"n": 2, "blocks": 5},
    {"n": 2, "blocks": [1, 2]},
    {"n": 2, "blocks": [[None, 1], [2, -1]]},
])
def test_doc_rejects_malformed_fields_with_value_error(doc):
    with pytest.raises(ValueError, match="malformed tangle document"):
        tangle_from_doc(doc)


@pytest.mark.parametrize("doc, bad", [
    ({"n": 2, "blocks": [[1.9, 2.2], [-1, -2]]}, "1.9"),
    ({"n": 2, "blocks": [["1", 2], [-1, -2]]}, "'1'"),
    ({"n": "2", "blocks": [[1, 2], [-1, -2]]}, "'2'"),
    ({"n": 2.0, "blocks": [[1, 2], [-1, -2]]}, "2.0"),
    ({"n": True, "blocks": [[1, -1]]}, "True"),
    ({"n": 1, "blocks": [[True, -1]]}, "True"),
])
def test_doc_refuses_non_integers(doc, bad):
    with pytest.raises(ValueError, match=re.escape(bad)):
        tangle_from_doc(doc)


def test_make_tangle_refuses_non_integer_points():
    for blocks, bad in (([(1, 2.0), (-1, -2)], "2.0"),
                        ([("1", 2), (-1, -2)], "'1'"),
                        (["12", (-1, -2)], "'1'")):
        with pytest.raises(ValueError, match=re.escape(bad)):
            make_tangle(2, blocks)


def test_valid_documents_still_parse(alpha):
    assert tangle_from_doc({"n": 2, "blocks": [[1, 2], [-1, -2]]}) == \
        make_tangle(2, [(1, 2), (-1, -2)])
    doc = json.loads(json.dumps(tangle_to_doc(alpha)))
    assert tangle_from_doc(doc) == alpha
