import re

import pytest

from tlmonoid import (
    Derivation,
    DegreeTooSmall,
    FamilyViolation,
    NoMatch,
    Step,
    Word,
    apply_step,
    check_derivation,
    evaluate,
    hooks_to_pairs,
    letter,
    mirror_steps,
    normal_form_E,
    reduce_one_sided,
    relation_by_id,
    relation_index,
    relation_set,
    step_from_text,
    step_to_text,
    twist_relations,
    word_from_text,
)
from tlmonoid.etranslate import _proved, _translate_certificate

from oracles import dagger_letters


def rids(n, which):
    return {r.rid for r in relation_set(n, which)}


def test_xi_contains_the_braid_like_instance():
    rel = relation_index(5, "Xi")["E3(1,2)"]
    assert rel.lhs == word_from_text(5, "E1 E2 E1").letters
    assert rel.rhs == word_from_text(5, "E1").letters


def test_omega_contains_the_mixed_instance():
    rel = relation_index(5, "Omega")["RL1(4,1)"]
    assert rel.lhs == word_from_text(5, "R4 L1").letters
    assert rel.rhs == word_from_text(5, "L4 L1 R2").letters


def test_no_l2_at_degree_three():
    assert not any(r.rid.startswith("L2") for r in relation_set(3, "OmegaL"))


def test_degree_too_small():
    with pytest.raises(DegreeTooSmall):
        relation_set(2, "Omega")
    with pytest.raises(DegreeTooSmall):
        relation_by_id(2, "L1(1)")


def test_family_membership():
    assert rids(5, "OmegaL") <= rids(5, "Omega")
    assert rids(5, "OmegaR") <= rids(5, "Omega")
    assert "A" in rids(5, "Omega")
    assert not rids(5, "Xi") & rids(5, "Omega")
    with pytest.raises(ValueError):
        relation_set(5, "Sigma")


def test_powers_are_stored_expanded():
    rel = relation_index(7, "Omega")["L3(2)"]
    assert rel.lhs == word_from_text(7, "L4 L4 L3").letters
    assert rel.rhs == word_from_text(7, "L4 L4").letters
    rel = relation_index(7, "Omega")["R3(2)"]
    assert rel.lhs == word_from_text(7, "R3 R4 R4").letters


def test_relation_by_id_validates_parameters():
    with pytest.raises(ValueError):
        relation_by_id(5, "L2(3,2)")
    with pytest.raises(ValueError):
        relation_by_id(5, "RL1(2,1)")
    with pytest.raises(ValueError):
        relation_by_id(5, "E2(1,2)")
    with pytest.raises(ValueError):
        relation_by_id(5, "Q9(1)")
    with pytest.raises(ValueError):
        relation_by_id(5, "L1[1]")


def test_non_canonical_ids_are_rejected_everywhere():
    # one grammar: relation_by_id and apply_step reject what the family
    # indexes, and so check_derivation, do not contain; the lemma proof and
    # the lifted-word replay of the E translation refuse the same ids
    w = word_from_text(5, "L1 L4 E1 E3")
    hook = word_from_text(5, "E1")
    lifted = hooks_to_pairs(hook).letters
    for rid in ("L1(01)", "E2(1,03)", "RL2(2, 2)"):
        with pytest.raises(ValueError, match=re.escape(repr(rid))):
            relation_by_id(5, rid)
        with pytest.raises(ValueError, match=re.escape(repr(rid))):
            apply_step(w, Step(0, rid))
        for family in ("Omega", "Xi"):
            d = Derivation(5, family, w.letters, (Step(0, rid),), w.letters)
            with pytest.raises(FamilyViolation, match=re.escape(rid)):
                check_derivation(d)
        with pytest.raises(RuntimeError, match=re.escape(rid)):
            _proved(5, "lemma", [1, 1], [Step(0, rid)], [1])
        d = Derivation(5, "Omega", lifted, (Step(0, rid),), lifted)
        with pytest.raises(FamilyViolation, match=re.escape(rid)):
            _translate_certificate(hook, d)


def test_step_is_an_immutable_value():
    s = Step(0, "A")
    assert repr(s) == "Step(pos=0, rid='A', forward=True)"
    assert str(s) == "0:A:fwd"
    assert str(Step(4, "L2(1,3)", forward=False)) == "4:L2(1,3):bwd"
    assert Step(0, "A", forward=True) == s
    assert hash(Step(0, "A", True)) == hash(s)
    assert len({s, Step(0, "A", True), Step(0, "A", False)}) == 2
    for field in ("pos", "rid", "forward"):
        with pytest.raises(AttributeError):
            setattr(s, field, 1)


def test_every_relation_is_sound_under_evaluation():
    # exhaustive over both families for 3 <= n <= 10
    for n in range(3, 11):
        for rel in relation_set(n, "Omega") + relation_set(n, "Xi"):
            lt, _ = evaluate(Word(n, rel.lhs))
            rt, _ = evaluate(Word(n, rel.rhs))
            assert lt == rt, rel.rid


def test_apply_step_examples():
    w = apply_step(word_from_text(5, "R2 L2"), Step(0, "RL2(2,2)", True))
    assert w == word_from_text(5, "L4")
    w = apply_step(word_from_text(5, "L1"), Step(0, "L1(1)", False))
    assert w == word_from_text(5, "L1 L4")
    w = apply_step(word_from_text(5, "E1 E3"), Step(0, "E2(1,3)", True))
    assert w == word_from_text(5, "E3 E1")


def test_apply_step_no_match_reports_letters():
    with pytest.raises(NoMatch) as exc:
        apply_step(word_from_text(5, "L1 L2"), Step(0, "L1(1)", True))
    assert exc.value.position == 0
    assert "L1 L4" in str(exc.value)


def test_apply_step_is_invertible():
    import random

    rng = random.Random(2)
    idx = relation_index(6, "Omega")
    rids_sorted = sorted(idx)
    for _ in range(200):
        rid = rids_sorted[rng.randrange(len(rids_sorted))]
        rel = idx[rid]
        fwd = rng.random() < 0.5
        src = rel.lhs if fwd else rel.rhs
        pad = tuple(word_from_text(6, "L1 R1").letters)
        w = Word(6, pad + src + pad)
        step = Step(len(pad), rid, fwd)
        back = Step(len(pad), rid, not fwd)
        assert apply_step(apply_step(w, step), back) == w


def test_step_text_round_trip():
    s = Step(3, "RL2(2,2)", True)
    assert step_to_text(s) == "3:RL2(2,2):fwd"
    assert step_from_text("3:RL2(2,2):fwd") == s
    s = Step(0, "A", False)
    assert step_from_text(step_to_text(s)) == s
    with pytest.raises(ValueError):
        step_from_text("3:RL2(2,2):sideways")
    # a position is read only in the spelling str(int) gives it
    assert step_from_text("-1:A:fwd") == Step(-1, "A")
    assert step_from_text("10:A:bwd") == Step(10, "A", False)
    for pos in ("1_0", "+3", " 3 ", "03", "-0", "\u0663", "", "3.0"):
        with pytest.raises(ValueError, match="bad step position"):
            step_from_text(f"{pos}:A:fwd")


def test_twist_weights_only_e1():
    rels = {r.rid: r for r in twist_relations(5)}
    e1 = rels["E1(4)"]
    assert (e1.lhs_power, e1.rhs_power) == (0, 1)
    for rid, r in rels.items():
        if rid.startswith("E2") or rid.startswith("E3"):
            assert r.lhs_power == r.rhs_power == 0


# -- the mirror rule -----------------------------------------------------------

def test_r_relations_are_the_paper_formulas():
    def R(i):
        return letter("R", i)

    for n in range(3, 13):
        idx = relation_index(n, "OmegaR")
        for i in range(1, n):
            rel = idx[f"R1({i})"]
            assert (rel.lhs, rel.rhs) == ((R(n - 1), R(i)), (R(i),))
        for j in range(1, n - 2):
            for i in range(1, j + 1):
                rel = idx[f"R2({i},{j})"]
                assert (rel.lhs, rel.rhs) == ((R(j), R(i)), (R(i), R(j + 2)))
        for i in range(1, (n - 1) // 2 + 1):
            k = n - 2 * i + 1
            rel = idx[f"R3({i})"]
            assert rel.lhs == (R(k - 1),) + (R(k),) * i
            assert rel.rhs == (R(k),) * i
        assert len(idx) == len(relation_set(n, "OmegaL"))


def test_relation_name_and_args_match_the_id():
    for n in (3, 8):
        for rel in relation_set(n, "Omega") + relation_set(n, "Xi"):
            assert relation_by_id(n, rel.rid) == rel
            args = ",".join(map(str, rel.args))
            assert rel.rid == (f"{rel.name}({args})" if rel.args else rel.name)


def test_families_enumerate_in_constructor_argument_order():
    assert [r.rid for r in relation_set(6, "OmegaL")] == [
        "L1(1)", "L1(2)", "L1(3)", "L1(4)", "L1(5)",
        "L2(1,1)", "L2(1,2)", "L2(1,3)", "L2(2,2)", "L2(2,3)", "L2(3,3)",
        "L3(1)", "L3(2)"]


def test_out_of_domain_ids_name_the_id_and_degree():
    for rid in ("L2(3,2)", "L3(4)", "R3(4)", "RL1(2,1)", "E2(1,2)"):
        with pytest.raises(ValueError) as exc:
            relation_by_id(7, rid)
        assert str(exc.value) == f"{rid}: outside its domain at n=7"


def test_bad_r_id_names_the_r_id():
    for rid in ("R1(9)", "R2(3,2)", "R3(4)"):
        with pytest.raises(ValueError, match=rf"^{re.escape(rid)}: "):
            relation_by_id(7, rid)


def test_mirror_maps_each_relation_to_its_dagger_image():
    for n in range(3, 13):
        for family, image_family in (("OmegaL", "OmegaR"), ("Xi", "Xi")):
            image = relation_index(n, image_family)
            hit = set()
            for rel in relation_set(n, family):
                for forward in (True, False):
                    src = rel.lhs if forward else rel.rhs
                    (s,) = mirror_steps(n, len(src), [Step(0, rel.rid, forward)])
                    assert (s.pos, s.forward) == (0, forward)
                    m = image[s.rid]
                    assert m.lhs == dagger_letters(rel.lhs), rel.rid
                    assert m.rhs == dagger_letters(rel.rhs), rel.rid
                    hit.add(s.rid)
            assert hit == set(image)
        # each relation carries its image's id: the id mirror_steps emits
        for rel in relation_set(n, "Omega") + relation_set(n, "Xi"):
            if rel.name in ("RL1", "RL2", "RL3", "A"):
                assert rel.mirror is None, rel.rid
                continue
            (s,) = mirror_steps(n, len(rel.lhs), [Step(0, rel.rid)])
            assert rel.mirror == s.rid, rel.rid
            assert relation_by_id(n, rel.mirror).mirror == rel.rid


def test_mirror_reflects_positions_and_tracks_length():
    # L1 L2 L4 -> L1 L2 -> L4 L1 at n=5; the mirror acts on R4 R2 R1
    steps = [Step(1, "L1(2)", True), Step(0, "L2(1,2)", True)]
    image = mirror_steps(5, 3, steps)
    assert image == [Step(0, "R1(2)", True), Step(0, "R2(1,2)", True)]
    w, v = word_from_text(5, "L1 L2 L4"), word_from_text(5, "R4 R2 R1")
    for s, m in zip(steps, image):
        w, v = apply_step(w, s), apply_step(v, m)
    assert v.letters == dagger_letters(w.letters)
    # a bigger length moves the image right by the difference
    assert mirror_steps(5, 7, steps) == [Step(4, "R1(2)", True),
                                        Step(4, "R2(1,2)", True)]
    with pytest.raises(ValueError, match="RL2"):
        mirror_steps(5, 2, [Step(0, "RL2(2,2)", True)])
    with pytest.raises(ValueError, match="A"):
        mirror_steps(5, 1, [Step(0, "A", True)])


def test_mirror_twice_is_the_identity():
    import random

    rng = random.Random(5)
    for n in range(3, 13):
        for _ in range(6):
            alphabet = rng.choice("LRE")
            w = Word(n, tuple(letter(alphabet, rng.randrange(1, n))
                              for _ in range(rng.randrange(0, 16))))
            if alphabet == "E":
                _, _, d = normal_form_E(w)
            else:
                _, d = reduce_one_sided(w)
            length = len(d.start)
            once = mirror_steps(n, length, d.steps)
            assert mirror_steps(n, length, once) == list(d.steps)


def _near_miss_ids(n):
    # every relation name and an unknown one, arguments -1..n+1, each one-
    # and two-argument id also with a leading zero or a space after the comma
    args = range(-1, n + 2)
    for name in ("L1", "L2", "L3", "R1", "R2", "R3", "RL1", "RL2", "RL3",
                 "A", "E1", "E2", "E3", "Q1"):
        yield name
        for a in args:
            yield f"{name}({a})"
            yield f"{name}(0{a})"
            for b in args:
                yield f"{name}({a},{b})"
                yield f"{name}({a}, {b})"


def test_relation_by_id_decides_exactly_the_family_tables():
    # relation_by_id is the resolver of every certificate step; the family
    # tables are only enumerated, so the two must agree on every near miss
    count = 0
    for n in range(3, 14):
        tables = {f: relation_index(n, f) for f in ("Omega", "Xi")}
        known = {**tables["Omega"], **tables["Xi"]}
        for rid in _near_miss_ids(n):
            count += 1
            try:
                rel = relation_by_id(n, rid)
            except ValueError:
                rel = None
            assert rel == known.get(rid), (n, rid)
            w = (rel.lhs, rel.rhs) if rel else ((), ())
            for family, table in tables.items():
                d = Derivation(n, family, w[0], (Step(0, rid),), w[1])
                if rid in table:
                    assert check_derivation(d).letters == w[1]
                else:
                    with pytest.raises(FamilyViolation):
                        check_derivation(d)
    assert count == 43890


def test_certificate_checks_build_no_family_table():
    # n = 300 is used by no other test, so no family table of it exists yet
    from tlmonoid import normal_form
    before = relation_index.cache_info().currsize
    n = 300
    _, d = normal_form(word_from_text(n, "R1 R2 L3"))
    assert check_derivation(d, "Omega") == Word(n, d.end)
    _, canonical, xi = normal_form_E(word_from_text(n, "E1 E2"))
    assert check_derivation(xi, "Xi") == canonical
    assert relation_index.cache_info().currsize == before


def test_zero_step_derivation_below_degree_three_is_refused():
    d = Derivation(2, "Omega", (), (), ())
    with pytest.raises(DegreeTooSmall):
        check_derivation(d)
