import random

import pytest

import gridmath
from crosslang import (
    CrossImplication,
    InconsistentInputError,
    Prop,
    check_implication_axioms,
    close,
    implication_from_translation,
    translation_from_implication,
)
from crosslang.randgen import (
    cell_algebra,
    random_consistent_translation,
    random_star_prop,
)


def two_cell_pair():
    return cell_algebra("first", 2, "p"), cell_algebra("second", 2, "q")


def test_empty_seeds_give_minimal_relation():
    a1, a2 = two_cell_pair()
    r = close([], a1, a2)
    for eta in a2.star_lattice():
        assert r.holds(a1.bottom, eta)
    for lam in a1.all_props():
        assert r.holds(lam, a2.star)
        assert not r.holds(lam, a2.top) or lam == a1.bottom
    assert not r.holds(a1.top, a2.top)
    assert r.holds(a1.star, a2.star)
    assert not r.holds(a1.star, a2.top)
    assert check_implication_axioms(r).passed


def platypus_seed_relation(platypus):
    return platypus.relation


def test_platypus_closure_contains_forced_pairs(platypus):
    r = platypus.relation
    a1, a2 = platypus.algebra1, platypus.algebra2
    assert r.holds(a2.top, a1.denote_text("!platypus"))
    assert r.holds(a1.denote_text("mammal_only"), a2.top)
    assert r.holds(a1.denote_text("mammal_only"), a2.denote_text("mammal"))
    assert not r.holds(a1.top, a2.top)


def test_platypus_axioms_pass_with_negation_asymmetry(platypus):
    r = platypus.relation
    a1, a2 = platypus.algebra1, platypus.algebra2
    assert check_implication_axioms(r).passed
    # the aware side's extra possibility escapes the other language entirely
    assert r.holds(a2.top, a1.denote_text("!platypus"))
    assert not r.holds(a1.denote_text("platypus"), a2.bottom)
    assert not r.holds(a1.denote_text("platypus"), a2.top)


def test_closure_forcing_within_pair_fails_extensibility():
    a1, a2 = two_cell_pair()
    a = a1.denote_text("p0")
    b = a1.denote_text("p1")
    x = a2.denote_text("q0")
    r = close([(a, x), (x, b)], a1, a2)
    assert r.holds(a, b)
    report = check_implication_axioms(r)
    assert not report.check("extensibility:1").passed
    lam, mu = report.check("extensibility:1").witness
    assert r.holds(lam, mu)
    from crosslang import implies

    assert not implies(lam, mu)


def test_hand_built_extra_pair_fails_extensibility():
    a1, a2 = two_cell_pair()
    r = CrossImplication(a1, a2, ([], []), ([], []), extra1=frozenset({(2, 1)}))
    assert not check_implication_axioms(r).check("extensibility:1").passed


def test_star_to_proposition_seed_fails_bound_consistency():
    a1, a2 = two_cell_pair()
    r = close([(a1.star, a2.denote_text("q0"))], a1, a2)
    report = check_implication_axioms(r)
    assert not report.check("bound-consistency").passed
    with pytest.raises(InconsistentInputError):
        translation_from_implication(r)


def _oil_geometry_seeds(oil):
    """Cover seeds for every proposition, from exact interval arithmetic."""
    a1, a2 = oil.algebra1, oil.algebra2
    d_bit = {c: a1.denote_text(gridmath.dollar_name(c)).mask for c in gridmath.DOLLAR_CELLS}
    y_bit = {c: a2.denote_text(gridmath.yuan_name(c)).mask for c in gridmath.YUAN_CELLS}
    neg_bit = a2.denote_text("cny_neg").mask
    seeds = []
    for mask in range(1, a1.full_mask + 1):
        cells = [c for c in gridmath.DOLLAR_CELLS if d_bit[c] & mask]
        names = gridmath.covering_yuan_names(cells)
        seeds.append((a1.prop(mask), a2.denote_text(" | ".join(sorted(names)))))
    for mask in range(1, a2.full_mask + 1):
        if mask & neg_bit:
            continue
        cells = [c for c in gridmath.YUAN_CELLS if y_bit[c] & mask]
        names = gridmath.covering_dollar_names(cells)
        seeds.append((a2.prop(mask), a1.denote_text(" | ".join(sorted(names)))))
    return seeds


def test_oil_closure_from_geometry_passes_and_is_canonical(oil):
    r = close(_oil_geometry_seeds(oil), oil.algebra1, oil.algebra2)
    assert check_implication_axioms(r).passed
    assert r == implication_from_translation(oil.require_translation())


def test_identity_relation_matches_orders(twin_pair):
    a, b = twin_pair
    from crosslang import translation_from_atom_outers

    t = translation_from_atom_outers(
        a, b,
        {atom: Prop(b, atom.mask) for atom in a.atoms()},
        {atom: Prop(a, atom.mask) for atom in b.atoms()},
    )
    r = implication_from_translation(t)
    for lam in a.all_props():
        for eta in b.all_props():
            assert r.holds(lam, eta) == (lam.mask & ~eta.mask == 0)
            assert r.holds(eta, lam) == (eta.mask & ~lam.mask == 0)


def test_oil_relation_matches_figure_pairs(oil):
    r = oil.require_relation()
    a1, a2 = oil.algebra1, oil.algebra2
    span2 = a2.denote_text("cny_500_600 | cny_600_700")
    span1 = a1.denote_text("usd_80_90 | usd_90_100")
    assert r.holds(span2, a1.denote_text(
        "usd_70_80 | usd_80_90 | usd_90_100 | usd_100_110"))
    assert not r.holds(span2, span1)
    assert r.holds(span1, span2)


def test_fixed_point_gap_relation_pairs(fixed_point_gap):
    r = implication_from_translation(fixed_point_gap.translation)
    a1, a2 = fixed_point_gap.algebra1, fixed_point_gap.algebra2
    assert r.holds(a2.denote_text("c"), a1.denote_text("u"))
    assert r.holds(a1.denote_text("u"), a2.denote_text("b | c"))
    assert not r.holds(a1.denote_text("u"), a2.denote_text("c"))


def test_platypus_translation_from_seed_relation(platypus):
    t = translation_from_implication(platypus.relation)
    a1, a2 = platypus.algebra1, platypus.algebra2
    assert t.apply("2>1", "outer", a2.top) == a1.denote_text("!platypus")
    assert t.apply("1>2", "outer", a1.denote_text("platypus")) == a2.star
    assert t == platypus.translation


def test_roundtrip_translation_to_relation_and_back(oil, platypus, fixed_point_gap,
                                                    nested):
    for corpus in (oil, platypus, fixed_point_gap, nested):
        t = corpus.require_translation()
        assert translation_from_implication(implication_from_translation(t)) == t


def test_roundtrip_relation_to_translation_and_back(platypus):
    r = platypus.relation
    assert implication_from_translation(translation_from_implication(r)) == r


def test_conversion_rejects_inconsistent_translation(violation):
    with pytest.raises(InconsistentInputError):
        implication_from_translation(violation.translation)


def test_self_implication_of_approximants():
    rng = random.Random(31)
    for _ in range(30):
        t = random_consistent_translation(rng, max_atoms=4)
        r = implication_from_translation(t)
        for direction in ("1>2", "2>1"):
            src, _ = t.endpoints(direction)
            for lam in src.all_props():
                inner = t.apply(direction, "inner", lam)
                assert r.holds(inner, lam)
                outer = t.apply(direction, "outer", lam)
                if not isinstance(outer, type(src.star)):
                    assert r.holds(lam, outer)


def test_closure_is_monotone_in_seeds():
    rng = random.Random(32)
    for _ in range(20):
        a1 = cell_algebra("first", rng.randint(1, 3), "p")
        a2 = cell_algebra("second", rng.randint(1, 3), "q")
        seeds = []
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.5:
                seeds.append((random_star_prop(rng, a1, 0),
                              random_star_prop(rng, a2, 0)))
            else:
                seeds.append((random_star_prop(rng, a2, 0),
                              random_star_prop(rng, a1, 0)))
        cut = rng.randint(0, len(seeds))
        small = close(seeds[:cut], a1, a2)
        big = close(seeds, a1, a2)
        assert not (small.rows12 & ~big.rows12).any()
        assert not (small.rows21 & ~big.rows21).any()
        for s, b in ((small.extra1, big.extra1), (small.extra2, big.extra2)):
            assert set(map(tuple, s.tolist())) <= set(map(tuple, b.tolist()))


def test_closure_chains_through_forced_within_pairs():
    a1 = cell_algebra("first", 3, "p")
    a2 = cell_algebra("second", 3, "q")
    a, b = a1.denote_text("p0"), a1.denote_text("p1")
    x, y = a2.denote_text("q0"), a2.denote_text("q1")
    r = close([(a, x), (x, b), (b, y)], a1, a2)
    assert r.holds(a, b)
    assert r.holds(a, y)
    assert not check_implication_axioms(r).check("extensibility:1").passed
