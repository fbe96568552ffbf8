import random

import numpy as np
import pytest

import crosslang.commonality as commonality
from crosslang import (
    CharacterizationMismatchError,
    DegenerateCommonLanguageError,
    Prop,
    classify_awareness,
    common_language,
    fixed_points,
    implies,
    join,
    joint_embeddings,
    joint_space_from_translation,
    meet,
    negate,
    perfect_translations,
    translation_from_atom_outers,
)
from crosslang.randgen import cell_algebra, random_consistent_translation
from scalarref import less_aware


def identity_translation(twin_pair):
    a, b = twin_pair
    return translation_from_atom_outers(
        a, b,
        {atom: Prop(b, atom.mask) for atom in a.atoms()},
        {atom: Prop(a, atom.mask) for atom in b.atoms()},
    )


def thirty_grid_masks(algebra):
    """Masks measurable on the 30-dollar grid, by independent arithmetic."""
    blocks = []
    for start in range(0, 120, 30):
        names = [f"usd_{lo}_{lo+10}" for lo in range(start, start + 30, 10)]
        blocks.append(algebra.denote_text(" | ".join(names)).mask)
    out = set()
    for choice in range(16):
        mask = 0
        for i in range(4):
            if choice >> i & 1:
                mask |= blocks[i]
        out.add(mask)
    return out


def test_oil_perfect_set_is_thirty_dollar_grid(oil):
    t = oil.require_translation()
    a1 = oil.algebra1
    perfect = perfect_translations(t, 1)
    assert perfect.tolist() == sorted(thirty_grid_masks(a1))
    assert len(perfect) == 16


def test_fixed_point_gap_perfect_is_only_bounds(fixed_point_gap):
    t = fixed_point_gap.translation
    a1 = fixed_point_gap.algebra1
    assert perfect_translations(t, 1).tolist() == [a1.bottom.mask, a1.top.mask]


def test_identity_perfect_set_is_everything(twin_pair):
    t = identity_translation(twin_pair)
    a, _ = twin_pair
    assert perfect_translations(t, 1).tolist() == list(range(a.full_mask + 1))
    assert fixed_points(t, 1).tolist() == list(range(a.full_mask + 1))


def test_fixed_points_strictly_exceed_perfect_set(fixed_point_gap):
    t = fixed_point_gap.translation
    a1 = fixed_point_gap.algebra1
    perfect = set(perfect_translations(t, 1).tolist())
    fixed = set(fixed_points(t, 1).tolist())
    assert a1.denote_text("u").mask in fixed
    assert a1.denote_text("u").mask not in perfect
    assert perfect < fixed


def test_oil_fixed_points_equal_perfect_set_on_dollar_side(oil):
    t = oil.require_translation()
    assert fixed_points(t, 1).tolist() == perfect_translations(t, 1).tolist()


def test_oil_yuan_side_has_non_perfect_fixed_points(oil):
    """A non-contiguous yuan span survives both round trips even though its
    two dollar approximations disagree, so the inclusion is strict here."""
    t = oil.require_translation()
    a2 = oil.algebra2
    gap_span = a2.denote_text("cny_0_100 | cny_100_200 | cny_400_500")
    fixed = set(fixed_points(t, 2).tolist())
    perfect = set(perfect_translations(t, 2).tolist())
    assert gap_span.mask in fixed
    assert gap_span.mask not in perfect
    assert perfect < fixed


def test_perfect_subset_of_fixed_on_random_instances():
    rng = random.Random(51)
    for _ in range(40):
        t = random_consistent_translation(rng, max_atoms=4)
        for side in (1, 2):
            assert (set(perfect_translations(t, side).tolist())
                    <= set(fixed_points(t, side).tolist()))


def test_common_language_oil_pairs(oil):
    t = oil.require_translation()
    a1, a2 = oil.algebra1, oil.algebra2
    common = common_language(t)
    assert len(common.masks) == 16
    partner = dict(zip(common.masks.tolist(), common.partners.tolist()))
    low = a1.denote_text("usd_0_10 | usd_10_20 | usd_20_30")
    assert partner[low.mask] == a2.denote_text("cny_0_100 | cny_100_200").mask
    assert common.top == a1.top
    assert partner[common.top.mask] == a2.denote_text(
        " | ".join(f"cny_{100*i}_{100*i+100}" for i in range(8))).mask
    assert common.bottom == a1.bottom


def test_common_language_platypus_table(platypus):
    t = platypus.translation
    a1, a2 = platypus.algebra1, platypus.algebra2
    common = common_language(t)
    table = {a1.formula_text(Prop(a1, m)): a2.formula_text(Prop(a2, p))
             for m, p in zip(common.masks.tolist(), common.partners.tolist())}
    assert table == {
        "false": "false",
        "mammal_only": "mammal",
        "egg_only": "egg_layer",
        "mammal_only | egg_only": "true",
    }
    assert common.top == a1.denote_text("!platypus")


def test_common_language_fixed_point_gap_is_two_element(fixed_point_gap):
    common = common_language(fixed_point_gap.translation)
    a1 = fixed_point_gap.algebra1
    assert common.masks.tolist() == [a1.bottom.mask, a1.top.mask]


def test_common_language_degenerate_when_languages_share_nothing():
    a1 = cell_algebra("first", 2, "p")
    a2 = cell_algebra("second", 2, "q")
    t = translation_from_atom_outers(
        a1, a2,
        {atom: a2.star for atom in a1.atoms()},
        {atom: a1.star for atom in a2.atoms()},
    )
    assert perfect_translations(t, 1).tolist() == [a1.bottom.mask]
    with pytest.raises(DegenerateCommonLanguageError):
        common_language(t)


def test_partner_bijection_is_order_isomorphism(oil):
    t = oil.require_translation()
    common = common_language(t)
    pairs = [(Prop(t.algebra1, m), Prop(t.algebra2, p))
             for m, p in zip(common.masks.tolist(), common.partners.tolist())]
    for a, partner_a in pairs:
        for b, partner_b in pairs:
            assert implies(a, b) == implies(partner_a, partner_b)


def test_joint_embeddings_platypus_single_state_leg(platypus):
    t = platypus.translation
    space = joint_space_from_translation(t)
    report = joint_embeddings(t, space)
    assert report.passed
    a1 = platypus.algebra1
    common = common_language(t)
    egg = a1.denote_text("egg_only")
    assert bin(space.valuation(egg)).count("1") == 1
    partner = common.partners[common.masks.tolist().index(egg.mask)]
    assert space.valuation(egg) == space.valuation(Prop(platypus.algebra2, int(partner)))


def test_joint_embeddings_identity_all_legs_equal(twin_pair):
    t = identity_translation(twin_pair)
    space = joint_space_from_translation(t)
    assert joint_embeddings(t, space).passed


def test_joint_embeddings_oil_sixteen_events(oil):
    t = oil.require_translation()
    space = joint_space_from_translation(t)
    report = joint_embeddings(t, space)
    assert report.passed, [c.name for c in report.failures()]
    common = common_language(t)
    events = {space.valuation(Prop(t.algebra1, m)) for m in common.masks.tolist()}
    assert len(events) == 16


def test_classify_platypus_restriction(platypus):
    t = platypus.translation
    space = joint_space_from_translation(t)
    verdict = classify_awareness(t, space)
    assert verdict.classification == "2-pure-restriction-of-1"
    assert less_aware(verdict, 2, 1)
    assert "language 2 less aware than language 1" in verdict.summary
    assert not verdict.equivalence_divergences


def test_classify_nested_grids_coarsening(nested):
    t = nested.require_translation()
    space = joint_space_from_translation(t)
    verdict = classify_awareness(t, space)
    assert verdict.classification == "1-pure-coarsening-of-2"
    assert verdict.evidence["total_events_equal"]
    assert not verdict.equivalence_divergences


def test_classify_oil_incomparable(oil):
    t = oil.require_translation()
    space = joint_space_from_translation(t)
    verdict = classify_awareness(t, space)
    assert verdict.classification == "incomparable"
    assert not less_aware(verdict, 1, 2)
    assert not less_aware(verdict, 2, 1)


def test_classify_identity_equal(twin_pair):
    t = identity_translation(twin_pair)
    space = joint_space_from_translation(t)
    assert classify_awareness(t, space).classification == "equal"


def test_five_way_equivalence_audit_on_random_instances():
    rng = random.Random(52)
    for _ in range(40):
        t = random_consistent_translation(rng, max_atoms=4)
        space = joint_space_from_translation(t)
        verdict = classify_awareness(t, space)
        assert not verdict.equivalence_divergences, verdict.equivalence_divergences


def test_galois_restriction_to_perfect_sets_is_order_isomorphism():
    rng = random.Random(53)
    for _ in range(25):
        t = random_consistent_translation(rng, max_atoms=4)
        perfect1 = {Prop(t.algebra1, m) for m in perfect_translations(t, 1).tolist()}
        perfect2 = {Prop(t.algebra2, m) for m in perfect_translations(t, 2).tolist()}
        image = {t.apply("1>2", "outer", lam) for lam in perfect1}
        assert image == perfect2
        for lam in perfect1:
            for mu in perfect1:
                assert implies(lam, mu) == implies(
                    t.apply("1>2", "outer", lam), t.apply("1>2", "outer", mu))


def pairwise_common_checks(t, perfect):
    """Reference for the checks of ``common_language`` on host side 1: the
    pairwise loop over members, returning the message of the first failing
    pair in (a, b) order (closure before implication) or None."""
    members = sorted(perfect, key=lambda p: p.mask)
    partner = {m: t.apply("1>2", "outer", m) for m in members}
    for a in members:
        for b in members:
            if meet(a, b) not in perfect or meet(negate(a), b) not in perfect:
                return "perfect set is not closed under meet / relative complement"
            if implies(a, b) != implies(partner[a], partner[b]):
                return "partner bijection does not preserve implication"
    top = members[0]
    for m in members:
        top = join(top, m)
    if top not in perfect or top == t.algebra1.bottom:
        return "common language lacks a distinct top"
    return None


def test_common_language_checks_match_pairwise_reference(monkeypatch):
    """Candidate perfect sets are the unions of blocks of a random partition
    of some atoms with defined outer images (closed, but the partner map may
    merge members), optionally with one member added or dropped (not closed)
    or the top dropped.  Injected as the perfect set, each one is refused
    exactly when it differs from the true perfect set, so every set that the
    pairwise loop rejects is refused."""
    rng = random.Random(41)
    true_perfect = commonality.perfect_translations
    outcomes, refused = set(), set()
    for _ in range(300):
        t = random_consistent_translation(rng, max_atoms=5)
        a1 = t.algebra1
        outer = t.array("1>2", "outer")
        atoms = [j for j in range(a1.model_count) if outer[1 << j] != -1]
        if not atoms:
            continue
        chosen = rng.sample(atoms, rng.randint(min(2, len(atoms)), len(atoms)))
        blocks = {}
        for j in chosen:
            blocks.setdefault(rng.randrange(len(chosen)), []).append(1 << j)
        block_masks = [sum(bits) for bits in blocks.values()]
        masks = {0}
        for block in block_masks:
            masks |= {m | block for m in masks}
        roll = rng.random()
        if roll < 0.25 and len(block_masks) > 1:
            masks.discard(sum(block_masks))   # closed, but without a top
        elif roll < 0.5:
            masks.add(rng.choice([m for m in range(a1.full_mask + 1)
                                  if outer[m] != -1]))
        elif roll < 0.75 and len(masks) > 2:
            masks.discard(rng.choice(sorted(masks)))
        perfect = {Prop(a1, m) for m in masks}
        if len(perfect) < 2:
            continue
        differs = sorted(masks) != true_perfect(t, 1).tolist()
        is_perfect = np.zeros(a1.full_mask + 1, dtype=bool)
        is_perfect[sorted(masks)] = True
        monkeypatch.setattr(commonality, "perfect_translations",
                            lambda t, side: np.flatnonzero(is_perfect))
        expected = pairwise_common_checks(t, perfect)
        try:
            common = common_language(t)
        except CharacterizationMismatchError:
            assert differs
        else:
            assert not differs and expected is None
            assert common.masks.tolist() == sorted(masks)
            assert all(Prop(t.algebra2, p) == t.apply("1>2", "outer", Prop(a1, m))
                       for m, p in zip(common.masks.tolist(), common.partners.tolist()))
        outcomes.add(expected)
        refused.add(differs)
    assert len(outcomes) == 4   # every outcome of the reference was exercised
    assert refused == {False, True}
