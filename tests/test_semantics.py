import random
from fractions import Fraction

import pytest

import gridmath
from crosslang import (
    AlgebraTooLargeError,
    CrosslangError,
    InvalidWeightsError,
    JointStateSpace,
    Prop,
    build_joint_state_space,
    joint_space_from_translation,
    probability_bounds,
    sigma_approximation,
    translation_from_atom_outers,
    verify_prop2,
)
from crosslang.randgen import cell_algebra, random_consistent_translation
from crosslang.reports import dumps
from denseref import generated_field_block_count


def test_platypus_space_has_three_states_one_lone(platypus):
    space = build_joint_state_space(platypus.relation)
    assert space.state_count == 3
    lone = [s for s in space.states if s[1] is None]
    assert len(lone) == 1
    a1 = platypus.algebra1
    assert lone[0][0] is not None
    assert Prop(a1, 1 << lone[0][0]) == a1.denote_text("platypus")


def test_platypus_valuation_omits_lone_state(platypus):
    space = build_joint_state_space(platypus.relation)
    a2 = platypus.algebra2
    top_event = space.valuation(a2.top)
    assert bin(top_event).count("1") == 2
    assert top_event != space.valuation(platypus.algebra1.top)


def test_oil_space_matches_cut_point_count(oil):
    """Sixteen overlap segments from the merged cut grids, plus the
    negative-price state no dollar statement sees."""
    cuts = sorted(
        {Fraction(10 * i) for i in range(13)}
        | {c for cell in gridmath.YUAN_CELLS for c in gridmath.yuan_to_dollars(cell)}
    )
    segments = len(cuts) - 1
    space = joint_space_from_translation(oil.require_translation())
    lone = [s for s in space.states if s[0] is None]
    assert len(lone) == 1
    assert space.state_count == segments + 1 == 17


def test_identity_space_bijects_with_models(twin_pair):
    a, b = twin_pair
    t = translation_from_atom_outers(
        a, b,
        {atom: Prop(b, atom.mask) for atom in a.atoms()},
        {atom: Prop(a, atom.mask) for atom in b.atoms()},
    )
    space = joint_space_from_translation(t)
    assert space.state_count == a.model_count
    assert all(i == j for i, j in space.states)
    for mask in range(a.full_mask + 1):
        assert space.valuation(Prop(a, mask)) == space.valuation(Prop(b, mask))


def test_exact_events_are_fixed_by_approximation(nested):
    t = nested.require_translation()
    space = joint_space_from_translation(t)
    sem = sigma_approximation(space)
    event = space.valuation(nested.algebra1.denote_text("s0_30"))
    assert sem.inner(1, event) == event
    assert sem.outer(1, event) == event


def test_oil_approximation_reproduces_interval_events(oil):
    t = oil.require_translation()
    a1, a2 = oil.algebra1, oil.algebra2
    space = joint_space_from_translation(t)
    sem = sigma_approximation(space)
    span = space.valuation(a2.denote_text("cny_500_600 | cny_600_700"))
    assert sem.inner(2, span) == space.valuation(
        a1.denote_text("usd_80_90 | usd_90_100"))
    assert sem.outer(2, span) == space.valuation(
        a1.denote_text("usd_70_80 | usd_80_90 | usd_90_100 | usd_100_110"))
    low = space.valuation(a2.denote_text("cny_neg | cny_0_100 | cny_100_200"))
    assert sem.inner(2, low) == space.valuation(
        a1.denote_text("usd_0_10 | usd_10_20 | usd_20_30"))
    assert sem.outer(2, low) is None


def test_valuations_preserve_bottom_and_unions(oil):
    space = joint_space_from_translation(oil.require_translation())
    rng = random.Random(5)
    for side in (1, 2):
        algebra = space.algebra(side)
        assert space.valuation(algebra.bottom) == 0
        for _ in range(100):
            x = algebra.prop(rng.randrange(algebra.full_mask + 1))
            y = algebra.prop(rng.randrange(algebra.full_mask + 1))
            assert space.valuation(x) | space.valuation(y) == space.valuation(
                algebra.prop(x.mask | y.mask))


def test_verify_prop2_passes_on_corpora(oil, platypus, fixed_point_gap, nested):
    for corpus in (platypus, fixed_point_gap, nested, oil):
        t = corpus.require_translation()
        space = joint_space_from_translation(t)
        report = verify_prop2(t, space)
        assert report.passed, [c.name for c in report.failures()]


def test_verify_prop2_fails_on_permuted_valuation(platypus):
    t = platypus.translation
    space = joint_space_from_translation(t)
    swapped = [(s[0], {0: 1, 1: 0}.get(s[1], s[1])) for s in space.states]
    broken = JointStateSpace(space.algebra1, space.algebra2, swapped)
    report = verify_prop2(t, broken)
    assert not report.passed
    assert not report.check("implication-matches-containment").passed


def test_probability_bounds_platypus_exact_and_loose(platypus):
    space = build_joint_state_space(platypus.relation)
    a1, a2 = platypus.algebra1, platypus.algebra2
    uniform = [1 / 3] * 3
    lo, hi = probability_bounds(space, uniform, a2.denote_text("mammal"), 1)
    assert lo == pytest.approx(1 / 3) and hi == pytest.approx(1 / 3)
    lo, hi = probability_bounds(
        space, uniform, a1.denote_text("egg_only | platypus"), 2)
    assert lo == pytest.approx(1 / 3)
    assert hi == 1.0


def test_probability_bounds_exact_events_are_degenerate(nested):
    space = joint_space_from_translation(nested.require_translation())
    rng = random.Random(9)
    weights = [rng.random() for _ in range(space.state_count)]
    total = sum(weights)
    weights = [w / total for w in weights]
    lam = nested.algebra1.denote_text("s30_60 | s90_120")
    lo, hi = probability_bounds(space, weights, lam, 2)
    assert lo == hi


def test_probability_bounds_rejects_bad_weights(platypus):
    space = build_joint_state_space(platypus.relation)
    lam = platypus.algebra2.denote_text("mammal")
    with pytest.raises(ValueError):
        probability_bounds(space, [0.5, 0.5, 0.5], lam, 1)
    with pytest.raises(ValueError):
        probability_bounds(space, [-0.5, 1.0, 0.5], lam, 1)


def test_bounds_sandwich_on_random_instances():
    rng = random.Random(41)
    for _ in range(15):
        t = random_consistent_translation(rng, max_atoms=4)
        space = joint_space_from_translation(t)
        weights = [rng.random() for _ in range(space.state_count)]
        total = sum(weights)
        weights = [w / total for w in weights]
        for side, target in ((1, 2), (2, 1)):
            algebra = space.algebra(side)
            for mask in range(algebra.full_mask + 1):
                lam = Prop(algebra, mask)
                lo, hi = probability_bounds(space, weights, lam, target)
                mass = sum(w for i, w in enumerate(weights)
                           if space.valuation(lam) >> i & 1)
                assert lo <= mass + 1e-12
                assert mass <= hi + 1e-12


def test_joint_space_json_export_is_deterministic(platypus):
    space = build_joint_state_space(platypus.relation)
    payload = space.to_dict()
    assert payload["schema_version"] == 1
    assert payload["minimal"] is True
    assert len(payload["states"]) == 3
    assert payload["states"][0] == {"atom1": "platypus", "atom2": None}
    again = build_joint_state_space(platypus.relation).to_dict()
    assert payload == again
    assert dumps(payload) == dumps(again)
    top_row = payload["valuation2"]["true"]
    assert len(top_row) == 2


def test_probability_bounds_star_is_certain(platypus):
    space = build_joint_state_space(platypus.relation)
    lo, hi = probability_bounds(space, [1 / 3] * 3, platypus.algebra1.star, 2)
    assert (lo, hi) == (1.0, 1.0)


def test_probability_bounds_rejects_same_language_target(platypus):
    from crosslang import CrosslangError

    space = build_joint_state_space(platypus.relation)
    with pytest.raises(CrosslangError):
        probability_bounds(space, [1 / 3] * 3,
                           platypus.algebra1.denote_text("platypus"), 1)


@pytest.mark.parametrize("weights", [
    [float("nan"), 0.5, 0.5],
    [float("inf"), 0.0, 0.0],
    {"0": 0.5, "1": 0.5, "99": 0.0},
    {"0": 0.5, "1": 0.5, "x": 0.0},
    {0: 0.5, 1: 0.5, 3: 0.0},
    [None, 0.5, 0.5],
    [0.5, 0.5],
], ids=["nan", "inf", "key-99", "key-x", "int-key-3", "null", "too-few"])
def test_probability_weights_rejects_invalid(platypus, weights):
    space = build_joint_state_space(platypus.relation)
    lam = platypus.algebra2.denote_text("mammal")
    with pytest.raises(InvalidWeightsError):
        probability_bounds(space, weights, lam, 1)


def test_invalid_weights_error_is_both_crosslang_and_value_error(platypus):
    assert issubclass(InvalidWeightsError, CrosslangError)
    assert issubclass(InvalidWeightsError, ValueError)
    space = build_joint_state_space(platypus.relation)
    lam = platypus.algebra2.denote_text("mammal")
    with pytest.raises(InvalidWeightsError, match="sum to 1.5"):
        probability_bounds(space, [0.5, 0.5, 0.5], lam, 1)


def all_star_translation(n_cells):
    """Two n-cell languages whose atoms all have outer image *: every atom
    pair is a state, plus one lone state per atom, n*n + 2n in all."""
    a1 = cell_algebra("left", n_cells, "a")
    a2 = cell_algebra("right", n_cells, "b")
    return translation_from_atom_outers(
        a1, a2,
        {atom: a2.star for atom in a1.atoms()},
        {atom: a1.star for atom in a2.atoms()},
    )


def test_joint_space_with_63_states_is_built():
    space = joint_space_from_translation(all_star_translation(7))
    assert space.state_count == 63
    total = int(space.event_array(1)[-1]) | int(space.event_array(2)[-1])
    assert total == (1 << 63) - 1


def test_joint_space_above_63_states_raises_cap_error():
    with pytest.raises(AlgebraTooLargeError, match="80 states"):
        joint_space_from_translation(all_star_translation(8))


def test_probability_weights_accept_index_maps(platypus):
    space = build_joint_state_space(platypus.relation)
    lam = platypus.algebra2.denote_text("mammal")
    third = 1 / 3
    by_int = probability_bounds(space, {0: third, 1: third, 2: third}, lam, 1)
    by_str = probability_bounds(space, {"0": third, "1": third, "2": third}, lam, 1)
    assert by_int == by_str


def test_minimal_space_generates_the_full_field(oil, platypus, nested):
    """Every state is separated by the two event fields together, so the
    joint language is the whole powerset field over the state set."""
    for corpus in (oil, platypus, nested):
        space = joint_space_from_translation(corpus.require_translation())
        assert generated_field_block_count(space) == space.state_count
