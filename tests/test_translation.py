import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import denseref
import gridmath
import scalarref
from crosslang import (
    AlgebraTooLargeError,
    CrossAlgebraError,
    CrosslangError,
    Prop,
    Star,
    approximable_set,
    check_approximation,
    check_consistency,
    check_derived_properties,
    check_galois,
    check_restricted_duality,
    implies,
    meet,
    negate,
    translation_from_atom_outers,
)
from crosslang.randgen import (
    cell_algebra,
    random_atom_outer_translation,
    random_consistent_translation,
)
import crosslang.translation as translation_module
from crosslang.translation import Translation, atom_axioms_hold
from scalarref import approximation_holds, galois_pair_holds, restricted_duality_holds


def identity_translation(twin_pair):
    a, b = twin_pair
    o12 = {atom: Prop(b, atom.mask) for atom in a.atoms()}
    o21 = {atom: Prop(a, atom.mask) for atom in b.atoms()}
    return translation_from_atom_outers(a, b, o12, o21)


def test_identity_translation_is_identity_on_masks(twin_pair):
    t = identity_translation(twin_pair)
    for direction in ("1>2", "2>1"):
        src, _ = t.endpoints(direction)
        for mode in ("inner", "outer"):
            for lam in src.all_props():
                assert t.apply(direction, mode, lam).mask == lam.mask
            assert isinstance(t.apply(direction, mode, src.star), Star)


def test_oil_atom_outer_image(oil):
    t = oil.require_translation()
    a1, a2 = oil.algebra1, oil.algebra2
    img = t.apply("1>2", "outer", a1.denote_text("usd_70_80"))
    assert img == a2.denote_text("cny_400_500 | cny_500_600")


def test_oil_interval_translations(oil):
    t = oil.require_translation()
    a1, a2 = oil.algebra1, oil.algebra2
    span = a2.denote_text("cny_500_600 | cny_600_700")
    assert t.apply("2>1", "inner", span) == a1.denote_text(
        "usd_80_90 | usd_90_100"
    )
    assert t.apply("2>1", "outer", span) == a1.denote_text(
        "usd_70_80 | usd_80_90 | usd_90_100 | usd_100_110"
    )


def test_oil_negative_price_outer_is_undefined(oil):
    t = oil.require_translation()
    a1, a2 = oil.algebra1, oil.algebra2
    low = a2.denote_text("cny_neg | cny_0_100 | cny_100_200")
    assert t.apply("2>1", "inner", low) == a1.denote_text(
        "usd_0_10 | usd_10_20 | usd_20_30"
    )
    assert isinstance(t.apply("2>1", "outer", low), Star)


def test_contradiction_is_extreme_in_both_modes(oil):
    t = oil.require_translation()
    for direction in ("1>2", "2>1"):
        src, dst = t.endpoints(direction)
        for mode in ("inner", "outer"):
            assert t.apply(direction, mode, src.bottom) == dst.bottom


def test_translate_rejects_cross_algebra_input(oil):
    t = oil.require_translation()
    with pytest.raises(CrossAlgebraError):
        t.apply("1>2", "inner", oil.algebra2.top)


def test_fixed_point_gap_matches_published_tables(fixed_point_gap):
    """All sixteen operator values of the two-atom / three-atom example."""
    t = fixed_point_gap.translation
    a1, a2 = fixed_point_gap.algebra1, fixed_point_gap.algebra2

    def v(direction, mode, text, src, dst):
        return dst.formula_text(t.apply(direction, mode, src.denote_text(text)))

    assert v("1>2", "outer", "u", a1, a2) == a2.formula_text(a2.denote_text("b | c"))
    assert v("1>2", "inner", "u", a1, a2) == "c"
    assert v("1>2", "outer", "!u", a1, a2) == a2.formula_text(a2.denote_text("a | b"))
    assert v("1>2", "inner", "!u", a1, a2) == "a"
    expected_21 = {
        ("outer", "a"): "!u", ("inner", "a"): "false",
        ("outer", "b"): "true", ("inner", "b"): "false",
        ("outer", "c"): "u", ("inner", "c"): "false",
        ("outer", "a | b"): "true", ("inner", "a | b"): "!u",
        ("outer", "a | c"): "true", ("inner", "a | c"): "false",
        ("outer", "b | c"): "true", ("inner", "b | c"): "u",
    }
    for (mode, text), expected in expected_21.items():
        assert v("2>1", mode, text, a2, a1) == expected, (mode, text)


def test_galois_passes_on_consistent_corpora(oil, platypus, fixed_point_gap, twin_pair):
    for t in (
        oil.require_translation(),
        platypus.translation,
        fixed_point_gap.translation,
        identity_translation(twin_pair),
    ):
        assert check_galois(t).passed


def test_galois_fails_with_reproducible_witness(violation):
    report = check_galois(violation.translation)
    assert not report.passed
    check = report.check("galois:1>2")
    assert not check.passed
    lam, eta = check.witness
    assert lam == violation.algebra1.denote_text("p")
    assert eta == violation.algebra2.denote_text("u")
    assert not galois_pair_holds(violation.translation, "1>2", lam, eta)


def test_approximation_passes_on_oil(oil):
    assert check_approximation(oil.require_translation()).passed


def test_approximation_fails_on_constructed_violation(twin_pair):
    t = identity_translation(twin_pair)
    a, b = twin_pair
    lam = a.atoms()[0]
    broken = t.replace("1>2", "inner", lam, b.top)
    report = check_approximation(broken)
    assert not report.passed
    (witness,) = report.check("approximation:1>2").witness
    assert witness == lam
    assert not approximation_holds(broken, "1>2", witness)


def test_restricted_duality_platypus_instance(platypus):
    t = platypus.translation
    a1, a2 = platypus.algebra1, platypus.algebra2
    got = t.apply("2>1", "inner", a2.denote_text("!mammal"))
    expected = meet(
        negate(t.apply("2>1", "outer", a2.denote_text("mammal"))),
        t.apply("2>1", "inner", a2.top),
    )
    assert got == expected == a1.denote_text("egg_only")
    assert check_restricted_duality(t).passed


def test_restricted_duality_reduces_to_plain_duality_for_twins(twin_pair):
    t = identity_translation(twin_pair)
    a, _ = twin_pair
    assert t.apply("1>2", "inner", a.top).mask == a.full_mask
    for lam in a.all_props():
        if lam == a.top:
            continue
        inner_neg = t.apply("1>2", "inner", negate(lam))
        outer = t.apply("1>2", "outer", lam)
        assert inner_neg == negate(outer)


def test_restricted_duality_oil_negative_span(oil):
    t = oil.require_translation()
    a1, a2 = oil.algebra1, oil.algebra2
    below_200 = a2.denote_text("cny_neg | cny_0_100 | cny_100_200")
    got = t.apply("2>1", "inner", negate(below_200))
    spans = " | ".join(f"usd_{10*i}_{10*i+10}" for i in range(3, 12))
    assert got == a1.denote_text(spans)
    inner_low = t.apply("2>1", "inner", below_200)
    assert got == meet(negate(inner_low), t.apply("2>1", "inner", a2.top))


def test_restricted_duality_detects_violation(twin_pair):
    t = identity_translation(twin_pair)
    a, b = twin_pair
    lam = a.atoms()[0]
    broken = t.replace("1>2", "inner", negate(lam), b.bottom)
    report = check_restricted_duality(broken)
    assert not report.passed
    (witness,) = report.check("restricted-duality:1>2").witness
    assert not restricted_duality_holds(broken, "1>2", witness)


def test_oil_approximable_set_is_the_non_negative_ideal(oil):
    t = oil.require_translation()
    a2 = oil.algebra2
    neg_bit = a2.denote_text("cny_neg").mask
    got = approximable_set(t, "2>1").tolist()
    expected = [m for m in range(a2.full_mask + 1) if m & neg_bit == 0]
    assert got == expected
    report = check_derived_properties(t)
    assert report.check("approximable-ideal:outer:2>1").passed


def test_derived_properties_hold_on_corpora(oil, platypus, fixed_point_gap):
    for t in (oil.require_translation(), platypus.translation,
              fixed_point_gap.translation):
        report = check_derived_properties(t)
        assert report.passed, [c.name for c in report.failures()]


def test_inner_preserves_meets_on_fixed_point_gap(fixed_point_gap):
    t = fixed_point_gap.translation
    a2 = fixed_point_gap.algebra2
    for x in a2.star_lattice():
        for y in a2.star_lattice():
            lhs = t.apply("2>1", "inner", meet(x, y))
            rhs = meet(t.apply("2>1", "inner", x),
                       t.apply("2>1", "inner", y))
            assert lhs == rhs


def test_adjunction_closure_lemma_on_random_instances():
    rng = random.Random(21)
    for _ in range(40):
        t = random_consistent_translation(rng, max_atoms=4)
        for direction, back in (("1>2", "2>1"), ("2>1", "1>2")):
            src, _ = t.endpoints(direction)
            for lam in src.star_lattice():
                up = t.apply(back, "inner", t.apply(direction, "outer", lam))
                down = t.apply(back, "outer", t.apply(direction, "inner", lam))
                assert implies(lam, up)
                assert implies(down, lam)


def test_round_trips_are_idempotent_and_monotone():
    rng = random.Random(22)
    for _ in range(25):
        t = random_consistent_translation(rng, max_atoms=4)
        src = t.algebra1

        def closure(lam):
            return t.apply("2>1", "inner", t.apply("1>2", "outer", lam))

        def interior(lam):
            return t.apply("2>1", "outer", t.apply("1>2", "inner", lam))

        for lam in src.all_props():
            assert closure(closure(lam)) == closure(lam)
            assert interior(interior(lam)) == interior(lam)
            for mu in src.all_props():
                if implies(lam, mu):
                    assert implies(closure(lam), closure(mu))
                    assert implies(interior(lam), interior(mu))


def test_construction_always_satisfies_galois():
    rng = random.Random(23)
    for _ in range(60):
        a1 = cell_algebra("left", rng.randint(1, 4), "a")
        a2 = cell_algebra("right", rng.randint(1, 4), "b")
        t = random_atom_outer_translation(rng, a1, a2)
        assert check_galois(t).passed


def test_translation_requires_total_star_preserving_maps(twin_pair):
    """One int64 image per atom, each in the target or the star; an
    override keeps the star's image the star, takes elements of the
    translation's own algebras and names one of the four operators."""
    a, b = twin_pair
    t = identity_translation(twin_pair)
    images = np.array([1, 2, 4], dtype=np.int64)
    with pytest.raises(CrosslangError, match="one int64 value per atom"):
        Translation(a, b, images[:-1], images)
    with pytest.raises(CrosslangError, match="one int64 value per atom"):
        Translation(a, b, images.astype(float), images)
    for bad_value in (b.full_mask + 1, -2):
        outside = images.copy()
        outside[1] = bad_value
        with pytest.raises(CrossAlgebraError):
            Translation(a, b, outside, images)
    assert Translation(a, b, images, images) == t
    with pytest.raises(CrosslangError, match=r"inner 1>2 map must send \* to \*"):
        t.replace("1>2", "inner", a.star, b.top)
    with pytest.raises(CrossAlgebraError):
        t.replace("1>2", "inner", b.top, b.top)
    for direction, mode in (("1to2", "inner"), ("1>2", "middle")):
        with pytest.raises(ValueError, match="an override needs a direction"):
            Translation(a, b, images, images, [(direction, mode, 0, 0)])


def test_operators_are_read_only_copies(twin_pair):
    a, b = twin_pair
    t = identity_translation(twin_pair)
    given = np.array([1, 2, 4], dtype=np.int64)
    u = Translation(a, b, given, given)
    given[1] = 0
    assert u == t
    for direction in ("1>2", "2>1"):
        for mode in ("inner", "outer"):
            vals = u.array(direction, mode)
            assert vals.dtype == np.int64 and not vals.flags.writeable
    with pytest.raises(ValueError):
        u.array("1>2", "inner")[1] = 0
    v = u.replace("1>2", "inner", a.atoms()[0], b.bottom)
    assert v != u and v.apply("1>2", "inner", a.atoms()[0]) == b.bottom
    assert u == t and not u.overrides


def test_later_overrides_win_and_restoring_ones_change_nothing(twin_pair):
    a, b = twin_pair
    t = identity_translation(twin_pair)
    x = a.atoms()[0]
    twice = t.replace("1>2", "outer", x, b.top).replace("1>2", "outer", x, b.bottom)
    assert twice.apply("1>2", "outer", x) == b.bottom
    assert twice == t.replace("1>2", "outer", x, b.bottom)
    restored = t.replace("2>1", "inner", b.top, a.star).replace("2>1", "inner", b.top, a.top)
    assert restored == t and len(restored.overrides) == 2
    assert restored == t.replace("1>2", "inner", x, t.apply("1>2", "inner", x))


def test_more_than_sixteen_models_is_refused():
    a1 = cell_algebra("left", 17, "a")
    a2 = cell_algebra("right", 2, "b")
    with pytest.raises(AlgebraTooLargeError, match="'left' has 17 models"):
        translation_from_atom_outers(
            a1, a2,
            {atom: a2.star for atom in a1.atoms()},
            {atom: a1.star for atom in a2.atoms()},
        )


def test_oil_outer_images_match_interval_oracle(oil):
    """Every atom image in the corpus file equals the geometric cover."""
    t = oil.require_translation()
    a1, a2 = oil.algebra1, oil.algebra2
    for cell in gridmath.DOLLAR_CELLS:
        img = t.apply("1>2", "outer", a1.denote_text(gridmath.dollar_name(cell)))
        expected = gridmath.covering_yuan_names([cell])
        assert img == a2.denote_text(" | ".join(sorted(expected)))
    for cell in gridmath.YUAN_CELLS:
        img = t.apply("2>1", "outer", a2.denote_text(gridmath.yuan_name(cell)))
        expected = gridmath.covering_dollar_names([cell])
        assert img == a1.denote_text(" | ".join(sorted(expected)))
    assert isinstance(t.apply("2>1", "outer", a2.denote_text("cny_neg")), Star)


def test_derived_properties_hold_on_random_consistent_instances():
    rng = random.Random(24)
    for _ in range(20):
        t = random_consistent_translation(rng, max_atoms=4)
        report = check_derived_properties(t)
        assert report.passed, [c.name for c in report.failures()]


def test_approximable_ideal_witness_is_the_first_down_set_violation():
    """The down-set violation comes first even when a join violation sits in
    an earlier row: (512, 516) fails the down-set, (1, 2) fails the join."""
    a1 = cell_algebra("left", 10, "a")
    a2 = cell_algebra("right", 10, "b")
    identity = translation_from_atom_outers(
        a1, a2,
        {atom: Prop(a2, atom.mask) for atom in a1.atoms()},
        {atom: Prop(a1, atom.mask) for atom in a2.atoms()},
    )
    outer = np.full(a1.full_mask + 2, -1, dtype=np.int64)
    outer[[0, 1, 2, 4, 516]] = 0
    t = denseref.translation_from_arrays(
        a1, a2, identity.array("1>2", "inner"), outer,
        identity.array("2>1", "inner"), identity.array("2>1", "outer"))
    check = check_derived_properties(t).check("approximable-ideal:outer:1>2")
    assert check.witness == (Prop(a1, 512), Prop(a1, 516))


# --- the axioms decided on atom images -------------------------------------------


def _exhaustive(t):
    return (denseref.check_galois(t).merged(denseref.check_approximation(t))
            .merged(denseref.check_restricted_duality(t)))


@st.composite
def atom_images(draw):
    """Atom outer images of two cell languages of 1 to 5 cells: read off a
    random relation (b in img(a) iff a in img(b)) or drawn freely, then some
    of them set to the star or to the empty image."""
    m1, m2 = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        rel = [[draw(st.booleans()) for _ in range(m2)] for _ in range(m1)]
        imgs12 = [sum(1 << j for j in range(m2) if rel[i][j]) for i in range(m1)]
        imgs21 = [sum(1 << i for i in range(m1) if rel[i][j]) for j in range(m2)]
    else:
        imgs12 = draw(st.lists(st.integers(0, (1 << m2) - 1), min_size=m1, max_size=m1))
        imgs21 = draw(st.lists(st.integers(0, (1 << m1) - 1), min_size=m2, max_size=m2))
    edit = st.sampled_from([None] * 6 + [-1, 0])
    imgs12 = [v if e is None else e for v, e in zip(imgs12, draw(st.lists(
        edit, min_size=m1, max_size=m1)))]
    imgs21 = [v if e is None else e for v, e in zip(imgs21, draw(st.lists(
        edit, min_size=m2, max_size=m2)))]
    return imgs12, imgs21


def _derived(imgs12, imgs21):
    a1, a2 = cell_algebra("left", len(imgs12), "a"), cell_algebra("right", len(imgs21), "b")
    return translation_from_atom_outers(
        a1, a2, {atom: a2.element(v) for atom, v in zip(a1.atoms(), imgs12)},
        {atom: a1.element(v) for atom, v in zip(a2.atoms(), imgs21)})


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(atom_images())
def test_atom_decision_matches_exhaustive_and_scalar_checkers(images):
    t = _derived(*images)
    exhaustive = _exhaustive(t)
    assert atom_axioms_hold(t) == exhaustive.passed
    assert all(scalarref.translation_verdicts(t).values()) == exhaustive.passed
    assert check_consistency(t).to_dict() == exhaustive.to_dict()
    # an override that changes nothing sends the check to the exhaustive path
    same = t.replace("1>2", "outer", t.algebra1.bottom, t.algebra2.bottom)
    assert not atom_axioms_hold(same)
    assert check_consistency(same).to_dict() == exhaustive.to_dict()


def test_failing_derived_translation_reports_the_exhaustive_witnesses(twin_pair):
    a, b = twin_pair
    x, y, z = a.atoms()
    # x goes to y's twin, y to nothing, and back again the identity: duality
    # fails at x, approximation at the twin of x
    t = translation_from_atom_outers(
        a, b, {x: Prop(b, y.mask), y: b.bottom, z: Prop(b, z.mask)},
        {atom: Prop(a, atom.mask) for atom in b.atoms()})
    report = check_consistency(t)
    assert not atom_axioms_hold(t) and not report.passed
    assert report.to_dict() == _exhaustive(t).to_dict()
    failed = [c for c in report.checks if not c.passed]
    assert {c.name for c in failed} >= {"approximation:1>2", "restricted-duality:1>2"}


def test_translation_with_overrides_goes_to_the_exhaustive_checkers(twin_pair):
    t = identity_translation(twin_pair)
    a, b = twin_pair
    assert atom_axioms_hold(t)
    same = t.replace("1>2", "inner", a.top, b.top)
    assert same == t and not atom_axioms_hold(same)
    assert check_consistency(same).to_dict() == check_consistency(t).to_dict()


def _recorded(monkeypatch, owner, name):
    """The argument tuples of every later call of ``owner.name``."""
    calls = []
    original = getattr(owner, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return calls


def _identity_pair(m):
    a1, a2 = cell_algebra("left", m, "a"), cell_algebra("right", m, "b")
    return translation_from_atom_outers(a1, a2, {x: Prop(a2, x.mask) for x in a1.atoms()},
                                        {y: Prop(a1, y.mask) for y in a2.atoms()})


def test_atom_decision_builds_no_lattice_array(monkeypatch):
    """A passing check of a 16 x 16 identity pair is decided on the atom
    images alone: no operator array of 2**16 slots is built."""
    t = _identity_pair(16)

    def refuse(*args):
        raise AssertionError("lattice array built")

    monkeypatch.setattr(Translation, "array", refuse)
    assert check_consistency(t).passed


def test_inner_override_walks_only_its_own_direction(monkeypatch):
    """One inner 1>2 override: the checks of 2>1 pass on the atom images,
    galois:1>2 compares with the derived inner, and neither the inner 2>1
    array nor the bucket sweep is built."""
    t = _identity_pair(8)
    a1, a2 = t.algebra1, t.algebra2
    t = t.replace("1>2", "inner", Prop(a1, 0b11), Prop(a2, 0b1))
    arrays = _recorded(monkeypatch, Translation, "array")
    rows = _recorded(monkeypatch, translation_module, "_galois_failing_rows")
    report = check_consistency(t)
    assert [c.name for c in report.failures()] == [
        "galois:1>2", "restricted-duality:1>2"]
    assert report.check("galois:1>2").witness == (Prop(a1, 0b11), Prop(a2, 0b10))
    assert ("2>1", "inner") not in {args[1:3] for args in arrays}
    assert rows == []


def test_outer_override_sweeps_the_buckets_of_the_adjunction_it_reaches(monkeypatch):
    """An outer 2>1 override is read by galois:1>2 alone, which takes the
    bucket sweep once."""
    t = _identity_pair(8)
    a1, a2 = t.algebra1, t.algebra2
    t = t.replace("2>1", "outer", Prop(a2, 0b1), Prop(a1, 0b11))
    rows = _recorded(monkeypatch, translation_module, "_galois_failing_rows")
    report = check_consistency(t)
    assert [args[0] for args in rows] == [a1]
    assert report.to_dict() == _exhaustive(t).to_dict()
