"""Differential suite: the cover, atom and subset-zeta checkers against the
dense pairwise references in ``denseref`` and the scalar verdicts in
``scalarref``, on generated translations of up to six models per side."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import denseref
import scalarref
from crosslang import (
    Prop,
    check_consistency,
    check_derived_properties,
    check_galois,
    joint_embeddings,
    joint_space_from_translation,
    perfect_translations,
    translation_from_atom_outers,
)
from crosslang.randgen import cell_algebra, random_consistent_translation
from crosslang.semantics import _is_order_embedding
from crosslang.translation import _OPERATORS, _ideal_violation, _monotone_violation

# consistent translations come from rejection sampling, whose time depends on
# host load; the data itself is fixed by derandomize
FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])


def _value(algebra, v):
    return algebra.star if v == -1 else Prop(algebra, v)


@st.composite
def algebra_pair(draw):
    return (cell_algebra("left", draw(st.integers(1, 6)), "a"),
            cell_algebra("right", draw(st.integers(1, 6)), "b"))


@st.composite
def atom_derived(draw):
    a1, a2 = draw(algebra_pair())
    outer12 = {atom: _value(a2, draw(st.integers(-1, a2.full_mask))) for atom in a1.atoms()}
    outer21 = {atom: _value(a1, draw(st.integers(-1, a1.full_mask))) for atom in a2.atoms()}
    return translation_from_atom_outers(a1, a2, outer12, outer21)


@st.composite
def consistent(draw):
    return random_consistent_translation(draw(st.randoms(use_true_random=False)),
                                         max_atoms=6)


@st.composite
def mutant(draw, base):
    """One operator value changed, to a mask or to the star, in any mode."""
    t = draw(base)
    direction = draw(st.sampled_from(["1>2", "2>1"]))
    mode = draw(st.sampled_from(["inner", "outer"]))
    src, dst = t.endpoints(direction)
    lam = draw(st.integers(0, src.full_mask))
    old = t.array(direction, mode)[lam]
    value = draw(st.integers(-1, dst.full_mask).filter(lambda v: v != old))
    return t.replace(direction, mode, Prop(src, lam), _value(dst, value))


@st.composite
def arbitrary(draw):
    """Operator arrays drawn freely, held as atom images plus overrides; on
    some operators the star is kept outside the union of two principal
    down-sets, which makes the approximable set a down-set that may miss a
    join."""
    a1, a2 = draw(algebra_pair())
    arrays = []
    for src, dst in ((a1, a2), (a1, a2), (a2, a1), (a2, a1)):
        n = src.full_mask + 1
        vals = np.array(draw(st.lists(st.integers(-1, dst.full_mask),
                                      min_size=n, max_size=n)), dtype=np.int64)
        if draw(st.booleans()):
            u, v = draw(st.integers(0, src.full_mask)), draw(st.integers(0, src.full_mask))
            x = np.arange(n)
            inside = ((x & ~u) == 0) | ((x & ~v) == 0)
            vals = np.where(inside, np.where(vals == -1, 0, vals), -1)
        arrays.append(np.append(vals, -1))
    return denseref.translation_from_arrays(a1, a2, *arrays)


translations = st.one_of(atom_derived(), consistent(), arbitrary(),
                         mutant(atom_derived()), mutant(consistent()))


@st.composite
def overridden(draw):
    """One to four overrides on any of the four operators of a derived or
    consistent translation: each at a random mask, at the top or at the
    slot of an earlier one (the last wins), and to a random mask, to the
    star or to the derived value."""
    t = draw(st.one_of(atom_derived(), consistent()))
    overrides = []
    for _ in range(draw(st.integers(1, 4))):
        where = draw(st.sampled_from(["mask", "top", "again"]))
        if where == "again" and overrides:
            direction, mode, lam = draw(st.sampled_from(overrides))
        else:
            direction, mode = draw(st.sampled_from(_OPERATORS))
            src = t.endpoints(direction)[0]
            lam = src.full_mask if where == "top" else draw(st.integers(0, src.full_mask))
        src, dst = t.endpoints(direction)
        value = draw(st.sampled_from(["mask", "star", "derived"]))
        y = {"mask": lambda: draw(st.integers(0, dst.full_mask)), "star": lambda: -1,
             "derived": lambda: int(t.array(direction, mode, derived=True)[lam])}[value]()
        t = t.replace(direction, mode, Prop(src, lam), _value(dst, y))
        overrides.append((direction, mode, lam))
    return t


@FUZZ
@given(translations)
def test_translation_checkers_match_references(t):
    assert check_galois(t).to_dict() == denseref.check_galois(t).to_dict()
    assert (check_derived_properties(t).to_dict()
            == denseref.check_derived_properties(t).to_dict())
    verdicts = {c.name: c.passed for c in check_consistency(t).checks}
    assert verdicts == scalarref.translation_verdicts(t)


@FUZZ
@given(overridden())
def test_consistency_report_matches_dense_references(t):
    expected = (denseref.check_galois(t).merged(denseref.check_approximation(t))
                .merged(denseref.check_restricted_duality(t)))
    assert check_consistency(t).to_dict() == expected.to_dict()


@FUZZ
@given(consistent())
def test_perfect_translations_match_dense_set_b(t):
    for side in (1, 2):
        dense = np.flatnonzero(denseref.perfect_set_b(t, side))
        assert perfect_translations(t, side).tolist() == dense.tolist()


class Revalued:
    """A joint state-space seen through another event array on one side."""

    def __init__(self, space, side, ev):
        self.space, self.side, self.ev = space, side, ev

    def algebra(self, side):
        return self.space.algebra(side)

    def event_array(self, side):
        return self.ev if side == self.side else self.space.event_array(side)

    def valuation(self, x):
        return int(self.event_array(self.space.side_of(x))[x.mask])


@st.composite
def broken_valuation(draw):
    """A valid space, or one whose valuation on one side has one entry
    changed, two distinct entries swapped, or one atom's states added to
    another's (still a join of atom events, but no longer disjoint)."""
    t = draw(consistent())
    space = joint_space_from_translation(t)
    kind = draw(st.sampled_from(["valid", "set", "swap", "overlap"]))
    if kind == "valid":
        return t, space
    side = draw(st.sampled_from([1, 2]))
    ev = space.event_array(side).copy()
    m = space.algebra(side).model_count
    if kind == "overlap" and m > 1:
        a, b = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
        atoms = ev[1 << np.arange(m)]
        atoms[b] |= atoms[a]
        x = np.arange(len(ev))
        ev[:] = 0
        for k in range(m):
            ev[(x >> k) & 1 == 1] |= atoms[k]
        return t, Revalued(space, side, ev)
    i, j = draw(st.lists(st.integers(0, len(ev) - 1), min_size=2, max_size=2,
                         unique=True))
    if kind == "set":
        ev[i] = draw(st.integers(0, (1 << space.state_count) - 1))
    else:
        ev[i], ev[j] = ev[j], ev[i]
    return t, Revalued(space, side, ev)


@FUZZ
@given(broken_valuation())
def test_joint_embeddings_match_dense_reference(case):
    t, space = case
    assert joint_embeddings(t, space).to_dict() == denseref.joint_embeddings(t, space).to_dict()


@FUZZ
@given(broken_valuation())
def test_order_embedding_decision_matches_pairwise_scan(case):
    _, space = case
    fast = all(_is_order_embedding(space.event_array(side)) for side in (1, 2))
    assert fast == (denseref.order_embedding_witness(space) is None)


def test_monotone_and_down_set_witnesses_at_sixteen_models():
    """The identity operator on 16 cells with its value at 0xC000 changed:
    the first failing row is 0x8000, or 0xC000 when the value is the star,
    past 2^31 pairs of a row-major scan; the witness is read off that row
    alone."""
    src = cell_algebra("left", 16, "a")
    vals = np.append(np.arange(1 << 16, dtype=np.int64), -1)

    def masks(pair):
        return tuple(x.mask for x in pair)

    vals[0xC000] = 0x4000
    assert masks(_monotone_violation(src, vals)) == (0x8000, 0xC000)
    assert _ideal_violation(src, vals) is None
    vals[0xC000] = -1
    assert masks(_monotone_violation(src, vals)) == (0xC000, 0xC001)
    assert masks(_ideal_violation(src, vals)) == (0xC000, 0xC001)
