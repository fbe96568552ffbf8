import random

import numpy as np
import pytest

from crosslang import (
    BudgetExceededError,
    OracleBudget,
    Prop,
    brute_adjoint,
    brute_states,
    brute_ultrafilters,
    implication_from_translation,
    joint_space_from_translation,
    state_set_of,
    translation_from_atom_outers,
)
from crosslang.corpus import parse_translation_file
from denseref import brute_ultrafilter_extension
from scalarref import is_atom
from crosslang.randgen import cell_algebra, make_cell_spec, random_consistent_translation


def canonical(state_sets):
    return sorted(sorted(repr(x) for x in s) for s in state_sets)


def fast_state_sets(t):
    r = implication_from_translation(t)
    space = joint_space_from_translation(t)
    return [state_set_of(r, pair) for pair in space.states]


def test_platypus_states_match_both_methods(platypus):
    r = platypus.relation
    fast = canonical(fast_state_sets(platypus.translation))
    for method in ("subsets", "filters"):
        assert canonical(brute_states(r, method=method)) == fast
    assert len(fast) == 3


def test_single_shared_atom_pair_has_one_state():
    a1 = cell_algebra("first", 1, "p")
    a2 = cell_algebra("second", 1, "q")
    t = translation_from_atom_outers(
        a1, a2,
        {a1.atoms()[0]: a2.top},
        {a2.atoms()[0]: a1.top},
    )
    r = implication_from_translation(t)
    states = brute_states(r, method="subsets")
    assert len(states) == 1
    assert canonical(states) == canonical(fast_state_sets(t))


def reduced_oil():
    """The oil setup shrunk to stay inside the oracle budget: six 10-dollar
    cells on [0,60) against a negative-price cell plus four 15-dollar cells."""
    from crosslang import Algebra

    d_names = [f"usd_{10*i}_{10*i+10}" for i in range(6)]
    y_names = ["cny_neg"] + [f"cny_{100*i}_{100*i+100}" for i in range(4)]
    a1 = Algebra.from_spec(make_cell_spec("dollars", d_names))
    a2 = Algebra.from_spec(make_cell_spec("yuan", y_names))
    lines = []
    for i in range(6):
        lo, hi = 10 * i, 10 * i + 10
        cells = [f"cny_{100*j}_{100*j+100}" for j in range(4)
                 if (100 * j + 100) * 15 > lo * 100 and 100 * j * 15 < hi * 100]
        lines.append(f"outer 1>2: usd_{lo}_{hi} => " + " | ".join(cells))
    lines.append("outer 2>1: cny_neg => *")
    for j in range(4):
        lo, hi = 15 * j, 15 * j + 15
        cells = [f"usd_{10*i}_{10*i+10}" for i in range(6)
                 if 10 * i + 10 > lo and 10 * i < hi]
        lines.append(f"outer 2>1: cny_{100*j}_{100*j+100} => " + " | ".join(cells))
    return parse_translation_file("\n".join(lines), a1, a2)


def test_reduced_oil_states_match_within_budget():
    t = reduced_oil()
    r = implication_from_translation(t)
    fast = canonical(fast_state_sets(t))
    assert canonical(brute_states(r, method="filters")) == fast
    # merged cut grid on [0,60) plus the negative-price state
    assert len(fast) == 8 + 1


def test_brute_adjoint_matches_oil_inners(oil):
    t = oil.require_translation()
    for direction in ("1>2", "2>1"):
        assert np.array_equal(brute_adjoint(t, direction), t.array(direction, "inner"))


def test_brute_adjoint_identity(twin_pair):
    a, b = twin_pair
    t = translation_from_atom_outers(
        a, b,
        {atom: Prop(b, atom.mask) for atom in a.atoms()},
        {atom: Prop(a, atom.mask) for atom in b.atoms()},
    )
    derived = brute_adjoint(t, "1>2")
    for lam in a.all_props():
        assert derived[lam.mask] == lam.mask


def test_brute_adjoint_fixed_point_gap_tables(fixed_point_gap):
    t = fixed_point_gap.translation
    a2 = fixed_point_gap.algebra2
    derived = brute_adjoint(t, "2>1")
    assert np.array_equal(derived, t.array("2>1", "inner"))
    assert derived[a2.denote_text("b | c").mask] == (
        fixed_point_gap.algebra1.denote_text("u").mask)


def test_brute_adjoint_disagrees_with_broken_override(violation):
    t = violation.translation
    assert not np.array_equal(brute_adjoint(t, "1>2"), t.array("1>2", "inner"))


def test_ultrafilters_are_principal_at_atoms(platypus):
    r = platypus.relation
    for side, algebra in ((1, platypus.algebra1), (2, platypus.algebra2)):
        filters = brute_ultrafilters(r, side)
        assert len(filters) == algebra.model_count
        for u in filters:
            generator = min(u, key=lambda p: bin(p.mask).count("1"))
            assert is_atom(generator)


def test_ultrafilter_extension_finds_avoiding_atom(platypus):
    r = platypus.relation
    a1, a2 = platypus.algebra1, platypus.algebra2
    lam = a1.denote_text("egg_only | platypus")
    base = {p for p in a1.all_props() if lam.mask & ~p.mask == 0}
    avoided = a2.denote_text("egg_layer")
    u = brute_ultrafilter_extension(r, 1, base, avoided)
    assert u is not None
    assert Prop(a1, a1.denote_text("platypus").mask) in u


def test_ultrafilter_extension_returns_filter_itself_when_enough(platypus):
    r = platypus.relation
    a1 = platypus.algebra1
    mam = a1.denote_text("mammal_only")
    base = {p for p in a1.all_props() if mam.mask & ~p.mask == 0}
    u = brute_ultrafilter_extension(r, 1, base, platypus.algebra2.denote_text("egg_layer"))
    assert u == frozenset(base)


def test_ultrafilter_extension_none_when_precondition_fails(platypus):
    r = platypus.relation
    a1 = platypus.algebra1
    mam = a1.denote_text("mammal_only")
    base = {p for p in a1.all_props() if mam.mask & ~p.mask == 0}
    # the excluded target is implied by the filter itself
    assert brute_ultrafilter_extension(r, 1, base, platypus.algebra2.denote_text("mammal")) is None


def test_budget_rejects_oversized_enumeration(oil):
    r = oil.require_relation()
    with pytest.raises(BudgetExceededError):
        brute_states(r, OracleBudget(max_atoms=6))
    with pytest.raises(BudgetExceededError):
        brute_states(r, OracleBudget(max_subsets=1 << 10), method="subsets")


def test_budget_time_limit_aborts(platypus):
    with pytest.raises(BudgetExceededError):
        brute_states(platypus.relation, OracleBudget(time_limit=0.0))


def test_random_instances_agree_with_oracle():
    rng = random.Random(61)
    for _ in range(25):
        t = random_consistent_translation(rng, max_atoms=3)
        r = implication_from_translation(t)
        fast = canonical(fast_state_sets(t))
        assert canonical(brute_states(r, method="subsets")) == fast
        assert canonical(brute_states(r, method="filters")) == fast
        for direction in ("1>2", "2>1"):
            assert np.array_equal(brute_adjoint(t, direction), t.array(direction, "inner"))
