import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modelref

from crosslang import (
    Algebra,
    AtomCapError,
    ContradictionError,
    CrossAlgebraError,
    StarNegationError,
    UndeclaredAtomError,
    enumerate_models,
    implies,
    join,
    meet,
    negate,
    parse_language,
)
from crosslang.algebra import atom_unions, bit_pairs, cover_pairs, sweep
from crosslang.errors import AlgebraTooLargeError
from crosslang.language import And, Arrow, Atom, LanguageSpec, Not, Or
from crosslang.randgen import make_cell_spec
from generators import random_formula
from scalarref import atoms_below


def algebra(text):
    return Algebra.from_spec(parse_language(text))


def test_free_single_atom_has_two_models():
    assert len(enumerate_models(parse_language("language A\natoms: p"))) == 2


def test_contradictory_beliefs_rejected():
    with pytest.raises(ContradictionError):
        enumerate_models(parse_language("language A\natoms: p\nbelieve: p\nbelieve: !p"))


def test_atom_cap_enforced():
    spec = parse_language("language A\natoms: " + " ".join(f"a{i}" for i in range(21)))
    with pytest.raises(AtomCapError, match="declares 21 atoms, above the cap of 20"):
        enumerate_models(spec)


def test_undeclared_belief_atom_reported_at_enumeration():
    """A spec built in code may name an undeclared atom in a belief; building
    its algebra reports the alphabetically first one of the first such
    belief, ahead of a contradiction among the beliefs before it."""
    p, q = Atom("p"), Atom("q")
    spec = LanguageSpec("A", ("p", "q"), (Or(p, q), And(Atom("z"), Or(Atom("y"), p)),
                                          Atom("a")))
    with pytest.raises(UndeclaredAtomError) as exc:
        Algebra.from_spec(spec)
    assert str(exc.value) == "belief mentions undeclared atom 'y'"
    spec = LanguageSpec("A", ("p", "q"), (p, Not(p), Arrow(q, Atom("u"))))
    with pytest.raises(UndeclaredAtomError) as exc:
        Algebra.from_spec(spec)
    assert str(exc.value) == "belief mentions undeclared atom 'u'"
    with pytest.raises(ContradictionError):
        Algebra.from_spec(LanguageSpec("A", ("p", "q"), (p, Not(p), Arrow(q, p))))


def test_model_order_is_lexicographic():
    a = algebra("language A\natoms: p q")
    assert a.keys.tolist() == [0, 1, 2, 3]


@st.composite
def _specs(draw):
    """A language of 1-6 atoms whose beliefs are random formulas, sometimes
    with the cell beliefs (exactly one atom true) among them, so that atoms
    are labelled by name as well as by literals."""
    n = draw(st.integers(1, 6))
    atoms = tuple(f"a{j}" for j in range(n))
    spec = LanguageSpec("A", atoms, ())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    beliefs = tuple(random_formula(rng, spec, depth=3)
                    for _ in range(draw(st.integers(0, 3))))
    if draw(st.booleans()):
        beliefs += make_cell_spec("A", list(atoms)).beliefs
    return LanguageSpec("A", atoms, beliefs)


def _outcome(build):
    try:
        return build()
    except (ContradictionError, AlgebraTooLargeError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_specs())
def test_models_match_reference(spec):
    """Keys, model count, atom columns and every proposition's text as
    before models were held as an array of keys."""
    keys = _outcome(lambda: modelref.enumerate_models(spec))
    got = _outcome(lambda: Algebra.from_spec(spec))
    if not isinstance(keys, list):
        assert got == keys
        return
    assert got.keys.tolist() == keys
    assert got.keys.dtype == np.int64 and not got.keys.flags.writeable
    assert got.model_count == len(keys)
    assert got._columns == modelref.columns(spec, keys)
    assert _outcome(lambda: list(got.formula_texts())) == _outcome(
        lambda: got.require_enumerable() or modelref.formula_texts(spec, keys))


def test_platypus_language_has_three_models(platypus):
    a = platypus.algebra1
    assert a.model_count == 3
    assert len(a.atoms()) == 3
    assert len(a.all_props()) == 8


def test_oil_yuan_algebra_has_nine_atoms(oil):
    assert len(oil.algebra2.atoms()) == 9


def test_denote_tautology_and_contradiction():
    a = algebra("language A\natoms: p q")
    assert a.denote_text("true") == a.top
    assert a.denote_text("p & !p") == a.bottom
    assert a.denote_text("p | !p") == a.top


def test_denote_platypus_mammal_event(platypus):
    a = platypus.algebra1
    lam_mam = a.denote_text("mammal_only | platypus")
    assert bin(lam_mam.mask).count("1") == 2
    assert lam_mam == join(a.denote_text("mammal_only"), a.denote_text("platypus"))


def test_denote_is_boolean_homomorphism():
    rng = random.Random(3)
    a = algebra("language A\natoms: p q r\nbelieve: p | q | r")
    for _ in range(150):
        f = random_formula(rng, a.spec, depth=3)
        g = random_formula(rng, a.spec, depth=3)
        from crosslang.language import And, Not, Or

        assert a.denote(And(f, g)) == meet(a.denote(f), a.denote(g))
        assert a.denote(Or(f, g)) == join(a.denote(f), a.denote(g))
        assert a.denote(Not(f)) == negate(a.denote(f))


def test_star_absorbs_joins_and_drops_from_meets():
    a = algebra("language A\natoms: p")
    lam = a.denote_text("p")
    assert meet(lam, a.star) == lam
    assert join(lam, a.star) == a.star
    assert implies(lam, a.star)
    assert not implies(a.star, lam)
    assert implies(a.star, a.star)


def test_star_has_no_negation():
    a = algebra("language A\natoms: p")
    with pytest.raises(StarNegationError):
        negate(a.star)


def test_bottom_implies_everything():
    a = algebra("language A\natoms: p q")
    for lam in a.star_lattice():
        assert implies(a.bottom, lam)


def test_cross_algebra_operands_rejected():
    a = algebra("language A\natoms: p")
    b = algebra("language B\natoms: p")
    with pytest.raises(CrossAlgebraError):
        meet(a.denote_text("p"), b.denote_text("p"))


def test_implication_is_partial_order_with_star_maximum():
    a = algebra("language A\natoms: p q")
    lattice = a.star_lattice()
    for x in lattice:
        assert implies(x, x)
        assert implies(x, a.star)
        for y in lattice:
            if implies(x, y) and implies(y, x):
                assert x == y
            for z in lattice:
                if implies(x, y) and implies(y, z):
                    assert implies(x, z)


def test_every_prop_is_join_of_its_atoms():
    a = algebra("language A\natoms: p q\nbelieve: p | q")
    for prop in a.all_props():
        rebuilt = a.bottom
        for atom in atoms_below(prop):
            rebuilt = join(rebuilt, atom)
        assert rebuilt == prop


def test_formula_text_roundtrips_through_denote(oil):
    a = oil.algebra1
    for mask in (0, 1, 37, a.full_mask):
        prop = a.prop(mask)
        assert a.denote_text(a.formula_text(prop)) == prop
    assert a.formula_text(a.star) == "*"


def test_lattice_enumeration_guarded():
    from crosslang import AlgebraTooLargeError

    spec = parse_language("language big\natoms: a b c d e")
    big = Algebra.from_spec(spec)  # 32 models, far beyond 2**32 propositions
    with pytest.raises(AlgebraTooLargeError):
        big.all_props()


# --- the slot layout and the array helpers over it ---------------------------


def test_slot_and_element_round_trip():
    a = algebra("language A\natoms: p q")
    b = algebra("language B\natoms: p")
    assert a.slots().tolist() == list(range(a.full_mask + 1)) + [-1]
    for x in a.star_lattice():
        assert a.element(a.slot(x)) == x
    for v in a.slots():
        assert a.slot(a.element(v)) == v
    assert a.element(a.full_mask + 1) == a.star
    with pytest.raises(CrossAlgebraError, match="'B' given where 'A' is expected"):
        a.slot(b.top)
    with pytest.raises(CrossAlgebraError):
        a.slot(b.star)


def test_cover_pairs_are_the_covers():
    for m in range(7):
        pairs = cover_pairs(np.arange(1 << m))
        assert len(pairs) == m
        for b, (lower, upper) in enumerate(pairs):
            assert sorted(lower.ravel().tolist()) == [x for x in range(1 << m)
                                                      if not x >> b & 1]
            assert (upper == lower | 1 << b).all()


@pytest.mark.parametrize("up", [True, False], ids=["up", "down"])
@pytest.mark.parametrize("op", [np.bitwise_and, np.bitwise_or, np.minimum,
                                np.maximum, np.add], ids=lambda op: op.__name__)
def test_sweep_matches_brute_loop(op, up):
    """Two columns, so the sweep runs along axis 0 only; values include -1."""
    rng = np.random.default_rng(0)
    for m in range(7):
        vals = rng.integers(-1, 1 << m, size=(1 << m, 2))
        got = vals.copy()
        sweep(got, op, up)
        for x in range(1 << m):
            related = [y for y in range(1 << m)
                       if ((x & ~y) if up else (y & ~x)) == 0]
            assert (got[x] == op.reduce(vals[related])).all()


def test_atom_unions_match_brute_loop():
    rng = np.random.default_rng(1)
    for m in range(7):
        values = rng.integers(-1, 1 << 20, size=m)
        got = atom_unions(values)
        assert got.dtype == np.int64 and len(got) == 1 << m
        for x in range(1 << m):
            want = 0
            for i in range(m):
                if x >> i & 1:
                    want |= int(values[i])
            assert got[x] == want


def test_bit_pairs_are_views():
    rows = np.zeros((2**4 + 1, 3), dtype=bool)
    cols = np.zeros((3, 2**4)).T
    for b in range(4):
        assert np.shares_memory(bit_pairs(rows[:-1], b), rows)
        assert np.shares_memory(bit_pairs(cols, b), cols)
    for lower, upper in cover_pairs(rows[:-1]):
        assert np.shares_memory(lower, rows) and np.shares_memory(upper, rows)
    # a sweep over a view writes through to the array behind it
    rows[-2, 0] = rows[-1, 1] = True
    sweep(rows[:-1], np.bitwise_or, up=True)
    assert rows[:-1, 0].all() and not rows[:-1, 1].any()
