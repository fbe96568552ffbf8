"""Differential suite: the analysis layer built from atom events and blocks
against the per-event, per-proposition and per-member references in
``denseref``: set approximations and probability bounds, the rendered joint
state-space, the awareness verdict, ``formula_texts``, the mask arrays of
the lattice-wide results and Proposition 2, on generated translations of up
to six models per side and altered joint state-spaces."""

import json
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import denseref
from conftest import CORPUS
from crosslang import (
    Algebra,
    ContradictionError,
    CrosslangError,
    InconsistentInputError,
    JointStateSpace,
    LanguageSpec,
    Prop,
    SemanticTranslation,
    approximable_set,
    check_consistency,
    classify_awareness,
    common_language,
    fixed_points,
    implication_from_translation,
    joint_space_from_translation,
    load_corpus,
    perfect_translations,
    probability_bounds,
    translation_from_atom_outers,
    verify_prop2,
)
from crosslang.randgen import (
    cell_algebra,
    random_consistent_translation,
    random_star_prop,
)
from generators import mutate_one_value, random_formula
from crosslang.reports import Valuation, dumps

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])


@st.composite
def consistent(draw):
    """Consistent translations of up to six models a side; half of them are
    drawn with many star images, so that some events leave every target
    event."""
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        return random_consistent_translation(rng, max_atoms=6)
    while True:
        a1 = cell_algebra("left", rng.randint(1, 6), "a")
        a2 = cell_algebra("right", rng.randint(1, 6), "b")
        t = translation_from_atom_outers(
            a1, a2,
            {atom: random_star_prop(rng, a2, star_weight=0.4) for atom in a1.atoms()},
            {atom: random_star_prop(rng, a1, star_weight=0.4) for atom in a2.atoms()},
        )
        if check_consistency(t).passed:
            return t


def _mass(weights, event):
    return sum(w for i, w in enumerate(weights) if event >> i & 1)


@FUZZ
@given(consistent(), st.randoms(use_true_random=False))
def test_set_approximations_and_bounds_match_per_event_reference(t, rng):
    space = joint_space_from_translation(t)
    inner_ref, outer_ref = denseref.semantic_tables(space)
    sem = SemanticTranslation(space)
    weights = [rng.random() + 1e-3 for _ in range(space.state_count)]
    weights = [w / sum(weights) for w in weights]
    for frm, to in ((1, 2), (2, 1)):
        inner, outer = inner_ref[(frm, to)], outer_ref[(frm, to)]
        assert np.array_equal(sem.inner_array(frm), inner)
        assert np.array_equal(sem.outer_array(frm), outer)
        algebra = space.algebra(frm)
        for mask, event in enumerate(space.event_array(frm).tolist()):
            lo, hi = int(inner[mask]), int(outer[mask])
            assert sem.inner(frm, event) == lo
            assert sem.outer(frm, event) == (None if hi == -1 else hi)
            expected = (_mass(weights, lo), 1.0 if hi == -1 else _mass(weights, hi))
            assert probability_bounds(space, weights, Prop(algebra, mask), to) == expected
        assert probability_bounds(space, weights, algebra.star, to) == (1.0, 1.0)
    assert space.to_dict() == denseref.joint_to_dict(space)
    assert (classify_awareness(t, space).to_dict()
            == denseref.classify_awareness(t, space).to_dict())


@st.composite
def algebras(draw):
    """Cell algebras, whose atoms are labelled by cell names, and algebras of
    a few free or constrained atoms, whose atoms are labelled by conjunctions
    of literals such as ``a & !b``."""
    if draw(st.booleans()):
        return cell_algebra("cells", draw(st.integers(1, 6)), "c")
    names = ("a", "b", "c", "d")[:draw(st.integers(1, 4))]
    spec = LanguageSpec("free", names, ())
    rng = draw(st.randoms(use_true_random=False))
    beliefs = tuple(random_formula(rng, spec, depth=2)
                    for _ in range(draw(st.integers(0, 2))))
    try:
        return Algebra.from_spec(LanguageSpec("free", names, beliefs))
    except ContradictionError:
        assume(False)


@FUZZ
@given(algebras())
def test_formula_texts_match_formula_text(algebra):
    expected = [algebra.formula_text(Prop(algebra, m)) for m in range(algebra.full_mask + 1)]
    assert list(algebra.formula_texts()) == expected


def test_formula_texts_of_conjunction_labels():
    a = Algebra.from_spec(LanguageSpec("free", ("a", "b"), ()))
    texts = a.formula_texts()
    assert texts[0] == "false" and texts[-1] == "true"
    assert " & !" in texts[1] and texts[3] == f"{texts[1]} | {texts[2]}"


def test_probability_bounds_need_no_approximation_table(monkeypatch):
    """A point query approximates its one event from the target atom events."""
    def no_table(self, frm):
        raise AssertionError("built a whole approximation table")

    monkeypatch.setattr(SemanticTranslation, "_tables", no_table)
    for seed in range(3):
        t = random_consistent_translation(random.Random(seed), max_atoms=5)
        space = joint_space_from_translation(t)
        weights = [1 / space.state_count] * space.state_count
        lo, hi = probability_bounds(space, weights, t.algebra1.top, 2)
        assert 0 <= lo <= hi <= 1
        lo, hi = probability_bounds(space, weights, t.algebra2.top, 1)
        assert 0 <= lo <= hi <= 1


def test_valuation_state_lists_across_groups():
    """The state lists of a valuation table, read per label and rendered,
    for a few states and for the full 63 (six groups of state bits), over
    more events than one group's lookup table holds."""
    rng = np.random.default_rng(3)
    for n_states in (5, 63):
        ev = rng.integers(0, 2**n_states, size=3 * 4096 + 7, dtype=np.int64)
        labels = [f"e{k}" for k in range(len(ev))]
        expected = {label: [s for s in range(n_states) if v >> s & 1]
                    for label, v in zip(labels, ev.tolist())}
        table = Valuation(labels, ev, n_states)
        assert {label: table[label] for label in table} == expected
        assert dumps({"t": table}) == json.dumps({"t": expected}, indent=2, sort_keys=True)


# --- results as mask arrays, and Proposition 2 ----------------------------------


def _outcome_of(fn, *args):
    """A result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except CrosslangError as exc:
        return type(exc), str(exc)


def _frozen_masks(masks):
    """An ascending read-only int64 array as a list; fails on any other form."""
    assert masks.dtype == np.int64 and not masks.flags.writeable
    assert (np.diff(masks) > 0).all()
    return masks.tolist()


def _sorted_masks(props):
    return sorted(p.mask for p in props)


def assert_results_match_references(t):
    """Perfect sets, fixed points, approximable sets and the common language
    as arrays equal the set-built references, errors included; the common
    language is hosted by language 1."""
    for side in (1, 2):
        for fast, ref in ((perfect_translations, denseref.perfect_set),
                          (fixed_points, denseref.fixed_point_set)):
            got, expected = _outcome_of(fast, t, side), _outcome_of(ref, t, side)
            if isinstance(expected, set):
                assert _frozen_masks(got) == _sorted_masks(expected)
            else:
                assert got == expected
        for direction in ("1>2", "2>1"):
            assert (_frozen_masks(approximable_set(t, direction))
                    == _sorted_masks(denseref.approximable_props(t, direction)))
    expected = _outcome_of(denseref.common_members, t)
    common = _outcome_of(common_language, t)
    if isinstance(expected, tuple) and isinstance(expected[0], type):
        assert common == expected
        return
    members, partner = expected
    assert _frozen_masks(common.masks) == [m.mask for m in members]
    assert common.partners.dtype == np.int64 and not common.partners.flags.writeable
    assert common.partners.tolist() == [partner[m].mask for m in members]
    assert (common.bottom, common.top) == (members[0], members[-1])


@st.composite
def coarsenings(draw):
    """The left cells as blocks of a random partition of the right cells:
    each left cell's outer image is its block and each right cell's the
    cell whose block holds it, so most propositions translate exactly."""
    m1 = draw(st.integers(1, 5))
    block_of = draw(st.lists(st.integers(0, m1 - 1), min_size=m1, max_size=6))
    block_of[:m1] = range(m1)           # no empty block
    block_of = draw(st.permutations(block_of))
    a1 = cell_algebra("left", m1, "a")
    a2 = cell_algebra("right", len(block_of), "b")
    t = translation_from_atom_outers(
        a1, a2,
        {atom: Prop(a2, sum(1 << j for j, b in enumerate(block_of) if 1 << b == atom.mask))
         for atom in a1.atoms()},
        {atom: Prop(a1, 1 << block_of[atom.mask.bit_length() - 1]) for atom in a2.atoms()},
    )
    assert check_consistency(t).passed
    return t


@st.composite
def spaces(draw):
    """A consistent translation with its joint state-space, or with that
    space's states changed: one side's atoms permuted, a state dropped whose
    atoms other states keep, or a state added."""
    t = draw(st.one_of(consistent(), coarsenings()))
    a1, a2 = t.algebra1, t.algebra2
    states = list(joint_space_from_translation(t).states)
    kind = draw(st.sampled_from(["exact", "permuted", "permuted", "drop", "add", "add"]))
    if kind == "permuted":
        side = draw(st.sampled_from([0, 1]))
        perm = draw(st.permutations(range((a1, a2)[side].model_count)))
        states = [tuple(perm[a] if k == side and a is not None else a
                        for k, a in enumerate(s)) for s in states]
    elif kind == "drop":
        droppable = [i for i, s in enumerate(states)
                     if all(a is None or sum(o[k] == a for o in states) > 1
                            for k, a in enumerate(s))]
        if droppable:
            del states[draw(st.sampled_from(droppable))]
    elif kind == "add" and len(states) < 63:
        pair = (draw(st.one_of(st.none(), st.integers(0, a1.model_count - 1))),
                draw(st.one_of(st.none(), st.integers(0, a2.model_count - 1))))
        assume(pair != (None, None))
        states.insert(draw(st.integers(0, len(states))), pair)
    return t, JointStateSpace(a1, a2, states)


@FUZZ
@given(st.one_of(consistent(), coarsenings()), st.integers(0, 2**32 - 1))
def test_result_arrays_match_set_references(t, seed):
    assert_results_match_references(t)
    assert_results_match_references(mutate_one_value(random.Random(seed), t))
    meets = implication_from_translation(t).principal_meets
    assert meets is not None
    for got, direction in zip(meets, ("1>2", "2>1")):
        assert np.array_equal(got, t.array(direction, "outer"))


@FUZZ
@given(spaces())
def test_verify_prop2_matches_dense_rows(case):
    t, space = case
    assert verify_prop2(t, space).to_dict() == denseref.verify_prop2(t, space).to_dict()


def test_result_arrays_and_verify_prop2_on_corpora():
    """Every corpus, with its joint state-space and with one side's first two
    atoms swapped in it."""
    failed = 0
    for path in sorted(CORPUS.iterdir()):
        t = load_corpus(path).require_translation()
        assert_results_match_references(t)
        if not t.is_consistent():
            lone = ([(i, None) for i in range(t.algebra1.model_count)]
                    + [(None, j) for j in range(t.algebra2.model_count)])
            space = JointStateSpace(t.algebra1, t.algebra2, lone)
            with pytest.raises(InconsistentInputError):
                verify_prop2(t, space)
            continue
        space = joint_space_from_translation(t)
        for side in (0, 1):
            swapped = [tuple({0: 1, 1: 0}.get(a, a) if k == side else a
                             for k, a in enumerate(s)) for s in space.states]
            for states in (space.states, swapped):
                probe = JointStateSpace(t.algebra1, t.algebra2, states)
                report = verify_prop2(t, probe)
                assert report.to_dict() == denseref.verify_prop2(t, probe).to_dict()
                failed += not report.passed
    assert failed   # a swap was caught
