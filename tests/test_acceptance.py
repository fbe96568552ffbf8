"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (visible with ``pytest -s tests/test_acceptance.py``)."""

import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from crosslang import (
    OracleBudget,
    Prop,
    Star,
    brute_adjoint,
    brute_states,
    build_joint_state_space,
    check_approximation,
    check_consistency,
    check_galois,
    check_implication_axioms,
    classify_awareness,
    common_language,
    fixed_points,
    implication_from_translation,
    joint_embeddings,
    joint_space_from_translation,
    load_corpus,
    perfect_translations,
    probability_bounds,
    sigma_approximation,
    translation_from_implication,
    verify_prop2,
)
from crosslang.randgen import random_consistent_translation
from generators import mutate_one_value
from scalarref import less_aware
from conftest import CORPUS
from test_oracle import canonical, fast_state_sets, reduced_oil


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def test_criterion_1_oil_reproduction():
    with criterion(1, "oil corpus interval translations, exact, < 1 s"):
        started = time.perf_counter()
        oil = load_corpus(CORPUS / "oil-prices")
        t = oil.require_translation()
        a1, a2 = oil.algebra1, oil.algebra2
        span = a2.denote_text("cny_500_600 | cny_600_700")
        assert t.apply("2>1", "inner", span) == a1.denote_text(
            "usd_80_90 | usd_90_100")
        assert t.apply("2>1", "outer", span) == a1.denote_text(
            "usd_70_80 | usd_80_90 | usd_90_100 | usd_100_110")
        low = a2.denote_text("cny_neg | cny_0_100 | cny_100_200")
        assert t.apply("2>1", "inner", low) == a1.denote_text(
            "usd_0_10 | usd_10_20 | usd_20_30")
        assert isinstance(t.apply("2>1", "outer", low), Star)
        assert time.perf_counter() - started < 1.0


def test_criterion_2_platypus_reproduction():
    with criterion(2, "platypus seed relation, joint space, awareness, < 1 s"):
        started = time.perf_counter()
        platypus = load_corpus(CORPUS / "platypus")
        r = platypus.relation
        assert check_implication_axioms(r).passed
        t = translation_from_implication(r)
        a1, a2 = platypus.algebra1, platypus.algebra2
        assert t.apply("2>1", "outer", a2.top) == a1.denote_text("!platypus")
        space = build_joint_state_space(r)
        assert space.state_count == 3
        assert sum(1 for s in space.states if s[1] is None) == 1
        verdict = classify_awareness(t, space)
        assert less_aware(verdict, 2, 1)
        assert "language 2 less aware than language 1" in verdict.summary
        assert time.perf_counter() - started < 1.0


def test_criterion_3_fixed_point_separation():
    with criterion(3, "fixed point without perfection, strict inclusion, < 1 s"):
        started = time.perf_counter()
        gap = load_corpus(CORPUS / "fixed-point-gap")
        t = gap.translation
        assert check_galois(t).passed
        assert check_approximation(t).passed
        a1 = gap.algebra1
        perfect = perfect_translations(t, 1).tolist()
        fixed = fixed_points(t, 1).tolist()
        assert a1.denote_text("u").mask in fixed
        assert perfect == [a1.bottom.mask, a1.top.mask]
        assert set(perfect) < set(fixed)
        assert time.perf_counter() - started < 1.0


def test_criterion_4_roundtrip_identity(suite500):
    with criterion(4, "500 random consistent instances round-trip exactly, < 60 s"):
        instances, gen_seconds = suite500
        started = time.perf_counter()
        failures = 0
        for t in instances:
            back = translation_from_implication(implication_from_translation(t))
            if back != t:
                failures += 1
        assert failures == 0
        assert gen_seconds + (time.perf_counter() - started) < 60.0


def test_criterion_5_equivalence_and_mutations(suite500):
    with criterion(5, "joint-space equivalence holds and injected violations "
                      "are always detected"):
        instances, _ = suite500
        rng = random.Random(77)
        misclassified = 0
        for t in instances:
            space = joint_space_from_translation(t)
            if not verify_prop2(t, space).passed:
                misclassified += 1
                continue
            mutated = mutate_one_value(rng, t)
            if not _violation_detected(mutated):
                misclassified += 1
        assert misclassified == 0


def _violation_detected(t) -> bool:
    if not check_consistency(t).passed:
        return True
    r = implication_from_translation(t)
    if not check_implication_axioms(r).passed:
        return True
    space = joint_space_from_translation(t)
    return not verify_prop2(t, space).passed


def test_criterion_6_oracle_equivalence():
    with criterion(6, "brute-force states and adjoints agree everywhere, < 120 s"):
        started = time.perf_counter()
        budget = OracleBudget()
        rng = random.Random(3001)

        in_budget = [
            load_corpus(CORPUS / "platypus").require_translation(),
            load_corpus(CORPUS / "fixed-point-gap").require_translation(),
            reduced_oil(),
        ]
        for t in in_budget:
            r = implication_from_translation(t)
            fast = canonical(fast_state_sets(t))
            assert canonical(brute_states(r, budget, method="filters")) == fast
            for direction in ("1>2", "2>1"):
                assert np.array_equal(brute_adjoint(t, direction),
                                      t.array(direction, "inner"))
        for name in ("oil-prices", "nested-grids"):
            t = load_corpus(CORPUS / name).require_translation()
            for direction in ("1>2", "2>1"):
                assert np.array_equal(brute_adjoint(t, direction),
                                      t.array(direction, "inner"))

        divergences = 0
        for _ in range(200):
            t = random_consistent_translation(rng, max_atoms=6)
            r = implication_from_translation(t)
            fast = canonical(fast_state_sets(t))
            if canonical(brute_states(r, budget, method="filters")) != fast:
                divergences += 1
            n_elements = (t.algebra1.full_mask + 2) + (t.algebra2.full_mask + 2)
            if (1 << n_elements) <= budget.max_subsets:
                if canonical(brute_states(r, budget, method="subsets")) != fast:
                    divergences += 1
            for direction in ("1>2", "2>1"):
                if not np.array_equal(brute_adjoint(t, direction),
                                      t.array(direction, "inner")):
                    divergences += 1
        assert divergences == 0
        assert time.perf_counter() - started < 120.0


def test_criterion_7_perfect_set_characterizations(suite500):
    with criterion(7, "the four perfect-set characterizations coincide and the "
                      "common language is closed"):
        corpora = [load_corpus(CORPUS / n).require_translation()
                   for n in ("oil-prices", "platypus", "fixed-point-gap",
                             "nested-grids")]
        instances, _ = suite500
        for t in corpora + instances[:200]:
            for side in (1, 2):
                perfect_translations(t, side)  # raises on any mismatch
        for t in corpora:
            common = common_language(t)
            members = {Prop(t.algebra1, m) for m in common.masks.tolist()}
            from crosslang import meet, negate

            for a in members:
                for b in members:
                    assert meet(a, b) in members
                    assert meet(negate(a), b) in members
            assert common.top != common.bottom
            assert common.bottom == t.algebra1.bottom


def test_criterion_8_embedding_diagram():
    with criterion(8, "common-language events land identically through every leg"):
        for name in ("oil-prices", "platypus", "fixed-point-gap", "nested-grids"):
            t = load_corpus(CORPUS / name).require_translation()
            space = joint_space_from_translation(t)
            report = joint_embeddings(t, space)
            assert report.passed, (name, [c.name for c in report.failures()])
            assert report.check("common-diagram-commutes").passed
            assert report.check("translation-legs-agree").passed


def test_criterion_9_probability_sandwich():
    with criterion(9, "1000 random distributions respect the inner/outer "
                      "probability sandwich"):
        rng = random.Random(909)
        names = ("oil-prices", "platypus", "fixed-point-gap", "nested-grids")
        for name in names:
            t = load_corpus(CORPUS / name).require_translation()
            space = joint_space_from_translation(t)
            sem = sigma_approximation(space)
            n_states = space.state_count
            for side, target in ((1, 2), (2, 1)):
                ev = space.event_array(side)
                inner = sem.inner_array(side)
                outer = sem.outer_array(side)
                e_mat = _event_matrix(ev, n_states)
                i_mat = _event_matrix(inner, n_states)
                o_mat = _event_matrix(np.where(outer == -1, 0, outer), n_states)
                star_rows = outer == -1
                perfect_masks = perfect_translations(t, side)
                for _ in range(125):
                    weights = np.array([rng.random() for _ in range(n_states)])
                    weights /= weights.sum()
                    mid = e_mat @ weights
                    lo = i_mat @ weights
                    hi = np.where(star_rows, 1.0, o_mat @ weights)
                    assert (lo <= mid + 1e-12).all()
                    assert (mid <= hi + 1e-12).all()
                    assert (lo[perfect_masks] == hi[perfect_masks]).all()
                    algebra = space.algebra(side)
                    probe = rng.randrange(algebra.full_mask + 1)
                    got = probability_bounds(space, list(weights),
                                             Prop(algebra, probe), target)
                    assert got[0] == pytest.approx(float(lo[probe]))
                    assert got[1] == pytest.approx(float(hi[probe]))


def _event_matrix(events: np.ndarray, n_states: int) -> np.ndarray:
    bits = (events[:, None] >> np.arange(n_states)[None, :]) & 1
    return bits.astype(np.float64)
