"""The vectorized checkers must agree with the scalar axiom statements on
every kind of instance: consistent, one-value-mutated, and closures of
arbitrary seeds."""

import random

import scalarref
from crosslang import (
    check_consistency,
    check_implication_axioms,
    close,
    implication_from_translation,
)
from crosslang.randgen import (
    cell_algebra,
    random_atom_outer_translation,
    random_consistent_translation,
    random_star_prop,
)
from generators import mutate_one_value


def translation_verdicts_fast(t):
    report = check_consistency(t)
    return {c.name: c.passed for c in report.checks}


def relation_verdicts_fast(r):
    report = check_implication_axioms(r)
    out = {c.name: c.passed for c in report.checks}
    # the scalar reference folds the per-direction checks together
    return {
        "extensibility:1": out["extensibility:1"],
        "extensibility:2": out["extensibility:2"],
        "transitivity": out["transitivity"],
        "bound-consistency": out["bound-consistency"],
        "connective-consistency": out["connective-consistency:1>2"]
        and out["connective-consistency:2>1"],
        "negation-consistency": out["negation-consistency:1>2"]
        and out["negation-consistency:2>1"],
    }


def test_translation_checkers_match_scalar_reference():
    rng = random.Random(71)
    for k in range(60):
        a1 = cell_algebra("left", rng.randint(1, 3), "a")
        a2 = cell_algebra("right", rng.randint(1, 3), "b")
        t = random_atom_outer_translation(rng, a1, a2)
        if k % 2:
            t = mutate_one_value(rng, t)
        assert translation_verdicts_fast(t) == scalarref.translation_verdicts(t), k


def test_mutated_consistent_translations_match_scalar_reference():
    rng = random.Random(72)
    for k in range(40):
        t = mutate_one_value(rng, random_consistent_translation(rng, max_atoms=3))
        assert translation_verdicts_fast(t) == scalarref.translation_verdicts(t), k


def test_relation_checkers_match_scalar_on_canonical_relations():
    rng = random.Random(73)
    for k in range(30):
        t = random_consistent_translation(rng, max_atoms=3)
        r = implication_from_translation(t)
        fast = relation_verdicts_fast(r)
        slow = scalarref.relation_verdicts(r)
        assert fast == slow, (k, fast, slow)
        assert all(fast.values())


def test_relation_checkers_match_scalar_on_seed_closures():
    rng = random.Random(74)
    for k in range(40):
        a1 = cell_algebra("left", rng.randint(1, 3), "a")
        a2 = cell_algebra("right", rng.randint(1, 3), "b")
        seeds = []
        for _ in range(rng.randint(0, 5)):
            x = random_star_prop(rng, a1, 0.05)
            y = random_star_prop(rng, a2, 0.05)
            seeds.append((x, y) if rng.random() < 0.5 else (y, x))
        r = close(seeds, a1, a2)
        fast = relation_verdicts_fast(r)
        slow = scalarref.relation_verdicts(r)
        assert fast == slow, (k, seeds, fast, slow)
