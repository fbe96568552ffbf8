"""The compatibility relation that the joint states and the common language
are read off (``Translation.compatibility``), against the references it
replaced: the joint states as ``denseref.joint_states`` listed them from
both outer arrays, and the common language as the perfect set with its
outer images, checked pair by pair (``denseref.common_checks``).  Every
consistent translation between two-cell algebras, the 500-instance suite,
dense 8 x 8 pairs, and translations whose overrides restate a different
translation.  Also every one-value mutant of a consistent two-cell
translation, whose consistency report is that of the dense checkers."""

import itertools
import random

import numpy as np

import denseref
from crosslang import (
    DegenerateCommonLanguageError,
    check_consistency,
    common_language,
    joint_space_from_translation,
    perfect_translations,
)
from crosslang.randgen import cell_algebra
from crosslang.translation import Translation, compatibility_of

_FLIP = {"1>2": "2>1", "2>1": "1>2"}


def swapped(t: Translation) -> Translation:
    """The same translation with the two languages' roles exchanged."""
    return Translation(t.algebra2, t.algebra1, t._images["2>1"], t._images["1>2"],
                       [(_FLIP[d], mode, x, y) for d, mode, x, y in t.overrides])


def common_or_none(t: Translation):
    """The common language's masks and partners as lists, or None when it
    is degenerate."""
    try:
        common = common_language(t)
    except DegenerateCommonLanguageError:
        return None
    return common.masks.tolist(), common.partners.tolist()


def assert_matches_references(t: Translation) -> None:
    """The joint states equal the reference listing, and the common language
    of either host is its perfect set, partnered by its outer images, and
    passes the pairwise checks."""
    assert joint_space_from_translation(t).states == denseref.joint_states(t)
    for host, direction in ((t, "1>2"), (swapped(t), "2>1")):
        perfect = perfect_translations(t, int(direction[0]))
        common = common_or_none(host)
        if common is None:
            assert perfect.tolist() == [0]
            continue
        masks, partners = common
        assert masks == perfect.tolist()
        assert partners == t.array(direction, "outer")[perfect].tolist()
        denseref.common_checks(np.array(masks), np.array(partners),
                               host.algebra1.full_mask)


def dense_pair(rng: random.Random, a1, a2, density: float) -> Translation | None:
    """A translation whose atom images are a random symmetric compatibility
    of the given density, each atom's image then sent to the star with
    probability 0.1; None when that is not consistent."""
    m1, m2 = a1.model_count, a2.model_count
    compatible = [[rng.random() < density for _ in range(m2)] for _ in range(m1)]
    images12 = [sum(1 << b for b in range(m2) if compatible[a][b]) for a in range(m1)]
    images21 = [sum(1 << a for a in range(m1) if compatible[a][b]) for b in range(m2)]
    images12 = [-1 if rng.random() < 0.1 else v for v in images12]
    images21 = [-1 if rng.random() < 0.1 else v for v in images21]
    t = Translation(a1, a2, np.array(images12, np.int64), np.array(images21, np.int64))
    return t if t.is_consistent() else None


def dense_pairs(count: int) -> list[Translation]:
    """``count`` consistent dense 8 x 8 pairs, seeded, at densities 0.15,
    0.3 and 0.5 in turn."""
    a1, a2 = cell_algebra("left", 8, "a"), cell_algebra("right", 8, "b")
    rng = random.Random(8)
    pairs = []
    for density in itertools.cycle((0.15, 0.3, 0.5)):
        if len(pairs) == count:
            return pairs
        t = None
        while t is None:
            t = dense_pair(rng, a1, a2, density)
        pairs.append(t)


_TWO_CELL_VALUES = (0, 1, 2, 3, -1)     # the masks of two cells, then the star


def two_cell_translations():
    """All 625 pairs of atom-image vectors between two-cell algebras, each
    image a mask or the star, as translations."""
    a1, a2 = cell_algebra("left", 2, "a"), cell_algebra("right", 2, "b")
    for images12 in itertools.product(_TWO_CELL_VALUES, repeat=2):
        for images21 in itertools.product(_TWO_CELL_VALUES, repeat=2):
            yield Translation(a1, a2, np.array(images12, np.int64),
                              np.array(images21, np.int64))


def test_every_two_cell_translation():
    """The consistent ones of the 625 two-cell translations match the
    references."""
    tried = consistent = 0
    for t in two_cell_translations():
        tried += 1
        if t.is_consistent():
            consistent += 1
            assert_matches_references(t)
    assert (tried, consistent) == (625, 90)


def test_every_one_value_mutant_of_a_two_cell_translation():
    """Every override of one value of a consistent two-cell translation: each
    of the four operators, each mask slot, each value (a mask or the star)
    but the current one.  ``check_consistency`` gives the report of the
    dense references merged: the same checks, verdicts and first
    witnesses."""
    mutants = 0
    for t in filter(Translation.is_consistent, two_cell_translations()):
        for direction, mode in (("1>2", "inner"), ("1>2", "outer"),
                                ("2>1", "inner"), ("2>1", "outer")):
            current = t.array(direction, mode)
            for x, y in itertools.product(range(4), _TWO_CELL_VALUES):
                if y == current[x]:
                    continue
                mutant = Translation(t.algebra1, t.algebra2, t._images["1>2"],
                                     t._images["2>1"], [(direction, mode, x, y)])
                expected = (denseref.check_galois(mutant)
                            .merged(denseref.check_approximation(mutant))
                            .merged(denseref.check_restricted_duality(mutant)))
                assert check_consistency(mutant).to_dict() == expected.to_dict()
                mutants += 1
    assert mutants == 5760


def test_suite_and_dense_pairs_match_references(suite500):
    instances, _ = suite500
    for t in instances + dense_pairs(30):
        assert_matches_references(t)


def test_overrides_restating_another_translation_are_followed():
    """T with every slot of its four operators overridden by the values of
    a different consistent T': the effective atom images are those of T',
    and so are the joint states and the common language."""
    pairs = dense_pairs(6)
    for t, other in zip(pairs, pairs[1:]):
        overrides = [(d, mode, x, int(other.array(d, mode)[x]))
                     for d, mode in (("1>2", "inner"), ("1>2", "outer"),
                                     ("2>1", "inner"), ("2>1", "outer"))
                     for x in range(-1, t.endpoints(d)[0].full_mask + 1)]
        restated = Translation(t.algebra1, t.algebra2, t._images["1>2"],
                               t._images["2>1"], overrides)
        assert restated.is_consistent()
        raw = compatibility_of(t._images["1>2"], t._images["2>1"])[2]
        assert not np.array_equal(raw, restated.compatibility[2])
        assert (joint_space_from_translation(restated).states
                == joint_space_from_translation(other).states
                == denseref.joint_states(restated))
        assert common_or_none(restated) == common_or_none(other)
        assert_matches_references(restated)
