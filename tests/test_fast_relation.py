"""Differential suite: the closure and the relation checks in image form,
the lazily built dense rows and the cover-sweep cross reduction against the
matrix-product references in ``denseref`` and the scalar verdicts in
``scalarref``, on generated seed sets and relations of up to four models per
side; then the memory these paths need at 10 and 12 models, a 16 x 16
relation that never builds its dense rows, and equality of relations
against a comparison of dense rows."""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import denseref
import scalarref
from conftest import write_cover_pair
import crosslang.implication as implication
from crosslang import (
    AlgebraTooLargeError,
    CrossImplication,
    JointStateSpace,
    Prop,
    check_implication_axioms,
    close,
    cross_dot,
    format_language,
    implication_from_translation,
    joint_space_from_translation,
    load_corpus,
    translation_from_implication,
    verify_prop2,
)
from crosslang.corpus import parse_implication_seeds
from crosslang.hasse import _reduced_cross
from crosslang.implication import _seeds_of
from crosslang.randgen import (
    cell_algebra,
    make_cell_spec,
    random_consistent_translation,
    write_cell_corpus,
)

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])


def _value(algebra, v):
    return algebra.star if v == -1 else Prop(algebra, v)


@st.composite
def algebra_pair(draw):
    return (cell_algebra("left", draw(st.integers(1, 4)), "a"),
            cell_algebra("right", draw(st.integers(1, 4)), "b"))


@st.composite
def seed_sets(draw):
    """Mostly cross seeds, some within one language; any endpoint may be the
    star."""
    a1, a2 = draw(algebra_pair())
    seeds = []
    kinds = st.sampled_from([(a1, a2), (a2, a1), (a1, a2), (a2, a1), (a1, a1), (a2, a2)])
    for src, dst in draw(st.lists(kinds, max_size=10)):
        seeds.append((_value(src, draw(st.integers(-1, src.full_mask))),
                      _value(dst, draw(st.integers(-1, dst.full_mask)))))
    return a1, a2, seeds


def _fold(report):
    """A report's verdicts in ``scalarref``'s naming, both directions folded."""
    out = {c.name: c.passed for c in report.checks}
    for name in ("connective-consistency", "negation-consistency"):
        out[name] = out.pop(f"{name}:1>2") & out.pop(f"{name}:2>1")
    return out


def _pairs(a1, a2):
    """Every (x, y) over the union of both star lattices."""
    elements = [*a1.star_lattice(), *a2.star_lattice()]
    return ((x, y) for x in elements for y in elements)


@FUZZ
@given(seed_sets())
def test_close_matches_fixpoint_and_products(case):
    a1, a2, seeds = case
    fast, ref = close(seeds, a1, a2), denseref.close(seeds, a1, a2)
    assert np.array_equal(fast.rows12, ref.rows12)
    assert np.array_equal(fast.rows21, ref.rows21)
    assert [list(map(tuple, e.tolist())) for e in (fast.extra1, fast.extra2)] == [
        sorted(ref.extra1), sorted(ref.extra2)]
    for x, y in _pairs(a1, a2):
        assert fast.holds(x, y) == ref.holds(x, y)
    report = check_implication_axioms(fast)
    assert report.to_dict() == denseref.check_implication_axioms(ref).to_dict()
    assert _fold(report) == scalarref.relation_verdicts(fast)
    assert fast.cross_pair_count() == int(ref.rows12.sum() + ref.rows21.sum())


@st.composite
def hand_built(draw):
    """Random dense rows at one of three densities, closed by the reference
    sweeps and passed in as seeds, with extra within-language pairs drawn
    from the bounces that leave the order (to excuse some of them) and from
    anywhere."""
    a1, a2 = draw(algebra_pair())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.05, 0.3, 0.7]))
    rows12 = rng.random((a1.full_mask + 2, a2.full_mask + 2)) < density
    rows21 = rng.random((a2.full_mask + 2, a1.full_mask + 2)) < density
    for rows, m_src, m_dst in ((rows12, a1.model_count, a2.model_count),
                               (rows21, a2.model_count, a1.model_count)):
        denseref._down_close_sources(rows, m_src)
        denseref._up_close_targets(rows, m_dst)
    seeds12, seeds21 = _seeds_of(rows12), _seeds_of(rows21)
    r = CrossImplication(a1, a2, seeds12, seeds21)
    extras = []
    for rows_a, rows_b, algebra in ((r.rows12, r.rows21, a1), (r.rows21, r.rows12, a2)):
        outside = (denseref._bool_matmul(rows_a, rows_b)
                   & ~denseref._within_matrix(algebra.model_count))
        pairs = [(int(i), int(j)) for i, j in np.argwhere(outside)]
        n = algebra.full_mask + 2
        picked = {p for p in pairs if draw(st.booleans())}
        picked |= set(draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                    max_size=2)))
        extras.append(frozenset(picked))
    return CrossImplication(a1, a2, seeds12, seeds21, *extras)


@FUZZ
@given(hand_built())
def test_checks_match_products_on_hand_built_relations(r):
    assert check_implication_axioms(r).to_dict() == denseref.check_implication_axioms(
        denseref.dense_relation(r)).to_dict()


@st.composite
def seed_arrays(draw, src, dst):
    """A few cross seeds as (source masks, target masks), either end
    sometimes the star; mostly one seed per source, so that rows tend to be
    principal, sometimes two."""
    xs = draw(st.lists(st.integers(-1, src.full_mask), max_size=6))
    xs += draw(st.lists(st.sampled_from(xs), max_size=2)) if xs else []
    ts = [draw(st.integers(-1, dst.full_mask)) for _ in xs]
    return np.array(xs, dtype=np.int64), np.array(ts, dtype=np.int64)


@st.composite
def closed_relations(draw):
    """Relations held as images: a closure of seed sets, raw cross seeds
    whose bounces may leave the orders, or the relation of a consistent
    translation."""
    kind = draw(st.sampled_from(["close", "seeds", "seeds", "translation"]))
    if kind == "close":
        a1, a2, seeds = draw(seed_sets())
        return close(seeds, a1, a2)
    if kind == "seeds":
        a1, a2 = draw(algebra_pair())
        return CrossImplication(a1, a2, draw(seed_arrays(a1, a2)),
                                draw(seed_arrays(a2, a1)))
    t = random_consistent_translation(draw(st.randoms(use_true_random=False)), max_atoms=4)
    return implication_from_translation(t)


@FUZZ
@given(closed_relations())
def test_cover_reduction_matches_strict_order_products(r):
    """Also: reports, pair counts, ``holds``, DOT text and read-back
    translations equal those the dense references give on the same rows; a
    translation built from the atom images equals the four operators read
    off the relation's image vectors and off its dense rows."""
    m1, m2 = r.algebra1.model_count, r.algebra2.model_count
    for rows, m_src, m_dst in ((r.rows12, m1, m2), (r.rows21, m2, m1)):
        assert np.array_equal(_reduced_cross(rows),
                              denseref.reduced_cross(rows, m_src, m_dst))
    dense = denseref.dense_relation(r)
    report = check_implication_axioms(r)
    assert report.to_dict() == denseref.check_implication_axioms(dense).to_dict()
    assert r.cross_pair_count() == int(r.rows12.sum() + r.rows21.sum())
    for x, y in _pairs(r.algebra1, r.algebra2):
        assert r.holds(x, y) == dense.holds(x, y)
    for full in (False, True):
        assert "".join(cross_dot(r, full)) == denseref.cross_dot(dense, full)
    if report.passed:
        assert (translation_from_implication(r) == denseref.translation_from_images(r)
                == denseref.translation_from_rows(dense))


# --- memory ------------------------------------------------------------------


def _peak_mb(fn):
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak / 2**20


def _write_languages(path, cells1, cells2):
    for i, (prefix, n) in enumerate((("a", cells1), ("b", cells2)), start=1):
        spec = make_cell_spec(f"lang{i}", [f"{prefix}{k}" for k in range(n)])
        (path / f"lang{i}.lang").write_text(format_language(spec))


def _formula(prefix, cells):
    return " | ".join(f"{prefix}{k}" for k in sorted(cells)) or "false"


def test_relation_on_ten_by_ten_cover_seeds_stays_small(tmp_path):
    """Every proposition of either side implies the cells it overlaps, on
    [0, 20): left cells [2k, 2k+2), right cells cut at 1, 3, ..., 17.  The
    product-based closure and checks peaked at 15 and 17 MB here."""
    left = [(2 * k, 2 * k + 2) for k in range(10)]
    cuts = [0, *range(1, 18, 2), 20]
    right = list(zip(cuts, cuts[1:]))
    _write_languages(tmp_path, 10, 10)
    sides = (("lang1", "a", left), ("lang2", "b", right))
    lines = []
    for (src_name, sp, src), (dst_name, dp, dst) in (sides, sides[::-1]):
        for mask in range(1 << 10):
            cells = [k for k in range(10) if mask >> k & 1]
            cover = {j for k in cells for j, (lo, hi) in enumerate(dst)
                     if lo < src[k][1] and src[k][0] < hi}
            lines.append(f"imp: {src_name}.{_formula(sp, cells)} => "
                         f"{dst_name}.{_formula(dp, cover)}")
    (tmp_path / "implication.imp").write_text("\n".join(lines) + "\n")
    c = load_corpus(tmp_path)
    seeds = parse_implication_seeds((tmp_path / "implication.imp").read_text(),
                                    c.algebra1, c.algebra2)
    r, peak = _peak_mb(lambda: close(seeds, c.algebra1, c.algebra2))
    assert r == c.relation and peak < 8
    report, peak = _peak_mb(lambda: check_implication_axioms(r))
    assert report.passed and peak < 8


def test_dense_fallback_answers_on_ten_by_ten_cells(tmp_path):
    """Identity cover seeds on 10 x 10 cells with a0 narrowed to false: the
    closure forces within-language pairs, and the dense fallback over both
    lattices (2052 propositions) gives a verdict with first witnesses."""
    d = write_cover_pair(tmp_path, 10)
    c = load_corpus(d)
    seeds = parse_implication_seeds((d / "narrowed.imp").read_text(),
                                    c.algebra1, c.algebra2)
    r = close(seeds, c.algebra1, c.algebra2)
    witnesses = {check.name: None if check.passed
                 else tuple(x.algebra.formula_text(x) for x in check.witness)
                 for check in check_implication_axioms(r).checks}
    assert witnesses == {
        "extensibility:1": ("a0", "false"),
        "extensibility:2": ("b0", "false"),
        "transitivity": None,
        "bound-consistency": None,
        "connective-consistency:1>2": ("b9 | b0", "a9"),
        "connective-consistency:2>1": ("a9 | a0", "b9"),
        "negation-consistency:1>2": ("a9 | a0", "b0"),
        "negation-consistency:2>1": ("b9 | b0", "a0"),
    }


def test_transitivity_excuses_many_forced_pairs_as_the_reference_does(tmp_path):
    """8 x 8 cover seeds plus two seeds whose closure forces 43 512
    within-language pairs a side, each an excuse the transitivity check
    must honour: every check and witness is the reference's."""
    d = write_cover_pair(tmp_path, 8)
    (d / "implication.imp").write_text((d / "cover.imp").read_text()
                                       + "imp: lang1.* => lang1.a1\n"
                                       + "imp: lang2.b0 | b1 => lang2.b0\n")
    r = load_corpus(d).relation
    assert len(r.extra1) == len(r.extra2) == 43512
    assert r.axiom_report().to_dict() == denseref.check_implication_axioms(
        denseref.dense_relation(r)).to_dict()


def test_cross_dot_of_a_twelve_cell_refinement_stays_small(tmp_path):
    """An 8-cell partition against a 12-cell refinement of it; the
    strict-order products needed 147 MB here.  Written into a stream, the
    0.84 MB of text goes out a block at a time: the whole text held as one
    string, and its edges as arrays, peaked at 4.56 MB."""
    parent = [j * 8 // 12 for j in range(12)]
    _write_languages(tmp_path, 8, 12)
    lines = [f"outer 1>2: a{i} => {_formula('b', [j for j in range(12) if parent[j] == i])}"
             for i in range(8)]
    lines += [f"outer 2>1: b{j} => a{parent[j]}" for j in range(12)]
    (tmp_path / "translation.tr").write_text("\n".join(lines) + "\n")
    r = load_corpus(tmp_path).require_relation()
    dot, peak = _peak_mb(lambda: "".join(cross_dot(r)))
    assert dot.startswith("digraph cross {") and peak < 32
    out = io.StringIO()
    _, peak = _peak_mb(lambda: out.writelines(cross_dot(r)))
    assert out.getvalue() == dot and peak < 2.5


def test_sixteen_cell_identity_relation_never_builds_dense_rows(tmp_path, monkeypatch):
    """The relation of the 16 x 16 identity translation is checked, counted
    and read back from its images; building its rows (two 2^32-cell
    matrices) is refused.  Before the image form this raised MemoryError."""
    t = load_corpus(write_cell_corpus(tmp_path, 16, star=False)).translation

    def refuse(images):
        raise AssertionError("dense rows built")

    monkeypatch.setattr(implication._Images, "dense_rows", refuse)
    r = implication_from_translation(t)
    assert check_implication_axioms(r).passed
    assert r.cross_pair_count() == 2 * (3**16 + 2**16 + 1)
    assert translation_from_implication(r) == t
    monkeypatch.undo()
    with pytest.raises(AlgebraTooLargeError):
        r.rows12


def test_verify_prop2_and_equality_answer_at_fourteen_cells(tmp_path, monkeypatch):
    """On the 14 x 14 identity pair, whose dense rows (2^28 pairs a
    direction) are refused, Proposition 2 is checked and relations compare
    from their meets."""
    t = load_corpus(write_cell_corpus(tmp_path, 14, star=False)).translation

    def refuse(images):
        raise AssertionError("dense rows built")

    monkeypatch.setattr(implication._Images, "dense_rows", refuse)
    space = joint_space_from_translation(t)
    assert verify_prop2(t, space).passed
    swapped = [(a, {0: 1, 1: 0}.get(b, b)) for a, b in space.states]
    report = verify_prop2(t, JointStateSpace(t.algebra1, t.algebra2, swapped))
    # the first model's proposition no longer lies inside its twin's event
    assert tuple(x.mask for x in report.check("implication-matches-containment").witness) \
        == (1, 1)
    r = implication_from_translation(t)
    assert r == implication_from_translation(t)
    fwd, back = r.images
    # the first model's proposition also implies the contradiction
    bigger = CrossImplication(r.algebra1, r.algebra2, (np.append(fwd.xs, 1),
                                                       np.append(fwd.ts, 0)),
                              (back.xs, back.ts))
    assert bigger.principal_meets is not None and r != bigger


# --- equality ---------------------------------------------------------------------


@st.composite
def relation_pairs(draw):
    """Two relations on one pair of algebras, each a closure of seeds or raw
    cross seeds: the second is the first rebuilt from its dense rows, an
    independent draw, or the first with one more seed."""
    a1, a2 = draw(algebra_pair())
    kinds = st.sampled_from([(a1, a2), (a2, a1), (a1, a2), (a2, a1), (a1, a1), (a2, a2)])

    def seeds():
        return [(_value(src, draw(st.integers(-1, src.full_mask))),
                 _value(dst, draw(st.integers(-1, dst.full_mask))))
                for src, dst in draw(st.lists(kinds, max_size=8))]

    def relation():
        if draw(st.booleans()):
            return close(seeds(), a1, a2)
        return CrossImplication(a1, a2, draw(seed_arrays(a1, a2)), draw(seed_arrays(a2, a1)))

    first = relation()
    how = draw(st.sampled_from(["rebuilt", "other", "one-more"]))
    if how == "rebuilt":
        second = CrossImplication(a1, a2, _seeds_of(first.rows12), _seeds_of(first.rows21),
                                  first.extra1, first.extra2)
    elif how == "other":
        second = relation()
    else:
        (xs, ts), back = (first.images[0].xs, first.images[0].ts), first.images[1]
        x, y = draw(st.integers(-1, a1.full_mask)), draw(st.integers(-1, a2.full_mask))
        second = CrossImplication(a1, a2, (np.append(xs, x), np.append(ts, y)),
                                  (back.xs, back.ts), first.extra1, first.extra2)
    return first, second


@FUZZ
@given(relation_pairs())
def test_equality_matches_dense_rows(pair):
    r, s = pair
    dense_r, dense_s = denseref.dense_relation(r), denseref.dense_relation(s)
    assert (r == s) == denseref.relations_equal(dense_r, dense_s)
    assert (s == r) == denseref.relations_equal(dense_s, dense_r)
    assert r == r and not r == r.algebra1


def test_equality_on_cover_and_narrowed_seed_files(tmp_path):
    """The 6 x 6 cover seeds and three edits of them: ``a0`` narrowed to
    ``false`` or moved to ``b1`` (both close with extras), or its seed
    dropped.  Some rows of the last two are not principal.  Each relation
    equals its rebuild from dense rows and no other one, as a comparison of
    dense rows says."""
    d = write_cover_pair(tmp_path, 6)
    c = load_corpus(d)
    cover = (d / "cover.imp").read_text()
    line = "imp: lang1.a0 => lang2.b0\n"
    texts = [cover, (d / "narrowed.imp").read_text(),
             cover.replace(line, "imp: lang1.a0 => lang2.b1\n", 1),
             cover.replace(line, "", 1)]
    relations = []
    for text in texts:
        r = close(parse_implication_seeds(text, c.algebra1, c.algebra2),
                  c.algebra1, c.algebra2)
        rebuilt = CrossImplication(r.algebra1, r.algebra2, _seeds_of(r.rows12),
                                   _seeds_of(r.rows21), r.extra1, r.extra2)
        assert r == rebuilt and denseref.relations_equal(denseref.dense_relation(r),
                                                         denseref.dense_relation(rebuilt))
        relations.append(r)
    assert [r.principal_meets is None for r in relations] == [False, False, True, True]
    assert [len(r.extra1) > 0 for r in relations] == [False, True, True, False]
    for r in relations:
        for s in relations:
            assert (r == s) == (r is s) == denseref.relations_equal(
                denseref.dense_relation(r), denseref.dense_relation(s))
