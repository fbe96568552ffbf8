import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crosslang.cli as cli
import seedref
from crosslang import Algebra, ParseError, Star, close, parse_language
from crosslang.corpus import (
    load_algebras,
    load_corpus,
    parse_implication_file,
    parse_implication_seeds,
    parse_translation_file,
)
from crosslang.randgen import cell_algebra
from conftest import CORPUS, write_cover_pair
from test_language import _FRAGMENTS


def pair():
    return cell_algebra("first", 2, "p"), cell_algebra("second", 2, "q")


def test_translation_file_parses_atom_lines():
    a1, a2 = pair()
    text = (
        "# demo\n"
        "outer 1>2: p0 => q0\n"
        "outer 1>2: p1 => q1\n"
        "outer 2>1: q0 => p0\n"
        "outer 2>1: q1 => p1\n"
    )
    t = parse_translation_file(text, a1, a2)
    assert t.apply("1>2", "outer", a1.denote_text("p0")) == a2.denote_text("q0")
    assert t.apply("1>2", "inner", a1.denote_text("p0 | p1")) == a2.top


def test_translation_file_star_image_allowed():
    a1, a2 = pair()
    text = (
        "outer 1>2: p0 => q0\n"
        "outer 1>2: p1 => *\n"
        "outer 2>1: q0 => p0\n"
        "outer 2>1: q1 => p0 | p1\n"
    )
    t = parse_translation_file(text, a1, a2)
    assert isinstance(t.apply("1>2", "outer", a1.denote_text("p1")), Star)


def test_translation_file_rejects_non_atom_source():
    a1, a2 = pair()
    with pytest.raises(ParseError):
        parse_translation_file("outer 1>2: p0 | p1 => q0\n", a1, a2)
    with pytest.raises(ParseError):
        parse_translation_file("outer 1>2: * => q0\n", a1, a2)


def test_translation_file_rejects_malformed_lines():
    a1, a2 = pair()
    with pytest.raises(ParseError):
        parse_translation_file("outer 1to2: p0 => q0\n", a1, a2)
    with pytest.raises(ParseError):
        parse_translation_file("outer 1>2: p0 -- q0\n", a1, a2)
    with pytest.raises(ParseError):
        parse_translation_file("something else\n", a1, a2)


def test_translation_file_requires_total_atom_cover():
    a1, a2 = pair()
    from crosslang import CrosslangError

    with pytest.raises(CrosslangError):
        parse_translation_file(
            "outer 1>2: p0 => q0\nouter 2>1: q0 => p0\nouter 2>1: q1 => p1\n",
            a1, a2,
        )


def test_override_replaces_single_entry():
    a1, a2 = pair()
    base = (
        "outer 1>2: p0 => q0\nouter 1>2: p1 => q1\n"
        "outer 2>1: q0 => p0\nouter 2>1: q1 => p1\n"
    )
    t = parse_translation_file(base, a1, a2)
    t2 = parse_translation_file(base + "override inner 1>2: p0 => q0 | q1\n", a1, a2)
    assert t.apply("1>2", "inner", a1.denote_text("p0")) == a2.denote_text("q0")
    assert t2.apply("1>2", "inner", a1.denote_text("p0")) == a2.denote_text("q0 | q1")
    changed = [
        (d, m, int(k)) for d in ("1>2", "2>1") for m in ("inner", "outer")
        for k in np.flatnonzero(t2.array(d, m) != t.array(d, m))
    ]
    assert changed == [("1>2", "inner", a1.denote_text("p0").mask)]


def test_implication_seeds_parse_with_star():
    a1, a2 = pair()
    seeds = parse_implication_seeds(
        "imp: first.p0 => second.q0\nimp: second.* => first.*\n", a1, a2
    )
    assert seeds[0] == (a1.denote_text("p0"), a2.denote_text("q0"))
    assert seeds[1] == (a2.star, a1.star)


def test_implication_seeds_share_repeated_endpoints_and_name_the_failing_line():
    a1, a2 = pair()
    good = "imp: first.p0 => second.q0\nimp: first. p0  => second.q0\n"
    first, second = parse_implication_seeds(good, a1, a2)
    assert first == second == (a1.denote_text("p0"), a2.denote_text("q0"))
    with pytest.raises(ParseError) as err:
        parse_implication_seeds(good + "imp: first.p0 => second.zz\n", a1, a2)
    assert err.value.line == 3


def test_implication_seeds_reject_unknown_language():
    a1, a2 = pair()
    with pytest.raises(ParseError):
        parse_implication_seeds("imp: third.p0 => second.q0\n", a1, a2)
    with pytest.raises(ParseError):
        parse_implication_seeds("imp: first.p0 -> second.q0\n", a1, a2)


def test_load_corpus_requires_pair_file(tmp_path):
    (tmp_path / "lang1.lang").write_text("language a\natoms: x\n")
    (tmp_path / "lang2.lang").write_text("language b\natoms: y\n")
    with pytest.raises(FileNotFoundError):
        load_corpus(tmp_path)


def test_all_shipped_corpora_load():
    for name in ("oil-prices", "platypus", "fixed-point-gap",
                 "adjunction-violation", "nested-grids"):
        corpus = load_corpus(CORPUS / name)
        assert corpus.algebra1.name != corpus.algebra2.name


def test_platypus_translation_and_relation_files_agree(platypus):
    from crosslang import implication_from_translation

    assert implication_from_translation(platypus.translation) == platypus.relation


# --- the seed reader against the one it replaced --------------------------------


def _seed_algebras():
    return tuple(Algebra.from_spec(parse_language(f"language {name}\natoms: {atoms}"))
                 for name, atoms in (("first", "p q"), ("second", "x1 _y")))


# the formula alphabet of the parser's differential test, plus the pieces of
# a seed line: names declared by either language (p, q; x1, _y), undeclared
# ones (r, zz), language names right and wrong
_SEED_FRAGMENTS = _FRAGMENTS + ["zz", "first", "second", "third", "imp:", ".", "=>",
                                "*", "#", "\t"]
_DECLARED = {"first": ["p", "q"], "second": ["x1", "_y"], "third": ["p"]}
_fragment_text = st.lists(st.sampled_from(_SEED_FRAGMENTS), max_size=8).map("".join)
_space = st.sampled_from(["", " ", "  ", "\t"])


def _endpoint(lang):
    """``<lang>.<formula>``: mostly a union over the names of ``lang``, now
    and then with a name it lacks, the star or free fragments."""
    names = _DECLARED[lang] * 4 + ["true", "false", "r", "zz", "x1", "p"]
    union = st.lists(st.sampled_from(names), min_size=1, max_size=3).flatmap(
        lambda words: _space.map(lambda sp: f"{sp}|{sp} ".join(words)))
    formula = st.one_of(union, union, union, st.just("*"), _fragment_text)
    return st.tuples(_space, formula).map(lambda t: f"{lang}.{t[0]}{t[1]}{t[0]}")


_lang = st.sampled_from(["first", "second", "first", "second", "third"])
_seed_line = st.builds(
    "imp:{}{}=>{}{}{}".format, _space, _lang.flatmap(_endpoint), _space,
    _lang.flatmap(_endpoint), st.sampled_from(["", " ", " # note", "#"]),
)
_seed_text = st.lists(st.one_of(_seed_line, _seed_line, _seed_line, _fragment_text),
                      max_size=4).map("\n".join)


def _seed_outcome(parse, text, a1, a2):
    try:
        return parse(text, a1, a2)
    except ParseError as exc:
        return type(exc), str(exc), exc.line, exc.column


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_seed_text)
def test_seed_reader_matches_reference(text):
    """Seeds, or error type, message, line and column, as before endpoints
    were read as mask values; and the relation of the file is the closure of
    the reference seeds."""
    a1, a2 = _seed_algebras()
    expected = _seed_outcome(seedref.parse_implication_seeds, text, a1, a2)
    assert _seed_outcome(parse_implication_seeds, text, a1, a2) == expected
    if isinstance(expected, list):
        assert parse_implication_file(text, a1, a2) == close(expected, a1, a2)


def test_translation_file_reads_unions_like_the_parser():
    a1, a2 = pair()
    base = ("outer 1>2: p0 => q0 | q1\nouter 1>2: p1 => *\n"
            "outer 2>1: q0 => false | p0\nouter 2>1: q1 => p0 | true\n")
    t = parse_translation_file(base, a1, a2)
    assert t.apply("1>2", "outer", a1.denote_text("p0")) == a2.top
    assert t.apply("2>1", "outer", a2.denote_text("q0")) == a1.denote_text("p0")
    assert t.apply("2>1", "outer", a2.denote_text("q1")) == a1.top
    with pytest.raises(ParseError) as err:
        parse_translation_file(base + "override inner 1>2: p0 => q0 | zz\n", a1, a2)
    assert (type(err.value).__name__, err.value.line, err.value.column) == (
        "UndeclaredAtomError", 5, 6)


# --- seed files: the relation and the report, as the reference gives them -------

_STARS_AND_SAME_LANGUAGE = """\
imp: first.p0 => second.*
imp: second.* => first.*
imp: first.false => second.false
imp: second.q0 => first.true   # a comment
imp: first.p0 => first.p0 | p1
imp: first.* => first.p1
imp: second.q0 | q1 => second.q0
"""

_STARS = """\
imp: first.* => second.*
imp: second.* => first.*
imp: first.p0 => second.q0 | q1
imp: second.q1 => first.*
"""


@pytest.fixture(scope="module")
def seed_files(tmp_path_factory):
    """(lang1, lang2, seed file) paths of every case the seed reader must
    agree with the reference on."""
    cases = {}
    for m in (6, 10):
        d = write_cover_pair(tmp_path_factory.mktemp(f"cells{m}"), m)
        for name in ("cover", "narrowed"):
            cases[f"{name}{m}"] = (d / "lang1.lang", d / "lang2.lang", d / f"{name}.imp")
    d = tmp_path_factory.mktemp("small")
    for name, atoms in (("first", "p"), ("second", "q")):
        cells = " ".join(f"{atoms}{i}" for i in range(2))
        (d / f"{name}.lang").write_text(
            f"language {name}\natoms: {cells}\nbelieve: {atoms}0 | {atoms}1\n"
            f"believe: !({atoms}0 & {atoms}1)\n")
    for name, text in (("stars", _STARS), ("same-language", _STARS_AND_SAME_LANGUAGE)):
        (d / f"{name}.imp").write_text(text)
        cases[name] = (d / "first.lang", d / "second.lang", d / f"{name}.imp")
    for imp in sorted(CORPUS.glob("*/implication.imp")):
        cases[imp.parent.name] = (imp.parent / "lang1.lang", imp.parent / "lang2.lang", imp)
    return cases


SEED_CASES = ["cover6", "cover10", "narrowed6", "narrowed10", "stars", "same-language",
              *sorted(p.parent.name for p in CORPUS.glob("*/implication.imp"))]


def _reference_file(text, a1, a2):
    return close(seedref.parse_implication_seeds(text, a1, a2), a1, a2)


def _check_implication(files):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["check", *map(str, files), "--mode", "implication",
                         "--format", "json"])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", SEED_CASES)
def test_seed_file_gives_the_reference_relation(seed_files, case):
    lang1, lang2, imp = seed_files[case]
    a1, a2 = load_algebras(lang1, lang2)
    text = imp.read_text()
    r, ref = parse_implication_file(text, a1, a2), _reference_file(text, a1, a2)
    for images, ref_images in zip(r.images, ref.images):
        for field in ("xs", "ts", "meet", "low", "join", "high"):
            assert np.array_equal(getattr(images, field), getattr(ref_images, field))
    assert (r.extra1, r.extra2) == (ref.extra1, ref.extra2)


@pytest.mark.parametrize("case", SEED_CASES)
def test_check_implication_prints_the_reference_bytes(seed_files, case, monkeypatch):
    files = seed_files[case]
    got = _check_implication(files)
    monkeypatch.setattr(cli, "parse_implication_file", _reference_file)
    assert got == _check_implication(files)


def test_narrowed_sixteen_by_sixteen_seed_file_is_refused(tmp_path):
    """The dense fallback refuses 16 x 16 cells with the same one line."""
    d = write_cover_pair(tmp_path, 16)
    assert _check_implication((d / "lang1.lang", d / "lang2.lang", d / "narrowed.imp")) == (
        2, "", "error: closure forces within-language pairs and the algebras are "
               "too large for the dense fallback\n")
