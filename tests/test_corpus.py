import numpy as np
import pytest

from crosslang import ParseError, Star
from crosslang.corpus import (
    load_corpus,
    parse_implication_seeds,
    parse_translation_file,
)
from crosslang.randgen import cell_algebra
from conftest import CORPUS


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
