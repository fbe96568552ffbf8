import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crosslang.cli as cli
import crosslang.corpus as corpus
import languageref
import seedref
import translationref
from crosslang import (
    Algebra,
    CrosslangError,
    LanguageNameClashError,
    LanguageSpec,
    ParseError,
    Star,
    close,
    enumerate_models,
    parse_language,
)
from crosslang.corpus import (
    _BLOCK_CHARS,
    load_algebras,
    load_corpus,
    parse_implication_file,
    parse_implication_seeds,
    parse_translation_file,
    read_input,
)
from crosslang.randgen import cell_algebra, write_cell_corpus
from crosslang.translation import Translation
from conftest import CORPUS, write_cover_pair
from test_language import _FRAGMENTS, belief_lines


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


@pytest.mark.parametrize("count", [0, 1, 9])
def test_translation_file_builds_one_translation(monkeypatch, count):
    """However many override lines a file has, it builds one translation,
    whose table keeps them in file order."""
    a1, a2 = pair()
    base = (
        "outer 1>2: p0 => q0\nouter 1>2: p1 => q1\n"
        "outer 2>1: q0 => p0\nouter 2>1: q1 => p1\n"
    )
    lines = [f"override inner 1>2: p0 => {'q0' if k % 2 else 'q1'}\n" for k in range(count)]
    built = []
    init = Translation.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Translation, "__init__", counted)
    t = parse_translation_file(base + "".join(lines), a1, a2)
    assert len(built) == 1
    p0 = a1.denote_text("p0")
    assert t.overrides == tuple(
        ("1>2", "inner", p0.mask, a2.denote_text("q0" if k % 2 else "q1").mask)
        for k in range(count))
    if count:
        assert t.apply("1>2", "inner", p0).mask == t.overrides[-1][3]


def test_translation_file_refuses_the_first_override_that_moves_the_star():
    a1, a2 = pair()
    base = (
        "outer 1>2: p0 => q0\nouter 1>2: p1 => q1\n"
        "outer 2>1: q0 => p0\nouter 2>1: q1 => p1\n"
        "override inner 1>2: * => *\n"
    )
    with pytest.raises(CrosslangError, match=r"^outer 2>1 map must send \* to \*$"):
        parse_translation_file(base + "override outer 2>1: * => p0\n"
                               "override inner 1>2: * => q0\n", a1, a2)


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
_space = st.sampled_from(["", " ", "  ", "\t", "\xa0"])


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
# blank and comment-only lines; line ends of every kind ``str.splitlines``
# knows, mostly "\n", and none at all, which joins two lines
_other_line = st.sampled_from(["", "  ", "# note", "\t# imp: first.p => second.x1"])
_line_end = st.sampled_from(["\n"] * 6 + ["\r\n", "\r", "\x0c", "\x85", "\u2028", ""])
_seed_text = st.lists(
    st.tuples(st.one_of(_seed_line, _seed_line, _seed_line, _fragment_text, _other_line),
              _line_end),
    max_size=4).map(lambda lines: "".join(map("".join, lines)))


def _seed_outcome(parse, text, a1, a2):
    try:
        return parse(text, a1, a2)
    except ParseError as exc:
        return type(exc), str(exc), exc.line, exc.column


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_seed_text)
@example("imp: first.p|q => second.x1\n")
@example("imp: first.p\t|  q => second.x1\n")
@example("imp: first.p q => second.x1\n")
def test_seed_reader_matches_reference(text):
    """Seeds, or error type, message, line and column, as before endpoints
    were read as mask values; and the relation of the file is the closure of
    the reference seeds."""
    a1, a2 = _seed_algebras()
    expected = _seed_outcome(seedref.parse_implication_seeds, text, a1, a2)
    assert _seed_outcome(parse_implication_seeds, text, a1, a2) == expected
    if isinstance(expected, list):
        assert parse_implication_file(text, a1, a2) == close(expected, a1, a2)


@pytest.mark.parametrize("text", [
    *(f"# note{end}imp: first.p => second.x1\n"
      for end in ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")),
    "imp: first.p q => second.x1\n",        # two names without a bar, not ``pq``
    "imp: first.p | 1p => second.x1\n",     # declared, but no formula spells it
])
def test_seed_reader_matches_reference_on_edge_lines(text):
    """Every line boundary of ``str.splitlines`` ends a comment, and a name
    is read only as the formula grammar spells it."""
    a1 = Algebra.from_spec(LanguageSpec("first", ("p", "q", "pq", "1p"), ()))
    a2 = _seed_algebras()[1]
    expected = _seed_outcome(seedref.parse_implication_seeds, text, a1, a2)
    assert _seed_outcome(parse_implication_seeds, text, a1, a2) == expected


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
    # files of several blocks, made from the 10 x 10 cover file
    lang1, lang2, cover = cases["cover10"]
    lines = cover.read_text().splitlines(keepends=True)
    assert len(cover.read_text()) > 2 * _BLOCK_CHARS
    d = cover.parent
    errors = list(lines)
    middle = len(lines) // 2
    errors[middle] = "imp: lang1.a0 & !a1 => lang2.b0 | b1   # a formula\n"
    errors.insert(middle, "# a comment over two lines:\x85# the second\n")
    errors[-3] = "imp: lang1.a1 => lang2.b1 | zz\n"
    (d / "block-errors.imp").write_text("".join(errors))
    (d / "block-stars.imp").write_text("".join(lines) + _BLOCK_STARS)
    (d / "block-crlf.imp").write_bytes("".join(lines).replace("\n", "\r\n").encode())
    for name in ("block-errors", "block-stars", "block-crlf"):
        cases[name] = (lang1, lang2, d / f"{name}.imp")
    # the small same-language file over and over: repeated endpoints, and
    # same-language seeds outside the order, in every block
    small = cases["same-language"]
    repeats = small[2].read_text() * (3 * _BLOCK_CHARS // len(small[2].read_text()))
    (small[2].parent / "block-repeats.imp").write_text(repeats)
    cases["block-repeats"] = (small[0], small[1], small[2].parent / "block-repeats.imp")
    return cases


# star seeds and same-language seeds inside the order, after the cover seeds
# of 10 x 10 cells; seeds outside the order take the dense closure, which
# the small "block-repeats" file tries instead
_BLOCK_STARS = """\
imp: lang1.a0 => lang2.*
imp: lang2.* => lang1.*
imp: lang1.false => lang2.false
imp: lang2.b0 => lang1.true   # a comment
imp: lang1.a0 => lang1.a0 | a1
imp: lang2.b0 => lang2.b0 | b1 | b2
"""

SEED_CASES = ["cover6", "cover10", "narrowed6", "narrowed10", "stars", "same-language",
              "block-errors", "block-stars", "block-crlf", "block-repeats",
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
    """The relation, or the error type, message, line and column; read
    without newline translation, so that "\\r\\n" reaches the reader."""
    lang1, lang2, imp = seed_files[case]
    a1, a2 = load_algebras(lang1, lang2)
    text = imp.read_bytes().decode()
    r = _seed_outcome(parse_implication_file, text, a1, a2)
    ref = _seed_outcome(_reference_file, text, a1, a2)
    if isinstance(ref, tuple):
        assert r == ref
        return
    for images, ref_images in zip(r.images, ref.images):
        for field in ("xs", "ts", "meet", "low", "join", "high"):
            assert np.array_equal(getattr(images, field), getattr(ref_images, field))
    assert all(map(np.array_equal, (r.extra1, r.extra2), (ref.extra1, ref.extra2)))


@pytest.mark.parametrize("case", SEED_CASES)
def test_check_implication_prints_the_reference_bytes(seed_files, case, monkeypatch):
    files = seed_files[case]
    got = _check_implication(files)
    monkeypatch.setattr(cli, "parse_implication_file", _reference_file)
    assert got == _check_implication(files)


def test_block_files_read_as_the_reference_says(seed_files):
    """The multi-block cases are what they claim: the first error is the
    undeclared name near the end, after a formula endpoint that reads; and a
    CRLF file gives the relation of its LF twin."""
    lang1, lang2, imp = seed_files["block-errors"]
    a1, a2 = load_algebras(lang1, lang2)
    lines = imp.read_text().splitlines()
    with pytest.raises(ParseError) as err:
        parse_implication_file(imp.read_text(), a1, a2)
    assert (type(err.value).__name__, err.value.line) == ("UndeclaredAtomError", len(lines) - 2)
    crlf = seed_files["block-crlf"][2].read_bytes().decode()
    assert "\r\n" in crlf
    assert parse_implication_file(crlf, a1, a2) == parse_implication_file(
        seed_files["cover10"][2].read_text(), a1, a2)


def test_narrowed_sixteen_by_sixteen_seed_file_is_refused(tmp_path):
    """The dense fallback refuses 16 x 16 cells with the same one line."""
    d = write_cover_pair(tmp_path, 16)
    assert _check_implication((d / "lang1.lang", d / "lang2.lang", d / "narrowed.imp")) == (
        2, "", "error: closure forces within-language pairs and the algebras are "
               "too large for the dense fallback\n")


# --- the load path against the readers it replaced --------------------------------

def _error(exc):
    return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


def _pair_outcome(load, texts):
    """The keys and spec of both algebras and the atom images and overrides
    of the translation, or the error's type, message, line and column."""
    try:
        a1, a2, t = load(texts)
        return (a1.keys.tolist(), a2.keys.tolist(), a1.spec, a2.spec,
                t._images["1>2"].tolist(), t._images["2>1"].tolist(), t.overrides)
    except CrosslangError as exc:
        return _error(exc)


def _load_pair(texts):
    """Through the files, as every command reads a pair."""
    with tempfile.TemporaryDirectory() as d:
        paths = [Path(d) / name for name in ("lang1.lang", "lang2.lang", "translation.tr")]
        for path, text in zip(paths, texts):
            path.write_bytes(text.encode())
        a1, a2 = load_algebras(*paths[:2])
        return a1, a2, parse_translation_file(read_input(paths[2], []), a1, a2)


def _reference_pair(texts):
    """Trees from the language reader before the cut, models from
    ``enumerate_models`` and the translation from the line reader the bulk
    pass replaced."""
    specs = [languageref.parse_language(text.replace("\r\n", "\n").replace("\r", "\n"))
             for text in texts[:2]]
    if specs[0].name == specs[1].name:
        raise LanguageNameClashError(
            f"both language files declare the language {specs[0].name!r}; "
            "the two languages of a pair need distinct names")
    a1, a2 = (Algebra(spec, enumerate_models(spec)) for spec in specs)
    text = texts[2].replace("\r\n", "\n").replace("\r", "\n")
    return a1, a2, translationref.parse_translation_file(text, a1, a2)


_CELL_BELIEFS = {
    ("p", "q", "r"): ["p | q | r", "!(p & q)", "!(p & r)", "!(q & r)"],
    ("x1", "_y"): ["x1 | _y", "!(x1 & _y)"],
}


_LINE_ENDS = ["\r\n", "\r", "\x0c", "\x85", "\u2028", ""]


@st.composite
def language_docs(draw, name, atoms, other=None):
    """Mostly a cell language ``name`` over ``atoms`` (exactly one holds),
    with its lines spaced, commented, reordered or ended in varied ways; now
    and then the ``other`` name, a bad header, a belief of any shape, or a
    stray line.  The choices are weighted through one ``Random`` that the
    example seeds."""
    rng = draw(st.randoms(use_true_random=True))

    def pick(good, bad, p_bad=0.04):
        return rng.choice(bad if rng.random() < p_bad else good)

    name = pick([name], [other or name], 0.1)

    lines = [
        pick([f"language {name}", f"language\t{name}  # named", f"  language {name}"],
             ["language 1x", "language", f"language{name}", f"language {name} x"]),
        pick(["atoms: " + " ".join(atoms), "atoms:" + "\t".join(atoms) + "  "],
             ["atoms: p p", "atoms: p true", "atoms:", "atoms: p 1q", "atoms: p q r u"]),
    ]
    cells = [text.replace(" ", pick([" ", ""], ["  ", "\t", "\xa0"], 0.3))
             for text in _CELL_BELIEFS[atoms]]
    if rng.random() < 0.15:
        cells = rng.choices(cells, k=rng.randrange(4))
    lines += ["believe: " + text for text in cells]
    if rng.random() < 0.2:
        lines.append(pick(["believe: " + draw(belief_lines())],
                          ["", "# note", " \t", "believe:", "whatever: p", "believe: !p",
                           "believe: p -> q"], 0.5))
    if rng.random() < 0.2:
        rng.shuffle(lines)
    return "".join(line + pick(["\n"], _LINE_ENDS, 0.05) for line in lines)


def _map_endpoint(names):
    union = st.lists(st.sampled_from(names * 3 + ["true", "false", "zz"]), min_size=1,
                     max_size=3).flatmap(
        lambda words: _space.map(lambda sp: f"{sp}|{sp} ".join(words)))
    return st.one_of(union, union, union, st.just("*"), st.just(f"!{names[0]}"),
                     _fragment_text)


_SIDE_NAMES = {"1>2": (["p", "q", "r"], ["x1", "_y"]), "2>1": (["x1", "_y"], ["p", "q", "r"])}
_map_head = st.sampled_from(["outer"] * 6 + ["override inner", "override outer"] * 2
                            + ["override\tinner", "outer ", "override", "inner", "outer x"])
_map_line = st.sampled_from(["1>2", "2>1", "1>2", "2>1", "1to2"]).flatmap(
    lambda d: st.builds("{} {}{}:{}{}=>{}{}{}".format, _map_head, st.just(d), _space, _space,
                        _map_endpoint(_SIDE_NAMES.get(d, _SIDE_NAMES["1>2"])[0]), _space,
                        _map_endpoint(_SIDE_NAMES.get(d, _SIDE_NAMES["1>2"])[1]),
                        st.sampled_from(["", " ", " # note", "#"])))
# every atom of the cell pair mapped, so that most files are whole
_MAP_BASE = ["outer 1>2: p => x1", "outer 1>2: q => x1 | _y", "outer 1>2: r => *",
             "outer 2>1: x1 => p | q", "outer 2>1: _y => q"]
_map_text = st.tuples(
    st.sampled_from([_MAP_BASE] * 4 + [_MAP_BASE[:-1], []]),
    st.lists(st.tuples(st.one_of(_map_line, _map_line, _map_line, _other_line,
                                 _fragment_text), _line_end), max_size=4),
    st.booleans(),
).map(lambda t: "".join(map("".join, t[1])) + "\n".join(t[0]) + "\n" if t[2]
      else "\n".join(t[0]) + "\n" + "".join(map("".join, t[1])))

_FREE5 = "language A\natoms: p q r s t\n"                   # 32 models
_CELLS17 = "language A\natoms: " + " ".join(f"c{i}" for i in range(17)) + "\nbelieve: " \
    + " | ".join(f"c{i}" for i in range(17)) + "\n" + "".join(
        f"believe: !(c{i} & c{j})\n" for i in range(17) for j in range(i + 1, 17))
_ATOMS21 = "language A\natoms: " + " ".join(f"a{i}" for i in range(21)) + "\n"
_CELLS_A = "language A\natoms: p q r\nbelieve: p | q | r\nbelieve: !(p & q)\n" \
           "believe: !(p & r)\nbelieve: !(q & r)\n"
_CELLS_B = "language B\natoms: x1 _y\nbelieve: x1 | _y\nbelieve: !(x1 & _y)\n"
_MAP_TEXT = "\n".join(_MAP_BASE) + "\n"
# whole mapping lines that fill more than one block of the readers
_MAP_BLOCK = _MAP_TEXT * (_BLOCK_CHARS // len(_MAP_TEXT) + 1)
# an undeclared name, then a malformed line; a non-atom outer source, then
# a malformed line: the first error of each pair is the one raised, also
# when the malformed line is in a later block
_ERROR_PAIRS = ["outer 1>2: p => x1\nouter 1>2: q => x1 | zz\nouter 1>2 r => *\n",
                _MAP_TEXT + "outer 1>2: p | q => x1\noverride inner 1>2\n",
                "outer 1>2: q => zz\n" + _MAP_BLOCK + "outer 1>2 r => *\n",
                "outer 1>2: p | q => x1\n" + _MAP_BLOCK + "override inner 1>2\n"]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.tuples(language_docs("A", ("p", "q", "r")),
                 language_docs("B", ("x1", "_y"), "A"),
                 _map_text))
# a syntax error in lang2 beats a contradiction in lang1
@example((_CELLS_A + "believe: !(p)\nbelieve: !(q)\nbelieve: !(r)\n",
          _CELLS_B + "believe: x1 &\n", _MAP_TEXT))
# a syntax error beats the 20-atom cap, and the 16-model cap
@example((_ATOMS21, _CELLS_B + "believe: (x1\n", _MAP_TEXT))
@example((_FREE5, _CELLS_B, _MAP_TEXT + "outer 1>2: p => x1 &\n"))
# the 16-model cap beats a missing outer image
@example((_FREE5, _CELLS_B, "outer 2>1: x1 => p\n"))
# the last of duplicate outer lines wins, and overrides keep file order
@example((_CELLS_A, _CELLS_B, _MAP_TEXT + "outer 1>2: p => _y\nouter 2>1: x1 => r\n"
          "override inner 1>2: p | q => x1\noverride inner 1>2: p | q => _y\n"))
@example((_CELLS_A, _CELLS_B, _ERROR_PAIRS[0]))
@example((_CELLS_A, _CELLS_B, _ERROR_PAIRS[1]))
@example((_CELLS_A, _CELLS_B, _ERROR_PAIRS[2]))
@example((_CELLS_A, _CELLS_B, _ERROR_PAIRS[3]))
# a formula endpoint beyond the bulk pass's 16 models, then a malformed line
@example((_CELLS17, _CELLS_B, "outer 1>2: c0 => !x1\nouter 1>2 c1 => x1\n"))
# a header error beats an earlier bad belief
@example((_CELLS_A + "believe: p &\nlanguage B\n", _CELLS_B, _MAP_TEXT))
# one tab-spaced direct belief among direct ones
@example((_CELLS_A.replace("!(p & r)", "!(p\t&\tr)"), _CELLS_B, _MAP_TEXT))
# an undeclared name in a direct belief beats a later syntax error
@example((_CELLS_A + "believe: p | zz\nbelieve: (q\n", _CELLS_B, _MAP_TEXT))
def test_loaded_pair_matches_the_reference_readers(texts):
    """Two language files and a translation file, read as every command
    reads them: each algebra's keys are ``enumerate_models`` of the spec the
    reader before the cut builds, and its spec, like ``parse_language``'s,
    is that spec; the translation has the atom images and overrides of the
    line reader the bulk pass replaced; or both raise the same error with
    the same message, line and column."""
    outcome = _pair_outcome(_load_pair, texts)
    assert outcome == _pair_outcome(_reference_pair, texts)
    if not isinstance(outcome[0], type):
        assert outcome[2:4] == tuple(parse_language(text.replace("\r\n", "\n").replace(
            "\r", "\n")) for text in texts[:2])


def _map_outcome(parse, text, a1, a2):
    try:
        t = parse(text, a1, a2)
        return t._images["1>2"].tolist(), t._images["2>1"].tolist(), t.overrides
    except CrosslangError as exc:
        return _error(exc)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_map_text)
@example("outer 1>2: p => x1\nouter 1>2: q => x1 | _y\nouter 1>2: r => *\n"
         "outer 2>1: x1 => p | q\nouter 2>1: _y => q\nouter 2>1: _y => r | true\n")
@example(_MAP_TEXT + "override outer 2>1: * => p\n")
@example(_MAP_TEXT + "override inner 1>2: p | * => x1\n")
@example(_MAP_TEXT.replace("q => x1 | _y", "q => x1 _y"))
@example(_MAP_TEXT.replace("outer 1>2: p", "outer 1>2: p | q"))
@example(_MAP_TEXT.replace("\n", "\r\n"))
@example(_MAP_TEXT.replace("\n", "  # note\x85", 1))
@example(_ERROR_PAIRS[0])
@example(_ERROR_PAIRS[1])
@example(_ERROR_PAIRS[2])
@example(_ERROR_PAIRS[3])
def test_translation_reader_matches_reference(text):
    """Atom images and overrides, or the error type, message, line and
    column, as the line reader the bulk pass replaced gives them."""
    a1 = Algebra.from_spec(parse_language(_CELLS_A))
    a2 = Algebra.from_spec(parse_language(_CELLS_B))
    assert (_map_outcome(parse_translation_file, text, a1, a2)
            == _map_outcome(translationref.parse_translation_file, text, a1, a2))


def test_override_file_values_every_endpoint_in_bulk(tmp_path, monkeypatch):
    """The 16 x 16 identity pair with every derived inner 1>2 value restated
    as an override: the bulk pass reads it whole, no endpoint goes through
    the line reader, and the translation is the reference's."""
    d = write_cell_corpus(tmp_path, 16, star=False)
    a1, a2 = load_algebras(d / "lang1.lang", d / "lang2.lang")
    derived = parse_translation_file((d / "translation.tr").read_text(), a1, a2)
    texts = a1.formula_texts(), a2.formula_texts()
    inner = derived.array("1>2", "inner")[:-1].tolist()
    text = (d / "translation.tr").read_text() + "".join(
        f"override inner 1>2: {texts[0][x]} => {texts[1][y]}\n" for x, y in enumerate(inner))
    expected = _map_outcome(translationref.parse_translation_file, text, a1, a2)
    monkeypatch.setattr(corpus, "_parse_value", None)
    assert _map_outcome(parse_translation_file, text, a1, a2) == expected
    assert len(expected[2]) == 1 << 16


def _endpoints(line: str, a1, a2) -> list:
    """The (language, text) of either endpoint of a mapping or seed line."""
    head, _, body = line.split("#", 1)[0].partition(":")
    ends = [end.strip() for end in body.partition("=>")[::2]]
    if head == "imp":
        return [tuple(part.strip() for part in end.split(".", 1)) for end in ends]
    sides = (a1.name, a2.name)[::1 if head.endswith("1>2") else -1]
    return list(zip(sides, ends))


def test_only_a_refused_block_is_valued_a_row_at_a_time(tmp_path, monkeypatch):
    """About three blocks of mapping lines, and a cover-seed file of a
    10-cell pair, whose last line has a formula endpoint: the bulk pass
    values the first blocks, and only the last block's endpoints go through
    ``_parse_value``, each distinct one once; the result is the
    reference's.  Without that line, the seed file is read with no call."""
    a1 = Algebra.from_spec(parse_language(_CELLS_A))
    a2 = Algebra.from_spec(parse_language(_CELLS_B))
    d = write_cover_pair(tmp_path, 10)
    s1, s2 = load_algebras(d / "lang1.lang", d / "lang2.lang")
    cover = (d / "cover.imp").read_text()
    assert len(cover) > 2 * _BLOCK_CHARS
    parse_value = corpus._parse_value
    monkeypatch.setattr(corpus, "_parse_value", None)
    assert _seed_outcome(parse_implication_seeds, cover, s1, s2) == _seed_outcome(
        seedref.parse_implication_seeds, cover, s1, s2)
    cases = [(_MAP_TEXT * (3 * _BLOCK_CHARS // len(_MAP_TEXT)) + "outer 2>1: _y => !(p | r)\n",
              a1, a2, parse_translation_file, translationref.parse_translation_file,
              _map_outcome),
             (cover + "imp: lang1.a0 & !a1 => lang2.b0 | b1\n", s1, s2,
              parse_implication_seeds, seedref.parse_implication_seeds, _seed_outcome)]
    for text, x1, x2, parse, reference, outcome in cases:
        blocks = list(corpus._blocks(text))
        assert len(blocks) == 3
        first = text.count("\n", 0, len(text) - len(blocks[-1])) + 1
        calls = []
        monkeypatch.setattr(corpus, "_parse_value", lambda end, algebra, lineno: calls.append(
            (lineno, algebra.name, end)) or parse_value(end, algebra, lineno))
        assert outcome(parse, text, x1, x2) == outcome(reference, text, x1, x2)
        assert min(lineno for lineno, _, _ in calls) >= first
        assert sorted(call[1:] for call in calls) == sorted(
            {end for line in blocks[-1].splitlines() for end in _endpoints(line, x1, x2)})
