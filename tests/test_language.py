import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import parserref

from crosslang import (
    DuplicateAtomError,
    ParseError,
    UndeclaredAtomError,
    format_formula,
    format_language,
    parse_formula,
    parse_language,
)
from crosslang.language import (
    And,
    Arrow,
    Atom,
    LanguageSpec,
    Not,
    Or,
    _cut_belief,
    _tree,
)
from generators import random_formula


def test_parse_language_basic():
    spec = parse_language("language A\natoms: p q\nbelieve: p | q")
    assert spec.name == "A"
    assert spec.elementary == ("p", "q")
    assert spec.beliefs == (Or(Atom("p"), Atom("q")),)


def test_duplicate_atom_rejected():
    with pytest.raises(DuplicateAtomError):
        parse_language("language A\natoms: p p")


def test_missing_sections_rejected():
    with pytest.raises(ParseError):
        parse_language("atoms: p")
    with pytest.raises(ParseError):
        parse_language("language A")
    with pytest.raises(ParseError):
        parse_language("language A\natoms: p\nwhatever: p")


def test_comments_and_blank_lines_ignored():
    spec = parse_language("# intro\nlanguage A\n\natoms: p q  # two\nbelieve: p\n")
    assert spec.elementary == ("p", "q")
    assert len(spec.beliefs) == 1


def test_precedence_negation_binds_tightest():
    spec = parse_language("language A\natoms: p q")
    assert parse_formula("!p & q", spec) == And(Not(Atom("p")), Atom("q"))


def test_precedence_and_over_or_over_arrow():
    f = parse_formula("a & b | c -> d")
    assert isinstance(f, Arrow)
    assert f.left == Or(And(Atom("a"), Atom("b")), Atom("c"))


def test_parentheses_override():
    assert parse_formula("!(p & q)") == Not(And(Atom("p"), Atom("q")))


def test_undeclared_atom_rejected_with_position():
    spec = parse_language("language A\natoms: p q")
    with pytest.raises(UndeclaredAtomError) as exc:
        parse_formula("p & r", spec)
    assert exc.value.column == 5


def test_syntax_error_reports_expectation():
    with pytest.raises(ParseError) as exc:
        parse_formula("p & ")
    assert "expected" in str(exc.value)
    with pytest.raises(ParseError):
        parse_formula("p q")
    with pytest.raises(ParseError):
        parse_formula("(p")


def test_format_parse_roundtrip_on_random_asts():
    rng = random.Random(11)
    spec = parse_language("language A\natoms: p q r s")
    for _ in range(300):
        f = random_formula(rng, spec, depth=4)
        assert parse_formula(format_formula(f), spec) == f


def test_parse_format_fixpoint_on_documents():
    text = "language A\natoms: p q\nbelieve: p | q\nbelieve: !(p & q)\n"
    spec = parse_language(text)
    assert format_language(spec) == text
    assert parse_language(format_language(spec)) == spec


def test_oil_language_roundtrip(oil):
    spec = oil.algebra1.spec
    assert len(spec.elementary) == 12
    # one exhaustive disjunction plus one exclusion per unordered cell pair
    assert len(spec.beliefs) == 1 + 12 * 11 // 2
    assert parse_language(format_language(spec)) == spec


def test_language_keyword_is_a_whole_word():
    with pytest.raises(ParseError) as exc:
        parse_language("languagefoo\natoms: p")
    assert exc.value.line == 1
    assert parse_language("language\tfoo\natoms: p").name == "foo"


def test_reserved_words_cannot_be_atoms():
    with pytest.raises(ParseError):
        parse_language("language A\natoms: p true")


_FRAGMENTS = ["p", "q", "r", "x1", "_y", "true", "false", "!", "&", "|", "(", ")",
              "->", " ", "  ", "\n", "\t", "$", "-", ">", "é"]


def _outcome(parse, text, spec, line):
    try:
        return parse(text, spec, line)
    except ParseError as exc:
        return type(exc), str(exc), exc.line, exc.column


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=12), st.booleans(),
       st.integers(1, 9))
def test_scanner_matches_reference_parser(fragments, with_spec, line):
    """Trees, or error type, message, line and column, as before the
    single-pass scanner."""
    text = "".join(fragments)
    spec = parse_language("language A\natoms: p q") if with_spec else None
    assert (_outcome(parse_formula, text, spec, line)
            == _outcome(parserref.parse_formula, text, spec, line))


# --- beliefs read without the parser ----------------------------------------------

# non-ASCII whitespace that is not a line boundary: the tokenizer's ``\s``,
# ``str.split`` and ``str.strip`` must agree on it
_SPACE = st.sampled_from(["", " ", "  ", "\t", "\xa0", "\u2009", "\u3000"])
_BELIEF_NAMES = st.sampled_from(["p", "q", "r", "p", "q", "u", "true"])


@st.composite
def belief_lines(draw):
    """Unions and negated conjunctions of names with varied spacing, some with
    an undeclared name or ``true``, a dropped parenthesis or trailing text."""
    names = draw(st.lists(_BELIEF_NAMES, min_size=1, max_size=4))
    sp = lambda: draw(_SPACE)  # noqa: E731
    if draw(st.booleans()):
        text = (sp() + "|" + sp()).join(names)
    else:
        body = (sp() + "&" + sp()).join(names)
        text = "!" + sp() + "(" + sp() + body + sp() + ")"
    edit = draw(st.sampled_from(["", "", "", "drop", " | r", " r", ")", " &", "$"]))
    if edit == "drop":
        cut = draw(st.integers(0, len(text) - 1))
        return text[:cut] + text[cut + 1:]
    return text + edit


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(belief_lines(), st.integers(1, 9))
@example("!(p&q)", 4)
@example("! ( p & q )", 4)
@example("true | p", 4)
@example("!(p)", 4)
@example("!(p & u)", 4)
@example("!(p & q) | r", 4)
@example("!(p & q))", 4)
@example("!((p & q))", 4)
@example("!(p &)", 4)
@example("p || q", 4)
@example("| p", 4)
@example("!( )", 4)
def test_belief_reader_matches_parser(text, line):
    """Same trees, or the same error type, message, line and column."""
    probe = LanguageSpec("A", ("p", "q", "r"), ())
    atoms = {name: Atom(name) for name in probe.elementary}
    read = _outcome(lambda t, s, n: _tree(_cut_belief(t, set(s.elementary), s, n), atoms),
                    text, probe, line)
    assert read == _outcome(parse_formula, text, probe, line)
    if isinstance(read, tuple):  # an error
        return
    spec = parse_language(f"language A\natoms: p q r\nbelieve: {text}\n")
    assert spec.beliefs == (read,)
    assert parse_language(format_language(spec)) == spec
