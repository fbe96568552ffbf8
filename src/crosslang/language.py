"""Propositional formulas and language specification files.

A language is declared in a small line-oriented text format::

    # comment
    language prices
    atoms: cell_a cell_b
    believe: cell_a | cell_b
    believe: !(cell_a & cell_b)

Formulas use ``!``, ``&``, ``|``, ``->`` with precedence ``!`` > ``&`` >
``|`` > ``->``; parentheses override.  ``->`` means ``!left | right``; it
stays an ``Arrow`` node in the tree, which evaluation reads as such.

A document is read by one reader, a line at a time (``cut_language``),
and each belief line is cut into one of two forms: a direct belief, a
union of declared names or ``!(`` their conjunction ``)``, becomes
``(negated, names)``, which the algebra values from its names' columns
without a tree; any other belief becomes the tree of ``parse_formula``,
which keeps its errors.  When every belief of a document is direct and
spaced as usual, the bodies are cut together, a few string calls over
their join; else each is cut on its own, in file order, so that the first
error is raised where ``parse_language`` raises it.  ``parse_language``
builds the trees of a cut, for specs that are asked for.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import itemgetter

from .errors import DuplicateAtomError, ParseError, UndeclaredAtomError

# the direct grammar, read without the parser: names and unions of names (the
# endpoints of corpus files)
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
IDENT_RE = re.compile(_NAME)
_UNION_RE = re.compile(rf"{_NAME}(?:\s*\|\s*{_NAME})*")


# --- abstract syntax ---------------------------------------------------------


@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Arrow(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class TrueLit(Formula):
    pass


@dataclass(frozen=True)
class FalseLit(Formula):
    pass


TRUE = TrueLit()
FALSE = FalseLit()


# --- printing ----------------------------------------------------------------

_PREC = {Arrow: 1, Or: 2, And: 3, Not: 4}


def format_formula(formula: Formula) -> str:
    """Render a formula; parse(format(f)) returns f unchanged."""
    return _fmt(formula, 0)


def _fmt(f: Formula, context: int) -> str:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, TrueLit):
        return "true"
    if isinstance(f, FalseLit):
        return "false"
    if isinstance(f, Not):
        return "!" + _fmt(f.child, _PREC[Not])
    if isinstance(f, And):
        op, prec = "&", _PREC[And]
    elif isinstance(f, Or):
        op, prec = "|", _PREC[Or]
    else:
        op, prec = "->", _PREC[Arrow]
    if isinstance(f, Arrow):
        # right-associative: parenthesise an Arrow on the left
        left = _fmt(f.left, prec + 1)
        right = _fmt(f.right, prec)
    else:
        # left-associative: parenthesise an equal-precedence right child
        left = _fmt(f.left, prec)
        right = _fmt(f.right, prec + 1)
    text = f"{left} {op} {right}"
    return f"({text})" if prec < context else text


# --- tokenizer / parser ------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|(->|[!&|()])|(\S))")


_KEYWORDS = {"true": "true", "false": "false"}


def _position(text: str, line: int, pos: int) -> tuple[int, int]:
    """(line, column) of an offset into ``text``, whose first line is ``line``."""
    return line + text.count("\n", 0, pos), pos - text.rfind("\n", 0, pos)


def _tokenize(text: str, line: int = 1):
    """Kinds, texts and start offsets of the tokens, as three lists ending
    with an ``end`` token at the end of the text."""
    kinds, texts, starts = [], [], []
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex
        token = m.group(group)
        if group == 3:
            raise ParseError(f"unexpected character {token!r}",
                             *_position(text, line, m.start(3)))
        kinds.append(_KEYWORDS.get(token, "ident") if group == 1 else token)
        texts.append(token)
        starts.append(m.start(group))
    kinds.append("end")
    texts.append("")
    starts.append(len(text))
    return kinds, texts, starts


class _FormulaParser:
    def __init__(self, text: str, line: int = 1, declared=None):
        self.text, self.line = text, line
        self.kinds, self.texts, self.starts = _tokenize(text, line)
        self.i = 0
        self.declared = declared

    def _raise(self, error, message):
        raise error(message, *_position(self.text, self.line, self.starts[self.i]))

    def _fail(self, expected):
        got = self.texts[self.i] or "end of input"
        self._raise(ParseError, f"expected {expected}, got {got!r}")

    def parse(self) -> Formula:
        node = self.arrow()
        if self.kinds[self.i] != "end":
            self._fail("end of formula")
        return node

    def arrow(self) -> Formula:
        left = self.disjunction()
        if self.kinds[self.i] == "->":
            self.i += 1
            return Arrow(left, self.arrow())
        return left

    def disjunction(self) -> Formula:
        node = self.conjunction()
        while self.kinds[self.i] == "|":
            self.i += 1
            node = Or(node, self.conjunction())
        return node

    def conjunction(self) -> Formula:
        node = self.negation()
        while self.kinds[self.i] == "&":
            self.i += 1
            node = And(node, self.negation())
        return node

    def negation(self) -> Formula:
        if self.kinds[self.i] == "!":
            self.i += 1
            return Not(self.negation())
        return self.primary()

    def primary(self) -> Formula:
        kind = self.kinds[self.i]
        if kind == "true":
            self.i += 1
            return TRUE
        if kind == "false":
            self.i += 1
            return FALSE
        if kind == "ident":
            name = self.texts[self.i]
            if self.declared is not None and name not in self.declared:
                self._raise(UndeclaredAtomError, f"undeclared atom {name!r}")
            self.i += 1
            return Atom(name)
        if kind == "(":
            self.i += 1
            node = self.arrow()
            if self.kinds[self.i] != ")":
                self._fail("')'")
            self.i += 1
            return node
        self._fail("a formula")


# --- language specifications -------------------------------------------------


@dataclass(frozen=True)
class LanguageSpec:
    """A named finite stock of elementary propositions plus believed formulas.
    Belief names are checked by the reader, or else by ``enumerate_models``."""

    name: str
    elementary: tuple[str, ...]
    beliefs: tuple[Formula, ...]

    def __post_init__(self):
        if not self.elementary:
            raise ParseError("a language needs at least one elementary proposition")
        seen = set()
        for atom in self.elementary:
            if atom in ("true", "false"):
                raise ParseError(f"{atom!r} is a reserved word")
            if atom in seen:
                raise DuplicateAtomError(f"duplicate atom {atom!r}")
            seen.add(atom)


def parse_formula(text: str, spec: LanguageSpec | None = None, line: int = 1) -> Formula:
    """Parse one formula; atoms must be declared in ``spec`` when given (a
    spec, or anything else with ``elementary`` names: a cut, an algebra)."""
    declared = set(spec.elementary) if spec is not None else None
    return _FormulaParser(text, line, declared).parse()


def _cut_belief(text: str, declared, probe: LanguageSpec, line: int):
    """One belief, cut once: a union of ``declared`` names, or ``!(`` their
    conjunction ``)``, is cut apart with ``split`` and ``strip`` into
    ``(negated, names)``; any other text goes to ``parse_formula``, whose
    tree or error it gives."""
    negated = text[:1] == "!"
    if negated:
        body = text[1:].strip()
        names = body[1:-1].split("&") if body[:1] == "(" and body[-1:] == ")" else ()
    else:
        names = text.split("|")
    names = tuple([name.strip() for name in names])
    if names and declared.issuperset(names):
        return negated, names
    return parse_formula(text, probe, line)


def _tree(belief, atoms: dict[str, Atom]) -> Formula:
    """The formula of a cut belief, left-associated as the parser builds it,
    from the shared ``atoms``."""
    if isinstance(belief, Formula):
        return belief
    negated, names = belief
    nodes = map(atoms.__getitem__, names)
    return Not(reduce(And, nodes)) if negated else reduce(Or, nodes)


@dataclass(frozen=True)
class LanguageCut:
    """A language document cut apart, each belief line once: its name, its
    elementary names and its beliefs, each either ``(negated, names)`` (the
    union of declared names, or with ``negated`` the negation of their
    conjunction) or a formula tree from ``parse_formula``.  A direct belief
    is valued by its names' columns, with no tree; ``spec`` builds the
    trees."""

    name: str
    elementary: tuple[str, ...]
    beliefs: tuple

    def spec(self) -> LanguageSpec:
        atoms = {atom: Atom(atom) for atom in self.elementary}
        return LanguageSpec(self.name, self.elementary,
                            tuple(_tree(belief, atoms) for belief in self.beliefs))


def cut_language(text: str) -> LanguageCut:
    """Cut a language specification document a line at a time: the header
    lines, then the missing ones, with every error of ``parse_language`` in
    the same order; then the belief bodies.  When each body is a union of
    declared names, or ``!(`` their conjunction ``)``, with the bars and
    ampersands between single spaces or none, all are cut in one pass: their
    join closed up with one ``replace`` each and cut with ``split``.  Else
    each goes through ``_cut_belief``, in file order."""
    name = None
    elementary = None
    bodies, belief_lines = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if line[:8] == "believe:":        # most lines: no regular expression
            bodies.append(line[8:].strip())
            belief_lines.append(lineno)
            continue
        if not line:
            continue
        keyword = IDENT_RE.match(line)
        if keyword is not None and keyword[0] == "language":
            if name is not None:
                raise ParseError("duplicate 'language' line", lineno, 1)
            rest = line[len("language"):].strip()
            if not IDENT_RE.fullmatch(rest):
                raise ParseError("expected an identifier after 'language'", lineno, 1)
            name = rest
        elif line.startswith("atoms:"):
            if elementary is not None:
                raise ParseError("duplicate 'atoms:' line", lineno, 1)
            names = line[len("atoms:"):].split()
            for atom in names:
                if not IDENT_RE.fullmatch(atom):
                    raise ParseError(f"bad atom name {atom!r}", lineno, 1)
                if names.count(atom) > 1:
                    raise DuplicateAtomError(f"duplicate atom {atom!r}", lineno, 1)
            elementary = tuple(names)
        else:
            raise ParseError(
                "expected 'language', 'atoms:' or 'believe:'", lineno, 1
            )
    if name is None:
        raise ParseError("missing 'language' line")
    if elementary is None or not elementary:
        raise ParseError("missing 'atoms:' line")
    probe = LanguageSpec(name, elementary, ())
    declared = set(elementary)
    joined = "\n".join(bodies).replace(" | ", "|").replace(" & ", "&")
    beliefs = [(True, tuple(body[2:-1].split("&"))) if body[:2] == "!(" and body[-1:] == ")"
               else (False, tuple(body.split("|"))) for body in joined.split("\n")]
    if (" " in joined or "\t" in joined
            or not declared.issuperset(chain.from_iterable(map(itemgetter(1), beliefs)))):
        beliefs = [_cut_belief(body, declared, probe, line)
                   for body, line in zip(bodies, belief_lines)]
    return LanguageCut(name, elementary, tuple(beliefs))


def parse_language(text: str) -> LanguageSpec:
    """Parse a language specification document."""
    return cut_language(text).spec()


def format_language(spec: LanguageSpec) -> str:
    """Render a spec back to the document format (canonical form)."""
    lines = [f"language {spec.name}", "atoms: " + " ".join(spec.elementary)]
    lines.extend("believe: " + format_formula(b) for b in spec.beliefs)
    return "\n".join(lines) + "\n"
