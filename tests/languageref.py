"""The language reader from before belief lines were cut, kept verbatim as
the reference for ``test_corpus.py``'s differential property: it builds
every belief's tree as it reads the line (a direct belief from shared
atoms, any other through ``parse_formula``), with the same errors, lines
and columns."""

from functools import reduce

from crosslang.errors import DuplicateAtomError, ParseError
from crosslang.language import (
    IDENT_RE,
    And,
    Atom,
    Formula,
    LanguageSpec,
    Not,
    Or,
    parse_formula,
)


def _read_belief(text: str, atoms: dict[str, Atom], probe: LanguageSpec,
                 line: int) -> Formula:
    """One belief: a union of declared names, or ``!(`` their conjunction
    ``)``, is cut apart with ``split`` and built directly, left-associated as
    the parser builds it, from the shared ``atoms``; any other text goes to
    ``parse_formula``."""
    negated = text.startswith("!")
    if negated:
        body = text[1:].strip()
        names = body[1:-1].split("&") if body[:1] == "(" and body[-1:] == ")" else ()
    else:
        names = text.split("|")
    try:
        nodes = [atoms[name.strip()] for name in names]
    except KeyError:
        nodes = None
    if nodes:
        return Not(reduce(And, nodes)) if negated else reduce(Or, nodes)
    return parse_formula(text, probe, line)


def parse_language(text: str) -> LanguageSpec:
    """Parse a language specification document."""
    name = None
    elementary = None
    belief_lines: list[tuple[str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("believe:"):   # most lines: no regular expression
            belief_lines.append((line[len("believe:"):].strip(), lineno))
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
    atoms = {atom: Atom(atom) for atom in elementary}
    beliefs = tuple(_read_belief(text, atoms, probe, line) for text, line in belief_lines)
    return LanguageSpec(name, elementary, beliefs)
