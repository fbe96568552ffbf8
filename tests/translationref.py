"""The translation-file reader from before endpoints were valued in bulk,
kept verbatim as the reference for ``test_corpus.py``'s differential
property: same atom images, same overrides, same errors, lines and columns.
It reads a line at a time, each endpoint through ``_parse_value``, and
hands the images to ``translation_from_atom_outers`` as elements."""

from crosslang.algebra import Algebra
from crosslang.errors import ParseError
from crosslang.language import _UNION_RE, parse_formula
from crosslang.translation import Translation, translation_from_atom_outers

# reserved words cannot be atoms; ``true`` is all ones, cut to the full mask
_CONSTANTS = {"false": 0, "true": -1}


def _content_lines(lines, start: int = 1):
    """(line number, text) of each line with content, its comment cut."""
    for lineno, raw in enumerate(lines, start=start):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_side(token: str, lineno: int) -> str:
    if token not in ("1>2", "2>1"):
        raise ParseError(f"expected direction '1>2' or '2>1', got {token!r}", lineno, 1)
    return token


def _parse_value(text: str, algebra: Algebra, lineno: int) -> int:
    """The value of an endpoint: a mask, -1 for ``*``."""
    text = text.strip()
    if text == "*":
        return -1
    if _UNION_RE.fullmatch(text):
        columns = algebra._columns
        mask = 0
        for name in text.split("|"):
            name = name.strip()
            column = columns.get(name, _CONSTANTS.get(name))
            if column is None:
                break          # undeclared: the parser reports it
            mask |= column
        else:
            return mask & algebra.full_mask
    return algebra.denote(parse_formula(text, algebra.spec, lineno)).mask


def parse_translation_file(text: str, a1: Algebra, a2: Algebra) -> Translation:
    """Build a translation from atom-level outer lines.

    ``override`` lines replace single entries of the derived maps, in file
    order, so the last one of an entry wins; they exist so that corpora can
    encode operators that deliberately break an axiom, which the derived
    form never does.  The whole table goes into one ``Translation``, which
    refuses the first override that sends ``*`` elsewhere.
    """
    atom_outers = {"1>2": {}, "2>1": {}}
    overrides = []
    sides = {"1>2": (a1, a2), "2>1": (a2, a1)}
    for lineno, line in _content_lines(text.splitlines()):
        parts = line.split(":", 1)
        if len(parts) != 2:
            raise ParseError("expected 'outer <dir>: <formula> => <formula|*>'",
                             lineno, 1)
        head, body = parts[0].split(), parts[1]
        if "=>" not in body:
            raise ParseError("expected '=>' in mapping line", lineno, 1)
        lhs_text, rhs_text = body.split("=>", 1)
        if len(head) == 2 and head[0] == "outer":
            direction = _parse_side(head[1], lineno)
            src, dst = sides[direction]
            lhs = _parse_value(lhs_text, src, lineno)
            if lhs <= 0 or lhs & (lhs - 1):
                raise ParseError(
                    f"{lhs_text.strip()!r} does not denote an atom of {src.name!r}",
                    lineno, 1,
                )
            atom_outers[direction][src.element(lhs)] = dst.element(
                _parse_value(rhs_text, dst, lineno))
        elif len(head) == 3 and head[0] == "override" and head[1] in ("inner", "outer"):
            direction = _parse_side(head[2], lineno)
            src, dst = sides[direction]
            overrides.append((direction, head[1], _parse_value(lhs_text, src, lineno),
                              _parse_value(rhs_text, dst, lineno)))
        else:
            raise ParseError(f"unrecognised line {line!r}", lineno, 1)
    return translation_from_atom_outers(a1, a2, atom_outers["1>2"], atom_outers["2>1"],
                                        overrides)
