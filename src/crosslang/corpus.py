"""Corpus files: translation specs, implication seeds, whole corpus folders.

A corpus directory holds ``lang1.lang`` and ``lang2.lang`` plus at least one
of ``translation.tr`` (atom-level outer maps, optionally with explicit
``override`` lines) and ``implication.imp`` (seed pairs for the closure).

Every endpoint of either file goes through one reader, ``_parse_value``.
It reads the common grammar directly: ``*`` is the star, and a union
``name | name | ...`` of declared elementary names, ``true`` and ``false``
is the OR of their model columns.  Any other text, an undeclared name
included, goes to ``parse_formula``, so that errors keep their type,
message, line and column.  Seeds travel as values, not elements: each
endpoint is a (side, value) pair, side 1 or 2 and value a mask, -1 for the
star, which is what ``implication.close_values`` takes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .algebra import DEFAULT_ATOM_CAP, Algebra
from .errors import ParseError
from .implication import (
    CrossImplication,
    close_values,
    implication_from_translation,
    translation_from_implication,
)
from .language import parse_formula, parse_language
from .translation import Translation, translation_from_atom_outers

LANG1_FILE = "lang1.lang"
LANG2_FILE = "lang2.lang"
TRANSLATION_FILE = "translation.tr"
IMPLICATION_FILE = "implication.imp"

# the endpoint grammar read without the parser, and the seed lines made of it
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_UNION = rf"{_NAME}(?:\s*\|\s*{_NAME})*"
_UNION_RE = re.compile(_UNION)
_ENDPOINT = rf"({_NAME})\.\s*(\*|{_UNION})\s*"
_SEED_RE = re.compile(rf"imp:\s*{_ENDPOINT}=>\s*{_ENDPOINT}")
# reserved words cannot be atoms; ``true`` is all ones, cut to the full mask
_CONSTANTS = {"false": 0, "true": -1}


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
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

    ``override`` lines replace single entries of the derived maps afterwards;
    they exist so that corpora can encode operators that deliberately break
    an axiom, which the derived form never does.
    """
    atom_outers = {"1>2": {}, "2>1": {}}
    overrides = []
    sides = {"1>2": (a1, a2), "2>1": (a2, a1)}
    for lineno, line in _content_lines(text):
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
            overrides.append((
                direction, head[1],
                src.element(_parse_value(lhs_text, src, lineno)),
                dst.element(_parse_value(rhs_text, dst, lineno)),
            ))
        else:
            raise ParseError(f"unrecognised line {line!r}", lineno, 1)
    t = translation_from_atom_outers(a1, a2, atom_outers["1>2"], atom_outers["2>1"])
    for direction, mode, lhs, rhs in overrides:
        t = t.replace(direction, mode, lhs, rhs)
    return t


def _seed_keys(line: str, lineno: int, languages: dict):
    """The (language, formula text) endpoints of a seed line outside the
    direct grammar.  A generator, so that each endpoint is read before the
    next one is checked: the error reported is the first along the line."""
    if not line.startswith("imp:"):
        raise ParseError("expected 'imp: <lang>.<formula> => <lang>.<formula>'",
                         lineno, 1)
    body = line[len("imp:"):]
    if "=>" not in body:
        raise ParseError("expected '=>' in seed line", lineno, 1)
    for chunk in body.split("=>", 1):
        chunk = chunk.strip()
        if "." not in chunk:
            raise ParseError(f"expected '<lang>.<formula>', got {chunk!r}",
                             lineno, 1)
        lang_name, formula = chunk.split(".", 1)
        if lang_name not in languages:
            raise ParseError(f"unknown language {lang_name!r}", lineno, 1)
        yield lang_name, formula.strip()


def _scan_seeds(text: str, a1: Algebra, a2: Algebra) -> list:
    """The seeds of ``imp: <lang>.<formula> => <lang>.<formula>`` lines as
    ((side, value), (side, value)) pairs, in file order.

    A line of the direct grammar is split by one regular expression; any
    other line is checked piece by piece.  Each distinct endpoint is read
    once; only successes are remembered, so a malformed endpoint fails with
    the line it appears on."""
    languages = {a1.name: (1, a1), a2.name: (2, a2)}
    endpoints = {}

    def endpoint(key, lineno):
        found = endpoints.get(key)
        if found is None:
            side, algebra = languages[key[0]]
            found = endpoints[key] = (side, _parse_value(key[1], algebra, lineno))
        return found

    seeds = []
    for lineno, line in _content_lines(text):
        m = _SEED_RE.fullmatch(line)
        if m is not None and m[1] in languages and m[3] in languages:
            seeds.append((endpoint((m[1], m[2]), lineno),
                          endpoint((m[3], m[4]), lineno)))
        else:
            seeds.append(tuple([endpoint(key, lineno)
                                for key in _seed_keys(line, lineno, languages)]))
    return seeds


def parse_implication_seeds(text: str, a1: Algebra, a2: Algebra):
    """Seed pairs from ``imp: <lang>.<formula> => <lang>.<formula>`` lines,
    as elements of the two algebras.

    Endpoints of the direct grammar (``*``, or a union of declared names,
    ``true`` and ``false``) are read without the parser; any other text goes
    to ``parse_formula``.  The seeds are scanned as values, -1 for the star,
    and each value is read back as a proposition or the star of its side."""
    algebras = {1: a1, 2: a2}
    return [tuple(algebras[side].element(value) for side, value in seed)
            for seed in _scan_seeds(text, a1, a2)]


def parse_implication_file(text: str, a1: Algebra, a2: Algebra) -> CrossImplication:
    """The closed relation of a seed file; its seeds go to the closure as
    values, without an element per endpoint."""
    return close_values(_scan_seeds(text, a1, a2), a1, a2)


@dataclass
class Corpus:
    """Everything a corpus folder defines, parsed and constructed."""

    path: Path
    algebra1: Algebra
    algebra2: Algebra
    translation: Translation | None
    relation: CrossImplication | None

    def require_translation(self) -> Translation:
        if self.translation is not None:
            return self.translation
        if self.relation is not None:
            return translation_from_implication(self.relation)
        raise FileNotFoundError(f"{self.path} has no translation or implication file")

    def require_relation(self) -> CrossImplication:
        if self.relation is not None:
            return self.relation
        return implication_from_translation(self.require_translation())


def load_algebras(path1: str | Path, path2: str | Path,
                  max_atoms: int = DEFAULT_ATOM_CAP) -> tuple[Algebra, Algebra]:
    """The algebras of two language files, both parsed before either is built."""
    specs = [parse_language(Path(p).read_text(encoding="utf-8")) for p in (path1, path2)]
    return tuple(Algebra.from_spec(spec, max_atoms) for spec in specs)


def load_corpus(path: str | Path, max_atoms: int = DEFAULT_ATOM_CAP) -> Corpus:
    path = Path(path)
    a1, a2 = load_algebras(path / LANG1_FILE, path / LANG2_FILE, max_atoms)
    translation = None
    relation = None
    tr_path = path / TRANSLATION_FILE
    if tr_path.exists():
        translation = parse_translation_file(
            tr_path.read_text(encoding="utf-8"), a1, a2
        )
    imp_path = path / IMPLICATION_FILE
    if imp_path.exists():
        relation = parse_implication_file(
            imp_path.read_text(encoding="utf-8"), a1, a2
        )
    if translation is None and relation is None:
        raise FileNotFoundError(
            f"{path} has neither {TRANSLATION_FILE} nor {IMPLICATION_FILE}"
        )
    return Corpus(path, a1, a2, translation, relation)
