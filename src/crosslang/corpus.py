"""Corpus files: translation specs, implication seeds, whole corpus folders.

A corpus directory holds ``lang1.lang`` and ``lang2.lang`` plus at least one
of ``translation.tr`` (atom-level outer maps, optionally with explicit
``override`` lines) and ``implication.imp`` (seed pairs for the closure).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .algebra import DEFAULT_ATOM_CAP, Algebra, Star, StarProp
from .errors import ParseError
from .implication import (
    CrossImplication,
    close,
    implication_from_translation,
    translation_from_implication,
)
from .language import parse_formula, parse_language
from .translation import Translation, translation_from_atom_outers

LANG1_FILE = "lang1.lang"
LANG2_FILE = "lang2.lang"
TRANSLATION_FILE = "translation.tr"
IMPLICATION_FILE = "implication.imp"


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_side(token: str, lineno: int) -> str:
    if token not in ("1>2", "2>1"):
        raise ParseError(f"expected direction '1>2' or '2>1', got {token!r}", lineno, 1)
    return token


def _parse_value(text: str, algebra: Algebra, lineno: int) -> StarProp:
    text = text.strip()
    if text == "*":
        return algebra.star
    return algebra.denote(parse_formula(text, algebra.spec, lineno))


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
            if isinstance(lhs, Star) or not lhs.is_atom:
                raise ParseError(
                    f"{lhs_text.strip()!r} does not denote an atom of {src.name!r}",
                    lineno, 1,
                )
            atom_outers[direction][lhs] = _parse_value(rhs_text, dst, lineno)
        elif len(head) == 3 and head[0] == "override" and head[1] in ("inner", "outer"):
            direction = _parse_side(head[2], lineno)
            src, dst = sides[direction]
            overrides.append((
                direction, head[1],
                _parse_value(lhs_text, src, lineno),
                _parse_value(rhs_text, dst, lineno),
            ))
        else:
            raise ParseError(f"unrecognised line {line!r}", lineno, 1)
    t = translation_from_atom_outers(a1, a2, atom_outers["1>2"], atom_outers["2>1"])
    for direction, mode, lhs, rhs in overrides:
        t = t.replace(direction, mode, lhs, rhs)
    return t


def parse_implication_seeds(text: str, a1: Algebra, a2: Algebra):
    """Seed pairs from ``imp: <lang>.<formula> => <lang>.<formula>`` lines.

    Each distinct endpoint is parsed once; only successes are remembered, so
    a malformed endpoint fails with the line it appears on."""
    by_name = {a1.name: a1, a2.name: a2}
    parsed = {}
    seeds = []
    for lineno, line in _content_lines(text):
        if not line.startswith("imp:"):
            raise ParseError("expected 'imp: <lang>.<formula> => <lang>.<formula>'",
                             lineno, 1)
        body = line[len("imp:"):]
        if "=>" not in body:
            raise ParseError("expected '=>' in seed line", lineno, 1)
        endpoints = []
        for chunk in body.split("=>", 1):
            chunk = chunk.strip()
            if "." not in chunk:
                raise ParseError(f"expected '<lang>.<formula>', got {chunk!r}",
                                 lineno, 1)
            lang_name, formula = chunk.split(".", 1)
            if lang_name not in by_name:
                raise ParseError(f"unknown language {lang_name!r}", lineno, 1)
            key = (lang_name, formula.strip())
            if key not in parsed:
                parsed[key] = _parse_value(formula, by_name[lang_name], lineno)
            endpoints.append(parsed[key])
        seeds.append(tuple(endpoints))
    return seeds


def parse_implication_file(text: str, a1: Algebra, a2: Algebra) -> CrossImplication:
    return close(parse_implication_seeds(text, a1, a2), a1, a2)


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
