"""The seed-file reader from before endpoints were read as mask values,
kept verbatim as the reference for ``test_corpus.py``'s differential
property: same seeds, same errors, same lines and columns."""

from crosslang.algebra import Algebra, StarProp
from crosslang.errors import ParseError
from crosslang.language import parse_formula


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_value(text: str, algebra: Algebra, lineno: int) -> StarProp:
    text = text.strip()
    if text == "*":
        return algebra.star
    return algebra.denote(parse_formula(text, algebra.spec, lineno))


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
