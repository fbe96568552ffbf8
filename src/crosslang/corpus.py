"""Corpus files: translation specs, implication seeds, whole corpus folders.

A corpus directory holds ``lang1.lang`` and ``lang2.lang`` plus at least one
of ``translation.tr`` (atom-level outer maps, optionally with explicit
``override`` lines) and ``implication.imp`` (seed pairs for the closure).
The two languages must have distinct names: seeds name their language.
Every input file, these and a command's own, is read by ``read_input``:
once, its digest taken from the bytes that are parsed.

The common grammar of endpoints is read without the parser: ``*`` is the
star, and a union ``name | name | ...`` of declared elementary names,
``true`` and ``false`` is the OR of their model columns.  Any other text,
an undeclared name included, goes to ``parse_formula`` through
``_parse_value``, so that errors keep their type, message, line and
column.

A translation file has one reader: it takes a block of whole lines at a
time, as the seed reader does (below), and cuts each line once into its
direction, mode and two endpoints.  The endpoints of each side of a block are valued
in one bulk pass (``_union_values``) when every one of them is in the
common grammar with known names, every outer line maps an atom and both
algebras have at most 16 models; the outer images go to the two int64
image arrays of the ``Translation``.  Any other block has its rows valued
one at a time, each endpoint through ``_parse_value``; a malformed line
raises only after the rows before it, so the first error in the file is
the one raised.

A seed file is read in blocks of whole lines of about 64 KB, one regular
expression call to a block.  A block whose every line is a seed line with
endpoints in that common grammar, a blank line or a comment, that has no
line boundary but newlines, and whose language and endpoint names are all
known, is read whole: each distinct endpoint once, its names mapped to
their columns in bulk and ORed with numpy.  Any other block (a formula
endpoint, a malformed line, an undeclared name, a CRLF file) is read line
by line through ``_parse_value``, from its first line number on; as only
such a block can fail, the first error in the file is the one raised.
Seeds travel as two (n, 2) arrays, the side (1 or 2) and the value (a mask,
-1 for the star) of each endpoint, which is what
``implication.close_values`` takes.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from itertools import compress, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .algebra import ENUMERABLE_MODEL_LIMIT, Algebra
from .errors import LanguageNameClashError, ParseError
from .implication import (
    CrossImplication,
    close_values,
    implication_from_translation,
    translation_from_implication,
)
from .language import _UNION_RE, cut_language
from .translation import Translation, translation_from_atom_values

LANG1_FILE = "lang1.lang"
LANG2_FILE = "lang2.lang"
TRANSLATION_FILE = "translation.tr"
IMPLICATION_FILE = "implication.imp"

# reserved words cannot be atoms; ``true`` is all ones, cut to the full mask
_CONSTANTS = {"false": 0, "true": -1}

# a seed or translation file is read in blocks of whole lines of about this
# many characters: many lines to each bulk call, while the strings of one
# block stay small
_BLOCK_CHARS = 1 << 16
# one line of a block read whole: a seed line whose endpoints are ``*`` or
# words joined by bars (each word must then be a name of its side), a blank
# line or a comment; blanks are " " and "\t" only, and the line ends at
# "\n", the other line boundaries of ``str.splitlines`` being kept out of
# comments, so that a block has as many lines as newlines
_BLANK = r"[ \t]*"
_ENDPOINT = rf"(\w+)\.{_BLANK}(\*|[\w \t|]*\w){_BLANK}"
_LINE_RE = re.compile(
    rf"^{_BLANK}(?:imp:{_BLANK}{_ENDPOINT}=>{_BLANK}{_ENDPOINT})?"
    r"(?:#[^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*)?\n", re.M | re.A)
# the direction and mode of each head of a mapping line, its words spaced
# once; the mode of an ``outer`` line is None
_HEADS = {f"{head} {direction}": (direction, mode) for direction in ("1>2", "2>1")
          for head, mode in (("outer", None), ("override inner", "inner"),
                             ("override outer", "outer"))}


def _content_lines(lines, start: int = 1):
    """(line number, text) of each line with content, its comment cut."""
    for lineno, raw in enumerate(lines, start=start):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


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
    return algebra.denote_text(text, lineno).mask


def parse_translation_file(text: str, a1: Algebra, a2: Algebra) -> Translation:
    """Build a translation from atom-level outer lines.

    ``override`` lines replace single entries of the derived maps, in file
    order, so the last one of an entry wins; they exist so that corpora can
    encode operators that deliberately break an axiom, which the derived
    form never does.  The whole table goes into one ``Translation``, which
    refuses the first override that sends ``*`` elsewhere.

    An atom left without an outer image is refused once both algebras are
    known to be enumerable.
    """
    return translation_from_atom_values(a1, a2, *_map_lines(text, a1, a2))


def _map_lines(text: str, a1: Algebra, a2: Algebra):
    """The outer image of each atom mask in each direction, the last line of
    an atom winning, and the overrides ``(direction, mode, x, y)`` in file
    order.  Each block of lines is cut (``_map_rows``) and its endpoints
    valued in bulk (``_bulk_values``), or where that refuses, a row at a
    time, each outer source checked to be an atom before its image is read;
    a malformed line raises once the rows before it are valued."""
    sides = {"1>2": (a1, a2), "2>1": (a2, a1)}
    lookups = None              # masks beyond int64: every row one at a time
    if max(a1.model_count, a2.model_count) <= ENUMERABLE_MODEL_LIMIT:
        lookups = a1.names, a2.names
    atom_outers = {"1>2": {}, "2>1": {}}
    overrides = []
    lineno = 1
    for block in _blocks(text):
        rows, malformed, lineno = _map_rows(block.splitlines(), lineno)
        bulk = lookups and rows and _bulk_values(rows, lookups)
        for i, (n, direction, mode, lhs, rhs) in enumerate(rows):
            src, dst = sides[direction]
            x = bulk[0][i] if bulk else _parse_value(lhs, src, n)
            if mode is None and (x <= 0 or x & (x - 1)):
                raise ParseError(f"{lhs!r} does not denote an atom of {src.name!r}", n, 1)
            y = bulk[1][i] if bulk else _parse_value(rhs, dst, n)
            if mode is None:
                atom_outers[direction][x] = y
            else:
                overrides.append((direction, mode, x, y))
        if malformed is not None:
            raise malformed
    return atom_outers["1>2"], atom_outers["2>1"], overrides


def _map_rows(lines, start: int):
    """The rows ``(lineno, direction, mode, lhs, rhs)`` of the lines with
    content, numbered from ``start``, ``mode`` None on an ``outer`` line and
    the endpoint texts stripped, up to the first malformed line; that
    line's error, or None; and the number of the line after the last."""
    rows = []
    for lineno, line in _content_lines(lines, start):
        head, colon, body = line.partition(":")
        lhs, arrow, rhs = body.partition("=>")
        kind = _HEADS.get(head) or _HEADS.get(" ".join(head.split()))
        if colon and arrow and kind:
            rows.append((lineno, *kind, lhs.strip(), rhs.strip()))
            continue
        words = head.split()
        if not colon:
            error = "expected 'outer <dir>: <formula> => <formula|*>'"
        elif not arrow:
            error = "expected '=>' in mapping line"
        elif words[:-1] in (["outer"], ["override", "inner"], ["override", "outer"]):
            error = f"expected direction '1>2' or '2>1', got {words[-1]!r}"
        else:
            error = f"unrecognised line {line!r}"
        return rows, ParseError(error, lineno, 1), None
    return rows, None, start + len(lines)


def _bulk_values(rows: list, lookups: tuple):
    """The values ``xs`` and ``ys`` of the rows' endpoints, each side's
    valued in one pass (``_union_values``); None when an endpoint is not a
    ``*`` or a union of known names."""
    _, directions, _, lhs, rhs = zip(*rows)
    # side 1 holds the source of a 1>2 line and the target of a 2>1 line
    forward = [direction == "1>2" for direction in directions]
    texts1 = [x if f else y for f, x, y in zip(forward, lhs, rhs)]
    texts2 = [y if f else x for f, x, y in zip(forward, lhs, rhs)]
    values1, values2 = _union_values(texts1, lookups[0]), _union_values(texts2, lookups[1])
    if values1 is None or values2 is None:
        return None
    values1, values2 = values1.tolist(), values2.tolist()
    for values, texts in ((values1, texts1), (values2, texts2)):
        if -1 in values and any("|" in text for text, v in zip(texts, values) if v == -1):
            return None                             # a star in a union
    return ([v1 if f else v2 for f, v1, v2 in zip(forward, values1, values2)],
            [v2 if f else v1 for f, v1, v2 in zip(forward, values1, values2)])


def _seed_keys(line: str, lineno: int, languages: dict):
    """The (language, formula text) endpoints of a seed line.  A generator,
    so that each endpoint is read before the next one is checked: the error
    reported is the first along the line."""
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


def _blocks(text: str):
    """The text in blocks of whole lines of about ``_BLOCK_CHARS``
    characters, each cut after a newline; the last one gains a newline when
    it lacks one, which adds no line with content."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _BLOCK_CHARS) + 1 or len(text)
        block = text[start:end]
        yield block if block.endswith("\n") else block + "\n"
        start = end


def _union_values(unions: list, lookup: dict):
    """The values of endpoint texts that are a ``*`` or a union of names of
    ``lookup``, as an int64 array; None if a name is missing.  Each name is
    looked up once, and the columns of each union are ORed by ``reduceat``.
    Names are stripped only when a blank is left once the bars of the usual
    ``" | "`` have been closed up."""
    joined = "|".join(unions).replace(" | ", "|")
    names = joined.split("|")
    if " " in joined or "\t" in joined:
        names = list(map(str.strip, names))
    try:
        columns = np.fromiter(map(lookup.__getitem__, names), np.int64, len(names))
    except KeyError:
        return None
    counts = np.fromiter(map(str.count, unions, repeat("|")), np.int64, len(unions))
    return np.bitwise_or.reduceat(columns, np.cumsum(counts + 1) - counts - 1)


def _direct_block(block: str, sides_of: dict, lookups: dict):
    """The (sides, values) seed arrays of a block whose every line is a
    ``_LINE_RE`` line and whose every language and endpoint name is known;
    None for any other block.  ``sides_of`` gives the side of each language
    name, ``lookups`` the values of the names of each side.  Each distinct
    endpoint of a side is read once."""
    rows = _LINE_RE.findall(block)
    if len(rows) != block.count("\n"):
        return None
    rows = list(filter(itemgetter(0), rows))        # drop blank and comment lines
    langs1, texts1, langs2, texts2 = zip(*rows) if rows else ((),) * 4
    langs, texts = langs1 + langs2, texts1 + texts2
    try:
        sides = np.fromiter(map(sides_of.__getitem__, langs), np.int64, len(langs))
    except KeyError:
        return None                                 # an unknown language
    values = np.zeros(len(langs), np.int64)
    for side, lookup in lookups.items():
        mine = sides == side
        chosen = list(compress(texts, mine.tolist()))
        if not chosen:
            continue
        distinct = dict.fromkeys(chosen)
        masks = _union_values(list(distinct), lookup)
        if masks is None:
            return None                             # undeclared: the parser reports it
        if len(distinct) < len(chosen):             # spread repeated endpoints
            index = dict(zip(distinct, range(len(distinct))))
            masks = masks[np.fromiter(map(index.__getitem__, chosen), np.int64,
                                      len(chosen))]
        values[mine] = masks
    return sides.reshape(2, -1).T, values.reshape(2, -1).T


def _scan_seeds(text: str, a1: Algebra, a2: Algebra):
    """The seeds of ``imp: <lang>.<formula> => <lang>.<formula>`` lines as
    two arrays of shape (n, 2), in file order: the side of each endpoint,
    1 or 2, and its value, a mask or -1 for the star.

    The text is read a block of lines at a time (``_direct_block``).  A
    block it refuses is read line by line, each endpoint through
    ``_parse_value``, starting at the block's first line number.  Each
    distinct endpoint of those lines is read once; only successes are
    remembered, so a malformed endpoint fails with the line it appears on,
    and as a refused block is the only kind that can fail, the first error
    in the file is the one raised."""
    a1.require_enumerable()   # before reading masks into int64 arrays
    a2.require_enumerable()
    languages = {a1.name: (1, a1), a2.name: (2, a2)}
    sides_of = {name: side for name, (side, _) in languages.items()}
    lookups = {1: a1.names, 2: a2.names}
    endpoints = {}

    def endpoint(key, lineno):
        found = endpoints.get(key)
        if found is None:
            side, algebra = languages[key[0]]
            found = endpoints[key] = (side, _parse_value(key[1], algebra, lineno))
        return found

    sides, values = [np.empty((0, 2), np.int64)], [np.empty((0, 2), np.int64)]
    lineno = 1
    for block in _blocks(text):
        direct = _direct_block(block, sides_of, lookups)
        if direct is not None:
            lineno += block.count("\n")
        else:
            lines = block.splitlines()
            seeds = np.array([[endpoint(key, n) for key in _seed_keys(line, n, languages)]
                              for n, line in _content_lines(lines, lineno)],
                             dtype=np.int64).reshape(-1, 2, 2)
            lineno += len(lines)
            direct = seeds[..., 0], seeds[..., 1]
        sides.append(direct[0])
        values.append(direct[1])
    return np.concatenate(sides), np.concatenate(values)


def parse_implication_seeds(text: str, a1: Algebra, a2: Algebra):
    """Seed pairs from ``imp: <lang>.<formula> => <lang>.<formula>`` lines,
    as elements of the two algebras.

    Endpoints of the direct grammar (``*``, or a union of declared names,
    ``true`` and ``false``) are read without the parser; any other text goes
    to ``parse_formula``.  The seeds are scanned as values, -1 for the star,
    and each value is read back as a proposition or the star of its side."""
    algebras = (None, a1, a2)
    sides, values = _scan_seeds(text, a1, a2)
    return [(algebras[s1].element(v1), algebras[s2].element(v2))
            for (s1, s2), (v1, v2) in zip(sides.tolist(), values.tolist())]


def parse_implication_file(text: str, a1: Algebra, a2: Algebra) -> CrossImplication:
    """The closed relation of a seed file; its seeds go to the closure as
    arrays, without an element per endpoint."""
    return close_values(*_scan_seeds(text, a1, a2), a1, a2)


@dataclass
class Corpus:
    """Everything a corpus folder defines, parsed and constructed, and the
    path and sha256 of each file read, by file name."""

    path: Path
    algebra1: Algebra
    algebra2: Algebra
    translation: Translation | None
    relation: CrossImplication | None
    inputs: dict

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


def read_input(path: str | Path, digests: list) -> str:
    """The text of an input file, whose bytes are read once: their path and
    sha256 go to ``digests``, so that a report names the bytes parsed, and
    they are decoded as ``Path.read_text(encoding="utf-8")`` decodes them,
    strict UTF-8 with CRLF and lone CR read as LF."""
    path = Path(path)
    data = path.read_bytes()
    digests.append({"path": str(path), "sha256": hashlib.sha256(data).hexdigest()})
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def load_algebras(path1: str | Path, path2: str | Path,
                  digests: list | None = None) -> tuple[Algebra, Algebra]:
    """The algebras of two language files, both parsed before either is
    built, each file read by ``read_input`` into ``digests`` when given.
    Seeds name their language, so the two names must differ."""
    digests = [] if digests is None else digests
    cuts = [cut_language(read_input(p, digests)) for p in (path1, path2)]
    if cuts[0].name == cuts[1].name:
        raise LanguageNameClashError(
            f"both language files declare the language {cuts[0].name!r}; "
            "the two languages of a pair need distinct names")
    return tuple(Algebra.from_spec(cut) for cut in cuts)


def load_corpus(path: str | Path) -> Corpus:
    path = Path(path)
    digests = []
    a1, a2 = load_algebras(path / LANG1_FILE, path / LANG2_FILE, digests)
    parsed = {}
    for name, parse in ((TRANSLATION_FILE, parse_translation_file),
                        (IMPLICATION_FILE, parse_implication_file)):
        if (path / name).exists():
            parsed[name] = parse(read_input(path / name, digests), a1, a2)
    if not parsed:
        raise FileNotFoundError(
            f"{path} has neither {TRANSLATION_FILE} nor {IMPLICATION_FILE}"
        )
    return Corpus(path, a1, a2, parsed.get(TRANSLATION_FILE), parsed.get(IMPLICATION_FILE),
                  dict(zip((LANG1_FILE, LANG2_FILE, *parsed), digests)))
