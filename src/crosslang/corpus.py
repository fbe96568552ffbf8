"""Corpus files: translation specs, implication seeds, whole corpus folders.

A corpus directory holds ``lang1.lang`` and ``lang2.lang`` plus at least one
of ``translation.tr`` (atom-level outer maps, optionally with explicit
``override`` lines) and ``implication.imp`` (seed pairs for the closure).
The two languages must have distinct names: seeds name their language.
Every input file, these and a command's own, is read by ``read_input``:
once, its digest taken from the bytes that are parsed.

Both pair files have one line shape, ``head: endpoint => endpoint``: the
head is one of the six mapping heads (``outer 1>2``, ``override inner
2>1``, ...) of a translation file or the ``imp`` of a seed file, and a seed
endpoint is ``<lang>.<formula>``.  They have one reader.  It takes a block
of whole lines of about 64 KB at a time and cuts it with a few string
calls: comments and empty lines dropped, each line partitioned at its
first ``": "`` and then at its first ``" => "``, every head looked up in
one table (``_HEADS``).  The distinct endpoints of both sides are valued
in one bulk pass (``_union_values``) when each is ``*`` or a union of
declared names, ``true`` and ``false``; a seed endpoint's side is read off
its ``<lang>.`` prefix, cut off once per distinct endpoint.  A block is
refused rather than guessed at when a line boundary other than a newline
would number its lines otherwise, when a line does not cut into three
parts with a head of its file's kind (a tab, a leading blank, ``imp:``
with no blank after it), when an endpoint is not in that grammar (a
formula, a star inside a union, an undeclared name, an unknown language),
when an ``outer`` line maps anything but an atom, or when an algebra has
more than 16 models.

A refused block is read a line at a time from its first line number
(``_cut_rows``): each line cut once, its head looked up in the same table,
each distinct endpoint valued once through ``_parse_value`` (``*``, or
``Algebra.denote_text``, so that errors keep their type, message, line and
column), each kind of file keeping its own error messages in the order
along the line.  As only a refused block can fail, the first error in the
file is the one raised, after the rows before it are valued.

A translation file gives the outer image of each atom, the last line for an
atom winning, and its overrides in file order, for one ``Translation``.
Seeds travel as two (n, 2) arrays, the side (1 or 2) and the value (a mask,
-1 for the star) of each endpoint, which is what ``implication.close_values``
takes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import getitem, not_
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
from .language import cut_language
from .translation import Translation, translation_from_atom_values

LANG1_FILE = "lang1.lang"
LANG2_FILE = "lang2.lang"
TRANSLATION_FILE = "translation.tr"
IMPLICATION_FILE = "implication.imp"

# a seed or translation file is read in blocks of whole lines of about this
# many characters: many lines to each bulk call, while the strings of one
# block stay small
_BLOCK_CHARS = 1 << 16
# each head of a pair-file line, its words spaced once: the direction and
# mode of a mapping line, the mode of an ``outer`` line None; and the
# ``imp`` of a seed line, whose endpoints name their sides
_HEADS = {"imp": (None, None), **{
    f"{head} {direction}": (direction, mode) for direction in ("1>2", "2>1")
    for head, mode in (("outer", None), ("override inner", "inner"),
                       ("override outer", "outer"))}}


def _parse_value(text: str, algebra: Algebra, lineno: int) -> int:
    """The value of an endpoint: a mask, -1 for ``*``."""
    text = text.strip()
    return -1 if text == "*" else algebra.denote_text(text, lineno).mask


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
    outers = {"1>2": {}, "2>1": {}}
    overrides = []
    for kinds, _, values in _read_pairs(text, a1, a2):
        for (direction, mode), x, y in zip(kinds, *values):
            if mode is None:
                outers[direction][x] = y
            else:
                overrides.append((direction, mode, x, y))
    return translation_from_atom_values(a1, a2, outers["1>2"], outers["2>1"], overrides)


def _read_pairs(text: str, a1: Algebra, a2: Algebra, languages: dict | None = None):
    """The rows of a translation file, or of a seed file when ``languages``
    gives the side (1 or 2) of each language name, a block at a time: the
    ``_HEADS`` entry of each line with content, and the sides and the values
    of its endpoints, each as two sequences, the left endpoints' and the
    right ones' (a (2, n) array for a seed block read whole; no sides for a
    translation block read whole).  A block is read whole (``_cut_block``)
    or, where that refuses, a line at a time (``_cut_rows``)."""
    algebras = (None, a1, a2)
    lookups = None              # masks beyond int64: every row one at a time
    if max(a1.model_count, a2.model_count) <= ENUMERABLE_MODEL_LIMIT:
        lookups = (None, a1.names, a2.names)
    found = {}
    lineno = 1
    for block in _blocks(text):
        lines = block.splitlines()
        rows = lookups and _cut_block(block, lines, languages, lookups)
        yield rows or _cut_rows(lines, lineno, languages, algebras, found)
        lineno += len(lines)


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


def _cut_block(block: str, lines: list, languages: dict | None, lookups: tuple):
    """The rows of a block read whole, as ``_read_pairs`` gives them, or
    None when the block is refused.  Each line with content must cut into a
    head of its file's kind, a left and a right endpoint, and each distinct
    endpoint of a side must be ``*`` or a union of names of ``lookups``."""
    if len(lines) != block.count("\n"):
        return None         # numbered otherwise by ``splitlines`` and by "\n"
    if "#" in block:
        lines = [line.partition("#")[0] for line in lines]
    lines = list(filter(None, lines))
    if not lines:
        return [], ([], []), ([], [])
    n = len(lines)
    heads, colons, rest = zip(*map(str.partition, lines, repeat(": ")))
    lhs, arrows, rhs = zip(*map(str.partition, rest, repeat(" => ")))
    kinds = list(map(_HEADS.get, heads))
    if (colons.count(": ") < n or arrows.count(" => ") < n or None in kinds
            or kinds.count(_HEADS["imp"]) != (n if languages else 0)):
        return None     # a line that does not cut, or a head of the other kind
    if languages:       # "<lang>.<formula>", and a language name has no dot
        ends = lhs + rhs
        prefixes = [name + "." for name in languages]
        first = list(map(str.startswith, ends, repeat(prefixes[0])))
        keys = [list(dict.fromkeys(compress(ends, first))),
                list(dict.fromkeys(compress(ends, map(not_, first))))]
        if not all(map(str.startswith, keys[1], repeat(prefixes[1]))):
            return None                             # an unknown language
        texts = [list(map(getitem, side_keys, repeat(slice(len(prefix), None))))
                 for side_keys, prefix in zip(keys, prefixes)]
    else:               # the direction of a line gives its sides
        forward = [direction == "1>2" for direction, _ in kinds]
        backward = list(map(not_, forward))
        keys = texts = [list(dict.fromkeys(chain(compress(own, forward),
                                                 compress(other, backward))))
                        for own, other in ((lhs, rhs), (rhs, lhs))]
    masks = _union_values(texts, lookups)
    if masks is None:
        return None         # undeclared (the parser reports it), or a star in a union
    if languages:
        value_of = dict(zip(keys[0] + keys[1], masks))
        return (kinds, 2 - np.array(first).reshape(2, n),
                np.fromiter(map(value_of.__getitem__, ends), np.int64, 2 * n).reshape(2, n))
    # each endpoint valued by its side's table: the tables of sides 1 and 2,
    # indexed by ``forward`` for a right endpoint and reversed for a left one
    tables = dict(zip(keys[0], masks)), dict(zip(keys[1], masks[len(keys[0]):]))
    xs = list(map(getitem, map(tables[::-1].__getitem__, forward), lhs))
    if not set(compress(xs, map(str.startswith, heads, repeat("outer")))) <= {
            1 << i for i in range(ENUMERABLE_MODEL_LIMIT)}:
        return None                                 # an outer line off an atom
    return kinds, None, (xs, list(map(getitem, map(tables.__getitem__, forward), rhs)))


def _cut_rows(lines: list, start: int, languages: dict | None, algebras: tuple,
              found: dict):
    """The rows of a refused block, as ``_read_pairs`` gives them, a line at
    a time from line ``start``: each line cut once and its head looked up in
    ``_HEADS``, each endpoint valued through ``_parse_value`` once per
    distinct (side, text) in ``found``.  A line's errors come in the order
    along it, so the first error of the block is raised once the rows before
    it are valued; only successes are remembered."""
    kinds, sides, values = [], ([], []), ([], [])
    for lineno, raw in enumerate(lines, start):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, colon, body = line.partition(":")
        lhs, arrow, rhs = body.partition("=>")
        if languages:
            if not colon or head != "imp":
                raise ParseError("expected 'imp: <lang>.<formula> => <lang>.<formula>'",
                                 lineno, 1)
            if not arrow:
                raise ParseError("expected '=>' in seed line", lineno, 1)
            kind = _HEADS[head]
        else:
            words = head.split()
            kind = _HEADS.get(" ".join(words), (None, None))
            if not (colon and arrow and kind[0]):
                raise ParseError(
                    "expected 'outer <dir>: <formula> => <formula|*>'" if not colon
                    else "expected '=>' in mapping line" if not arrow
                    else f"expected direction '1>2' or '2>1', got {words[-1]!r}"
                    if words[:-1] in (["outer"], ["override", "inner"], ["override", "outer"])
                    else f"unrecognised line {line!r}", lineno, 1)
        kinds.append(kind)
        for i, end in enumerate((lhs.strip(), rhs.strip())):
            if languages:
                name, dot, text = end.partition(".")
                if not dot:
                    raise ParseError(f"expected '<lang>.<formula>', got {end!r}", lineno, 1)
                if name not in languages:
                    raise ParseError(f"unknown language {name!r}", lineno, 1)
                side, text = languages[name], text.strip()
            else:       # the source's side, then the target's
                side, text = (i + 1 if kind[0] == "1>2" else 2 - i), end
            value = found.get((side, text))
            if value is None:
                value = found[side, text] = _parse_value(text, algebras[side], lineno)
            if kind[0] and kind[1] is None and not i and (value <= 0 or value & (value - 1)):
                raise ParseError(f"{text!r} does not denote an atom of "
                                 f"{algebras[side].name!r}", lineno, 1)
            sides[i].append(side)
            values[i].append(value)
    return kinds, sides, values


def _union_values(unions: list, lookups: tuple):
    """The values of endpoint texts that are a ``*`` or a union of names,
    ``unions[0]`` valued by the names of ``lookups[1]`` and ``unions[1]`` by
    those of ``lookups[2]``, as one list; None if a name is missing or a
    star is in a union.  Each name is looked up once, and the columns of
    all unions are ORed by one ``reduceat``.  Names are stripped only when
    a blank is left once the bars of the usual ``" | "`` have been closed
    up."""
    every = unions[0] + unions[1]
    columns, count = [], 0
    for texts, lookup in zip(unions, lookups[1:]):
        joined = "|".join(texts).replace(" | ", "|")
        if "*" in joined and any("|" in text for text in texts if "*" in text):
            return None
        names = joined.split("|") if texts else []
        if " " in joined or "\t" in joined:
            names = list(map(str.strip, names))
        columns.append(map(lookup.__getitem__, names))
        count += len(names)
    try:
        columns = np.fromiter(chain(*columns), np.int64, count)
    except KeyError:
        return None
    counts = np.fromiter(map(str.count, every, repeat("|")), np.int64, len(every))
    return np.bitwise_or.reduceat(columns, np.cumsum(counts + 1) - counts - 1).tolist()


def _scan_seeds(text: str, a1: Algebra, a2: Algebra):
    """The seeds of ``imp: <lang>.<formula> => <lang>.<formula>`` lines as
    two arrays of shape (n, 2), in file order: the side of each endpoint,
    1 or 2, and its value, a mask or -1 for the star."""
    a1.require_enumerable()   # before reading masks into int64 arrays
    a2.require_enumerable()
    blocks = [rows[1:] for rows in _read_pairs(text, a1, a2, {a1.name: 1, a2.name: 2})]
    return tuple(np.concatenate([np.empty((0, 2), np.int64)] + [
        np.asarray(block[i], np.int64).reshape(2, -1).T for block in blocks]) for i in (0, 1))


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
