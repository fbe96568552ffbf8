"""Pass/fail reports produced by the axiom checkers, and the JSON text of
every report the command line writes."""

from __future__ import annotations

import functools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

import numpy as np


@dataclass(frozen=True)
class AxiomCheck:
    """Outcome of one named condition: it fails exactly when it has a
    witness, the first violating tuple of elements."""

    name: str
    witness: tuple | None = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.witness is None


@dataclass
class AxiomReport:
    checks: list[AxiomCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> AxiomCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def failures(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.passed]

    def merged(self, other: "AxiomReport") -> "AxiomReport":
        return AxiomReport(self.checks + other.checks)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "witnesses": [] if c.passed else [
                        [x.algebra.formula_text(x) for x in c.witness]
                    ],
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"{status} {c.name}"
            if not c.passed:
                rendered = ", ".join(
                    x.algebra.formula_text(x) for x in c.witness
                )
                line += f"  witness: ({rendered})"
                if c.detail:
                    line += f"  [{c.detail}]"
            lines.append(line)
        return lines


# --- JSON text ------------------------------------------------------------------

_INF = float("inf")
_INT_ONLY = {int}
_STATE_GROUP = 8  # state bits rendered by one lookup, in a table of 2**8 lines
_BLOCK = 1 << 10   # pieces of text, or valuation labels, joined into one block


def write(obj, out, end: str = "") -> None:
    """Write ``dumps(obj) + end`` to the text stream ``out`` a block at a
    time: the whole text is never held, and a small report goes out in one
    write."""
    _render(obj, end, out.write)


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, in time
    proportional to the text: the join of the blocks that ``write`` writes.
    With ``indent`` set, ``json`` runs its pure-Python encoder; here strings
    go through its C escaper, lists of ints are joined at once and a
    ``Valuation`` renders from its event array."""
    blocks = []
    _render(obj, "", blocks.append)
    return "".join(blocks)


def _render(obj, end: str, emit) -> None:
    out = []
    _write(obj, "\n", out, emit)
    out.append(end)
    emit("".join(out))


def _spill(out: list[str], emit) -> None:
    """Pass the pending pieces on as one block once there are many."""
    if len(out) >= _BLOCK:
        emit("".join(out))
        out.clear()


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _key(k) -> str:
    """A dict key as ``json`` writes it: other scalars become strings."""
    if isinstance(k, str):
        return _quote(k)
    if isinstance(k, float):
        return _quote(_float(k))
    if k is True or k is False or k is None:
        return _quote({True: "true", False: "false", None: "null"}[k])
    if isinstance(k, int):
        return _quote(int.__repr__(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _write(o, nl: str, out: list[str], emit) -> None:
    """Append the text of ``o``, whose line starts with ``nl`` (a newline and
    that line's indent), to the pending pieces ``out``, passing blocks on to
    ``emit`` as they fill; the checks run in ``json``'s order, so ``bool``
    never takes the int path."""
    if isinstance(o, str):
        out.append(_quote(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_float(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        if type(o[0]) is int and set(map(type, o)) == _INT_ONLY:
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, o)) + nl + "]")
            return
        sep = "[" + inner
        for x in o:
            out.append(sep)
            _write(x, inner, out, emit)
            _spill(out, emit)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in sorted(o.items()):
            if type(v) is str:
                out.append(sep + _key(k) + ": " + _quote(v))
            else:
                out.append(sep + _key(k) + ": ")
                _write(v, inner, out, emit)
                _spill(out, emit)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(o, (Valuation, Members)):
        emit("".join(out))
        out.clear()
        for block in o.json_blocks(nl):
            emit(block)
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


class Valuation(Mapping):
    """A valuation table: each proposition's label, mapped to the ascending
    list of the states in its event, over an int array of state masks
    indexed like the labels.  It holds no list per event: the JSON writer
    renders it from the array, and a lookup builds the one list asked for."""

    def __init__(self, labels: list[str], events: np.ndarray, state_count: int):
        self._labels = labels
        self._events = events
        self._state_count = state_count

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self):
        return iter(self._labels)

    def __getitem__(self, label: str) -> list[int]:
        event = int(self._events[self._index[label]])
        return [s for s in range(self._state_count) if event >> s & 1]

    @functools.cached_property
    def _index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self._labels)}

    def json_blocks(self, nl: str):
        """The table as ``dumps`` writes it on a line starting with ``nl``, a
        block of labels at a time, in label order: each event's state lines
        come from one lookup per group of state bits in the pre-joined lines
        of that group."""
        labels = self._labels
        if not labels:
            yield "{}"
            return
        key_nl = nl + "  "
        tables = [(lo, _state_lines(lo, min(lo + _STATE_GROUP, self._state_count),
                                    key_nl + "  "))
                  for lo in range(0, self._state_count, _STATE_GROUP)]
        close = key_nl + "]"
        order = sorted(range(len(labels)), key=labels.__getitem__)
        sep = "{" + key_nl
        for start in range(0, len(order), _BLOCK):
            block = order[start:start + _BLOCK]
            events = self._events[block]
            columns = [map(table.__getitem__, ((events >> lo) & (len(table) - 1)).tolist())
                       for lo, table in tables]
            rows = ["[" + body[1:] + close if body else "[]"
                    for body in map("".join, zip(*columns))]
            yield sep + ("," + key_nl).join([_quote(labels[i]) + ": " + row
                                             for i, row in zip(block, rows)])
            sep = "," + key_nl
        yield nl + "}"


class Members(Sequence):
    """The members of a common language, each ``{"host": ..., "partner":
    ...}``, over the labels of both algebras and two int arrays of member
    and partner masks.  It holds no dict per member: the JSON writer renders
    it from the arrays, and a lookup builds the one dict asked for."""

    def __init__(self, host_labels, partner_labels, masks: np.ndarray,
                 partners: np.ndarray):
        self._labels = host_labels, partner_labels
        self._masks = masks, partners

    def __len__(self) -> int:
        return len(self._masks[0])

    def __getitem__(self, i: int) -> dict:
        (host, partner), (masks, partners) = self._labels, self._masks
        return {"host": host[masks[i]], "partner": partner[partners[i]]}

    def json_blocks(self, nl: str):
        """The list as ``dumps`` writes it on a line starting with ``nl``, a
        block of members at a time."""
        (host, partner), (masks, partners) = self._labels, self._masks
        if not len(masks):
            yield "[]"
            return
        item_nl = nl + "  "
        key_nl = item_nl + "  "
        head, middle, close = "{" + key_nl + '"host": ', "," + key_nl + '"partner": ', item_nl + "}"
        sep = "[" + item_nl
        for start in range(0, len(masks), _BLOCK):
            stop = start + _BLOCK
            yield sep + ("," + item_nl).join([
                head + _quote(h) + middle + _quote(p) + close
                for h, p in zip(map(host.__getitem__, masks[start:stop].tolist()),
                                map(partner.__getitem__, partners[start:stop].tolist()))])
            sep = "," + item_nl
        yield nl + "]"


def _state_lines(lo: int, hi: int, nl: str) -> list[str]:
    """At index v, the lines ``,<nl><s>`` of the states ``lo + b`` for the
    bits b set in v, ascending; built by doubling, one state at a time."""
    table = [""]
    for s in range(lo, hi):
        line = f",{nl}{s}"
        table += [t + line for t in table]
    return table
