"""Finite Boolean algebras of propositions, built from a language spec.

The quotient by logical equivalence is computed extensionally: a proposition
is the set of models that satisfy it, packed into an ``int`` bitmask (bit i
set means model i satisfies it).  The distinguished element ``star`` sits
above the tautology; joining anything with it gives it back, meeting gives
the other operand, and it has no negation.

Every map over a star lattice -- a translation operator, an image of the
implication relation, a valuation into a joint state-space -- is an array
indexed by slot: the 2**m proposition slots by mask, ascending, then one
star slot.  Values are masks, with -1 for the star.  In two's complement -1
is all ones, so ``a & ~b == 0`` is the star-lattice order, ``&`` and ``|``
are meet and join, and index -1 lands on the star slot.  With the star slot
cut off, the proposition slots reshape without a copy into the pairs of
slots that differ in one bit, so a walk over every cover of the lattice is
one array operation per bit: ``bit_pairs``, ``cover_pairs`` and ``sweep``
below, and ``atom_unions`` for the maps that send each proposition to the
join of its atoms' values.
"""

from __future__ import annotations

import functools
import operator
from collections import defaultdict

import numpy as np

from .errors import (
    AlgebraTooLargeError,
    AtomCapError,
    ContradictionError,
    CrossAlgebraError,
    StarNegationError,
    UndeclaredAtomError,
)
from .language import (
    _UNION_RE,
    IDENT_RE,
    And,
    Arrow,
    Atom,
    FalseLit,
    Formula,
    LanguageCut,
    LanguageSpec,
    Not,
    Or,
    TrueLit,
    parse_formula,
)

DEFAULT_ATOM_CAP = 20

# lattice-wide enumeration (2**n_models propositions) is only attempted below
# this many models
ENUMERABLE_MODEL_LIMIT = 16


def _atom_column(bit: int, n: int) -> int:
    """Truth column of one elementary proposition over all 2**n assignments:
    bit k is bit ``bit`` of k, so 2**bit zeros and 2**bit ones repeat, read
    from repeated bytes."""
    if bit < 3:
        pattern = (b"\xaa", b"\xcc", b"\xf0")[bit]
    else:
        pattern = bytes(1 << (bit - 3)) + b"\xff" * (1 << (bit - 3))
    column = int.from_bytes(pattern * max(1, (1 << n) // (8 * len(pattern))), "little")
    return column if n >= 3 else column & ((1 << (1 << n)) - 1)


def _evaluate(formula: Formula, columns: dict[str, int], full: int) -> int:
    kind = type(formula)
    if kind is Atom:
        return columns[formula.name]
    if kind is Or:
        return _evaluate(formula.left, columns, full) | _evaluate(formula.right, columns, full)
    if kind is And:
        return _evaluate(formula.left, columns, full) & _evaluate(formula.right, columns, full)
    if kind is Not:
        return full ^ _evaluate(formula.child, columns, full)
    if kind is Arrow:
        return (full ^ _evaluate(formula.left, columns, full)) | _evaluate(
            formula.right, columns, full)
    if kind is TrueLit:
        return full
    if kind is FalseLit:
        return 0
    raise TypeError(f"not a formula node: {formula!r}")


def enumerate_models(spec: LanguageSpec | LanguageCut) -> np.ndarray:
    """The keys of all assignments satisfying every belief, ascending, as a
    read-only int64 array.  Bit n-1-j of a key is the value of atom j, so
    ascending keys are the lexicographic order in declared atom order.

    A direct belief of a cut is the OR of its names' columns, or the
    complement of their AND; a tree is walked once, which also refuses an
    undeclared name (which only a spec built in code can have), before any
    contradiction."""
    n = len(spec.elementary)
    if n > DEFAULT_ATOM_CAP:
        raise AtomCapError(
            f"{spec.name!r} declares {n} atoms, above the cap of {DEFAULT_ATOM_CAP}"
        )
    full = (1 << (1 << n)) - 1
    columns = {
        name: _atom_column(n - 1 - j, n) for j, name in enumerate(spec.elementary)
    }
    surviving = full
    for belief in spec.beliefs:
        if type(belief) is tuple:
            negated, names = belief
            if len(names) > n:      # names repeat: one column operation each
                names = set(names)
            if negated:
                value = full
                for name in names:
                    value &= columns[name]
                surviving &= full ^ value
            else:
                value = 0
                for name in names:
                    value |= columns[name]
                surviving &= value
            continue
        try:
            surviving &= _evaluate(belief, columns, full)
        except KeyError:
            mentioned = defaultdict(int, columns)   # undeclared names read as 0
            _evaluate(belief, mentioned, full)
            name = min(mentioned.keys() - columns.keys())
            raise UndeclaredAtomError(f"belief mentions undeclared atom {name!r}") from None
    if surviving == 0:
        raise ContradictionError(f"beliefs of {spec.name!r} admit no model")
    # key k survives where bit k of ``surviving`` is set
    raw = surviving.to_bytes(((1 << n) + 7) // 8, "little")
    return masks_where(np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                                     bitorder="little"))


class Prop:
    """A proposition of one algebra: the bitmask of its satisfying models."""

    __slots__ = ("algebra", "mask")

    def __init__(self, algebra: "Algebra", mask: int):
        if not 0 <= mask <= algebra.full_mask:
            raise ValueError(f"mask {mask:#x} outside algebra {algebra.name!r}")
        self.algebra = algebra
        self.mask = mask

    def __eq__(self, other):
        return (
            isinstance(other, Prop)
            and self.mask == other.mask
            and self.algebra.name == other.algebra.name
        )

    def __hash__(self):
        return hash((self.algebra.name, self.mask))

    def __repr__(self):
        return f"<{self.algebra.name}: {self.algebra.formula_text(self)}>"

    def __and__(self, other):
        return meet(self, other)

    def __or__(self, other):
        return join(self, other)

    def __invert__(self):
        return negate(self)

    def implies(self, other) -> bool:
        return implies(self, other)


class Star:
    """The all-encompassing element above the tautology of one algebra."""

    __slots__ = ("algebra",)

    def __init__(self, algebra: "Algebra"):
        self.algebra = algebra

    def __eq__(self, other):
        return isinstance(other, Star) and self.algebra.name == other.algebra.name

    def __hash__(self):
        return hash((self.algebra.name, "*"))

    def __repr__(self):
        return f"<{self.algebra.name}: *>"


StarProp = Prop | Star


def _require_same(x: StarProp, y: StarProp):
    if x.algebra.name != y.algebra.name:
        raise CrossAlgebraError(
            f"operands from different algebras: {x.algebra.name!r} and {y.algebra.name!r}"
        )


def meet(x: StarProp, y: StarProp) -> StarProp:
    _require_same(x, y)
    if isinstance(x, Star):
        return y
    if isinstance(y, Star):
        return x
    return Prop(x.algebra, x.mask & y.mask)


def join(x: StarProp, y: StarProp) -> StarProp:
    _require_same(x, y)
    if isinstance(x, Star) or isinstance(y, Star):
        return x.algebra.star
    return Prop(x.algebra, x.mask | y.mask)


def negate(x: StarProp) -> Prop:
    if isinstance(x, Star):
        raise StarNegationError("the undefined element has no negation")
    return Prop(x.algebra, x.algebra.full_mask ^ x.mask)


def implies(x: StarProp, y: StarProp) -> bool:
    _require_same(x, y)
    if isinstance(y, Star):
        return True
    if isinstance(x, Star):
        return False
    return x.mask & ~y.mask == 0


class Algebra:
    """The algebra of one language, ordered by implication, plus its star.

    ``keys`` are the assignment keys of its models, ascending, as
    ``enumerate_models`` returns them; model i is bit i of every mask.  The
    language is a spec or a cut, whose spec is built on first access to
    ``spec``: the name and the elementary names are read off either."""

    def __init__(self, spec: LanguageSpec | LanguageCut, keys: np.ndarray):
        if not len(keys):
            raise ContradictionError(f"{spec.name!r} has no models")
        self._spec = spec
        self.name = spec.name
        self.elementary = spec.elementary
        self.keys = keys
        self.full_mask = (1 << len(keys)) - 1
        # bit i of an atom's column is its value in model i: row j of
        # ``bits`` is atom j's bit (bit n-1-j) of every key, cut from its byte
        shift = np.arange(len(spec.elementary) - 1, -1, -1, dtype=np.uint8)
        bits = keys.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8).T[shift >> 3]
        bits >>= (shift & 7)[:, None]
        bits &= 1
        self._columns = {atom: int.from_bytes(column.tobytes(), "little") for atom, column
                         in zip(spec.elementary, np.packbits(bits.T, axis=0, bitorder="little").T)}
        self._atom_labels = None
        self._texts = None

    @classmethod
    def from_spec(cls, spec: LanguageSpec | LanguageCut) -> "Algebra":
        return cls(spec, enumerate_models(spec))

    @property
    def spec(self) -> LanguageSpec:
        if isinstance(self._spec, LanguageCut):
            self._spec = self._spec.spec()
        return self._spec

    # --- basic elements ---

    @property
    def model_count(self) -> int:
        return len(self.keys)

    def prop(self, mask: int) -> Prop:
        return Prop(self, mask)

    @property
    def top(self) -> Prop:
        return Prop(self, self.full_mask)

    @property
    def bottom(self) -> Prop:
        return Prop(self, 0)

    @property
    def star(self) -> Star:
        # made on each use: an algebra holding its star would be a reference
        # cycle, freed only by the cyclic collector
        return Star(self)

    def atoms(self) -> list[Prop]:
        return [Prop(self, 1 << i) for i in range(self.model_count)]

    def require_enumerable(self) -> None:
        """Refuse lattice-wide work (2**model_count propositions) on big algebras."""
        if self.model_count > ENUMERABLE_MODEL_LIMIT:
            raise AlgebraTooLargeError(
                f"{self.name!r} has {self.model_count} models; enumerating "
                f"2**{self.model_count} propositions is not supported"
            )

    def all_props(self):
        """Every proposition, ordered by mask.  Only for small algebras."""
        self.require_enumerable()
        return [Prop(self, mask) for mask in range(self.full_mask + 1)]

    def star_lattice(self):
        """All propositions followed by the star (the canonical index order)."""
        return self.all_props() + [self.star]

    # --- the slot layout ---

    def slots(self) -> np.ndarray:
        """Every element of the star lattice as a value: masks ascending,
        then the star as -1."""
        return np.append(np.arange(self.full_mask + 1, dtype=np.int64), -1)

    def slot(self, x: StarProp) -> int:
        """The value of an element of this algebra: its mask, -1 for the star."""
        if x.algebra.name != self.name:
            raise CrossAlgebraError(
                f"{x.algebra.name!r} given where {self.name!r} is expected")
        return -1 if isinstance(x, Star) else x.mask

    def element(self, v: int) -> StarProp:
        """The element of a value or slot index: -1 and the star's index
        ``full_mask + 1`` are the star, anything else a mask."""
        return self.star if v == -1 or v == self.full_mask + 1 else Prop(self, v)

    # --- denotation ---

    def denote(self, formula: Formula) -> Prop:
        return Prop(self, _evaluate(formula, self._columns, self.full_mask))

    def denote_text(self, text: str, line: int = 1) -> Prop:
        """The proposition of a formula over this algebra's elementary names
        (read off the algebra, so no spec is built).  A union of declared
        names, ``true`` and ``false`` is the OR of their columns, with no
        formula tree; any other text, an undeclared name included, is
        parsed, so that errors keep their type, message, line and column."""
        names = list(map(str.strip, text.split("|")))
        if _UNION_RE.fullmatch(text) and all(map(self.names.__contains__, names)):
            return Prop(self, functools.reduce(operator.or_, map(self.names.__getitem__, names)))
        return self.denote(parse_formula(text, self, line))

    # --- canonical printing ---

    def _labels(self):
        if self._atom_labels is None:
            by_mask = {}
            for name, col in self._columns.items():
                by_mask.setdefault(col, name)
            labels = []
            n = len(self.elementary)
            for i, key in enumerate(self.keys.tolist()):
                mask = 1 << i
                if mask in by_mask:
                    labels.append(by_mask[mask])
                else:
                    lits = []
                    for j, atom in enumerate(self.elementary):
                        val = (key >> (n - 1 - j)) & 1
                        lits.append(atom if val else "!" + atom)
                    labels.append(" & ".join(lits))
            self._atom_labels = labels
        return self._atom_labels

    def formula_text(self, x: StarProp) -> str:
        """Canonical rendering: ``false``, ``true``, ``*`` or a join of atoms."""
        if isinstance(x, Star):
            return "*"
        _require_same(x, self.top)
        if x.mask == 0:
            return "false"
        if x.mask == self.full_mask:
            return "true"
        labels = self._labels()
        return " | ".join(labels[i] for i in range(self.model_count) if x.mask >> i & 1)

    def formula_texts(self) -> tuple[str, ...]:
        """``formula_text`` of every proposition, indexed by mask: the masks
        with atom i set are those below it with label i appended.  Built
        once per algebra."""
        self.require_enumerable()
        if self._texts is None:
            texts = ["false"]
            for label in self._labels():
                texts += [label] + [t + " | " + label for t in texts[1:]]
            texts[-1] = "true"
            self._texts = tuple(texts)
        return self._texts

    @functools.cached_property
    def names(self) -> dict[str, int]:
        """The value of each name that a union can spell: the declared names,
        and ``true`` and ``false`` cut to the full mask; and of ``*``, the
        star."""
        return {"true": self.full_mask, "false": 0,
                **{atom: column for atom, column in self._columns.items()
                   if IDENT_RE.fullmatch(atom)},
                "*": -1}

    def __repr__(self):
        return f"Algebra({self.name!r}, {self.model_count} models)"


# --- arrays over the proposition slots ------------------------------------------


def bit_pairs(a: np.ndarray, b: int) -> np.ndarray:
    """``a``'s axis 0 (2**m proposition slots) viewed as [high bits, bit ``b``
    clear or set, low bits]; writes to the view go through to ``a``."""
    return a.reshape(-1, 2, 1 << b, *a.shape[1:])


def cover_pairs(a: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views ``(a[x], a[x | bit])`` over every cover of the 2**m proposition
    slots on ``a``'s axis 0, one pair of views per bit."""
    m = len(a).bit_length() - 1
    return [(v[:, 0], v[:, 1]) for v in (bit_pairs(a, b) for b in range(m))]


def sweep(a: np.ndarray, op, up: bool) -> None:
    """In place over the 2**m proposition slots on ``a``'s axis 0: ``a[x]``
    becomes ``op`` over ``a[y]`` for every y above x (``up``) or below it,
    one pass per bit, O(m·2^m)."""
    for lower, upper in cover_pairs(a):
        into, frm = (lower, upper) if up else (upper, lower)
        op(into, frm, out=into)


def atom_unions(values) -> np.ndarray:
    """The int64 array over 2**m masks whose entry x is the ``|`` of
    ``values[i]`` over the bits i of x: the masks with bit i set are those
    below it joined with ``values[i]``, so it fills one more half per
    value, O(2^m)."""
    out = np.zeros(1 << len(values), dtype=np.int64)
    for i, v in enumerate(values):
        np.bitwise_or(out[:1 << i], v, out=out[1 << i:2 << i])
    return out


def masks_where(holds: np.ndarray) -> np.ndarray:
    """The masks x with ``holds[x]``, ascending, as a read-only int64 array:
    the form of every result that is a set of propositions."""
    masks = np.flatnonzero(holds).astype(np.int64, copy=False)
    masks.flags.writeable = False
    return masks
