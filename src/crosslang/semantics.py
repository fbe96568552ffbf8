"""Joint state-spaces, set-level approximation and probability bounds.

A state pairs an atom of one algebra with a compatible atom of the other, or
stands alone when its atom's outer image is undefined.  Both algebras embed
into the resulting field of sets; events are int bitmasks over the state
list.
"""

from __future__ import annotations

import numpy as np

from .algebra import Algebra, Prop, Star, StarProp, atom_unions, cover_pairs
from .errors import (
    AlgebraTooLargeError,
    CrosslangError,
    InconsistentInputError,
    InvalidWeightsError,
)
from .implication import CrossImplication, translation_from_implication
from .reports import AxiomCheck, AxiomReport, Valuation
from .translation import Translation, first_violation


class JointStateSpace:
    """States plus one valuation per algebra, embedding it as a field of sets."""

    def __init__(self, algebra1: Algebra, algebra2: Algebra,
                 states: list[tuple[int | None, int | None]]):
        if len(states) > 63:  # events are int64 state masks; bit 63 is the sign
            raise AlgebraTooLargeError(
                f"the joint state space has {len(states)} states, above the cap of 63")
        self.algebra1 = algebra1
        self.algebra2 = algebra2
        self.states = list(states)
        self._ev = {}
        self._atoms = {}
        for side, algebra in ((1, algebra1), (2, algebra2)):
            atom_states = [0] * algebra.model_count
            for s, pair in enumerate(self.states):
                atom = pair[side - 1]
                if atom is not None:
                    atom_states[atom] |= 1 << s
            if any(mask == 0 for mask in atom_states):
                raise InconsistentInputError(
                    f"an atom of {algebra.name!r} appears in no state; "
                    "the valuation would not be injective"
                )
            ev = atom_unions(atom_states)
            ev.flags.writeable = False
            self._ev[side] = ev
            self._atoms[side] = tuple(atom_states)

    # --- lookup ---

    @property
    def state_count(self) -> int:
        return len(self.states)

    def algebra(self, side: int) -> Algebra:
        return self.algebra1 if side == 1 else self.algebra2

    def side_of(self, x: StarProp) -> int:
        if x.algebra.name == self.algebra1.name:
            return 1
        if x.algebra.name == self.algebra2.name:
            return 2
        raise CrosslangError(f"{x.algebra.name!r} is not part of this space")

    def event_array(self, side: int) -> np.ndarray:
        """Valuation of every proposition, indexed by mask."""
        return self._ev[side]

    def atom_events(self, side: int) -> tuple[int, ...]:
        """The pairwise disjoint events of the atoms, by atom index; every
        event of that side is a union of them."""
        return self._atoms[side]

    def valuation(self, x: Prop) -> int:
        """The event (state bitmask) a proposition refers to."""
        return int(self._ev[self.side_of(x)][x.mask])

    def generated_field_block_count(self) -> int:
        """Blocks of the coarsest partition refining both event fields: the
        fields are generated by their atom events, so two states share a
        block exactly when they lie in the same atoms."""
        atoms = self._atoms[1] + self._atoms[2]
        return len({tuple(a >> s & 1 for a in atoms) for s in range(self.state_count)})

    def to_dict(self) -> dict:
        """The space as the ``joint`` report: its states by atom labels and
        one ``Valuation`` table per algebra."""
        a1, a2 = self.algebra1, self.algebra2
        texts = {1: a1.formula_texts(), 2: a2.formula_texts()}
        states = [
            {"atom1": None if a is None else texts[1][1 << a],
             "atom2": None if b is None else texts[2][1 << b]}
            for a, b in self.states
        ]
        return {
            "schema_version": 1,
            "language1": a1.name,
            "language2": a2.name,
            "states": states,
            "valuation1": Valuation(texts[1], self._ev[1], self.state_count),
            "valuation2": Valuation(texts[2], self._ev[2], self.state_count),
            "minimal": True,
        }


def build_joint_state_space(r: CrossImplication) -> JointStateSpace:
    """The minimal joint state-space of a relation that passes its axioms.

    In the finite case every ultrafilter is principal at an atom, so the
    states are the compatible atom pairs, plus a lone state for each atom
    whose outer image is undefined.
    """
    if not r.passes_axioms():
        raise InconsistentInputError(
            "relation fails its axioms; no joint state-space exists"
        )
    t = translation_from_implication(r)
    return joint_space_from_translation(t)


def joint_space_from_translation(t: Translation) -> JointStateSpace:
    if not t.is_consistent():
        raise InconsistentInputError(
            "translation fails its axioms; no joint state-space exists"
        )
    a1, a2 = t.algebra1, t.algebra2
    o12 = t.array("1>2", "outer")
    o21 = t.array("2>1", "outer")
    states: list[tuple[int | None, int | None]] = []
    for i in range(a1.model_count):
        if o12[1 << i] == -1:
            states.append((i, None))
        for jj in range(a2.model_count):
            # an undefined outer image (-1, all ones) constrains nothing
            if (1 << jj) & ~o12[1 << i] == 0 and (1 << i) & ~o21[1 << jj] == 0:
                states.append((i, jj))
    for jj in range(a2.model_count):
        if o21[1 << jj] == -1:
            states.append((None, jj))
    absent = a1.model_count + a2.model_count + 1
    states.sort(key=lambda p: (
        absent if p[0] is None else p[0],
        absent if p[1] is None else p[1],
    ))
    return JointStateSpace(a1, a2, states)


class SemanticTranslation:
    """Inner and outer set approximations between the two event fields.

    The target events are the unions of the pairwise disjoint target atom
    events.  So the inner approximation of a set of states is the union of
    the target atom events inside it and the outer one the union of those
    that meet it (Pawlak's lower and upper approximations by blocks); the
    outer one is undefined when the set leaves the union of all of them.
    """

    def __init__(self, space: JointStateSpace):
        self.space = space
        self._arrays = {}

    def _target_atoms(self, frm: int) -> tuple[int, ...]:
        return self.space.atom_events(2 if frm == 1 else 1)

    def inner(self, frm: int, event: int) -> int:
        """Largest expressible event inside: the union of all target events
        contained in the argument."""
        return sum(a for a in self._target_atoms(frm) if a & ~event == 0)

    def outer(self, frm: int, event: int) -> int | None:
        """Smallest expressible event around, or None when no target event
        contains the argument."""
        atoms = self._target_atoms(frm)
        if event & ~sum(atoms):
            return None
        return sum(a for a in atoms if a & event)

    def _tables(self, frm: int) -> tuple[np.ndarray, np.ndarray]:
        """Both approximations of every source event, -1 for an undefined
        outer one, one pass per target atom."""
        if frm not in self._arrays:
            src = self.space.event_array(frm)
            inner = np.zeros_like(src)
            meets = np.zeros_like(src)
            for a in self._target_atoms(frm):
                inner |= np.where((src & a) == a, a, 0)
                meets |= np.where((src & a) != 0, a, 0)
            total = sum(self._target_atoms(frm))
            self._arrays[frm] = (inner, np.where((src & ~total) == 0, meets, -1))
        return self._arrays[frm]

    def inner_array(self, frm: int) -> np.ndarray:
        return self._tables(frm)[0]

    def outer_array(self, frm: int) -> np.ndarray:
        return self._tables(frm)[1]


def sigma_approximation(space: JointStateSpace) -> SemanticTranslation:
    """The canonical set-level translation induced by the two event fields."""
    return SemanticTranslation(space)


def _is_order_embedding(ev: np.ndarray) -> bool:
    """Whether x ⊆ y exactly when ev[x] ⊆ ev[y].  Monotone over covers, and
    no atom's event inside the event of the coatom that misses it: then
    x ⊄ y has an atom a under x and y under the coatom missing a."""
    full = len(ev) - 1
    atoms = 1 << np.arange(full.bit_length(), dtype=np.int64)
    return (all(((lower & ~upper) == 0).all() for lower, upper in cover_pairs(ev))
            and bool(((ev[atoms] & ~ev[full ^ atoms]) != 0).all()))


def _pulled_back(space: JointStateSpace, frm: int, events: np.ndarray) -> np.ndarray:
    """The target masks of events that are unions of target atom events, -1
    kept: bit b is set where the event meets the event of target atom b."""
    masks = np.zeros_like(events)
    for b, atom in enumerate(space.atom_events(2 if frm == 1 else 1)):
        masks |= np.where((events & atom) != 0, np.int64(1) << b, 0)
    return np.where(events == -1, np.int64(-1), masks)


def verify_prop2(t: Translation, space: JointStateSpace) -> AxiomReport:
    """Check the three equivalent readings of one translation against a
    joint state-space: implication as event containment, the set
    approximation as the conjugated operators, and the operators as the
    conjugated approximation.

    A consistent translation implies the up-set of each outer image.  Target
    events are unions of disjoint, nonempty atom events, so the event of λ
    lies inside the event of η iff η is in the up-set of its outer set
    approximation pulled back to a mask.  So each reading compares two
    arrays, and a witness comes from the first row where they differ."""
    if not t.is_consistent():
        raise InconsistentInputError("translation fails its axioms")
    sem = sigma_approximation(space)
    report = AxiomReport()

    witness = None
    for frm, to in ((1, 2), (2, 1)):
        claimed = t.array(f"{frm}>{to}", "outer")[:-1]
        actual = _pulled_back(space, frm, sem.outer_array(frm))
        row = np.flatnonzero(claimed != actual)[:1]
        if row.size:
            src, dst = space.algebra(frm), space.algebra(to)
            # η lies in the up-set of one side's value only (-1 has none)
            i, j = first_violation(
                row, np.arange(dst.full_mask + 1, dtype=np.int64),
                lambda x, y: ((claimed[x] & ~y) == 0) & (claimed[x] != -1)
                != ((actual[x] & ~y) == 0) & (actual[x] != -1),
            )
            witness = (Prop(src, i), Prop(dst, j))
            break
    for side in (1, 2):
        ev = space.event_array(side)
        if witness is None and not _is_order_embedding(ev):
            masks = np.arange(len(ev), dtype=np.int64)
            i, j = first_violation(
                masks, masks,
                lambda x, y: ((x & ~y) == 0) != ((ev[x] & ~ev[y]) == 0),
            )
            witness = (Prop(space.algebra(side), i), Prop(space.algebra(side), j))
    report.checks.append(AxiomCheck("implication-matches-containment", witness))

    for name, conjugate in (
        ("semantic-from-syntactic", True),
        ("syntactic-from-semantic", False),
    ):
        witness = None
        for frm, to in ((1, 2), (2, 1)):
            for mode in ("inner", "outer"):
                t_vals = t.array(f"{frm}>{to}", mode)[:-1]
                sem_vals = (sem.inner_array(frm) if mode == "inner"
                            else sem.outer_array(frm))
                if conjugate:
                    dst_ev = space.event_array(to)
                    bad = sem_vals != np.where(t_vals == -1, np.int64(-1), dst_ev[t_vals])
                else:
                    # pull the approximation back through the atom events
                    bad = _pulled_back(space, frm, sem_vals) != t_vals
                if witness is None and bad.any():
                    witness = (Prop(space.algebra(frm), int(bad.argmax())),)
        report.checks.append(AxiomCheck(name, witness))
    return report


def probability_bounds(space: JointStateSpace, p, x: StarProp, target: int):
    """The probability interval a speaker of the target language assigns to
    a proposition of the other language: the inner approximation prices the
    lower bound, the outer the upper, and an undefined outer leaves 1."""
    weights = _normalize_weights(space, p)
    if isinstance(x, Star):
        return (1.0, 1.0)
    frm = space.side_of(x)
    if frm == target:
        raise CrosslangError("the proposition already lives in the target language")
    sem = sigma_approximation(space)
    event = space.valuation(x)
    inner = sem.inner(frm, event)
    outer = sem.outer(frm, event)
    lo = _mass(weights, inner)
    hi = 1.0 if outer is None else _mass(weights, outer)
    return (lo, hi)


def _normalize_weights(space: JointStateSpace, p) -> list[float]:
    """One weight per state, from a list or a map by state index (int or str)."""
    n = space.state_count
    values = p
    if isinstance(p, dict):
        named = set(range(n)) | {str(i) for i in range(n)}
        stray = [key for key in p if key not in named]
        if stray:
            raise InvalidWeightsError(f"weight keys {stray} name none of the {n} states")
        values = [p.get(i, p.get(str(i), 0.0)) for i in range(n)]
    try:
        weights = [float(v) for v in values]
    except (TypeError, ValueError) as exc:
        raise InvalidWeightsError(f"weights must be numbers: {exc}") from None
    if len(weights) != n:
        raise InvalidWeightsError(f"{len(weights)} weights for {n} states")
    if not all(0 <= w < float("inf") for w in weights):   # NaN fails too
        raise InvalidWeightsError("probabilities must be finite and non-negative")
    total = sum(weights)
    if abs(total - 1.0) > 1e-9:
        raise InvalidWeightsError(f"probabilities sum to {total}, not 1")
    return weights


def _mass(weights: list[float], event: int) -> float:
    return sum(w for i, w in enumerate(weights) if event >> i & 1)
