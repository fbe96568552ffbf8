"""Joint state-spaces, set-level approximation and probability bounds.

A state pairs an atom of one algebra with a compatible atom of the other, or
stands alone when its atom's outer image is undefined.  Both algebras embed
into the resulting field of sets; events are int bitmasks over the state
list.
"""

from __future__ import annotations

import numpy as np

from .algebra import Algebra, Prop, Star, StarProp
from .errors import (
    AlgebraTooLargeError,
    CrosslangError,
    InconsistentInputError,
    InvalidWeightsError,
)
from .implication import (
    CrossImplication,
    implication_from_translation,
    translation_from_implication,
)
from .reports import AxiomCheck, AxiomReport
from .translation import Translation, cover_pairs, first_violation


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
        self._sem = None
        self._ev = {}
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
            n = algebra.full_mask + 1
            ev = np.zeros(n, dtype=np.int64)
            masks = np.arange(n)
            for i, state_mask in enumerate(atom_states):
                ev[(masks >> i) & 1 == 1] |= state_mask
            ev.flags.writeable = False
            self._ev[side] = ev

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

    def valuation(self, x: Prop) -> int:
        """The event (state bitmask) a proposition refers to."""
        return int(self._ev[self.side_of(x)][x.mask])

    def events(self, side: int) -> set[int]:
        return set(int(v) for v in self._ev[side])

    def prop_of_event(self, side: int, event: int) -> Prop:
        table = {int(v): m for m, v in enumerate(self._ev[side])}
        if event not in table:
            raise KeyError(f"event {event:#x} is not expressible on side {side}")
        return Prop(self.algebra(side), table[event])

    def generated_field_block_count(self) -> int:
        """Blocks of the coarsest partition refining both event fields."""
        profiles = {}
        for s in range(self.state_count):
            profile = (
                tuple(int(v >> s & 1) for v in self._ev[1]),
                tuple(int(v >> s & 1) for v in self._ev[2]),
            )
            profiles.setdefault(profile, []).append(s)
        return len(profiles)

    def to_dict(self) -> dict:
        a1, a2 = self.algebra1, self.algebra2
        states = []
        for a, b in self.states:
            states.append({
                "atom1": None if a is None else a1.formula_text(Prop(a1, 1 << a)),
                "atom2": None if b is None else a2.formula_text(Prop(a2, 1 << b)),
            })
        def table(side, algebra):
            ev = self._ev[side]
            return {
                algebra.formula_text(Prop(algebra, mask)): [
                    s for s in range(self.state_count) if int(ev[mask]) >> s & 1
                ]
                for mask in range(algebra.full_mask + 1)
            }
        return {
            "schema_version": 1,
            "language1": a1.name,
            "language2": a2.name,
            "states": states,
            "valuation1": table(1, a1),
            "valuation2": table(2, a2),
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
    """Inner and outer set approximations between the two event fields."""

    def __init__(self, space: JointStateSpace):
        self.space = space
        self._inner = {}
        self._outer = {}
        for frm, to in ((1, 2), (2, 1)):
            src = space.event_array(frm)
            dst_events = sorted(space.events(to))
            inner = np.zeros(len(src), dtype=np.int64)
            outer = np.full(len(src), -1, dtype=np.int64)
            for f in dst_events:
                contained = (f & ~src) == 0
                inner[contained] |= f
                contains = (src & ~f) == 0
                outer[contains] &= f
            self._inner[(frm, to)] = inner
            self._outer[(frm, to)] = outer

    def _index(self, frm: int, event: int) -> int:
        return self.space.prop_of_event(frm, event).mask

    def inner(self, frm: int, event: int) -> int:
        """Largest expressible event inside: the union of all target events
        contained in the argument."""
        to = 2 if frm == 1 else 1
        return int(self._inner[(frm, to)][self._index(frm, event)])

    def outer(self, frm: int, event: int) -> int | None:
        """Smallest expressible event around, or None when no target event
        contains the argument."""
        to = 2 if frm == 1 else 1
        value = int(self._outer[(frm, to)][self._index(frm, event)])
        return None if value == -1 else value

    def inner_array(self, frm: int) -> np.ndarray:
        return self._inner[(frm, 2 if frm == 1 else 1)]

    def outer_array(self, frm: int) -> np.ndarray:
        return self._outer[(frm, 2 if frm == 1 else 1)]


def sigma_approximation(space: JointStateSpace) -> SemanticTranslation:
    """The canonical set-level translation induced by the two event fields."""
    if space._sem is None:
        space._sem = SemanticTranslation(space)
    return space._sem


def _is_order_embedding(ev: np.ndarray) -> bool:
    """Whether x ⊆ y exactly when ev[x] ⊆ ev[y].  Monotone over covers, and
    no atom's event inside the event of the coatom that misses it: then
    x ⊄ y has an atom a under x and y under the coatom missing a."""
    full = len(ev) - 1
    atoms = 1 << np.arange(full.bit_length(), dtype=np.int64)
    return (all(((lower & ~upper) == 0).all() for lower, upper in cover_pairs(ev))
            and bool(((ev[atoms] & ~ev[full ^ atoms]) != 0).all()))


def verify_prop2(t: Translation, space: JointStateSpace) -> AxiomReport:
    """Check the three equivalent readings of one translation against a
    joint state-space: implication as event containment, the set
    approximation as the conjugated operators, and the operators as the
    conjugated approximation."""
    if not t.is_consistent():
        raise InconsistentInputError("translation fails its axioms")
    r = implication_from_translation(t)
    sem = sigma_approximation(space)
    report = AxiomReport()

    witness = None
    for frm, to, rows in ((1, 2, r.rows12), (2, 1, r.rows21)):
        src_ev = space.event_array(frm)
        dst_ev = space.event_array(to)
        claimed = rows[:len(src_ev), :len(dst_ev)]
        actual = (src_ev[:, None] & ~dst_ev[None, :]) == 0
        bad = np.argwhere(claimed != actual)
        if bad.size:
            i, j = (int(v) for v in bad[0])
            witness = (Prop(space.algebra(frm), i), Prop(space.algebra(to), j))
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
    report.checks.append(
        AxiomCheck("implication-matches-containment", witness is None,
                   () if witness is None else (witness,))
    )

    for name, conjugate in (
        ("semantic-from-syntactic", True),
        ("syntactic-from-semantic", False),
    ):
        witness = None
        for frm, to in ((1, 2), (2, 1)):
            src_ev = space.event_array(frm)
            dst_ev = space.event_array(to)
            direction = f"{frm}>{to}"
            for mode in ("inner", "outer"):
                t_vals = t.array(direction, mode)[:len(src_ev)]
                sem_vals = (sem.inner_array(frm) if mode == "inner"
                            else sem.outer_array(frm))
                safe = np.where(t_vals == -1, 0, t_vals)
                expected = np.where(t_vals == -1, np.int64(-1), dst_ev[safe])
                if conjugate:
                    bad = np.flatnonzero(sem_vals != expected)
                else:
                    # pull the approximation back through the valuations
                    table = {int(v): m for m, v in enumerate(dst_ev)}
                    pulled = np.array(
                        [-1 if int(v) == -1 else table[int(v)] for v in sem_vals],
                        dtype=np.int64,
                    )
                    bad = np.flatnonzero(pulled != t_vals)
                if bad.size:
                    witness = (Prop(space.algebra(frm), int(bad[0])),)
                    break
            if witness is not None:
                break
        report.checks.append(
            AxiomCheck(name, witness is None, () if witness is None else (witness,))
        )
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
