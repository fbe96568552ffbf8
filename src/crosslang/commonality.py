"""Common languages, translation fixed points and comparative awareness."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import Algebra, Prop, atom_unions, masks_where
from .errors import (
    CharacterizationMismatchError,
    DegenerateCommonLanguageError,
    InconsistentInputError,
)
from .reports import AxiomCheck, AxiomReport, Members
from .semantics import JointStateSpace
from .translation import Translation, first_violation


def _direction(side: int) -> tuple[str, str]:
    return ("1>2", "2>1") if side == 1 else ("2>1", "1>2")


def _recovered(t: Translation, side: int, there: str, back: str) -> np.ndarray:
    """Per source mask: whether the round trip through the other language,
    by the ``there`` operator and then the ``back`` one, returns it."""
    fwd, rev = _direction(side)
    image = t.array(fwd, there)[:-1]
    return t.array(rev, back)[image] == np.arange(len(image))


def perfect_translations(t: Translation, side: int) -> np.ndarray:
    """Masks of the propositions translated without ambiguity, ascending.

    Four characterizations must coincide: inner equals outer, existence of a
    mutually implied partner, and recovery under each double outer / double
    inner round trip.  A mismatch can only mean a bug or an inconsistent
    translation, never a valid state.
    """
    if not t.is_consistent():
        raise InconsistentInputError("translation fails its axioms")
    fwd, _ = _direction(side)
    inner = t.array(fwd, "inner")[:-1]
    outer = t.array(fwd, "outer")[:-1]
    set_a = inner == outer
    # some η lies between outer and inner iff outer is defined and under inner
    set_b = (outer != -1) & ((outer & ~inner) == 0)
    if not (np.array_equal(set_a, set_b)
            and np.array_equal(set_a, _recovered(t, side, "outer", "outer"))
            and np.array_equal(set_a, _recovered(t, side, "inner", "inner"))):
        raise CharacterizationMismatchError(
            "the characterizations of the perfect set disagree"
        )
    return masks_where(set_a)


def fixed_points(t: Translation, side: int) -> np.ndarray:
    """Masks of the propositions recovered exactly by both round trips
    through the other language, ascending; a superset of the perfect set,
    often strict."""
    if not t.is_consistent():
        raise InconsistentInputError("translation fails its axioms")
    return masks_where(_recovered(t, side, "inner", "outer")
                       & _recovered(t, side, "outer", "inner"))


@dataclass
class CommonLanguage:
    """The perfect set hosted in one algebra, as its member masks (ascending)
    and their partners' masks, both read-only int64 arrays."""

    host: Algebra
    partner_algebra: Algebra
    masks: np.ndarray
    partners: np.ndarray

    @property
    def top(self) -> Prop:
        return Prop(self.host, int(self.masks[-1]))

    @property
    def bottom(self) -> Prop:
        return Prop(self.host, int(self.masks[0]))

    def to_dict(self) -> dict:
        host, partner = self.host.formula_texts(), self.partner_algebra.formula_texts()
        return {
            "schema_version": 1,
            "host": self.host.name,
            "partner": self.partner_algebra.name,
            "size": len(self.masks),
            "top": host[self.masks[-1]],
            "bottom": host[self.masks[0]],
            "members": Members(host, partner, self.masks, self.partners),
        }


def common_language(t: Translation) -> CommonLanguage:
    """The common language hosted in language 1: the unions of the side-1
    parts of the connected components of the compatible pairs
    (``Translation.compatibility``) that hold no lone atom, each partnered
    by the union of the matching side-2 parts.

    Take a consistent translation, write img(a) for an atom's outer image
    and D1, D2 for the non-lone atoms.

    1. λ is perfect iff outer(λ) is concrete and lies under inner(λ), as
       approximation puts inner(λ) under outer(λ).
    2. outer(λ) joins img(a) over a ∈ λ, and inner(λ) the b ∈ D2 with
       img(b) ⊆ λ.  So 1 holds iff every a ∈ λ is non-lone, and every
       b ∈ img(a) is non-lone with img(b) ⊆ λ.
    3. Restricted duality turns b ∈ img(a) into compatibility on D1×D2,
       and a lone atom is compatible with each atom whose image holds it.
       So 2 holds iff λ is closed under compatibility and reaches no lone
       atom through it: λ is a union of side-1 parts of lone-free
       components.
    4. Approximation in both directions leaves no non-lone atom without a
       partner.  So every lone-free component has two non-empty sides,
       outer(λ) is the union of the side-2 parts of λ's components, and
       the partner map is an order embedding.

    Unions of disjoint blocks are closed under meet and relative complement
    and have a top by construction.  The result is audited: unless its
    masks are ``perfect_translations``, whose four characterizations must
    agree, and its partners their outer images, it raises
    ``CharacterizationMismatchError``.
    """
    perfect = perfect_translations(t, 1)
    parts = _lone_free_components(*t.compatibility[2:])
    masks = atom_unions([side1 for side1, _ in parts])
    partners = atom_unions([side2 for _, side2 in parts])
    if not (np.array_equal(masks, perfect)
            and np.array_equal(partners, t.array("1>2", "outer")[masks])):
        raise CharacterizationMismatchError(
            "the common language from the compatibility relation differs from "
            "the perfect set"
        )
    if len(masks) < 2:
        raise DegenerateCommonLanguageError(
            "only the contradiction translates exactly"
        )
    masks.flags.writeable = partners.flags.writeable = False
    return CommonLanguage(t.algebra1, t.algebra2, masks, partners)


def _bits(rows: np.ndarray) -> list[int] | int:
    """Each row of bools as an int mask, bit i for column i."""
    return (rows.astype(np.int64) << np.arange(rows.shape[-1])).sum(axis=-1).tolist()


def _lone_free_components(pairs: np.ndarray, lone1: np.ndarray,
                          lone2: np.ndarray) -> list[tuple[int, int]]:
    """The side-1 and side-2 atom masks of the components of the compatible
    pairs that hold a side-1 atom and no lone atom: each side-1 atom and its
    partners absorb every component that shares one of them.

    A component goes last when its highest side-1 atom joins it, so the
    components come ordered by that atom, and their unions by
    ``atom_unions`` ascend: where two unions first differ from the top, the
    last component on which they differ holds a bit above every bit of the
    components before it."""
    parts = []
    for a, side2 in enumerate(_bits(pairs)):
        side1 = 1 << a
        for part in [part for part in parts if part[1] & side2]:
            parts.remove(part)
            side1, side2 = side1 | part[0], side2 | part[1]
        parts.append((side1, side2))
    lone1, lone2 = _bits(lone1), _bits(lone2)
    return [(side1, side2) for side1, side2 in parts
            if not (side1 & lone1 or side2 & lone2)]


def _is_atom_homomorphism(ev: np.ndarray) -> bool:
    """Whether a valuation preserves meets and relative complements: it sends
    false to the empty event and each proposition to the union of its
    atoms' events, and those events are pairwise disjoint."""
    atoms = ev[1 << np.arange(len(ev).bit_length() - 1)]
    disjoint = np.bitwise_count(atoms).sum() == np.bitwise_count(np.bitwise_or.reduce(atoms))
    return bool(disjoint and np.array_equal(ev, atom_unions(atoms)))


def joint_embeddings(t: Translation, space: JointStateSpace) -> AxiomReport:
    """Check the embedding diagram around the joint state-space.

    Both algebras must embed injectively, preserving meets and relative
    complements; the common language must land on the same events through
    either leg; and routing a common member through an inner or an outer
    operator must not change where it lands.
    """
    report = AxiomReport()
    for side in (1, 2):
        algebra = space.algebra(side)
        ev = space.event_array(side)
        n = len(ev)
        injective = bool((np.diff(np.sort(ev)) != 0).all())
        report.checks.append(AxiomCheck(f"embedding-injective:{side}",
                                        None if injective else (algebra.bottom,)))
        witness = None
        if not _is_atom_homomorphism(ev):
            masks = np.arange(n, dtype=np.int64)
            full = np.int64(algebra.full_mask)
            i, j = first_violation(
                masks, masks,
                lambda x, y: (ev[x & y] != (ev[x] & ev[y]))
                | (ev[(full ^ x) & y] != (ev[y] & ~ev[x])),
            )
            witness = (Prop(algebra, i), Prop(algebra, j))
        report.checks.append(AxiomCheck(f"embedding-homomorphism:{side}", witness))

    try:
        common = common_language(t)
    except DegenerateCommonLanguageError:
        return report
    masks, partners = common.masks, common.partners
    a1, a2 = t.algebra1, t.algebra2
    ev1, ev2 = space.event_array(1), space.event_array(2)
    target = ev1[masks]
    # a member's four legs: its inner and outer image, and its partner's
    legs = {}
    for direction, start, ev in (("1>2", masks, ev2), ("2>1", partners, ev1)):
        legs[direction] = np.zeros(len(masks), dtype=bool)
        for mode in ("inner", "outer"):
            image = t.array(direction, mode)[start]
            legs[direction] |= (image == -1) | (ev[image] != target)
    diagram_witness = legs_witness = None
    bad = np.flatnonzero(ev2[partners] != target)
    if bad.size:
        diagram_witness = (Prop(a1, int(masks[bad[0]])), Prop(a2, int(partners[bad[0]])))
    bad = np.flatnonzero(legs["1>2"] | legs["2>1"])
    if bad.size:
        i = bad[0]
        legs_witness = ((Prop(a1, int(masks[i])),) if legs["1>2"][i]
                        else (Prop(a2, int(partners[i])),))
    report.checks.append(AxiomCheck("common-diagram-commutes", diagram_witness))
    report.checks.append(AxiomCheck("translation-legs-agree", legs_witness))
    return report


@dataclass
class AwarenessVerdict:
    """How the two languages compare, with the evidence that decided it."""

    classification: str
    summary: str
    evidence: dict = field(default_factory=dict)
    equivalence_divergences: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "classification": self.classification,
            "summary": self.summary,
            "evidence": self.evidence,
            "equivalence_divergences": self.equivalence_divergences,
        }


def classify_awareness(t: Translation, space: JointStateSpace) -> AwarenessVerdict:
    """Compare expressiveness through the joint state-space.

    For each ordered pair the verdict tests event-field inclusion, then the
    pure forms: coarsening (same total event, coarser field) and restriction
    (exact agreement below the smaller total event).  It also audits, per
    direction, that field inclusion, totality of the perfect set and
    pointwise inner = outer agree, reporting any divergence instead of
    assuming the equivalence.
    """
    if not t.is_consistent():
        raise InconsistentInputError("translation fails its axioms")
    # each event field is the unions of its pairwise disjoint atom events,
    # so two fields compare by their atoms
    atoms = {side: space.atom_events(side) for side in (1, 2)}
    tops = {side: sum(atoms[side]) for side in (1, 2)}
    evidence = {}
    divergences = []
    flags = {}
    for i, j in ((1, 2), (2, 1)):
        included = all(sum(b for b in atoms[j] if b & ~a == 0) == a for a in atoms[i])
        coarsening = included and tops[i] == tops[j]
        restriction = set(atoms[i]) == {b & tops[i] for b in atoms[j]} - {0}
        perfect_total = len(perfect_translations(t, i)) == space.algebra(i).full_mask + 1
        d = f"{i}>{j}"
        inner = t.array(d, "inner")
        outer = t.array(d, "outer")
        pointwise = bool((inner[:-1] == outer[:-1]).all())
        flags[(i, j)] = (included, coarsening, restriction)
        evidence[f"sigma{i}_subset_of_sigma{j}"] = bool(included)
        evidence[f"{i}_pure_coarsening_of_{j}"] = bool(coarsening)
        evidence[f"{i}_pure_restriction_of_{j}"] = bool(restriction)
        evidence[f"perfect_set_{i}_is_whole_algebra"] = bool(perfect_total)
        evidence[f"inner_equals_outer_{d}"] = pointwise
        if not (included == perfect_total == pointwise):
            divergences.append(
                f"direction {d}: field inclusion {included}, "
                f"perfect totality {perfect_total}, pointwise {pointwise}"
            )
    evidence["total_events_equal"] = tops[1] == tops[2]

    if set(atoms[1]) == set(atoms[2]):
        classification = "equal"
        summary = "the languages express the same events"
    else:
        classification = "incomparable"
        summary = "neither event field contains the other"
        for i, j in ((1, 2), (2, 1)):
            included, coarsening, restriction = flags[(i, j)]
            if not included:
                continue
            if coarsening:
                classification = f"{i}-pure-coarsening-of-{j}"
                summary = (
                    f"language {i} less aware than language {j} (pure coarsening)"
                )
            elif restriction:
                classification = f"{i}-pure-restriction-of-{j}"
                summary = (
                    f"language {i} less aware than language {j} (pure restriction)"
                )
            else:
                classification = f"{i}-less-aware-than-{j}"
                summary = f"language {i} less aware than language {j}"
            break
    return AwarenessVerdict(classification, summary, evidence, divergences)
