"""Four-operator translations between two algebras and their axiom checks.

A translation stores four total operators on the star-augmented lattices:
the inner and outer operators in each direction.  Each one is a read-only
int64 array of value masks indexed by source mask, with the star slot kept
at the end and ``-1`` standing for the star.  Two's-complement makes that
encoding compose: with ``-1`` as an all-ones mask, ``a & ~b == 0`` is exactly
the star-lattice implication, ``&``/``|`` are meet/join, and index ``-1``
lands on the star slot.
"""

from __future__ import annotations

import numpy as np

from .algebra import Algebra, Prop, Star, StarProp, implies, meet, negate
from .errors import CrossAlgebraError, CrosslangError
from .reports import AxiomCheck, AxiomReport

_CHUNK = 512

# constructor order of the four operators
_OPERATORS = (("1>2", "inner"), ("1>2", "outer"), ("2>1", "inner"), ("2>1", "outer"))


def _slot(x: StarProp, algebra: Algebra) -> int:
    """Array index of an argument or array value of an image; -1 is the star."""
    if x.algebra.name != algebra.name:
        raise CrossAlgebraError(
            f"{x.algebra.name!r} given where {algebra.name!r} is expected")
    return -1 if isinstance(x, Star) else x.mask


class Translation:
    """Inner/outer operator pairs in both directions between two algebras.

    Each operator is given as an int64 array of value masks indexed by
    source mask, star slot last, ``-1`` for the star; it is validated,
    copied and stored read-only.
    """

    def __init__(self, algebra1: Algebra, algebra2: Algebra,
                 inner12, outer12, inner21, outer21):
        if algebra1.name == algebra2.name:
            raise CrossAlgebraError(
                "the two languages of a translation need distinct names"
            )
        self.algebra1 = algebra1
        self.algebra2 = algebra2
        self._operators = {}
        self._consistency = None
        for (direction, mode), vals in zip(_OPERATORS, (inner12, outer12, inner21, outer21)):
            src, dst = self.endpoints(direction)
            src.require_enumerable()
            vals = np.array(vals)
            if vals.dtype != np.int64:
                raise CrosslangError(f"{mode} {direction} map must be an int64 array")
            if vals.shape != (src.full_mask + 2,):
                raise CrosslangError(
                    f"{mode} {direction} map is not total on the source lattice"
                )
            if vals[-1] != -1:
                raise CrosslangError(f"{mode} {direction} map must send * to *")
            if ((vals < -1) | (vals > dst.full_mask)).any():
                raise CrossAlgebraError(
                    f"{mode} {direction} map has a value outside {dst.name!r}"
                )
            vals.flags.writeable = False
            self._operators[(direction, mode)] = vals

    def endpoints(self, direction: str) -> tuple[Algebra, Algebra]:
        if direction == "1>2":
            return self.algebra1, self.algebra2
        if direction == "2>1":
            return self.algebra2, self.algebra1
        raise ValueError(f"direction must be '1>2' or '2>1', got {direction!r}")

    def apply(self, direction: str, mode: str, x: StarProp) -> StarProp:
        """The image of one argument; an outer image of star means undefined."""
        src, dst = self.endpoints(direction)
        return _element(dst, int(self._operators[(direction, mode)][_slot(x, src)]))

    def array(self, direction: str, mode: str) -> np.ndarray:
        """Value masks indexed by source mask, star slot last, -1 for star."""
        return self._operators[(direction, mode)]

    def replace(self, direction: str, mode: str, x: StarProp, y: StarProp) -> "Translation":
        """A copy with one operator entry changed (used to inject violations)."""
        src, dst = self.endpoints(direction)
        operators = dict(self._operators)
        vals = operators[(direction, mode)].copy()
        vals[_slot(x, src)] = _slot(y, dst)
        operators[(direction, mode)] = vals
        return Translation(self.algebra1, self.algebra2,
                           *(operators[key] for key in _OPERATORS))

    def __eq__(self, other):
        return (
            isinstance(other, Translation)
            and self.algebra1.name == other.algebra1.name
            and self.algebra2.name == other.algebra2.name
            and all(np.array_equal(self._operators[key], other._operators[key])
                    for key in _OPERATORS)
        )

    def __repr__(self):
        return f"Translation({self.algebra1.name!r} <-> {self.algebra2.name!r})"

    def is_consistent(self) -> bool:
        if self._consistency is None:
            self._consistency = check_consistency(self).passed
        return self._consistency


def _element(algebra: Algebra, idx: int) -> StarProp:
    return algebra.star if idx > algebra.full_mask or idx < 0 else Prop(algebra, idx)


def with_star(vals: np.ndarray) -> np.ndarray:
    """Append the star slot, which every operator sends to the star."""
    return np.append(vals, np.int64(-1))


def translation_from_atom_outers(
    a1: Algebra,
    a2: Algebra,
    outer_on_atoms12: dict[Prop, StarProp],
    outer_on_atoms21: dict[Prop, StarProp],
) -> Translation:
    """Extend outer maps from atom images by joins and derive the inner
    maps as their adjoints.

    The outer image of a proposition is the join of its atoms' images, so
    the extension preserves joins; the matching inner operator is then the
    join of all source propositions whose outer image implies the argument,
    which over the atoms collapses to a single sweep.
    """
    for algebra, given in ((a1, outer_on_atoms12), (a2, outer_on_atoms21)):
        missing = set(algebra.atoms()) - set(given)
        if missing:
            raise CrosslangError(
                f"missing outer image for atom of {algebra.name!r}"
            )
    a1.require_enumerable()   # before allocating 2**model_count entries
    a2.require_enumerable()

    imgs12 = [_slot(outer_on_atoms12[atom], a2) for atom in a1.atoms()]
    imgs21 = [_slot(outer_on_atoms21[atom], a1) for atom in a2.atoms()]

    def extend_outer(src: Algebra, imgs):
        masks = np.arange(src.full_mask + 1, dtype=np.int64)
        out = np.zeros(src.full_mask + 1, dtype=np.int64)
        for j, img in enumerate(imgs):
            out[(masks >> j) & 1 == 1] |= img
        return with_star(out)

    def adjoint_inner(src: Algebra, dst_atom_imgs):
        # join over target atoms whose own outer image implies the argument
        masks = np.arange(src.full_mask + 1, dtype=np.int64)
        out = np.zeros(src.full_mask + 1, dtype=np.int64)
        for j, img in enumerate(dst_atom_imgs):
            if img == -1:
                continue
            out[img & ~masks == 0] |= np.int64(1) << j
        return with_star(out)

    return Translation(
        a1, a2,
        adjoint_inner(a1, imgs21), extend_outer(a1, imgs12),
        adjoint_inner(a2, imgs12), extend_outer(a2, imgs21),
    )


# --- scalar predicates (reference semantics for witnesses) --------------------


def galois_pair_holds(t: Translation, direction: str, lam: StarProp, eta: StarProp) -> bool:
    """The adjunction biconditional at one pair; ``lam`` is in the source of
    ``direction``, ``eta`` in its target."""
    back = "2>1" if direction == "1>2" else "1>2"
    lhs = implies(eta, t.apply(direction, "inner", lam))
    rhs = implies(t.apply(back, "outer", eta), lam)
    return lhs == rhs


def approximation_holds(t: Translation, direction: str, lam: StarProp) -> bool:
    return implies(t.apply(direction, "inner", lam), t.apply(direction, "outer", lam))


def restricted_duality_holds(t: Translation, direction: str, lam: Prop) -> bool:
    src, _ = t.endpoints(direction)
    outer = t.apply(direction, "outer", lam)
    if isinstance(outer, Star):
        return True
    expected = meet(negate(outer), t.apply(direction, "inner", src.top))
    return t.apply(direction, "inner", negate(lam)) == expected


# --- exhaustive checkers -------------------------------------------------------


def check_galois(t: Translation) -> AxiomReport:
    """Exhaustively test the adjunction over every pair in both pairings."""
    report = AxiomReport()
    for direction in ("1>2", "2>1"):
        back = "2>1" if direction == "1>2" else "1>2"
        src, dst = t.endpoints(direction)
        inner_vals = t.array(direction, "inner")
        outer_back = t.array(back, "outer")
        ns, nd = src.full_mask + 2, dst.full_mask + 2
        eta_masks = np.arange(dst.full_mask + 1, dtype=np.int64)

        lhs = np.empty((ns, nd), dtype=bool)
        lhs[:, :-1] = (eta_masks[None, :] & ~inner_vals[:, None]) == 0
        lhs[:, -1] = inner_vals == -1

        rhs = np.empty((ns, nd), dtype=bool)
        rhs[:-1, :] = (outer_back[None, :] & ~np.arange(src.full_mask + 1,
                                                        dtype=np.int64)[:, None]) == 0
        rhs[-1, :] = True

        bad = np.argwhere(lhs != rhs)
        if bad.size:
            i, j = (int(v) for v in bad[0])
            witness = (
                _element(src, i if i < ns - 1 else -1),
                _element(dst, j if j < nd - 1 else -1),
            )
            report.checks.append(AxiomCheck(f"galois:{direction}", False, (witness,)))
        else:
            report.checks.append(AxiomCheck(f"galois:{direction}", True))
    return report


def check_approximation(t: Translation) -> AxiomReport:
    """Inner images must imply outer images everywhere."""
    report = AxiomReport()
    for direction in ("1>2", "2>1"):
        src, _ = t.endpoints(direction)
        inner_vals = t.array(direction, "inner")
        outer_vals = t.array(direction, "outer")
        ok = (inner_vals & ~outer_vals) == 0
        bad = np.flatnonzero(~ok)
        if bad.size:
            i = int(bad[0])
            witness = (_element(src, i if i < len(ok) - 1 else -1),)
            report.checks.append(
                AxiomCheck(f"approximation:{direction}", False, (witness,))
            )
        else:
            report.checks.append(AxiomCheck(f"approximation:{direction}", True))
    return report


def check_restricted_duality(t: Translation) -> AxiomReport:
    """Negation must commute with translation relative to the translated top."""
    report = AxiomReport()
    for direction in ("1>2", "2>1"):
        src, dst = t.endpoints(direction)
        inner_vals = t.array(direction, "inner")
        outer_vals = t.array(direction, "outer")
        n = src.full_mask + 1
        lam = np.arange(n, dtype=np.int64)
        guard = outer_vals[:n] != -1
        inner_top = inner_vals[src.full_mask]
        expected = (np.int64(dst.full_mask) ^ outer_vals[:n]) & inner_top
        got = inner_vals[src.full_mask ^ lam]
        bad = np.flatnonzero(guard & (got != expected))
        if bad.size:
            witness = (Prop(src, int(bad[0])),)
            report.checks.append(
                AxiomCheck(f"restricted-duality:{direction}", False, (witness,))
            )
        else:
            report.checks.append(AxiomCheck(f"restricted-duality:{direction}", True))
    return report


def check_consistency(t: Translation) -> AxiomReport:
    """All three translation axioms in one report."""
    return (
        check_galois(t)
        .merged(check_approximation(t))
        .merged(check_restricted_duality(t))
    )


def _pairwise_violation(src: Algebra, vals: np.ndarray, kind: str):
    """Scan all argument pairs for a preservation failure; return first or None.

    ``kind`` is ``meet`` or ``join``.  Arguments range over the star lattice;
    index arithmetic with -1 lands on the star slot by design.
    """
    dm = np.append(np.arange(src.full_mask + 1, dtype=np.int64), -1)
    n = len(dm)
    for start in range(0, n, _CHUNK):
        rows = dm[start:start + _CHUNK]
        if kind == "meet":
            idx = rows[:, None] & dm[None, :]
            combined = vals[rows][:, None] & vals[None, :]
        else:
            idx = rows[:, None] | dm[None, :]
            combined = vals[rows][:, None] | vals[None, :]
        bad = np.argwhere(vals[idx] != combined)
        if bad.size:
            r, c = (int(v) for v in bad[0])
            return (_element(src, int(rows[r])), _element(src, int(dm[c])))
    return None


def _monotone_violation(src: Algebra, vals: np.ndarray):
    dm = np.append(np.arange(src.full_mask + 1, dtype=np.int64), -1)
    n = len(dm)
    for start in range(0, n, _CHUNK):
        rows = dm[start:start + _CHUNK]
        ordered = (rows[:, None] & ~dm[None, :]) == 0
        preserved = (vals[rows][:, None] & ~vals[None, :]) == 0
        bad = np.argwhere(ordered & ~preserved)
        if bad.size:
            r, c = (int(v) for v in bad[0])
            return (_element(src, int(rows[r])), _element(src, int(dm[c])))
    return None


def _ideal_violation(src: Algebra, vals: np.ndarray):
    """The approximable set must be a downset closed under joins."""
    n = src.full_mask + 1
    lam = np.arange(n, dtype=np.int64)
    approx = vals[:n] != -1
    for start in range(0, n, _CHUNK):
        rows = lam[start:start + _CHUNK]
        below = (rows[:, None] & ~lam[None, :]) == 0
        down_bad = np.argwhere(below & ~approx[start:start + _CHUNK][:, None]
                               & approx[None, :])
        if down_bad.size:
            r, c = (int(v) for v in down_bad[0])
            return (Prop(src, int(rows[r])), Prop(src, int(lam[c])))
        join_idx = rows[:, None] | lam[None, :]
        join_bad = np.argwhere(
            approx[start:start + _CHUNK][:, None]
            & approx[None, :]
            & ~approx[join_idx]
        )
        if join_bad.size:
            r, c = (int(v) for v in join_bad[0])
            return (Prop(src, int(rows[r])), Prop(src, int(lam[c])))
    return None


def check_derived_properties(t: Translation) -> AxiomReport:
    """Structure the adjunction forces on each operator: extremes, concreteness
    of the inners, monotonicity, meet/join preservation, and that the set of
    approximable propositions is an ideal."""
    report = AxiomReport()
    for direction in ("1>2", "2>1"):
        src, dst = t.endpoints(direction)
        for mode in ("inner", "outer"):
            vals = t.array(direction, mode)
            tag = f"{mode}:{direction}"
            extreme = vals[0] == 0 and vals[-1] == -1
            report.checks.append(
                AxiomCheck(
                    f"extreme:{tag}", bool(extreme),
                    () if extreme else ((src.bottom, src.star),),
                )
            )
            if mode == "inner":
                starry = np.flatnonzero(vals[:-1] == -1)
                if starry.size:
                    report.checks.append(
                        AxiomCheck(f"concrete:{tag}", False,
                                   ((Prop(src, int(starry[0])),),))
                    )
                else:
                    report.checks.append(AxiomCheck(f"concrete:{tag}", True))
            bad = _monotone_violation(src, vals)
            report.checks.append(
                AxiomCheck(f"monotone:{tag}", bad is None,
                           () if bad is None else (bad,))
            )
            kind = "meet" if mode == "inner" else "join"
            bad = _pairwise_violation(src, vals, kind)
            report.checks.append(
                AxiomCheck(f"preserves-{kind}:{tag}", bad is None,
                           () if bad is None else (bad,))
            )
            bad = _ideal_violation(src, vals)
            report.checks.append(
                AxiomCheck(f"approximable-ideal:{tag}", bad is None,
                           () if bad is None else (bad,))
            )
    return report


def approximable_set(t: Translation, direction: str, mode: str = "outer") -> set[Prop]:
    """Propositions whose image is defined (not star)."""
    src, _ = t.endpoints(direction)
    vals = t.array(direction, mode)
    return {Prop(src, m) for m in range(src.full_mask + 1) if vals[m] != -1}
