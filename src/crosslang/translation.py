"""Four-operator translations between two algebras and their axiom checks.

A translation stores four total operators on the star-augmented lattices:
the inner and outer operators in each direction.  Each one is a read-only
int64 array of values over the source's slots, in the layout that the
``algebra`` module describes.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    Algebra,
    Prop,
    Star,
    StarProp,
    atom_unions,
    implies,
    masks_where,
    meet,
    negate,
    sweep,
)
from .errors import CrossAlgebraError, CrosslangError
from .reports import AxiomCheck, AxiomReport

# constructor order of the four operators
_OPERATORS = (("1>2", "inner"), ("1>2", "outer"), ("2>1", "inner"), ("2>1", "outer"))


class Translation:
    """Inner/outer operator pairs in both directions between two algebras.

    Each operator is given as an int64 array of values over the source's
    slots; it is validated, copied and stored read-only.
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
        # the atom outer images (an int64 array of values per direction) when
        # the operators were derived from them; None for operators given whole
        self._atom_images = None
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
        return dst.element(int(self._operators[(direction, mode)][src.slot(x)]))

    def array(self, direction: str, mode: str) -> np.ndarray:
        """The operator's values over the source's slots."""
        return self._operators[(direction, mode)]

    def replace(self, direction: str, mode: str, x: StarProp, y: StarProp) -> "Translation":
        """A copy with one operator entry changed (used to inject violations)."""
        src, dst = self.endpoints(direction)
        operators = dict(self._operators)
        vals = operators[(direction, mode)].copy()
        vals[src.slot(x)] = dst.slot(y)
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
    a1.require_enumerable()   # before listing the atoms and 2**model_count slots
    a2.require_enumerable()
    for algebra, given in ((a1, outer_on_atoms12), (a2, outer_on_atoms21)):
        missing = set(algebra.atoms()) - set(given)
        if missing:
            raise CrosslangError(
                f"missing outer image for atom of {algebra.name!r}"
            )

    imgs12 = [a2.slot(outer_on_atoms12[atom]) for atom in a1.atoms()]
    imgs21 = [a1.slot(outer_on_atoms21[atom]) for atom in a2.atoms()]

    def adjoint_inner(src: Algebra, dst_atom_imgs):
        # join over target atoms whose own outer image implies the argument:
        # each atom's bit at its image, then one subset sweep
        out = np.zeros(src.full_mask + 1, dtype=np.int64)
        for j, img in enumerate(dst_atom_imgs):
            if img != -1:
                out[img] |= 1 << j
        sweep(out, np.bitwise_or, up=False)
        return with_star(out)

    t = Translation(
        a1, a2,
        adjoint_inner(a1, imgs21), with_star(atom_unions(imgs12)),
        adjoint_inner(a2, imgs12), with_star(atom_unions(imgs21)),
    )
    t._atom_images = {"1>2": np.array(imgs12, dtype=np.int64),
                      "2>1": np.array(imgs21, dtype=np.int64)}
    return t


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


# --- lattice sweeps and the first-witness scan ---------------------------------

# pairs one block of a witness scan holds; bounds the scan's temporaries
_PAIRS_PER_BLOCK = 1 << 18


def first_violation(rows: np.ndarray, cols: np.ndarray, violates) -> tuple[int, int] | None:
    """The first pair ``(row, col)``, row-major in the given orders, that
    violates a condition, or None.

    ``violates(x, y)`` gets a column of rows and a row of columns and
    broadcasts them to a boolean matrix.  Rows go in blocks of at most
    ``_PAIRS_PER_BLOCK`` pairs, which bounds memory; the block size does not
    change which pair comes first.
    """
    step = max(1, _PAIRS_PER_BLOCK // len(cols))
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        hit = np.argwhere(violates(block[:, None], cols[None, :]))
        if hit.size:
            r, c = hit[0]
            return int(block[r]), int(cols[c])
    return None


def _pair_witness(algebra: Algebra, hit: tuple[int, int] | None):
    return None if hit is None else (algebra.element(hit[0]), algebra.element(hit[1]))


# --- exhaustive checkers -------------------------------------------------------


def _galois_failing_rows(src: Algebra, inner_vals: np.ndarray,
                         outer_back: np.ndarray) -> np.ndarray:
    """Source masks whose row of the adjunction fails, ascending.

    Row λ holds iff S(λ) = {η : outer_back(η) ⊆ λ} is the down-set of
    inner(λ): inner(λ) is concrete, the join of S(λ) lies under it and S(λ)
    has 2**|inner(λ)| members.  Join and size of every S(λ) come from one
    subset sweep over the buckets of η by outer_back(η).  The star row always
    holds, since inner(*) = *.
    """
    n = src.full_mask + 1
    back = outer_back[:-1]
    eta = np.flatnonzero(back != -1)
    joined = np.zeros(n, dtype=np.int64)
    np.bitwise_or.at(joined, back[eta], eta)
    size = np.bincount(back[eta], minlength=n)
    sweep(joined, np.bitwise_or, up=False)
    sweep(size, np.add, up=False)
    inner = inner_vals[:-1]
    concrete = inner != -1
    down_size = np.int64(1) << np.bitwise_count(np.where(concrete, inner, 0))
    holds = concrete & ((joined & ~inner) == 0) & (size == down_size)
    return np.flatnonzero(~holds)


def check_galois(t: Translation) -> AxiomReport:
    """Test the adjunction over every pair in both pairings, row by row in
    O(m·2^m); the witness is the first failing pair of the first failing row."""
    report = AxiomReport()
    for direction in ("1>2", "2>1"):
        back = "2>1" if direction == "1>2" else "1>2"
        src, dst = t.endpoints(direction)
        inner_vals = t.array(direction, "inner")
        outer_back = t.array(back, "outer")
        failing = _galois_failing_rows(src, inner_vals, outer_back)
        if failing.size:
            lam, eta = first_violation(
                failing[:1], dst.slots(),
                lambda x, y: ((y & ~inner_vals[x]) == 0) != ((outer_back[y] & ~x) == 0),
            )
            witness = (src.element(lam), dst.element(eta))
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
            witness = (src.element(int(bad[0])),)
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


def atom_axioms_hold(t: Translation) -> bool:
    """Whether all three axioms hold, decided in O(m1·m2) on the atom images
    of a translation derived from them (``translation_from_atom_outers``).

    Write img(a) for the outer image of an atom a, D for the atoms whose
    image is concrete, and take direction 1>2 (2>1 is the mirror image).
    outer(λ) is the join of img(a) over the atoms a of λ, the star when one
    of them is, and inner(λ) is the join of the target atoms b in D with
    img(b) ≤ λ; both send the star to the star.

    - Galois holds by construction.  Stars on either side hold trivially,
      and for concrete λ, η: η ≤ inner(λ) iff every atom b of η is in D with
      img(b) ≤ λ, iff outer_back(η), the join of those images, is concrete
      and ≤ λ.
    - Approximation holds iff b ≤ outer(img(b)) for every target atom b in
      D (a star outer image is above b).  If: for concrete outer(λ) and an
      atom b of inner(λ), img(b) ≤ λ, so outer(img(b)) ≤ outer(λ) by
      monotonicity.  Only if: b is an atom of inner(img(b)), which lies
      under outer(img(b)) when approximation holds at λ = img(b).
    - Restricted duality needs, for every λ with outer(λ) concrete (that is,
      λ ⊆ D), that inner(¬λ) = ¬outer(λ) ∧ inner(⊤), i.e. that for every
      target atom b in D: img(b) misses λ iff b lies in no img(a), a ∈ λ.
      That holds for every such λ iff it holds for each single atom a ∈ D,
      that is iff a ∈ img(b) ⟺ b ∈ img(a) for all a, b in D.  The condition
      is symmetric, so it decides both directions at once.

    Translations without atom images (built from arrays, or by ``replace``)
    give False, as does any failing condition."""
    imgs = t._atom_images
    if imgs is None:
        return False
    defined = {d: np.flatnonzero(v != -1) for d, v in imgs.items()}
    for direction, back in (("1>2", "2>1"), ("2>1", "1>2")):
        b = defined[back]
        under = t.array(direction, "outer")[imgs[back][b]] >> b & 1
        if not under.all():
            return False
    a, b = defined["1>2"], defined["2>1"]
    return np.array_equal(imgs["1>2"][a, None] >> b & 1,
                          (imgs["2>1"][b, None] >> a & 1).T)


def check_consistency(t: Translation) -> AxiomReport:
    """All three translation axioms in one report: six passing checks when
    ``atom_axioms_hold`` decides them on the atom images, otherwise the
    exhaustive checkers with their witnesses."""
    if atom_axioms_hold(t):
        return AxiomReport([AxiomCheck(f"{axiom}:{direction}", True)
                            for axiom in ("galois", "approximation", "restricted-duality")
                            for direction in ("1>2", "2>1")])
    return (
        check_galois(t)
        .merged(check_approximation(t))
        .merged(check_restricted_duality(t))
    )


def _preservation_violation(src: Algebra, vals: np.ndarray, kind: str):
    """The first pair of the star lattice whose ``kind`` (``meet`` or
    ``join``) the operator does not preserve, or None.

    A star argument makes either side the star or the other argument's
    image, so only concrete pairs can fail.  Join preservation holds iff
    f(x) = f(x without its lowest bit) | f(lowest bit of x) for every x > 0;
    meet preservation is the dual, over the lowest zero bit and the coatom
    that misses it.
    """
    x = np.arange(src.full_mask + 1, dtype=np.int64)
    if kind == "join":
        x, op = x[1:], np.bitwise_or
        holds = vals[x] == (vals[x & (x - 1)] | vals[x & -x])
    else:
        x, op = x[:-1], np.bitwise_and
        zero = ~x & (x + 1)
        holds = vals[x] == (vals[x | zero] & vals[src.full_mask ^ zero])
    if holds.all():
        return None
    slots = src.slots()
    return _pair_witness(src, first_violation(
        slots, slots, lambda a, b: vals[op(a, b)] != op(vals[a], vals[b])))


def _monotone_violation(src: Algebra, vals: np.ndarray):
    """The first ordered pair whose images are out of order, or None.  The
    star is above every argument, below none but itself, and its image is
    the top value -1, so only a mask row x can fail: when its image is not
    under the meet of the images above it (one superset sweep)."""
    above = vals[:-1].copy()
    sweep(above, np.bitwise_and, up=True)
    row = np.flatnonzero((vals[:-1] & ~above) != 0)[:1]
    if not row.size:
        return None
    return _pair_witness(src, first_violation(
        row, src.slots(), lambda x, y: ((x & ~y) == 0) & ((vals[x] & ~vals[y]) != 0)))


def _ideal_violation(src: Algebra, vals: np.ndarray):
    """The approximable set must be a downset closed under joins: no mask
    outside it may have an approximable mask above it (one superset sweep),
    and it must be empty or hold its own join.  The witness is the first
    down-set violation, row-major, else the first join violation."""
    n = src.full_mask + 1
    approx = vals[:n] != -1
    lam = np.arange(n, dtype=np.int64)
    any_above = approx.copy()
    sweep(any_above, np.bitwise_or, up=True)
    row = np.flatnonzero(~approx & any_above)[:1]
    if row.size:
        return _pair_witness(src, first_violation(
            row, lam, lambda x, y: ((x & ~y) == 0) & ~approx[x] & approx[y]))
    if not approx.any() or approx[np.bitwise_or.reduce(lam[approx])]:
        return None
    return _pair_witness(src, first_violation(
        lam, lam, lambda x, y: approx[x] & approx[y] & ~approx[x | y]))


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
            bad = _preservation_violation(src, vals, kind)
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


def approximable_set(t: Translation, direction: str) -> np.ndarray:
    """Masks of the propositions whose outer image is defined (not star),
    ascending."""
    return masks_where(t.array(direction, "outer")[:-1] != -1)
