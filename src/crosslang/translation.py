"""Translations between two algebras and their axiom checks.

A translation is held as the outer images of the atoms in each direction
plus an ordered table of overrides.  Its four total operators, inner and
outer in each direction, are read-only int64 arrays of values over the
source's slots (the ``algebra`` module's layout), built on first use.
"""

from __future__ import annotations

import functools

import numpy as np

from .algebra import (
    Algebra,
    Prop,
    StarProp,
    atom_unions,
    masks_where,
    sweep,
)
from .errors import CrossAlgebraError, CrosslangError, ParseError
from .reports import AxiomCheck, AxiomReport

# the order of the four operators
_OPERATORS = (("1>2", "inner"), ("1>2", "outer"), ("2>1", "inner"), ("2>1", "outer"))
# the opposite of each direction
_BACK = {"1>2": "2>1", "2>1": "1>2"}


class Translation:
    """Inner/outer operator pairs in both directions between two algebras,
    held as the outer image of each source atom (-1 for the star), which
    are validated and copied, plus overrides ``(direction, mode, x, y)``
    that set the entry of source value ``x`` to ``y`` in order, so the last
    one of an entry wins; each must keep the star's image the star."""

    def __init__(self, algebra1: Algebra, algebra2: Algebra,
                 images12, images21, overrides=()):
        if algebra1.name == algebra2.name:
            raise CrossAlgebraError(
                "the two languages of a translation need distinct names"
            )
        algebra1.require_enumerable()   # the arrays have 2**model_count slots
        algebra2.require_enumerable()
        self.algebra1 = algebra1
        self.algebra2 = algebra2
        self._images = {}
        for direction, images in (("1>2", images12), ("2>1", images21)):
            src, dst = self.endpoints(direction)
            images = np.array(images)
            if images.dtype != np.int64 or images.shape != (src.model_count,):
                raise CrosslangError(
                    f"outer {direction} map needs one int64 value per atom of {src.name!r}")
            if ((images < -1) | (images > dst.full_mask)).any():
                raise CrossAlgebraError(
                    f"outer {direction} map has a value outside {dst.name!r}")
            images.flags.writeable = False
            self._images[direction] = images
        self.overrides = tuple(overrides)
        self._overridden = set()
        for direction, mode, x, y in self.overrides:
            if (direction, mode) not in _OPERATORS:
                raise ValueError(f"an override needs a direction '1>2' or '2>1' and a "
                                 f"mode 'inner' or 'outer', got {direction!r} {mode!r}")
            if x == -1 and y != -1:
                raise CrosslangError(f"{mode} {direction} map must send * to *")
            self._overridden.add((direction, mode))
        self._arrays = {}
        self._consistency = None

    def endpoints(self, direction: str) -> tuple[Algebra, Algebra]:
        if direction == "1>2":
            return self.algebra1, self.algebra2
        if direction == "2>1":
            return self.algebra2, self.algebra1
        raise ValueError(f"direction must be '1>2' or '2>1', got {direction!r}")

    def apply(self, direction: str, mode: str, x: StarProp) -> StarProp:
        """The image of one argument; an outer image of star means undefined."""
        src, dst = self.endpoints(direction)
        return dst.element(int(self.array(direction, mode)[src.slot(x)]))

    def array(self, direction: str, mode: str, derived: bool = False) -> np.ndarray:
        """The operator's values over the source's slots, built on first use:
        outer as unions of atom images, inner as the adjoint of the opposite
        outer (each target atom's bit at its image, one subset sweep), then
        the overrides.  With ``derived``, the values before the overrides,
        kept beside them (the same array when no override sits on the
        operator)."""
        built = self._arrays.get((direction, mode))
        if built is None:
            src, _ = self.endpoints(direction)
            if mode == "outer":
                vals = atom_unions(self._images[direction])
            elif mode == "inner":
                back = self._images[_BACK[direction]]
                defined = np.flatnonzero(back != -1)
                vals = np.zeros(src.full_mask + 1, dtype=np.int64)
                np.bitwise_or.at(vals, back[defined], np.int64(1) << defined)
                sweep(vals, np.bitwise_or, up=False)
            else:
                raise ValueError(f"mode must be 'inner' or 'outer', got {mode!r}")
            vals = np.append(vals, np.int64(-1))
            vals.flags.writeable = False
            final = vals
            if self.overridden((direction, mode)):
                final = vals.copy()
                for d, m, x, y in self.overrides:
                    if (d, m) == (direction, mode):
                        final[x] = y
                final.flags.writeable = False
            built = self._arrays[(direction, mode)] = (vals, final)
        return built[0] if derived else built[1]

    @functools.cached_property
    def compatibility(self) -> tuple[np.ndarray, ...]:
        """``compatibility_of`` the effective atom images: each
        direction's atom images, or with an override on its outer operator,
        that operator's values at the atom slots."""
        return compatibility_of(*(
            self.array(d, "outer")[1 << np.arange(len(self._images[d]))]
            if self.overridden((d, "outer")) else self._images[d] for d in ("1>2", "2>1")))

    def overridden(self, *operators: tuple[str, str]) -> bool:
        """Whether an override sits on any of the ``(direction, mode)``
        operators."""
        return not self._overridden.isdisjoint(operators)

    def replace(self, direction: str, mode: str, x: StarProp, y: StarProp) -> "Translation":
        """A copy with one more override, the entry of ``x`` set to ``y``
        (used to inject violations)."""
        src, dst = self.endpoints(direction)
        return Translation(self.algebra1, self.algebra2, self._images["1>2"],
                           self._images["2>1"],
                           self.overrides + ((direction, mode, src.slot(x), dst.slot(y)),))

    def __eq__(self, other):
        return (
            isinstance(other, Translation)
            and self.algebra1.name == other.algebra1.name
            and self.algebra2.name == other.algebra2.name
            and all(np.array_equal(self.array(*key), other.array(*key))
                    for key in _OPERATORS)
        )

    def __repr__(self):
        return f"Translation({self.algebra1.name!r} <-> {self.algebra2.name!r})"

    def is_consistent(self) -> bool:
        if self._consistency is None:
            self._consistency = check_consistency(self).passed
        return self._consistency


def compatibility_of(images12: np.ndarray, images21: np.ndarray) -> tuple[np.ndarray, ...]:
    """The compatibility relation that the outer images of the atoms a of
    algebra1 and b of algebra2 (-1 for the star) fix, as the bool arrays
    ``(reach12, reach21, pairs, lone1, lone2)``: ``reach12[a, b]`` is
    b ∈ img(a) and ``reach21[a, b]`` is a ∈ img(b), a star image holding
    every atom; ``pairs`` is both, the compatible pairs; ``lone1`` and
    ``lone2`` mark the atoms whose image is the star."""
    reach12 = images12[:, None] >> np.arange(len(images21)) & 1 == 1
    reach21 = (images21[:, None] >> np.arange(len(images12)) & 1 == 1).T
    return reach12, reach21, reach12 & reach21, images12 == -1, images21 == -1


def translation_from_atom_values(a1: Algebra, a2: Algebra, images12: dict, images21: dict,
                                 overrides=()) -> Translation:
    """The translation of the outer image of each atom, given as values (a
    mask, -1 for the star) by atom mask, with an override table of values
    (see ``Translation``).

    Every atom needs an image: a missing one leaves the outer operator
    undefined on it, which makes the input unusable (a ``ParseError``
    naming the first such atom and its language)."""
    a1.require_enumerable()   # before listing the atoms
    a2.require_enumerable()
    images = []
    for src, given in ((a1, images12), (a2, images21)):
        atoms = [1 << i for i in range(src.model_count)]
        missing = [atom for atom in atoms if atom not in given]
        if missing:
            raise ParseError(f"missing outer image for atom "
                             f"{src.formula_text(Prop(src, missing[0]))!r} of {src.name!r}")
        images.append(np.fromiter(map(given.__getitem__, atoms), np.int64, len(atoms)))
    return Translation(a1, a2, *images, overrides)


def translation_from_atom_outers(
    a1: Algebra,
    a2: Algebra,
    outer_on_atoms12: dict[Prop, StarProp],
    outer_on_atoms21: dict[Prop, StarProp],
    overrides=(),
) -> Translation:
    """``translation_from_atom_values`` of the outer images of atoms given
    as elements."""
    return translation_from_atom_values(
        a1, a2, *({src.slot(atom): dst.slot(image) for atom, image in given.items()}
                  for src, dst, given in ((a1, a2, outer_on_atoms12),
                                          (a2, a1, outer_on_atoms21))), overrides)


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


# --- the three axioms ----------------------------------------------------------


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


def _galois_witness(t: Translation, direction: str):
    """The first failing pair of the first failing row of the adjunction.

    A back outer without overrides is the join of its atom images, and the
    derived inner is its adjoint, so row λ fails exactly where an override
    moved inner(λ) off the derived value: one comparison with the derived
    array.  Only an overridden back outer needs ``_galois_failing_rows``: an
    override on an atom's slot changes the join of 2**(m-1) masks."""
    back = _BACK[direction]
    src, dst = t.endpoints(direction)
    inner_vals = t.array(direction, "inner")
    if t.overridden((back, "outer")):
        failing = _galois_failing_rows(src, inner_vals, t.array(back, "outer"))
    else:
        failing = np.flatnonzero(
            inner_vals[:-1] != t.array(direction, "inner", derived=True)[:-1])
    if not failing.size:
        return None
    outer_back = t.array(back, "outer")
    lam, eta = first_violation(
        failing[:1], dst.slots(),
        lambda x, y: ((y & ~inner_vals[x]) == 0) != ((outer_back[y] & ~x) == 0),
    )
    return src.element(lam), dst.element(eta)


def _approximation_witness(t: Translation, direction: str):
    src, _ = t.endpoints(direction)
    bad = np.flatnonzero(t.array(direction, "inner") & ~t.array(direction, "outer"))
    return (src.element(int(bad[0])),) if bad.size else None


def _duality_witness(t: Translation, direction: str):
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
    return (Prop(src, int(bad[0])),) if bad.size else None


# each axiom's walk of the lattice for its first witness, in report order
_WITNESS = {"galois": _galois_witness, "approximation": _approximation_witness,
            "restricted-duality": _duality_witness}


def _atom_conditions(t: Translation) -> dict[str, bool]:
    """Each check's atom-level condition (``atom_axioms_hold`` has the
    proofs), read off the compatibility relation of the atom images the
    derived operators are built from."""
    reach12, reach21, pairs, lone1, lone2 = compatibility_of(t._images["1>2"],
                                                             t._images["2>1"])
    d1, d2 = ~lone1, ~lone2
    # b ≤ outer(img(b)) iff some atom a of img(b) has b ∈ img(a), and the
    # mirror image for a
    duality = bool((reach12 == reach21)[np.ix_(d1, d2)].all())
    return {"galois:1>2": True, "galois:2>1": True,
            "approximation:1>2": bool(pairs.any(axis=0)[d2].all()),
            "approximation:2>1": bool(pairs.any(axis=1)[d1].all()),
            "restricted-duality:1>2": duality, "restricted-duality:2>1": duality}


def _check(t: Translation, axioms) -> AxiomReport:
    """The checks of ``axioms`` in both directions, each decided on its own
    as ``check_consistency`` says."""
    report = AxiomReport()
    on_atoms = None
    for axiom in axioms:
        for direction in ("1>2", "2>1"):
            name = f"{axiom}:{direction}"
            outer = _BACK[direction] if axiom == "galois" else direction
            if not t.overridden((direction, "inner"), (outer, "outer")):
                on_atoms = on_atoms or _atom_conditions(t)
                if on_atoms[name]:
                    report.checks.append(AxiomCheck(name))
                    continue
            report.checks.append(AxiomCheck(name, _WITNESS[axiom](t, direction)))
    return report


def check_galois(t: Translation) -> AxiomReport:
    """The adjunction η ≤ inner(λ) iff outer_back(η) ≤ λ, over every pair in
    both pairings.  ``galois:d`` reads inner d and the other direction's
    outer: when neither carries an override it holds by construction, and
    otherwise it is tested row by row (see ``_galois_witness``); the witness
    is the first failing pair of the first failing row."""
    return _check(t, ("galois",))


def check_approximation(t: Translation) -> AxiomReport:
    """Inner images must imply outer images everywhere."""
    return _check(t, ("approximation",))


def check_restricted_duality(t: Translation) -> AxiomReport:
    """Negation must commute with translation relative to the translated top."""
    return _check(t, ("restricted-duality",))


def atom_axioms_hold(t: Translation) -> bool:
    """Whether all three axioms hold, decided in O(m1·m2) on the atom images
    of a translation without overrides.

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

    Each argument needs only the operators its check reads to be the
    derived ones: ``galois:d`` reads inner d and the other direction's
    outer, ``approximation:d`` and ``restricted-duality:d`` read inner d and
    outer d.  So the checkers decide each of the six checks on its own: on
    these conditions when no override sits on an operator it reads, by a
    walk of the lattice otherwise.  A translation with overrides gives False
    here, as does any failing condition."""
    return not t.overrides and all(_atom_conditions(t).values())


def check_consistency(t: Translation) -> AxiomReport:
    """All three translation axioms in one report, each of the six checks
    decided on its own: it passes on the atom images when its atom-level
    condition holds (``atom_axioms_hold``) and no override sits on an
    operator it reads, and only the other checks walk the lattice for their
    first witnesses."""
    return _check(t, _WITNESS)


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
            report.checks.append(AxiomCheck(
                f"extreme:{tag}", None if extreme else (src.bottom, src.star)))
            if mode == "inner":
                starry = np.flatnonzero(vals[:-1] == -1)
                report.checks.append(AxiomCheck(
                    f"concrete:{tag}", (Prop(src, int(starry[0])),) if starry.size else None))
            kind = "meet" if mode == "inner" else "join"
            report.checks += [
                AxiomCheck(f"monotone:{tag}", _monotone_violation(src, vals)),
                AxiomCheck(f"preserves-{kind}:{tag}", _preservation_violation(src, vals, kind)),
                AxiomCheck(f"approximable-ideal:{tag}", _ideal_violation(src, vals)),
            ]
    return report


def approximable_set(t: Translation, direction: str) -> np.ndarray:
    """Masks of the propositions whose outer image is defined (not star),
    ascending."""
    return masks_where(t.array(direction, "outer")[:-1] != -1)
