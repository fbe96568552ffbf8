"""Cross-language implication: a single relation spanning two star lattices.

Within one language the relation always delegates to that algebra's own
implication; only the cross-language pairs (plus any within-language pairs a
pathological closure forced, kept separately as evidence) are stored.

A closed relation is fixed by its cross seeds: row λ is the up-set of the
targets of the seeds whose source lies above λ or is the star.  Every
relation keeps its seeds as value arrays plus, per direction, image vectors
over the slots of the ``algebra`` module's layout: for each source the meet of
the targets it reaches and their least popcount, for each target the join
of the sources reaching it and their greatest popcount.  A row is principal
exactly when its least popcount is that of its meet, so the checks decide
from these vectors in O(m·2^m).  Dense boolean rows are built on demand
only: for a witness scan after a failed decision, for relations with a row
that is not principal, and for readers that want the matrices.
"""

from __future__ import annotations

import numpy as np

from .algebra import Algebra, Prop, Star, StarProp, implies, sweep
from .errors import AlgebraTooLargeError, CrossAlgebraError, InconsistentInputError
from .reports import AxiomCheck, AxiomReport
from .translation import Translation, with_star

# the dense fallback of ``close`` runs up to this many propositions in
# total, which admits a 10 x 10 pair
_SLOW_CLOSE_LIMIT = 2 * ((1 << 10) + 2)
# dense rows are built only while m1 + m2 models stay at or under this:
# 2^26 proposition pairs, 64 MB of booleans per direction
_DENSE_MODEL_LIMIT = 26


def _bool_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0.5


class CrossImplication:
    """The implication relation over the union of two star lattices.

    Its cross pairs are those that the seeds, the two orders and the bound
    pairs give by sweeping sources down and targets up, held as images.
    Each seed set is a (source masks, target masks) pair of arrays, -1 for
    the star.  ``extra1`` and ``extra2`` are within-language pairs forced by
    closure but absent from the orders, as (source index, target index) with
    the star slot last.  Whether bouncing through the other language stays
    inside the orders is left to the transitivity check.
    """

    def __init__(self, algebra1: Algebra, algebra2: Algebra,
                 seeds12: tuple, seeds21: tuple,
                 extra1: frozenset = frozenset(), extra2: frozenset = frozenset()):
        if algebra1.name == algebra2.name:
            raise CrossAlgebraError(
                "the two languages of a relation need distinct names"
            )
        self.algebra1 = algebra1
        self.algebra2 = algebra2
        self.extra1 = frozenset(extra1)
        self.extra2 = frozenset(extra2)
        m1, m2 = algebra1.model_count, algebra2.model_count
        self.images = (_Images(*seeds12, m1, m2), _Images(*seeds21, m2, m1))
        # the meet images of both directions when every row is the up-set
        # of its meet, else None
        self.principal_meets = (tuple(i.meet for i in self.images)
                                if all(i.rows_principal().all() for i in self.images)
                                else None)
        self._rows = None
        self._report = None

    # --- dense rows, built on demand ---

    def _dense(self) -> tuple:
        if self._rows is None:
            m1, m2 = self.algebra1.model_count, self.algebra2.model_count
            if m1 + m2 > _DENSE_MODEL_LIMIT:
                raise AlgebraTooLargeError(
                    f"the dense implication rows of {m1} x {m2} models exceed "
                    f"2^{_DENSE_MODEL_LIMIT} proposition pairs"
                )
            self._rows = tuple(images.dense_rows() for images in self.images)
        return self._rows

    @property
    def rows12(self) -> np.ndarray:
        """Language 1 sources by mask against language 2 targets, star slots
        last."""
        return self._dense()[0]

    @property
    def rows21(self) -> np.ndarray:
        return self._dense()[1]

    # --- indexing helpers ---

    def _side(self, x: StarProp) -> int:
        if x.algebra.name == self.algebra1.name:
            return 1
        if x.algebra.name == self.algebra2.name:
            return 2
        raise CrossAlgebraError(f"{x.algebra.name!r} is not part of this relation")

    @staticmethod
    def _idx(x: StarProp) -> int:
        return x.algebra.full_mask + 1 if isinstance(x, Star) else x.mask

    def holds(self, x: StarProp, y: StarProp) -> bool:
        sx, sy = self._side(x), self._side(y)
        if sx == sy:
            if implies(x, y):
                return True
            extra = self.extra1 if sx == 1 else self.extra2
            return (self._idx(x), self._idx(y)) in extra
        if self.principal_meets is not None:
            meet = self.principal_meets[sx - 1][self._idx(x)]
            return isinstance(y, Star) or bool(meet != -1 and meet & ~y.mask == 0)
        return bool(self._dense()[sx - 1][self._idx(x), self._idx(y)])

    def equivalent(self, x: StarProp, y: StarProp) -> bool:
        return self.holds(x, y) and self.holds(y, x)

    def cross_pair_count(self) -> int:
        meets = self.principal_meets
        if meets is None:
            return int(self.rows12.sum() + self.rows21.sum())
        # a principal row reaches the 2^(m - |meet|) supersets of its meet,
        # and every row reaches the star
        total = 0
        for meet, m_dst in zip(meets, (self.algebra2.model_count,
                                       self.algebra1.model_count)):
            free = m_dst - np.bitwise_count(meet[meet != -1]).astype(np.int64)
            total += int((np.int64(1) << free).sum()) + len(meet)
        return total

    def __eq__(self, other):
        return (
            isinstance(other, CrossImplication)
            and self.algebra1.name == other.algebra1.name
            and self.algebra2.name == other.algebra2.name
            and np.array_equal(self.rows12, other.rows12)
            and np.array_equal(self.rows21, other.rows21)
            and self.extra1 == other.extra1
            and self.extra2 == other.extra2
        )

    def __repr__(self):
        return (
            f"CrossImplication({self.algebra1.name!r} <-> {self.algebra2.name!r}, "
            f"{self.cross_pair_count()} cross pairs)"
        )

    def axiom_report(self) -> AxiomReport:
        if self._report is None:
            self._report = check_implication_axioms(self)
        return self._report

    def passes_axioms(self) -> bool:
        return self.axiom_report().passed


# --- images ---------------------------------------------------------------------
#
# Images and dense rows are closed by the ``algebra`` module's sweeps over the
# proposition slots: over image vectors that is O(m·2^m), over dense rows
# O(m·n²), never a pairwise product.


class _Images:
    """One direction of a seed-built relation.

    ``meet[s]`` is the meet of the proposition targets that source slot ``s``
    reaches, -1 for none, and ``low[s]`` their least popcount.  ``join[t]``
    is the join of the proposition sources reaching target slot ``t``, -1
    when the star reaches it (and with it every proposition), and
    ``high[t]`` their greatest popcount.  A source reaches the up-closure of
    the seed targets above it, so meets and least popcounts come from one
    superset sweep; a target is reached by the down-closure of the seed
    sources below it, so joins and greatest popcounts come from one subset
    sweep.  The star column, which every source reaches, stays implicit.
    """

    def __init__(self, xs: np.ndarray, ts: np.ndarray, m_src: int, m_dst: int):
        self.xs = np.asarray(xs, dtype=np.int64)
        self.ts = np.asarray(ts, dtype=np.int64)
        self.m_src, self.m_dst = m_src, m_dst
        to_prop = self.ts != -1
        # the seed (0, 0): contradictions align
        xs = np.append(self.xs[to_prop], 0)
        ts = np.append(self.ts[to_prop], 0)

        self.meet = np.full((1 << m_src) + 1, -1, dtype=np.int64)
        self.low = np.full((1 << m_src) + 1, m_dst + 1, dtype=np.int64)
        np.bitwise_and.at(self.meet, xs, ts)
        np.minimum.at(self.low, xs, np.bitwise_count(ts).astype(np.int64))
        sweep(self.meet[:-1], np.bitwise_and, up=True)
        sweep(self.low[:-1], np.minimum, up=True)
        # every proposition reaches what the star reaches
        self.meet[:-1] &= self.meet[-1]
        np.minimum(self.low[:-1], self.low[-1], out=self.low[:-1])

        self.join = np.zeros((1 << m_dst) + 1, dtype=np.int64)
        self.high = np.zeros((1 << m_dst) + 1, dtype=np.int64)
        np.bitwise_or.at(self.join, ts, xs)        # a star source, -1, absorbs
        np.maximum.at(self.high, ts, np.where(
            xs == -1, m_src, np.bitwise_count(xs).astype(np.int64)))
        sweep(self.join[:-1], np.bitwise_or, up=False)
        sweep(self.high[:-1], np.maximum, up=False)
        self.join[-1], self.high[-1] = -1, m_src   # the star column

    def rows_principal(self) -> np.ndarray:
        """Per source slot: the row is the up-set of its meet (or empty)."""
        return (self.meet == -1) | (self.low == np.bitwise_count(self.meet))

    def prop_join(self) -> np.ndarray:
        """``join`` with the star's reach read as every proposition source."""
        return np.where(self.join == -1, (1 << self.m_src) - 1, self.join)

    def dense_rows(self) -> np.ndarray:
        rows = np.zeros(((1 << self.m_src) + 1, (1 << self.m_dst) + 1), dtype=bool)
        rows[self.xs, self.ts] = True              # -1 is the star slot
        rows[0, 0] = rows[-1, -1] = True
        # a source reaches what every source it implies reaches, the star's
        # targets included
        sweep(rows[:-1], np.bitwise_or, up=True)
        rows[:-1] |= rows[-1]
        # a source reaching a target reaches everything above it
        cols = np.ascontiguousarray(rows[:, :-1].T)
        sweep(cols, np.bitwise_or, up=False)
        rows[:, :-1] = cols.T
        rows[:, -1] |= cols.any(axis=0)
        rows.flags.writeable = False
        return rows


def _bounce_free(images: tuple) -> bool:
    """Whether no λ → η → μ leaves the source order, either way round: for
    every η the join of the sources reaching it lies under the meet of the
    targets it reaches, a star counting as all ones (-1)."""
    fwd, back = images
    return not ((fwd.join & ~back.meet).any() or (back.join & ~fwd.meet).any())


def _first_bounce_outside(rows_a: np.ndarray, rows_b: np.ndarray, meets: np.ndarray,
                          src: Algebra, extra: frozenset):
    """The first λ → η → μ, as (λ, η, μ) indices, whose (λ, μ) is neither in
    the source order nor in ``extra``: the least λ, then its least such μ,
    then the least η between them; None if there is none.  ``meets`` is the
    meet image of ``rows_b``."""
    masks = src.slots()
    # only a λ with a bit that the meet of some η it reaches lacks (for the
    # star: some η reaching a proposition) leaves the order; such a row is
    # skipped only when ``extra`` excuses every pair it leaves the order with
    suspects = np.zeros(len(masks), dtype=bool)
    for b in range(src.model_count):
        suspects |= ((masks >> b) & 1 == 1) & rows_a.any(
            axis=1, where=(meets >> b) & 1 == 0)
    suspects[-1] |= rows_a[-1].any(where=meets != -1)
    for lam in np.flatnonzero(suspects):
        outside = rows_b[rows_a[lam]].any(axis=0) & ((masks[lam] & ~masks) != 0)
        for i, j in extra:
            if i == lam:
                outside[j] = False
        if outside.any():
            mu = int(outside.argmax())
            return int(lam), int((rows_a[lam] & rows_b[:, mu]).argmax()), mu
    return None


def _within_matrix(algebra: Algebra) -> np.ndarray:
    """Star-lattice implication by slot.  ``close_values`` calls it only under
    ``_SLOW_CLOSE_LIMIT``, so a side has at most 2^11 + 1 slots and the
    int64 temporary at most 34 MB, less than the closure's float32 products."""
    slots = algebra.slots()
    return (slots[:, None] & ~slots[None, :]) == 0


def close(seeds, a1: Algebra, a2: Algebra) -> CrossImplication:
    """Least relation containing the seeds, both within-language orders and
    the bound pairs, closed under transitivity.

    The seeds are pairs of elements of the two algebras.  They travel on as
    values: each endpoint becomes a (side, value) pair, side 1 or 2 and value
    its mask, -1 for the star, and ``close_values`` closes those.  Seed files
    go to ``close_values`` directly, without an element per endpoint."""
    sides = {a1.name: 1, a2.name: 2}
    values = []
    for x, y in seeds:
        try:
            sx, sy = sides[x.algebra.name], sides[y.algebra.name]
        except KeyError:
            raise CrossAlgebraError("seed endpoint outside the two languages")
        values.append(((sx, x.algebra.slot(x)), (sy, y.algebra.slot(y))))
    return close_values(values, a1, a2)


def close_values(seeds, a1: Algebra, a2: Algebra) -> CrossImplication:
    """``close`` on seeds given as values: each endpoint is a (side, value)
    pair, side 1 for ``a1`` or 2 for ``a2`` and value a mask, -1 for the star.

    Same-language seeds that the order does not already validate, and any
    within-language pairs the closure forces, are kept aside so the
    extensibility check can fail with them as witnesses.

    Sweeping sources down and targets up saturates the cross pairs, which
    the images hold.  The result is clean when no λ → η → μ leaves the
    source order (``_bounce_free``); otherwise a dense Warshall closure over
    the union takes over.
    """
    cross = {1: ([], []), 2: ([], [])}
    extra_seeds = {1: set(), 2: set()}
    star_index = {1: a1.full_mask + 1, 2: a2.full_mask + 1}
    for (sx, x), (sy, y) in seeds:
        if sx != sy:
            xs, ts = cross[sx]
            xs.append(x)
            ts.append(y)
        elif x & ~y:
            # outside the star-lattice order, kept by slot index
            extra_seeds[sx].add((star_index[sx] if x == -1 else x, y))
    r = CrossImplication(a1, a2, cross[1], cross[2])
    if _bounce_free(r.images) and not extra_seeds[1] and not extra_seeds[2]:
        return r

    # the closure escapes the within-language orders: fall back to a full
    # Warshall-style closure over the union (small instances only)
    n1, n2 = a1.full_mask + 2, a2.full_mask + 2
    if n1 + n2 > _SLOW_CLOSE_LIMIT:
        raise AlgebraTooLargeError(
            "closure forces within-language pairs and the algebras are too "
            "large for the dense fallback"
        )
    w1 = _within_matrix(a1)
    w2 = _within_matrix(a2)
    u = np.zeros((n1 + n2, n1 + n2), dtype=bool)
    u[:n1, :n1] = w1
    u[n1:, n1:] = w2
    u[:n1, n1:] = r.rows12
    u[n1:, :n1] = r.rows21
    for i, j in extra_seeds[1]:
        u[i, j] = True
    for i, j in extra_seeds[2]:
        u[n1 + i, n1 + j] = True
    while True:
        new = u | _bool_matmul(u, u)
        if np.array_equal(new, u):
            break
        u = new
    extra1 = frozenset(
        (int(i), int(j)) for i, j in np.argwhere(u[:n1, :n1] & ~w1)
    )
    extra2 = frozenset(
        (int(i), int(j)) for i, j in np.argwhere(u[n1:, n1:] & ~w2)
    )
    return CrossImplication(a1, a2, _seeds_of(u[:n1, n1:]), _seeds_of(u[n1:, :n1]),
                            extra1, extra2)


def _seeds_of(block: np.ndarray) -> tuple:
    """The pairs of a dense cross block as seed arrays, star slots as -1."""
    xs, ts = np.nonzero(block)
    return (np.where(xs == block.shape[0] - 1, -1, xs),
            np.where(ts == block.shape[1] - 1, -1, ts))


# --- axiom checks --------------------------------------------------------------
#
# Every relation is closed under both orders by construction, so each check
# is a decision on the image vectors; the dense scans below run on
# materialised rows only after a failed decision, or on rows that are not
# principal, so that first witnesses come out as they always did.


def check_implication_axioms(r: CrossImplication) -> AxiomReport:
    """Extensibility, transitivity, bound consistency, connective
    consistency and negation consistency, each with a first witness."""
    report = AxiomReport()
    a1, a2 = r.algebra1, r.algebra2
    images = r.images

    # extensibility: the relation restricted to one language is that
    # language's own implication -- any stored extra pair is a violation
    for side, algebra, extra in ((1, a1, r.extra1), (2, a2, r.extra2)):
        if extra:
            i, j = min(extra)
            witness = ((algebra.element(i), algebra.element(j)),)
            report.checks.append(AxiomCheck(f"extensibility:{side}", False, witness))
        else:
            report.checks.append(AxiomCheck(f"extensibility:{side}", True))

    trans_witness = None if _bounce_free(images) else _transitivity_witness(r)
    report.checks.append(
        AxiomCheck("transitivity", trans_witness is None,
                   () if trans_witness is None else (trans_witness,))
    )

    # bound consistency: contradictions and stars align, and the star
    # reaches nothing below the other star
    bound_ok = bool(images[0].meet[-1] == -1 and images[1].meet[-1] == -1)
    report.checks.append(
        AxiomCheck("bound-consistency", bound_ok,
                   () if bound_ok else ((a1.bottom, a2.bottom),))
    )

    # connective consistency: for each source proposition the set of targets
    # it reaches is closed under meets (equivalently contains its total
    # meet), and the set of sources reaching it is closed under joins
    for tag, fwd, back, src, dst in (("1>2", 0, 1, a1, a2), ("2>1", 1, 0, a2, a1)):
        witness = _connective_witness(images[fwd], images[back], src, dst)
        report.checks.append(
            AxiomCheck(f"connective-consistency:{tag}", witness is None,
                       () if witness is None else (witness,))
        )

    # negation consistency: when a proposition reaches the other tautology,
    # anything implying its negation is in turn negated by it
    meets = r.principal_meets
    for tag, fwd, back, src, dst in (("1>2", 0, 1, a1, a2), ("2>1", 1, 0, a2, a1)):
        if meets is not None:
            hit = _negation_witness(meets[fwd], meets[back], dst.model_count)
        else:
            hit = _dense_negation_witness(r._dense()[fwd], r._dense()[back], src, dst)
        report.checks.append(
            AxiomCheck(f"negation-consistency:{tag}", hit is None,
                       () if hit is None else ((Prop(src, hit[0]), Prop(dst, hit[1])),))
        )
    return report


def _transitivity_witness(r: CrossImplication):
    """Bouncing through the other language must stay inside the order (or
    the stored extra pairs): the first bounce outside, else None."""
    a1, a2 = r.algebra1, r.algebra2
    for rows_a, rows_b, meets, src, mid, extra in (
        (r.rows12, r.rows21, r.images[1].meet, a1, a2, r.extra1),
        (r.rows21, r.rows12, r.images[0].meet, a2, a1, r.extra2),
    ):
        bounce = _first_bounce_outside(rows_a, rows_b, meets, src, extra)
        if bounce is not None:
            i, k, j = bounce
            return src.element(i), mid.element(k), src.element(j)
    return None


def _connective_witness(fwd: _Images, back: _Images, src: Algebra, dst: Algebra):
    """The first source row that is not the up-set of its meet, else the
    first target column that is not the down-set of its join; a principal
    row has its meet's popcount as its least one, a principal column its
    join's as its greatest."""
    meet = fwd.meet[:-1]
    bad = (meet != -1) & (fwd.low[:-1] != np.bitwise_count(meet))
    if bad.any():
        lam = int(bad.argmax())
        return Prop(src, lam), Prop(dst, int(meet[lam]))
    join = back.prop_join()[:-1]
    bad = back.high[:-1] != np.bitwise_count(join)
    if bad.any():
        lam = int(bad.argmax())
        return Prop(dst, int(join[lam])), Prop(src, lam)
    return None


def _negation_witness(meet_fwd: np.ndarray, meet_back: np.ndarray, m_dst: int):
    """The first (λ, η) violating negation consistency when every row is the
    up-set of its meet, least η first: some λ reaching anything has η ∩
    meet_fwd[λ] nonempty while η reaches ¬λ, that is η's back-meet misses λ.
    Back-meets grow with η, so the least such η is an atom under
    meet_fwd[λ]: the check asks each of those atoms for a back-meet that
    meets λ (or none at all)."""
    fwd = meet_fwd[:-1]
    lam = np.arange(len(fwd), dtype=np.int64)
    reaching = fwd != -1
    for b in range(m_dst):
        back = meet_back[1 << b]
        if back == -1:
            continue
        bad = reaching & ((fwd >> b) & 1 == 1) & ((lam & back) == 0)
        if bad.any():
            return int(bad.argmax()), 1 << b
    return None


def _dense_negation_witness(rows_fwd, rows_back, src: Algebra, dst: Algebra):
    np1, np2 = src.full_mask + 1, dst.full_mask + 1
    guard = rows_fwd[:np1, dst.full_mask]
    # negation is full_mask ^ mask, which reverses the proposition slots
    reaches_neg = rows_back[:np2, :np1][:, ::-1]                    # [eta, lam]
    negated = np.ascontiguousarray(rows_fwd[:np1, :np2].T)[::-1]   # [eta, lam]
    viol = reaches_neg & ~negated
    viol &= guard
    if viol.any():
        eta, lam = divmod(int(viol.argmax()), np1)
        return lam, eta
    return None


# --- conversions ---------------------------------------------------------------


def implication_from_translation(t: Translation) -> CrossImplication:
    """The relation whose cross pairs mirror the outer operators: a source
    proposition reaches exactly the generalisations of its outer image, so
    the outer arrays are its seeds."""
    if not t.is_consistent():
        raise InconsistentInputError(
            "translation fails its axioms; no canonical implication exists"
        )
    a1, a2 = t.algebra1, t.algebra2
    return CrossImplication(
        a1, a2,
        (np.arange(a1.full_mask + 1), t.array("1>2", "outer")[:-1]),
        (np.arange(a2.full_mask + 1), t.array("2>1", "outer")[:-1]),
    )


def translation_from_implication(r: CrossImplication) -> Translation:
    """Read the four operators off the relation: the inner image is the join
    of everything below, the outer image the meet of everything above, with
    an empty meet standing for the star."""
    if not r.passes_axioms():
        raise InconsistentInputError(
            "relation fails its axioms; no consistent translation exists"
        )
    fwd, back = r.images
    return Translation(r.algebra1, r.algebra2,
                       with_star(back.prop_join()[:-1]), with_star(fwd.meet[:-1]),
                       with_star(fwd.prop_join()[:-1]), with_star(back.meet[:-1]))
