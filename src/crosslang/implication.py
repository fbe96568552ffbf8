"""Cross-language implication: a single relation spanning two star lattices.

Within one language the relation always delegates to that algebra's own
implication; only the cross-language pairs (plus any within-language pairs a
pathological closure forced, kept separately as evidence) are stored.  Cross
pairs live in two boolean matrices indexed by proposition mask, star slot
last, so saturation steps are bit-parallel sweeps and the relation checks
compare per-proposition images (the meet of what a row reaches, the join of
what reaches a column) instead of multiplying matrices.
"""

from __future__ import annotations

import numpy as np

from .algebra import Algebra, Prop, Star, StarProp, implies
from .errors import AlgebraTooLargeError, CrossAlgebraError, InconsistentInputError
from .reports import AxiomCheck, AxiomReport
from .translation import Translation, _element, with_star

_SLOW_CLOSE_LIMIT = 2048


def _bool_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0.5


class CrossImplication:
    """The implication relation over the union of two star lattices."""

    def __init__(self, algebra1: Algebra, algebra2: Algebra,
                 rows12: np.ndarray, rows21: np.ndarray,
                 extra1: frozenset = frozenset(), extra2: frozenset = frozenset()):
        if algebra1.name == algebra2.name:
            raise CrossAlgebraError(
                "the two languages of a relation need distinct names"
            )
        self.algebra1 = algebra1
        self.algebra2 = algebra2
        n1, n2 = algebra1.full_mask + 2, algebra2.full_mask + 2
        if rows12.shape != (n1, n2) or rows21.shape != (n2, n1):
            raise ValueError("cross matrices have the wrong shape")
        self.rows12 = rows12
        self.rows21 = rows21
        # within-language pairs forced by closure but absent from the orders;
        # stored as (source index, target index) with the star slot last
        self.extra1 = frozenset(extra1)
        self.extra2 = frozenset(extra2)
        self._report = None

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
        if sx == 1:
            return bool(self.rows12[self._idx(x), self._idx(y)])
        return bool(self.rows21[self._idx(x), self._idx(y)])

    def equivalent(self, x: StarProp, y: StarProp) -> bool:
        return self.holds(x, y) and self.holds(y, x)

    def cross_pair_count(self) -> int:
        return int(self.rows12.sum() + self.rows21.sum())

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


# --- lattice sweeps and images ---------------------------------------------------
#
# The 2^m proposition slots of an axis come first, by mask, so with the star
# slot cut off they reshape without a copy into the pairs of slots that differ
# in one bit.  Saturation ORs one half of each pair into the other, and the
# checks reduce over one half: O(m·n²) bit operations, no pairwise product.


def _bit_pairs(a: np.ndarray, b: int) -> np.ndarray:
    """``a``'s axis 0 (2^m proposition slots) viewed as [high bits, bit ``b``
    clear or set, low bits]; writes to the view go through to ``a``."""
    return a.reshape(-1, 2, 1 << b, *a.shape[1:])


def _down_close_sources(rows: np.ndarray, m_src: int):
    """row[u] |= row[x] for every u that implies x (mask subsets)."""
    props = rows[:-1]
    for b in range(m_src):
        pairs = _bit_pairs(props, b)
        pairs[:, 0] |= pairs[:, 1]
    rows[:-1] |= rows[-1]  # every proposition implies the star


def _up_close_targets(rows: np.ndarray, m_dst: int):
    """row targets absorb everything they imply upward (mask supersets)."""
    cols = np.ascontiguousarray(rows[:, :-1].T)
    for b in range(m_dst):
        pairs = _bit_pairs(cols, b)
        pairs[:, 1] |= pairs[:, 0]
    rows[:, :-1] = cols.T
    rows[:, -1] |= cols.any(axis=0)  # targets imply their star


def _joins(rows: np.ndarray, m_src: int) -> np.ndarray:
    """For each target, the join (OR) of the proposition sources reaching it,
    0 where none does; the star row is left out."""
    out = np.zeros(rows.shape[1], dtype=np.int64)
    for b in range(m_src):
        out[_bit_pairs(rows[:-1], b)[:, 1].any(axis=(0, 1))] |= 1 << b
    return out


def _meets(rows: np.ndarray, m_dst: int) -> np.ndarray:
    """For each source, the meet (AND) of the proposition targets it reaches,
    -1 where it reaches none; the star column is left out."""
    cols = np.ascontiguousarray(rows[:, :-1].T)
    out = np.zeros(cols.shape[1], dtype=np.int64)
    out[~cols.any(axis=0)] = -1
    for b in range(m_dst):
        out[~_bit_pairs(cols, b)[:, 0].any(axis=(0, 1))] |= 1 << b
    return out


def _bounces_inside(rows_a: np.ndarray, rows_b: np.ndarray, m_src: int) -> bool:
    """Whether every λ → η → μ through ``rows_a`` then ``rows_b`` keeps λ ≤ μ
    in the source order.  That holds iff for every η the join of the sources
    reaching η lies under the meet of the targets η reaches, a star counting
    as all ones (-1): the star lies under the star only."""
    joins = np.where(rows_a[-1], -1, _joins(rows_a, m_src))
    return not (joins & ~_meets(rows_b, m_src)).any()


def _first_bounce_outside(rows_a: np.ndarray, rows_b: np.ndarray, m_src: int,
                          extra: frozenset):
    """The first λ → η → μ, as (λ, η, μ) indices, whose (λ, μ) is neither in
    the source order nor in ``extra``: the least λ, then its least such μ,
    then the least η between them; None if there is none."""
    masks = np.append(np.arange(1 << m_src, dtype=np.int64), -1)
    meets = _meets(rows_b, m_src)
    # only a λ with a bit that the meet of some η it reaches lacks (for the
    # star: some η reaching a proposition) leaves the order; such a row is
    # skipped only when ``extra`` excuses every pair it leaves the order with
    suspects = np.zeros(len(masks), dtype=bool)
    for b in range(m_src):
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


def _within_matrix(n_models: int) -> np.ndarray:
    """Star-lattice implication by index (props by mask, star slot last)."""
    masks = np.append(np.arange(1 << n_models, dtype=np.int64), -1)
    n = len(masks)
    out = np.empty((n, n), dtype=bool)
    for start in range(0, n, 512):
        rows = masks[start:start + 512]
        out[start:start + 512] = (rows[:, None] & ~masks[None, :]) == 0
    return out


def close(seeds, a1: Algebra, a2: Algebra) -> CrossImplication:
    """Least relation containing the seeds, both within-language orders and
    the bound pairs, closed under transitivity.

    Same-language seeds that the order does not already validate, and any
    within-language pairs the closure forces, are kept aside so the
    extensibility check can fail with them as witnesses.

    One pass of the sweeps saturates the cross pairs: down-closing the
    sources and then up-closing the targets is already a fixpoint, because
    up-closure is monotone per row, so row[u] ⊇ row[x] for u ⊆ x, rows[:-1] ⊇
    rows[-1] and the star column all survive it.  The result is clean when
    no λ → η → μ leaves the source order (``_bounces_inside``); otherwise a
    dense Warshall closure over the union takes over.
    """
    m1, m2 = a1.model_count, a2.model_count
    n1, n2 = a1.full_mask + 2, a2.full_mask + 2
    rows12 = np.zeros((n1, n2), dtype=bool)
    rows21 = np.zeros((n2, n1), dtype=bool)
    rows12[0, 0] = rows21[0, 0] = True          # contradictions align
    rows12[-1, -1] = rows21[-1, -1] = True      # stars align
    extra_seeds1, extra_seeds2 = set(), set()

    def idx(x):
        return CrossImplication._idx(x)

    for x, y in seeds:
        sides = {a1.name: 1, a2.name: 2}
        try:
            sx, sy = sides[x.algebra.name], sides[y.algebra.name]
        except KeyError:
            raise CrossAlgebraError("seed endpoint outside the two languages")
        if sx == sy:
            if not implies(x, y):
                (extra_seeds1 if sx == 1 else extra_seeds2).add((idx(x), idx(y)))
        elif sx == 1:
            rows12[idx(x), idx(y)] = True
        else:
            rows21[idx(x), idx(y)] = True

    _down_close_sources(rows12, m1)
    _down_close_sources(rows21, m2)
    _up_close_targets(rows12, m2)
    _up_close_targets(rows21, m1)
    clean = _bounces_inside(rows12, rows21, m1) and _bounces_inside(rows21, rows12, m2)
    if clean and not extra_seeds1 and not extra_seeds2:
        return CrossImplication(a1, a2, rows12, rows21)

    # the closure escapes the within-language orders: fall back to a full
    # Warshall-style closure over the union (small instances only)
    if n1 + n2 > _SLOW_CLOSE_LIMIT:
        raise AlgebraTooLargeError(
            "closure forces within-language pairs and the algebras are too "
            "large for the dense fallback"
        )
    w1 = _within_matrix(m1)
    w2 = _within_matrix(m2)
    u = np.zeros((n1 + n2, n1 + n2), dtype=bool)
    u[:n1, :n1] = w1
    u[n1:, n1:] = w2
    u[:n1, n1:] = rows12
    u[n1:, :n1] = rows21
    for i, j in extra_seeds1:
        u[i, j] = True
    for i, j in extra_seeds2:
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
    return CrossImplication(a1, a2, u[:n1, n1:].copy(), u[n1:, :n1].copy(),
                            extra1, extra2)


# --- axiom checks --------------------------------------------------------------


def check_implication_axioms(r: CrossImplication) -> AxiomReport:
    """Extensibility, transitivity, bound consistency, connective
    consistency and negation consistency, each with a first witness."""
    report = AxiomReport()
    a1, a2 = r.algebra1, r.algebra2
    m1, m2 = a1.model_count, a2.model_count
    n1, n2 = a1.full_mask + 2, a2.full_mask + 2

    # extensibility: the relation restricted to one language is that
    # language's own implication -- any stored extra pair is a violation
    for side, algebra, extra in ((1, a1, r.extra1), (2, a2, r.extra2)):
        if extra:
            i, j = min(extra)
            witness = ((_element(algebra, _unstar(i, algebra)),
                        _element(algebra, _unstar(j, algebra))),)
            report.checks.append(AxiomCheck(f"extensibility:{side}", False, witness))
        else:
            report.checks.append(AxiomCheck(f"extensibility:{side}", True))

    # transitivity: sources may be weakened, targets generalised, and
    # bouncing through the other language must stay inside the order
    trans_witness = None
    for rows, m_src, m_dst, src, dst in (
        (r.rows12, m1, m2, a1, a2),
        (r.rows21, m2, m1, a2, a1),
    ):
        closed = rows.copy()
        _down_close_sources(closed, m_src)
        _up_close_targets(closed, m_dst)
        gained = closed & ~rows
        if gained.any():
            i, j = divmod(int(gained.argmax()), gained.shape[1])
            trans_witness = (_element(src, _unstar(i, src)),
                             _element(dst, _unstar(j, dst)))
            break
    if trans_witness is None:
        for rows_a, rows_b, m_src, src, mid, extra in (
            (r.rows12, r.rows21, m1, a1, a2, r.extra1),
            (r.rows21, r.rows12, m2, a2, a1, r.extra2),
        ):
            if _bounces_inside(rows_a, rows_b, m_src):
                continue
            bounce = _first_bounce_outside(rows_a, rows_b, m_src, extra)
            if bounce is not None:
                i, k, j = bounce
                trans_witness = (_element(src, _unstar(i, src)),
                                 _element(mid, _unstar(k, mid)),
                                 _element(src, _unstar(j, src)))
                break
    report.checks.append(
        AxiomCheck("transitivity", trans_witness is None,
                   () if trans_witness is None else (trans_witness,))
    )

    # bound consistency: contradictions and stars align, and the star
    # reaches nothing below the other star
    bound_ok = (
        bool(r.rows12[0, 0]) and bool(r.rows21[0, 0])
        and bool(r.rows12[-1, -1]) and bool(r.rows21[-1, -1])
        and not r.rows12[-1, :-1].any() and not r.rows21[-1, :-1].any()
    )
    report.checks.append(
        AxiomCheck("bound-consistency", bound_ok,
                   () if bound_ok else ((a1.bottom, a2.bottom),))
    )

    # connective consistency: for each source proposition the set of targets
    # it reaches is closed under meets (equivalently contains its total
    # meet), and the set of sources reaching it is closed under joins
    for tag, rows_fwd, rows_back, src, dst in (
        ("1>2", r.rows12, r.rows21, a1, a2),
        ("2>1", r.rows21, r.rows12, a2, a1),
    ):
        witness = None
        meets = _meets(rows_fwd, dst.model_count)[:-1]
        lam_idx = np.flatnonzero(meets != -1)
        bad = lam_idx[~rows_fwd[lam_idx, meets[lam_idx]]]
        if bad.size:
            lam = int(bad[0])
            witness = (Prop(src, lam), Prop(dst, int(meets[lam])))
        if witness is None:
            src_of = _joins(rows_back, dst.model_count)[:-1]
            bad = np.flatnonzero(~rows_back[src_of, np.arange(src.full_mask + 1)])
            if bad.size:
                lam = int(bad[0])
                witness = (Prop(dst, int(src_of[lam])), Prop(src, lam))
        report.checks.append(
            AxiomCheck(f"connective-consistency:{tag}", witness is None,
                       () if witness is None else (witness,))
        )

    # negation consistency: when a proposition reaches the other tautology,
    # anything implying its negation is in turn negated by it
    for tag, rows_fwd, rows_back, src, dst in (
        ("1>2", r.rows12, r.rows21, a1, a2),
        ("2>1", r.rows21, r.rows12, a2, a1),
    ):
        np1, np2 = src.full_mask + 1, dst.full_mask + 1
        guard = rows_fwd[:np1, dst.full_mask]
        # negation is full_mask ^ mask, which reverses the proposition slots
        reaches_neg = rows_back[:np2, :np1][:, ::-1]                    # [eta, lam]
        negated = np.ascontiguousarray(rows_fwd[:np1, :np2].T)[::-1]   # [eta, lam]
        viol = reaches_neg & ~negated
        viol &= guard
        if viol.any():
            eta, lam = divmod(int(viol.argmax()), np1)
            witness = ((Prop(src, lam), Prop(dst, eta)),)
            report.checks.append(
                AxiomCheck(f"negation-consistency:{tag}", False, witness)
            )
        else:
            report.checks.append(AxiomCheck(f"negation-consistency:{tag}", True))
    return report


def _unstar(idx: int, algebra: Algebra) -> int:
    return -1 if idx == algebra.full_mask + 1 else idx


# --- conversions ---------------------------------------------------------------


def implication_from_translation(t: Translation) -> CrossImplication:
    """The relation whose cross pairs mirror the outer operators: a source
    proposition reaches exactly the generalisations of its outer image."""
    if not t.is_consistent():
        raise InconsistentInputError(
            "translation fails its axioms; no canonical implication exists"
        )
    a1, a2 = t.algebra1, t.algebra2

    def rows_from_outer(src: Algebra, dst: Algebra, outer_vals: np.ndarray):
        n_src, n_dst = src.full_mask + 2, dst.full_mask + 2
        rows = np.zeros((n_src, n_dst), dtype=bool)
        dst_masks = np.arange(dst.full_mask + 1, dtype=np.int64)
        rows[:-1, :-1] = (outer_vals[:-1, None] & ~dst_masks[None, :]) == 0
        rows[:, -1] = True
        rows[-1, :-1] = False
        return rows

    return CrossImplication(
        a1, a2,
        rows_from_outer(a1, a2, t.array("1>2", "outer")),
        rows_from_outer(a2, a1, t.array("2>1", "outer")),
    )


def translation_from_implication(r: CrossImplication) -> Translation:
    """Read the four operators off the relation: the inner image is the join
    of everything below, the outer image the meet of everything above, with
    an empty meet standing for the star."""
    if not r.passes_axioms():
        raise InconsistentInputError(
            "relation fails its axioms; no consistent translation exists"
        )
    a1, a2 = r.algebra1, r.algebra2

    def operators(dst: Algebra, fwd: np.ndarray, back: np.ndarray):
        return (with_star(_joins(back, dst.model_count)[:-1]),
                with_star(_meets(fwd, dst.model_count)[:-1]))

    return Translation(a1, a2, *operators(a2, r.rows12, r.rows21),
                       *operators(a1, r.rows21, r.rows12))
