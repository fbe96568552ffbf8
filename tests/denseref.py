"""The dense pairwise checkers, kept as references for the fast ones.

Each translation checker here walks every pair of lattice elements in
512-row chunks, exactly as the library's checkers did before they were
rewritten as cover, atom and subset-zeta decisions (approximation and
restricted duality ask the ``scalarref`` predicate at every argument in
turn); the relation code at the end builds matrix products, as the library
did before its lattice sweeps.
The analysis code after them lists the joint states from both outer
arrays with one test per atom pair and a sort, builds the set
approximations with one vector operation per target event, renders a joint state-space with one
``formula_text`` call per proposition, checks a common language with one
pass per member, compares event fields as sets of every event and checks
Proposition 2 on the dense implication rows, as the library did before it
worked from atom events and blocks.  The set-valued results (perfect set,
fixed points, approximable set, common language) are built as sets and
dicts of ``Prop``, as before they became mask arrays.  The differential
suites require identical reports, witnesses included, from both.
"""

from dataclasses import dataclass

import numpy as np

import scalarref
from crosslang import (
    AlgebraTooLargeError,
    AwarenessVerdict,
    CharacterizationMismatchError,
    CrossAlgebraError,
    CrossImplication,
    DegenerateCommonLanguageError,
    InconsistentInputError,
    Prop,
    common_language,
    implies,
    perfect_translations,
)
from crosslang.algebra import Algebra
from crosslang.implication import _SLOW_CLOSE_LIMIT, implication_from_translation
from crosslang.oracle import brute_ultrafilters
from crosslang.reports import AxiomCheck, AxiomReport
from crosslang.semantics import JointStateSpace, _is_order_embedding, sigma_approximation
from crosslang.translation import _OPERATORS, Translation, first_violation
from dotref import _hasse_lines

_CHUNK = 512


# the slot layout, written out again so that the references share no
# helper with the code under test


def _element(algebra, idx):
    return algebra.star if idx > algebra.full_mask or idx < 0 else Prop(algebra, idx)


def _unstar(idx, algebra):
    return -1 if idx == algebra.full_mask + 1 else idx


def _bit_pairs(a, b):
    """``a``'s axis 0 viewed as [high bits, bit ``b`` clear or set, low bits]."""
    return a.reshape(-1, 2, 1 << b, *a.shape[1:])


def check_galois(t):
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
            report.checks.append(AxiomCheck(f"galois:{direction}", witness))
        else:
            report.checks.append(AxiomCheck(f"galois:{direction}"))
    return report


def _first_failing_argument(t, axiom, holds):
    """One check of ``axiom`` per direction whose witness is the first
    argument, masks ascending and the star last, at which ``holds(t,
    direction, lam)`` fails."""
    report = AxiomReport()
    for direction in ("1>2", "2>1"):
        src, _ = t.endpoints(direction)
        bad = next((lam for lam in src.star_lattice() if not holds(t, direction, lam)), None)
        report.checks.append(AxiomCheck(f"{axiom}:{direction}",
                                        None if bad is None else (bad,)))
    return report


def check_approximation(t):
    """Approximation tested one argument at a time by the scalar predicate."""
    return _first_failing_argument(t, "approximation", scalarref.approximation_holds)


def check_restricted_duality(t):
    """Restricted duality tested one argument at a time by the scalar
    predicate."""
    return _first_failing_argument(t, "restricted-duality",
                                   scalarref.restricted_duality_holds)


def _pairwise_violation(src, vals, kind):
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


def _monotone_violation(src, vals):
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


def _ideal_violation(src, vals):
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


def check_derived_properties(t):
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
                AxiomCheck(f"extreme:{tag}", None if extreme else (src.bottom, src.star))
            )
            if mode == "inner":
                starry = np.flatnonzero(vals[:-1] == -1)
                if starry.size:
                    report.checks.append(
                        AxiomCheck(f"concrete:{tag}", (Prop(src, int(starry[0])),))
                    )
                else:
                    report.checks.append(AxiomCheck(f"concrete:{tag}"))
            bad = _monotone_violation(src, vals)
            report.checks.append(AxiomCheck(f"monotone:{tag}", bad))
            kind = "meet" if mode == "inner" else "join"
            bad = _pairwise_violation(src, vals, kind)
            report.checks.append(AxiomCheck(f"preserves-{kind}:{tag}", bad))
            bad = _ideal_violation(src, vals)
            report.checks.append(AxiomCheck(f"approximable-ideal:{tag}", bad))
    return report


def perfect_set_b(t, side):
    """Set B of ``perfect_translations``: some target proposition lies between
    the outer and the inner image."""
    fwd = "1>2" if side == 1 else "2>1"
    src, dst = t.endpoints(fwd)
    inner_f = t.array(fwd, "inner")
    outer_f = t.array(fwd, "outer")
    n = src.full_mask + 1
    nd = dst.full_mask + 1
    eta = np.arange(nd, dtype=np.int64)
    outer_props, inner_props = outer_f[:n], inner_f[:n]
    set_b = np.zeros(n, dtype=bool)
    for start in range(0, n, _CHUNK):
        upper = (outer_props[start:start + _CHUNK, None] & ~eta[None, :]) == 0
        lower = (eta[None, :] & ~inner_props[start:start + _CHUNK, None]) == 0
        set_b[start:start + _CHUNK] = (upper & lower).any(axis=1)
    return set_b


def joint_embeddings(t, space):
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
        injective = len(set(int(v) for v in ev)) == n
        report.checks.append(
            AxiomCheck(f"embedding-injective:{side}", None if injective else (algebra.bottom,))
        )
        masks = np.arange(n, dtype=np.int64)
        witness = None
        for start in range(0, n, _CHUNK):
            rows = masks[start:start + _CHUNK]
            rows_ev = ev[start:start + _CHUNK]
            meets_ok = ev[rows[:, None] & masks[None, :]] == (
                rows_ev[:, None] & ev[None, :]
            )
            full = np.int64(algebra.full_mask)
            relneg_ok = ev[(full ^ rows)[:, None] & masks[None, :]] == (
                ev[None, :] & ~rows_ev[:, None]
            )
            bad = np.argwhere(~(meets_ok & relneg_ok))
            if bad.size:
                i, j = (int(v) for v in bad[0])
                witness = (Prop(algebra, start + i), Prop(algebra, j))
                break
        report.checks.append(AxiomCheck(f"embedding-homomorphism:{side}", witness))

    try:
        common = common_language(t)
    except DegenerateCommonLanguageError:
        common = None
    if common is not None:
        diagram_witness = None
        legs_witness = None
        a1, a2 = t.algebra1, t.algebra2
        for m, partner in zip(common.masks.tolist(), common.partners.tolist()):
            m, partner = Prop(a1, m), Prop(a2, partner)
            target = space.valuation(m)
            if space.valuation(partner) != target:
                diagram_witness = diagram_witness or (m, partner)
            for direction, start_prop in (("1>2", m), ("2>1", partner)):
                for mode in ("inner", "outer"):
                    image = t.apply(direction, mode, start_prop)
                    if not isinstance(image, Prop) or space.valuation(image) != target:
                        legs_witness = legs_witness or (start_prop,)
        report.checks.append(AxiomCheck("common-diagram-commutes", diagram_witness))
        report.checks.append(AxiomCheck("translation-legs-agree", legs_witness))
    return report


def joint_states(t):
    """The joint states of a consistent translation as the library listed
    them before it read them off the compatibility relation: one test per
    atom pair on both outer arrays' atom slots, then a sort."""
    a1, a2 = t.algebra1, t.algebra2
    o12 = t.array("1>2", "outer")
    o21 = t.array("2>1", "outer")
    states = []
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
    return states


def semantic_tables(space):
    """The inner and outer set approximation of every source event, keyed by
    (source side, target side): for each target event, OR it into the inner
    image of the events containing it and AND it into the outer image of the
    events it contains."""
    tables_inner = {}
    tables_outer = {}
    for frm, to in ((1, 2), (2, 1)):
        src = space.event_array(frm)
        dst_events = sorted(set(int(v) for v in space.event_array(to)))
        inner = np.zeros(len(src), dtype=np.int64)
        outer = np.full(len(src), -1, dtype=np.int64)
        for f in dst_events:
            contained = (f & ~src) == 0
            inner[contained] |= f
            contains = (src & ~f) == 0
            outer[contains] &= f
        tables_inner[(frm, to)] = inner
        tables_outer[(frm, to)] = outer
    return tables_inner, tables_outer


def joint_to_dict(space):
    """``JointStateSpace.to_dict`` with one ``formula_text`` per proposition."""
    a1, a2 = space.algebra1, space.algebra2
    states = []
    for a, b in space.states:
        states.append({
            "atom1": None if a is None else a1.formula_text(Prop(a1, 1 << a)),
            "atom2": None if b is None else a2.formula_text(Prop(a2, 1 << b)),
        })
    def table(side, algebra):
        ev = space.event_array(side)
        return {
            algebra.formula_text(Prop(algebra, mask)): [
                s for s in range(space.state_count) if int(ev[mask]) >> s & 1
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


def common_checks(masks, partner_masks, full):
    """The checks of ``common_language`` on ascending member masks and their
    partners: one pass per member a over every b, raising at the first
    failing pair in (a, b) order, closure before implication at the same
    pair, then the top."""
    is_member = np.zeros(full + 1, dtype=bool)
    is_member[masks] = True
    for a, partner_a in zip(masks, partner_masks):
        closed = is_member[a & masks] & is_member[(full ^ a) & masks]
        preserved = ((a & ~masks) == 0) == ((partner_a & ~partner_masks) == 0)
        bad = np.flatnonzero(~(closed & preserved))
        if bad.size and not closed[bad[0]]:
            raise CharacterizationMismatchError(
                "perfect set is not closed under meet / relative complement"
            )
        if bad.size:
            raise CharacterizationMismatchError(
                "partner bijection does not preserve implication"
            )
    top = int(np.bitwise_or.reduce(masks))
    if not is_member[top] or top == 0:
        raise CharacterizationMismatchError("common language lacks a distinct top")


def classify_awareness(t, space):
    """``classify_awareness`` on the event fields as sets of Python ints."""
    if not t.is_consistent():
        raise InconsistentInputError("translation fails its axioms")
    sigma = {side: set(int(v) for v in space.event_array(side)) for side in (1, 2)}
    tops = {
        side: int(space.event_array(side)[space.algebra(side).full_mask])
        for side in (1, 2)
    }
    evidence = {}
    divergences = []
    flags = {}
    for i, j in ((1, 2), (2, 1)):
        included = sigma[i] <= sigma[j]
        coarsening = included and tops[i] == tops[j]
        restriction = sigma[i] == {e & tops[i] for e in sigma[j]}
        perfect_total = len(perfect_translations(t, i)) == (
            space.algebra(i).full_mask + 1
        )
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

    if sigma[1] == sigma[2]:
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


def order_embedding_witness(space):
    """The order-embedding part of ``verify_prop2``: the first pair whose
    order disagrees with containment of its events, or None."""
    witness = None
    for side in (1, 2):
        ev = space.event_array(side)
        n = len(ev)
        masks = np.arange(n, dtype=np.int64)
        for start in range(0, n, _CHUNK):
            rows_m = masks[start:start + _CHUNK]
            ordered = (rows_m[:, None] & ~masks[None, :]) == 0
            contained = (ev[start:start + _CHUNK][:, None] & ~ev[None, :]) == 0
            bad = np.argwhere(ordered != contained)
            if bad.size:
                i, j = (int(v) for v in bad[0])
                algebra = space.algebra(side)
                witness = (Prop(algebra, start + i), Prop(algebra, j))
                break
        if witness is not None:
            break
    return witness


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
    report.checks.append(AxiomCheck("implication-matches-containment", witness))

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
        report.checks.append(AxiomCheck(name, witness))
    return report


# --- set-valued analysis results --------------------------------------------------
#
# ``perfect_translations``, ``fixed_points``, ``approximable_set`` and the
# common language as the library built them before they became mask arrays:
# sets, tuples and dicts of ``Prop`` from one loop over every mask.  The
# common language is checked with the pairwise ``common_checks``.


def _direction(side):
    return ("1>2", "2>1") if side == 1 else ("2>1", "1>2")


def perfect_set(t, side):
    """Propositions translated without ambiguity; raises when the four
    characterizations disagree."""
    if not t.is_consistent():
        raise InconsistentInputError("translation fails its axioms")
    fwd, back = _direction(side)
    src, _ = t.endpoints(fwd)
    inner_f = t.array(fwd, "inner")
    outer_f = t.array(fwd, "outer")
    inner_b = t.array(back, "inner")
    outer_b = t.array(back, "outer")
    n = src.full_mask + 1
    lam = np.arange(n, dtype=np.int64)

    set_a = inner_f[:n] == outer_f[:n]
    set_b = (outer_f[:n] != -1) & ((outer_f[:n] & ~inner_f[:n]) == 0)
    set_c = outer_b[outer_f[:n]] == lam
    set_d = inner_b[inner_f[:n]] == lam

    if not (np.array_equal(set_a, set_b) and np.array_equal(set_a, set_c)
            and np.array_equal(set_a, set_d)):
        raise CharacterizationMismatchError(
            "the characterizations of the perfect set disagree"
        )
    return {Prop(src, int(m)) for m in np.flatnonzero(set_a)}


def fixed_point_set(t, side):
    """Propositions recovered exactly by both round trips."""
    if not t.is_consistent():
        raise InconsistentInputError("translation fails its axioms")
    fwd, back = _direction(side)
    src, _ = t.endpoints(fwd)
    inner_f = t.array(fwd, "inner")
    outer_f = t.array(fwd, "outer")
    inner_b = t.array(back, "inner")
    outer_b = t.array(back, "outer")
    n = src.full_mask + 1
    lam = np.arange(n, dtype=np.int64)
    fixed = (outer_b[inner_f[:n]] == lam) & (inner_b[outer_f[:n]] == lam)
    return {Prop(src, int(m)) for m in np.flatnonzero(fixed)}


def approximable_props(t, direction, mode="outer"):
    """Propositions whose image is defined (not star)."""
    src, _ = t.endpoints(direction)
    vals = t.array(direction, mode)
    return {Prop(src, m) for m in range(src.full_mask + 1) if vals[m] != -1}


def common_members(t, host_side=1):
    """The common language as a tuple of members, ascending, and a partner
    dict; raises as ``common_language`` does."""
    fwd, _ = _direction(host_side)
    src, dst = t.endpoints(fwd)
    masks = np.array(sorted(p.mask for p in perfect_set(t, host_side)), dtype=np.int64)
    if len(masks) < 2:
        raise DegenerateCommonLanguageError(
            "only the contradiction translates exactly"
        )
    partner_masks = t.array(fwd, "outer")[masks]
    common_checks(masks, partner_masks, src.full_mask)
    members = tuple(Prop(src, m) for m in masks.tolist())
    partner = {m: Prop(dst, v) for m, v in zip(members, partner_masks.tolist())}
    return members, partner


# --- the implication relation ----------------------------------------------------
#
# ``close`` runs the down/up sweeps to a fixpoint and tests the result against
# the within-language orders with two boolean matrix products;
# ``check_implication_axioms`` decides transitivity, connective and negation
# consistency with products, (2^m)^2 within-language matrices and gathers;
# ``reduced_cross`` drops factoring pairs with dense strict orders.  All three
# are the library's code from before the lattice-sweep rewrite.  They hold a
# relation as ``DenseRelation`` rows, and ``check_implication_axioms`` and
# ``translation_from_rows`` read any relation with ``rows12``/``rows21``.


@dataclass(frozen=True, eq=False)
class DenseRelation:
    """A cross relation as two dense boolean matrices (sources by mask
    against targets by mask, star slots last) plus the within-language pairs
    outside the orders, as (source index, target index)."""
    algebra1: Algebra
    algebra2: Algebra
    rows12: np.ndarray
    rows21: np.ndarray
    extra1: frozenset = frozenset()
    extra2: frozenset = frozenset()

    def holds(self, x, y) -> bool:
        sides = {self.algebra1.name: 1, self.algebra2.name: 2}
        sx, sy = sides[x.algebra.name], sides[y.algebra.name]
        i, j = CrossImplication._idx(x), CrossImplication._idx(y)
        if sx == sy:
            return implies(x, y) or (i, j) in (self.extra1 if sx == 1 else self.extra2)
        return bool((self.rows12 if sx == 1 else self.rows21)[i, j])


def frozen_pairs(pairs: np.ndarray) -> frozenset:
    """An (n, 2) array of within-language pairs as the frozenset of int
    tuples that this module reads by membership."""
    return frozenset(map(tuple, pairs.tolist()))


def dense_relation(r: CrossImplication) -> DenseRelation:
    """A relation's dense rows, its within-language pairs as frozensets."""
    return DenseRelation(r.algebra1, r.algebra2, r.rows12, r.rows21,
                         frozen_pairs(r.extra1), frozen_pairs(r.extra2))


def relations_equal(r: DenseRelation, s: DenseRelation) -> bool:
    """``CrossImplication.__eq__`` on dense rows, for every relation."""
    return (
        isinstance(s, DenseRelation)
        and r.algebra1.name == s.algebra1.name
        and r.algebra2.name == s.algebra2.name
        and np.array_equal(r.rows12, s.rows12)
        and np.array_equal(r.rows21, s.rows21)
        and r.extra1 == s.extra1
        and r.extra2 == s.extra2
    )


def _bool_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0.5


def _down_close_sources(rows: np.ndarray, m_src: int):
    """row[u] |= row[x] for every u that implies x (mask subsets)."""
    ar = np.arange(1 << m_src)
    for b in range(m_src):
        bit = 1 << b
        without = np.flatnonzero(ar & bit == 0)
        rows[without] |= rows[without + bit]
    rows[:-1] |= rows[-1]  # every proposition implies the star


def _up_close_targets(rows: np.ndarray, m_dst: int):
    """row targets absorb everything they imply upward (mask supersets)."""
    ar = np.arange(1 << m_dst)
    for b in range(m_dst):
        bit = 1 << b
        with_bit = np.flatnonzero(ar & bit != 0)
        rows[:, with_bit] |= rows[:, with_bit - bit]
    rows[:, -1] |= rows[:, :-1].any(axis=1)  # targets imply their star


def _within_matrix(n_models: int) -> np.ndarray:
    """Star-lattice implication by index (props by mask, star slot last)."""
    masks = np.append(np.arange(1 << n_models, dtype=np.int64), -1)
    n = len(masks)
    out = np.empty((n, n), dtype=bool)
    for start in range(0, n, 512):
        rows = masks[start:start + 512]
        out[start:start + 512] = (rows[:, None] & ~masks[None, :]) == 0
    return out


def close(seeds, a1: Algebra, a2: Algebra) -> DenseRelation:
    """Least relation containing the seeds, both within-language orders and
    the bound pairs, closed under transitivity.

    Same-language seeds that the order does not already validate, and any
    within-language pairs the closure forces, are kept aside so the
    extensibility check can fail with them as witnesses.
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

    def zeta_fixpoint():
        while True:
            before = int(rows12.sum()) + int(rows21.sum())
            _down_close_sources(rows12, m1)
            _down_close_sources(rows21, m2)
            _up_close_targets(rows12, m2)
            _up_close_targets(rows21, m1)
            if int(rows12.sum()) + int(rows21.sum()) == before:
                return

    zeta_fixpoint()
    comp1 = _bool_matmul(rows12, rows21)
    comp2 = _bool_matmul(rows21, rows12)
    w1 = _within_matrix(m1)
    w2 = _within_matrix(m2)
    clean = not (comp1 & ~w1).any() and not (comp2 & ~w2).any()
    if clean and not extra_seeds1 and not extra_seeds2:
        return DenseRelation(a1, a2, rows12, rows21)

    # the closure escapes the within-language orders: fall back to a full
    # Warshall-style closure over the union (small instances only)
    if n1 + n2 > _SLOW_CLOSE_LIMIT:
        raise AlgebraTooLargeError(
            "closure forces within-language pairs and the algebras are too "
            "large for the dense fallback"
        )
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
    return DenseRelation(a1, a2, u[:n1, n1:].copy(), u[n1:, :n1].copy(),
                         extra1, extra2)


def check_implication_axioms(r) -> AxiomReport:
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
            witness = (_element(algebra, _unstar(i, algebra)),
                       _element(algebra, _unstar(j, algebra)))
            report.checks.append(AxiomCheck(f"extensibility:{side}", witness))
        else:
            report.checks.append(AxiomCheck(f"extensibility:{side}"))

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
            i, j = (int(v) for v in np.argwhere(gained)[0])
            trans_witness = (_element(src, _unstar(i, src)),
                             _element(dst, _unstar(j, dst)))
            break
    if trans_witness is None:
        for rows_a, rows_b, src, mid, extra, w in (
            (r.rows12, r.rows21, a1, a2, r.extra1, _within_matrix(m1)),
            (r.rows21, r.rows12, a2, a1, r.extra2, _within_matrix(m2)),
        ):
            comp = _bool_matmul(rows_a, rows_b)
            for i, j in extra:
                w[i, j] = True
            bad = np.argwhere(comp & ~w)
            if bad.size:
                i, j = (int(v) for v in bad[0])
                k = int(np.flatnonzero(rows_a[i] & rows_b[:, j])[0])
                trans_witness = (_element(src, _unstar(i, src)),
                                 _element(mid, _unstar(k, mid)),
                                 _element(src, _unstar(j, src)))
                break
    report.checks.append(AxiomCheck("transitivity", trans_witness))

    # bound consistency: contradictions and stars align, and the star
    # reaches nothing below the other star
    bound_ok = (
        bool(r.rows12[0, 0]) and bool(r.rows21[0, 0])
        and bool(r.rows12[-1, -1]) and bool(r.rows21[-1, -1])
        and not r.rows12[-1, :-1].any() and not r.rows21[-1, :-1].any()
    )
    report.checks.append(
        AxiomCheck("bound-consistency", None if bound_ok else (a1.bottom, a2.bottom))
    )

    # connective consistency: for each source proposition the set of targets
    # it reaches is closed under meets (equivalently contains its total
    # meet), and the set of sources reaching it is closed under joins
    for tag, rows_fwd, rows_back, src, dst in (
        ("1>2", r.rows12, r.rows21, a1, a2),
        ("2>1", r.rows21, r.rows12, a2, a1),
    ):
        witness = None
        fwd = rows_fwd[:-1, :-1]
        dst_masks = np.arange(dst.full_mask + 1, dtype=np.int64)
        meets = np.bitwise_and.reduce(
            np.where(fwd, dst_masks[None, :], np.int64(-1)), axis=1
        )
        has_target = fwd.any(axis=1)
        lam_idx = np.flatnonzero(has_target)
        bad = lam_idx[~rows_fwd[lam_idx, meets[lam_idx]]]
        if bad.size:
            lam = int(bad[0])
            witness = (Prop(src, lam), Prop(dst, int(meets[lam])))
        if witness is None:
            back = rows_back[:-1, :-1]
            src_of = np.bitwise_or.reduce(
                np.where(back, np.arange(dst.full_mask + 1,
                                         dtype=np.int64)[:, None], np.int64(0)),
                axis=0,
            )
            bad = np.flatnonzero(~rows_back[src_of, np.arange(src.full_mask + 1)])
            if bad.size:
                lam = int(bad[0])
                witness = (Prop(dst, int(src_of[lam])), Prop(src, lam))
        report.checks.append(AxiomCheck(f"connective-consistency:{tag}", witness))

    # negation consistency: when a proposition reaches the other tautology,
    # anything implying its negation is in turn negated by it
    for tag, rows_fwd, rows_back, src, dst in (
        ("1>2", r.rows12, r.rows21, a1, a2),
        ("2>1", r.rows21, r.rows12, a2, a1),
    ):
        np1, np2 = src.full_mask + 1, dst.full_mask + 1
        guard = rows_fwd[:np1, dst.full_mask]
        neg_src = src.full_mask ^ np.arange(np1)
        neg_dst = dst.full_mask ^ np.arange(np2)
        reaches_neg = rows_back[:np2, :np1][:, neg_src]      # [eta, lam]
        negated = rows_fwd[:np1, :np2][:, neg_dst]           # [lam, eta]
        viol = guard[None, :] & reaches_neg & ~negated.T
        bad = np.argwhere(viol)
        if bad.size:
            eta, lam = (int(v) for v in bad[0])
            witness = (Prop(src, lam), Prop(dst, eta))
            report.checks.append(AxiomCheck(f"negation-consistency:{tag}", witness))
        else:
            report.checks.append(AxiomCheck(f"negation-consistency:{tag}"))
    return report


def _strict_within(n_models: int) -> np.ndarray:
    masks = np.arange(1 << n_models, dtype=np.int64)
    grid = (masks[:, None] & ~masks[None, :]) == 0
    np.fill_diagonal(grid, False)
    return grid


def reduced_cross(rows: np.ndarray, m_src: int, m_dst: int) -> np.ndarray:
    """Drop cross pairs that factor through a strictly finer step on either
    side; what remains is the transitive reduction restricted to props."""
    block = rows[: 1 << m_src, : 1 << m_dst]
    via_src = _bool_matmul(_strict_within(m_src), block)
    via_dst = _bool_matmul(block, _strict_within(m_dst))
    return block & ~via_src & ~via_dst


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


def translation_from_arrays(a1, a2, inner12, outer12, inner21, outer21) -> Translation:
    """A translation with arbitrary operators, given as four arrays over the
    source slots: the atom images are read off the outer arrays at the atom
    slots, and every other entry that differs from the derived operators
    becomes an override, operator by operator, slots ascending (a star slot
    as the value -1).  The four arrays it builds must equal the given ones."""
    given = dict(zip(_OPERATORS, (inner12, outer12, inner21, outer21)))
    images = [np.asarray(given[(direction, "outer")])[1 << np.arange(src.model_count)]
              for direction, src in (("1>2", a1), ("2>1", a2))]
    derived = Translation(a1, a2, *images)
    overrides = []
    for (direction, mode), vals in given.items():
        n = derived.endpoints(direction)[0].full_mask + 1
        for slot in np.flatnonzero(vals != derived.array(direction, mode)):
            overrides.append((direction, mode, int(slot) if slot < n else -1,
                              int(vals[slot])))
    t = Translation(a1, a2, *images, overrides)
    assert all(np.array_equal(t.array(*key), vals) for key, vals in given.items())
    return t


def translation_from_images(r) -> Translation:
    """The four operators read off the relation's image vectors: the inner
    image is the join of everything below, the outer image the meet of
    everything above, with an empty meet standing for the star."""
    fwd, back = r.images
    return translation_from_arrays(
        r.algebra1, r.algebra2,
        np.append(back.prop_join()[:-1], -1), np.append(fwd.meet[:-1], -1),
        np.append(fwd.prop_join()[:-1], -1), np.append(back.meet[:-1], -1))


def translation_from_rows(r) -> Translation:
    """The four operators read off dense rows: the inner image is the join
    of everything below, the outer image the meet of everything above."""
    a1, a2 = r.algebra1, r.algebra2

    def operators(dst: Algebra, fwd: np.ndarray, back: np.ndarray):
        return (np.append(_joins(back, dst.model_count)[:-1], -1),
                np.append(_meets(fwd, dst.model_count)[:-1], -1))

    return translation_from_arrays(a1, a2, *operators(a2, r.rows12, r.rows21),
                                   *operators(a1, r.rows21, r.rows12))


def cross_dot(r, full: bool = False) -> str:
    """Both cover diagrams plus the cross arrows of dense rows, reduced by
    ``reduced_cross`` unless ``full``, one arrow line per pair: a pair
    implied both ways is drawn once, from language 1, double-headed."""
    a1, a2 = r.algebra1, r.algebra2
    m1, m2 = a1.model_count, a2.model_count
    if full:
        fwd, back = r.rows12[:-1, :-1], r.rows21[:-1, :-1]
    else:
        fwd, back = reduced_cross(r.rows12, m1, m2), reduced_cross(r.rows21, m2, m1)
    style = "color=forestgreen, style=bold"
    lines = ["digraph cross {", "  rankdir=BT;"]
    for side, algebra in ((1, a1), (2, a2)):
        lines.append(f'  subgraph cluster_{side} {{ label="{algebra.name}";')
        lines.extend("  " + line for line in _hasse_lines(algebra, side))
        lines.append("  }")
    for x, y in zip(*np.nonzero(fwd)):
        both = ", dir=both" if back[y, x] else ""
        lines.append(f"  n1_{x} -> n2_{y} [{style}{both}];")
    for y, x in zip(*np.nonzero(back)):
        if not fwd[x, y]:
            lines.append(f"  n2_{y} -> n1_{x} [{style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- helpers only the suites ask for --------------------------------------------


def brute_ultrafilter_extension(r: CrossImplication, side: int,
                                filter_props, excluded: Prop):
    """Search every ultrafilter extending the filter while keeping the
    excluded proposition out of its upward closure; None when impossible."""
    filter_props = set(filter_props)
    for u in brute_ultrafilters(r, side):
        if not filter_props <= u:
            continue
        if any(r.holds(x, excluded) for x in u):
            continue
        return u
    return None


def generated_field_block_count(space: JointStateSpace) -> int:
    """Blocks of the coarsest partition refining both event fields: the
    fields are generated by their atom events, so two states share a
    block exactly when they lie in the same atoms."""
    atoms = space.atom_events(1) + space.atom_events(2)
    return len({tuple(a >> s & 1 for a in atoms) for s in range(space.state_count)})
