"""The dense pairwise checkers, kept as references for the fast ones.

Each function here walks every pair of lattice elements in 512-row chunks,
exactly as the library's checkers did before they were rewritten as
cover, atom and subset-zeta decisions.  The differential suites require
identical reports, witnesses included, from both.
"""

import numpy as np

from crosslang import DegenerateCommonLanguageError, Prop, common_language
from crosslang.reports import AxiomCheck, AxiomReport
from crosslang.translation import _element

_CHUNK = 512


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
            report.checks.append(AxiomCheck(f"galois:{direction}", False, (witness,)))
        else:
            report.checks.append(AxiomCheck(f"galois:{direction}", True))
    return report


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
            AxiomCheck(f"embedding-injective:{side}", injective,
                       () if injective else ((algebra.bottom,),))
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
        report.checks.append(
            AxiomCheck(f"embedding-homomorphism:{side}", witness is None,
                       () if witness is None else (witness,))
        )

    try:
        common = common_language(t, host_side=1)
    except DegenerateCommonLanguageError:
        common = None
    if common is not None:
        diagram_witness = None
        legs_witness = None
        for m in common.members:
            partner = common.partner[m]
            target = space.valuation(m)
            if space.valuation(partner) != target:
                diagram_witness = diagram_witness or (m, partner)
            for direction, start_prop in (("1>2", m), ("2>1", partner)):
                for mode in ("inner", "outer"):
                    image = t.apply(direction, mode, start_prop)
                    if not isinstance(image, Prop) or space.valuation(image) != target:
                        legs_witness = legs_witness or (start_prop,)
        report.checks.append(
            AxiomCheck("common-diagram-commutes", diagram_witness is None,
                       () if diagram_witness is None else (diagram_witness,))
        )
        report.checks.append(
            AxiomCheck("translation-legs-agree", legs_witness is None,
                       () if legs_witness is None else (legs_witness,))
        )
    return report


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
