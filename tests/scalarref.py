"""Naive scalar re-statements of every axiom, used to audit the vectorized
checkers.  Everything here walks plain Python loops over lattice elements
and asks only ``implies``/``holds``/``apply``."""

from crosslang import Prop, Star, implies, join, meet, negate


def galois_ok(t, direction):
    back = "2>1" if direction == "1>2" else "1>2"
    src, dst = t.endpoints(direction)
    for lam in src.star_lattice():
        for eta in dst.star_lattice():
            lhs = implies(eta, t.apply(direction, "inner", lam))
            rhs = implies(t.apply(back, "outer", eta), lam)
            if lhs != rhs:
                return False
    return True


def approximation_ok(t, direction):
    src, _ = t.endpoints(direction)
    return all(
        implies(t.apply(direction, "inner", lam), t.apply(direction, "outer", lam))
        for lam in src.star_lattice()
    )


def restricted_duality_ok(t, direction):
    src, _ = t.endpoints(direction)
    inner_top = t.apply(direction, "inner", src.top)
    for lam in src.all_props():
        outer = t.apply(direction, "outer", lam)
        if isinstance(outer, Star):
            continue
        expected = meet(negate(outer), inner_top)
        if t.apply(direction, "inner", negate(lam)) != expected:
            return False
    return True


def galois_pair_holds(t, direction, lam, eta):
    """The adjunction biconditional at one pair; ``lam`` is in the source of
    ``direction``, ``eta`` in its target."""
    back = "2>1" if direction == "1>2" else "1>2"
    lhs = implies(eta, t.apply(direction, "inner", lam))
    rhs = implies(t.apply(back, "outer", eta), lam)
    return lhs == rhs


def approximation_holds(t, direction, lam):
    return implies(t.apply(direction, "inner", lam), t.apply(direction, "outer", lam))


def restricted_duality_holds(t, direction, lam):
    src, _ = t.endpoints(direction)
    outer = t.apply(direction, "outer", lam)
    if isinstance(outer, Star):
        return True
    expected = meet(negate(outer), t.apply(direction, "inner", src.top))
    return t.apply(direction, "inner", negate(lam)) == expected


def extensibility_ok(r, side):
    algebra = r.algebra1 if side == 1 else r.algebra2
    for x in algebra.star_lattice():
        for y in algebra.star_lattice():
            if r.holds(x, y) != implies(x, y):
                return False
    return True


def transitivity_ok(r):
    union = r.algebra1.star_lattice() + r.algebra2.star_lattice()
    for x in union:
        for y in union:
            if not r.holds(x, y):
                continue
            for z in union:
                if r.holds(y, z) and not r.holds(x, z):
                    return False
    return True


def bound_consistency_ok(r):
    a1, a2 = r.algebra1, r.algebra2
    if not (r.holds(a1.bottom, a2.bottom) and r.holds(a2.bottom, a1.bottom)):
        return False
    if not (r.holds(a1.star, a2.star) and r.holds(a2.star, a1.star)):
        return False
    # a star reaches nothing below the other star
    return not any(r.holds(a1.star, y) for y in a2.all_props()) and not any(
        r.holds(a2.star, y) for y in a1.all_props()
    )


def connective_consistency_ok(r):
    """Pairwise meets of targets and pairwise joins of sources stay related."""
    for src, dst in ((r.algebra1, r.algebra2), (r.algebra2, r.algebra1)):
        for lam in src.all_props():
            targets = [eta for eta in dst.all_props() if r.holds(lam, eta)]
            for a in targets:
                for b in targets:
                    if not r.holds(lam, meet(a, b)):
                        return False
            sources = [eta for eta in dst.all_props() if r.holds(eta, lam)]
            for a in sources:
                for b in sources:
                    if not r.holds(join(a, b), lam):
                        return False
    return True


def negation_consistency_ok(r):
    for src, dst in ((r.algebra1, r.algebra2), (r.algebra2, r.algebra1)):
        for lam in src.all_props():
            if not r.holds(lam, dst.top):
                continue
            for eta in dst.all_props():
                if r.holds(eta, negate(lam)) and not r.holds(lam, negate(eta)):
                    return False
    return True


def translation_verdicts(t):
    return {
        "galois:1>2": galois_ok(t, "1>2"),
        "galois:2>1": galois_ok(t, "2>1"),
        "approximation:1>2": approximation_ok(t, "1>2"),
        "approximation:2>1": approximation_ok(t, "2>1"),
        "restricted-duality:1>2": restricted_duality_ok(t, "1>2"),
        "restricted-duality:2>1": restricted_duality_ok(t, "2>1"),
    }


def relation_verdicts(r):
    return {
        "extensibility:1": extensibility_ok(r, 1),
        "extensibility:2": extensibility_ok(r, 2),
        "transitivity": transitivity_ok(r),
        "bound-consistency": bound_consistency_ok(r),
        "connective-consistency": connective_consistency_ok(r),
        "negation-consistency": negation_consistency_ok(r),
    }


def is_atom(x) -> bool:
    return x.mask != 0 and x.mask & (x.mask - 1) == 0


def atoms_below(x) -> list:
    """The atoms whose join is this proposition."""
    out = []
    mask = x.mask
    while mask:
        low = mask & -mask
        out.append(Prop(x.algebra, low))
        mask ^= low
    return out


def less_aware(verdict, i: int, j: int) -> bool:
    return verdict.evidence[f"sigma{i}_subset_of_sigma{j}"]
