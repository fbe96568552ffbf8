"""Independent brute-force reference implementations.

Nothing here shares logic with the fast paths: states are found by
enumerating candidate subsets and testing the defining conditions
extensionally, adjoints by scanning every candidate proposition, ultrafilters
by checking primality over the whole algebra.  Every enumeration respects an
explicit budget and aborts with an error rather than returning a partial
answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, Prop, StarProp
from .errors import BudgetExceededError
from .implication import CrossImplication
from .translation import Translation


@dataclass(frozen=True)
class OracleBudget:
    max_atoms: int = 12            # algebra atoms (= models) per language
    max_subsets: int = 1 << 22     # enumeration work ceiling (set count / ops)
    time_limit: float = 120.0      # seconds

    def check_time(self, started: float):
        if time.monotonic() - started > self.time_limit:
            raise BudgetExceededError(
                f"oracle exceeded its {self.time_limit}s time budget"
            )

    def check_atoms(self, *algebras: Algebra):
        for algebra in algebras:
            if algebra.model_count > self.max_atoms:
                raise BudgetExceededError(
                    f"{algebra.name!r} has {algebra.model_count} atoms, above the "
                    f"oracle budget of {self.max_atoms}"
                )

    def check_work(self, estimate: int, what: str):
        if estimate > self.max_subsets:
            raise BudgetExceededError(
                f"{what} needs about {estimate} steps, above the budget "
                f"of {self.max_subsets}"
            )


def _lattice_elements(r: CrossImplication) -> list[StarProp]:
    return r.algebra1.star_lattice() + r.algebra2.star_lattice()


def _restriction_is_empty_or_ultrafilter(members: list[Prop], algebra: Algebra) -> bool:
    """Extensional test: empty, or a proper filter no proper filter extends."""
    if not members:
        return True
    masks = {m.mask for m in members}
    if 0 in masks:
        return False
    for a in masks:
        for b in masks:
            if a & b not in masks:
                return False
        for other in range(algebra.full_mask + 1):
            if a & ~other == 0 and other not in masks:
                return False
    for lam in range(algebra.full_mask + 1):
        if (lam in masks) == (algebra.full_mask ^ lam in masks):
            return False
    return True


def brute_ultrafilters(r: CrossImplication, side: int) -> list[frozenset]:
    """Every ultrafilter of one algebra, found by scanning principal up-sets.

    A finite filter contains the meet of its members, so it is the up-set of
    one element; the scan therefore covers all filters, and keeps the prime
    ones.
    """
    algebra = r.algebra1 if side == 1 else r.algebra2
    out = []
    for x in range(1, algebra.full_mask + 1):
        members = [
            Prop(algebra, y)
            for y in range(algebra.full_mask + 1)
            if x & ~y == 0
        ]
        if _restriction_is_empty_or_ultrafilter(members, algebra):
            out.append(frozenset(members))
    return out


def brute_states(r: CrossImplication, budget: OracleBudget | None = None,
                 method: str = "auto") -> list[frozenset]:
    """All states of the relation, as explicit upward-closed sets.

    ``subsets`` enumerates every subset of the two star lattices and filters
    by the defining conditions; ``filters`` enumerates candidate pairs of
    extensionally verified ultrafilters and closes them upward.  ``auto``
    picks ``subsets`` whenever it fits the budget.  Sets containing no
    proposition at all (only the two stars) are not states.
    """
    budget = budget or OracleBudget()
    budget.check_atoms(r.algebra1, r.algebra2)
    elements = _lattice_elements(r)
    n = len(elements)
    if method == "auto":
        method = "subsets" if (1 << n) <= budget.max_subsets else "filters"
    if method == "subsets":
        if (1 << n) > budget.max_subsets:
            raise BudgetExceededError(
                f"2**{n} subsets exceed the budget of {budget.max_subsets}"
            )
        return _brute_states_subsets(r, elements, budget)
    if method == "filters":
        return _brute_states_filters(r, elements, budget)
    raise ValueError(f"unknown method {method!r}")


def _candidate_is_state(r: CrossImplication, candidate: frozenset,
                        elements: list[StarProp]) -> bool:
    if not candidate:
        return False
    for x in candidate:
        for y in elements:
            if r.holds(x, y) and y not in candidate:
                return False
    props1 = [p for p in candidate
              if isinstance(p, Prop) and p.algebra.name == r.algebra1.name]
    props2 = [p for p in candidate
              if isinstance(p, Prop) and p.algebra.name == r.algebra2.name]
    if not props1 and not props2:
        return False
    return (
        _restriction_is_empty_or_ultrafilter(props1, r.algebra1)
        and _restriction_is_empty_or_ultrafilter(props2, r.algebra2)
    )


def _brute_states_subsets(r, elements, budget) -> list[frozenset]:
    started = time.monotonic()
    n = len(elements)
    up_masks = []
    for e in elements:
        mask = 0
        for k, y in enumerate(elements):
            if r.holds(e, y):
                mask |= 1 << k
        up_masks.append(mask)
    subsets = np.arange(1 << n, dtype=np.int64)
    closed = subsets != 0
    for e in range(n):
        budget.check_time(started)
        present = (subsets >> e) & 1 == 1
        closed &= ~present | ((subsets & up_masks[e]) == up_masks[e])
    out = []
    for s in np.flatnonzero(closed):
        budget.check_time(started)
        candidate = frozenset(elements[k] for k in range(n) if int(s) >> k & 1)
        if _candidate_is_state(r, candidate, elements):
            out.append(candidate)
    return out


def _brute_states_filters(r, elements, budget) -> list[frozenset]:
    started = time.monotonic()
    m1, m2 = r.algebra1.model_count, r.algebra2.model_count
    # dominant costs: the principal-up-set scans (5**m summed membership
    # grids) and the per-candidate closure checks over the whole union
    estimate = 5 ** m1 + 5 ** m2 + (m1 + 1) * (m2 + 1) * len(elements) ** 2
    budget.check_work(estimate, "ultrafilter-pair enumeration")
    options1 = [None] + brute_ultrafilters(r, 1)
    options2 = [None] + brute_ultrafilters(r, 2)
    seen = set()
    out = []
    for u1 in options1:
        for u2 in options2:
            budget.check_time(started)
            if u1 is None and u2 is None:
                continue
            seed = set() if u1 is None else set(u1)
            if u2 is not None:
                seed |= set(u2)
            candidate = frozenset(
                y for y in elements
                if any(r.holds(x, y) for x in seed) or y in seed
            )
            if candidate in seen:
                continue
            seen.add(candidate)
            if _candidate_is_state(r, candidate, elements):
                out.append(candidate)
    return out


def state_set_of(r: CrossImplication, pair: tuple[int | None, int | None]) -> frozenset:
    """The upward-closed set a fast-path state stands for."""
    seeds = []
    if pair[0] is not None:
        seeds.append(Prop(r.algebra1, 1 << pair[0]))
    if pair[1] is not None:
        seeds.append(Prop(r.algebra2, 1 << pair[1]))
    return frozenset(
        y for y in _lattice_elements(r)
        if any(r.holds(x, y) for x in seeds)
    )


def brute_adjoint(t: Translation, direction: str,
                  budget: OracleBudget | None = None) -> np.ndarray:
    """Recompute an inner operator from the opposite outer by scanning every
    candidate: the image of each proposition is the join of all propositions
    whose outer image implies it.  Same layout as ``Translation.array``."""
    budget = budget or OracleBudget()
    budget.check_atoms(t.algebra1, t.algebra2)
    started = time.monotonic()
    back = "2>1" if direction == "1>2" else "1>2"
    src, dst = t.endpoints(direction)
    outer_back = t.array(back, "outer")
    nd = dst.full_mask + 1
    eta = np.arange(nd, dtype=np.int64)
    result = np.empty(src.full_mask + 1, dtype=np.int64)
    for lam in range(src.full_mask + 1):
        budget.check_time(started)
        qualifies = (outer_back[:nd] & ~np.int64(lam)) == 0
        result[lam] = np.bitwise_or.reduce(np.where(qualifies, eta, np.int64(0)))
    return np.append(result, np.int64(-1))
