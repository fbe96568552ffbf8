"""Random edits and formulas for the property suites: one-value mutants of
a translation and random formula trees over a spec's atoms."""

import random

from crosslang.algebra import Prop
from crosslang.language import And, Arrow, LanguageSpec, Not, Or, parse_formula
from crosslang.translation import Translation


def mutate_one_value(rng: random.Random, t: Translation) -> Translation:
    """Copy the translation with exactly one operator value changed."""
    direction = rng.choice(["1>2", "2>1"])
    mode = rng.choice(["inner", "outer"])
    src, dst = t.endpoints(direction)
    lam = Prop(src, rng.randrange(src.full_mask + 1))
    old = t.array(direction, mode)[lam.mask]
    while True:
        pick = rng.choice(dst.slots().tolist())
        if pick != old:
            return t.replace(direction, mode, lam, dst.element(pick))


def random_formula(rng: random.Random, spec: LanguageSpec, depth: int = 3):
    """A random formula over the declared atoms (for parser round-trips)."""
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.1:
            return parse_formula("true")
        if roll < 0.2:
            return parse_formula("false")
        return parse_formula(rng.choice(spec.elementary))
    kind = rng.choice(["not", "and", "or", "arrow"])
    if kind == "not":
        return Not(random_formula(rng, spec, depth - 1))
    left = random_formula(rng, spec, depth - 1)
    right = random_formula(rng, spec, depth - 1)
    if kind == "and":
        return And(left, right)
    if kind == "or":
        return Or(left, right)
    return Arrow(left, right)
