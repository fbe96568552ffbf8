"""Seeded random instances for the property suites and demos."""

from __future__ import annotations

import random
from pathlib import Path

from .algebra import Algebra, Prop, Star
from .language import And, LanguageSpec, Not, Or, format_language, parse_formula
from .translation import (
    Translation,
    check_consistency,
    translation_from_atom_outers,
)


def make_cell_spec(name: str, cells: list[str]) -> LanguageSpec:
    """A language whose models are 'exactly one cell true' assignments."""
    beliefs = []
    at_least_one = None
    for cell in cells:
        atom = parse_formula(cell)
        at_least_one = atom if at_least_one is None else Or(at_least_one, atom)
    beliefs.append(at_least_one)
    for i, a in enumerate(cells):
        for b in cells[i + 1:]:
            beliefs.append(Not(And(parse_formula(a), parse_formula(b))))
    return LanguageSpec(name, tuple(cells), tuple(beliefs))


def write_cell_corpus(path: Path, n_cells: int, star: bool) -> Path:
    """Write into the directory ``path`` two n-cell languages (atoms a0, a1, …
    and b0, b1, …) and a translation that sends each atom's outer image to
    its twin, or to * for every atom when ``star`` is set."""
    for i, prefix in ((1, "a"), (2, "b")):
        spec = make_cell_spec(f"lang{i}", [f"{prefix}{k}" for k in range(n_cells)])
        (path / f"lang{i}.lang").write_text(format_language(spec))
    lines = []
    for k in range(n_cells):
        lines.append(f"outer 1>2: a{k} => {'*' if star else f'b{k}'}")
        lines.append(f"outer 2>1: b{k} => {'*' if star else f'a{k}'}")
    (path / "translation.tr").write_text("\n".join(lines) + "\n")
    return path


def write_free_corpus(path: Path, n_atoms: int) -> Path:
    """Write into the directory ``path`` two languages of n atoms without
    beliefs (a0, a1, … and b0, b1, …; 2**n models each), a translation whose
    one line sends the model with every atom true to its twin, and the
    one-line seed file ``seed.imp``."""
    for i, prefix in ((1, "a"), (2, "b")):
        spec = LanguageSpec(f"lang{i}", tuple(f"{prefix}{k}" for k in range(n_atoms)), ())
        (path / f"lang{i}.lang").write_text(format_language(spec))
    every = {prefix: " & ".join(f"{prefix}{k}" for k in range(n_atoms)) for prefix in "ab"}
    (path / "translation.tr").write_text(f"outer 1>2: {every['a']} => {every['b']}\n")
    (path / "seed.imp").write_text("imp: lang1.a0 => lang2.b0\n")
    return path


_CELL_CACHE: dict[tuple, Algebra] = {}


def cell_algebra(name: str, n_cells: int, prefix: str = "c") -> Algebra:
    key = (name, n_cells, prefix)
    if key not in _CELL_CACHE:
        _CELL_CACHE[key] = Algebra.from_spec(
            make_cell_spec(name, [f"{prefix}{i}" for i in range(n_cells)])
        )
    return _CELL_CACHE[key]


def random_star_prop(rng: random.Random, algebra: Algebra,
                     star_weight: float = 0.08) -> Prop | Star:
    """A random outer image: usually a small join of atoms, sometimes star."""
    if rng.random() < star_weight:
        return algebra.star
    m = algebra.model_count
    size = min(m, _pick_size(rng))
    bits = rng.sample(range(m), size)
    mask = 0
    for b in bits:
        mask |= 1 << b
    return Prop(algebra, mask)


def _pick_size(rng: random.Random) -> int:
    roll = rng.random()
    if roll < 0.60:
        return 1
    if roll < 0.85:
        return 2
    if roll < 0.96:
        return 3
    return 4


def random_atom_outer_translation(rng: random.Random, a1: Algebra,
                                  a2: Algebra) -> Translation:
    outer12 = {atom: random_star_prop(rng, a2) for atom in a1.atoms()}
    outer21 = {atom: random_star_prop(rng, a1) for atom in a2.atoms()}
    return translation_from_atom_outers(a1, a2, outer12, outer21)


def random_consistent_translation(
    rng: random.Random,
    max_atoms: int = 5,
    max_tries: int = 100_000,
) -> Translation:
    """Rejection-sample atom-outer translations until the check suite passes."""
    for _ in range(max_tries):
        m1 = rng.randint(1, max_atoms)
        m2 = rng.randint(1, max_atoms)
        a1 = cell_algebra("left", m1, "a")
        a2 = cell_algebra("right", m2, "b")
        t = random_atom_outer_translation(rng, a1, a2)
        if check_consistency(t).passed:
            t._consistency = True
            return t
    raise RuntimeError(f"no consistent translation found in {max_tries} tries")
