"""Seeded inputs for the benchmark, built from exact interval partitions.

Every language here is a partition of the unit interval [0, 1) into cells
with exact ``Fraction`` cut points; each cell is one atom and the beliefs
say that exactly one cell holds.  A proposition is a set of cells (a
frozenset of cell indices), so the reference answers in ``verify.py`` are
plain interval arithmetic and never touch the program under test.

The same seed always yields byte-identical files.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# cut points are multiples of 1/DENOMINATOR
DENOMINATOR = 5040


@dataclass(frozen=True)
class Partition:
    """A language: a name, an atom prefix and the cells' cut points."""

    name: str
    prefix: str
    cuts: tuple[Fraction, ...]  # 0 = cuts[0] < ... < cuts[-1] = 1

    def __hash__(self):
        # hashing the cut points would hash every Fraction on each lookup
        return hash((self.name, self.prefix, len(self.cuts)))

    @property
    def size(self) -> int:
        return len(self.cuts) - 1

    def cell(self, i: int) -> tuple[Fraction, Fraction]:
        return self.cuts[i], self.cuts[i + 1]

    def atom(self, i: int) -> str:
        return f"{self.prefix}{i}"

    def index(self, atom: str) -> int:
        if not atom.startswith(self.prefix) or not atom[len(self.prefix):].isdigit():
            raise ValueError(f"{atom!r} is not an atom of {self.name!r}")
        i = int(atom[len(self.prefix):])
        if not 0 <= i < self.size:
            raise ValueError(f"{atom!r} is not an atom of {self.name!r}")
        return i

    def formula(self, cells) -> str:
        """A formula text denoting exactly this set of cells."""
        cells = sorted(cells)
        if not cells:
            return "false"
        return " | ".join(self.atom(i) for i in cells)

    def language_text(self) -> str:
        atoms = [self.atom(i) for i in range(self.size)]
        lines = [f"# {self.size} cells of [0, 1):"]
        lines += [f"#   {a} = [{lo}, {hi})"
                  for a, (lo, hi) in zip(atoms, zip(self.cuts, self.cuts[1:]))]
        lines += [f"language {self.name}", "atoms: " + " ".join(atoms),
                  "believe: " + " | ".join(atoms)]
        lines += [f"believe: !({a} & {b})"
                  for i, a in enumerate(atoms) for b in atoms[i + 1:]]
        return "\n".join(lines) + "\n"


def random_partition(rng: random.Random, name: str, prefix: str, n_cells: int,
                     fixed=()) -> Partition:
    """``n_cells`` cells whose cuts include every point of ``fixed``."""
    inner = set(fixed)
    while len(inner) < n_cells - 1:
        inner.add(Fraction(rng.randrange(1, DENOMINATOR), DENOMINATOR))
    return Partition(name, prefix, (Fraction(0), *sorted(inner), Fraction(1)))


@functools.cache
def _cell_overlaps(src: Partition, dst: Partition) -> tuple[frozenset[int], ...]:
    """For each cell of ``src``, the cells of ``dst`` it meets."""
    return tuple(frozenset(j for j in range(dst.size)
                           if dst.cell(j)[1] > lo and dst.cell(j)[0] < hi)
                 for lo, hi in zip(src.cuts, src.cuts[1:]))


def overlapping(src: Partition, dst: Partition, cells) -> frozenset[int]:
    """Cells of ``dst`` that meet the union of ``cells`` of ``src``."""
    table = _cell_overlaps(src, dst)
    return frozenset().union(*(table[i] for i in cells))


def contained(src: Partition, dst: Partition, cells) -> frozenset[int]:
    """Cells of ``dst`` inside the union of ``cells`` of ``src``: those that
    meet no cell outside it."""
    outside = frozenset(range(src.size)) - frozenset(cells)
    return frozenset(range(dst.size)) - overlapping(src, dst, outside)


def contained_in(inner: tuple[Fraction, Fraction], outer: tuple[Fraction, Fraction]) -> bool:
    return outer[0] <= inner[0] and inner[1] <= outer[1]


def length(p: Partition, cells) -> Fraction:
    return sum((p.cell(i)[1] - p.cell(i)[0] for i in cells), Fraction(0))


def random_cells(rng: random.Random, p: Partition, lo: int = 1) -> frozenset[int]:
    """A random set of at least ``lo`` cells, never all of them."""
    return frozenset(rng.sample(range(p.size), rng.randint(lo, p.size - 1)))


def translation_text(a: Partition, b: Partition) -> str:
    """Atom-level outer lines: each cell goes to the cells it overlaps."""
    lines = [f"outer 1>2: {a.atom(i)} => {b.formula(overlapping(a, b, [i]))}"
             for i in range(a.size)]
    lines += [f"outer 2>1: {b.atom(j)} => {a.formula(overlapping(b, a, [j]))}"
              for j in range(b.size)]
    return "\n".join(lines) + "\n"


def _write(directory: Path, files: dict[str, str]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")


# --- check-translation ---------------------------------------------------------


@dataclass(frozen=True)
class Override:
    """One ``override inner`` line: ``inner(direction)(arg)`` set to ``value``."""

    direction: str
    arg: frozenset[int]
    value: frozenset[int]


@dataclass(frozen=True)
class TranslationCase:
    directory: Path
    left: Partition
    right: Partition
    override: Override | None  # None: the overlap-derived pair, unmodified


def translation_cases(seed: int, root: Path, n_pairs: int, cells: int) -> list[TranslationCase]:
    """``n_pairs`` overlap-derived pairs, each followed by a one-value mutant."""
    cases = []
    for k in range(n_pairs):
        rng = random.Random(f"check-translation:{seed}:{k}")
        left = random_partition(rng, "left", "l", cells)
        right = random_partition(rng, "right", "r", cells)
        base = translation_text(left, right)
        direction = "1>2" if k % 2 == 0 else "2>1"
        src, dst = (left, right) if direction == "1>2" else (right, left)
        arg = random_cells(rng, src)
        true_inner = contained(src, dst, arg)
        value = true_inner
        while value == true_inner:
            value = random_cells(rng, dst, lo=0)
        mutant = Override(direction, arg, value)
        for name, override in ((f"pair{k}", None), (f"mutant{k}", mutant)):
            directory = root / name
            text = base
            if override is not None:
                text += (f"override inner {direction}: {src.formula(arg)} => "
                         f"{dst.formula(value)}\n")
            _write(directory, {"lang1.lang": left.language_text(),
                               "lang2.lang": right.language_text(),
                               "translation.tr": text})
            cases.append(TranslationCase(directory, left, right, override))
    return cases


# --- check-implication ---------------------------------------------------------


@dataclass(frozen=True)
class ImplicationCase:
    directory: Path
    left: Partition
    right: Partition


def cover_seed_text(a: Partition, b: Partition) -> str:
    """One seed per proposition of either language, to its outer cover."""
    lines = [f"# every proposition of {a.name} and {b.name} implies its cover"]
    for src, dst in ((a, b), (b, a)):
        for mask in range(1 << src.size):
            cells = [i for i in range(src.size) if mask >> i & 1]
            cover = overlapping(src, dst, cells)
            lines.append(f"imp: {src.name}.{src.formula(cells)} => "
                         f"{dst.name}.{dst.formula(cover)}")
    return "\n".join(lines) + "\n"


def implication_cases(seed: int, root: Path, n_pairs: int, cells: int) -> list[ImplicationCase]:
    cases = []
    for k in range(n_pairs):
        rng = random.Random(f"check-implication:{seed}:{k}")
        left = random_partition(rng, "left", "l", cells)
        right = random_partition(rng, "right", "r", cells)
        directory = root / f"seeds{k}"
        _write(directory, {"lang1.lang": left.language_text(),
                           "lang2.lang": right.language_text(),
                           "implication.imp": cover_seed_text(left, right)})
        cases.append(ImplicationCase(directory, left, right))
    return cases


# --- analyse-nested ------------------------------------------------------------


@dataclass(frozen=True)
class NestedCase:
    """A coarse partition (language 1) and a refinement of it (language 2),
    with the queries of one analysis session."""

    directory: Path
    coarse: Partition
    fine: Partition
    fine_query: frozenset[int]    # translated and priced from the fine side
    coarse_query: frozenset[int]  # priced from the coarse side

    def state_cells(self) -> list[tuple[int, int]]:
        """The joint states in the documented order, as (coarse, fine) cell
        pairs: each fine cell with its enclosing coarse cell, sorted by the
        canonical model order, which lists a language's atoms last to first."""
        pairs = [(next(i for i in range(self.coarse.size)
                       if contained_in(self.fine.cell(j), self.coarse.cell(i))), j)
                 for j in range(self.fine.size)]
        return sorted(pairs, key=lambda p: (-p[0], -p[1]))

    def weights(self) -> list[Fraction]:
        """Weight of each joint state: the length of its fine cell, so that
        masses are lengths of subsets of [0, 1)."""
        return [length(self.fine, [j]) for _, j in self.state_cells()]


def nested_cases(seed: int, root: Path, n_pairs: int, coarse_cells: int,
                 fine_cells: int) -> list[NestedCase]:
    cases = []
    for k in range(n_pairs):
        rng = random.Random(f"analyse-nested:{seed}:{k}")
        coarse = random_partition(rng, "coarse", "c", coarse_cells)
        fine = random_partition(rng, "fine", "f", fine_cells, fixed=coarse.cuts[1:-1])
        case = NestedCase(root / f"nested{k}", coarse, fine,
                          random_cells(rng, fine), random_cells(rng, coarse))
        weights = {str(s): float(w) for s, w in enumerate(case.weights())}
        _write(case.directory, {"lang1.lang": coarse.language_text(),
                                "lang2.lang": fine.language_text(),
                                "translation.tr": translation_text(coarse, fine),
                                "weights.json": json.dumps(weights, indent=1) + "\n"})
        cases.append(case)
    return cases
