from pathlib import Path

import pytest

from crosslang import Algebra, load_corpus, parse_language
from crosslang.randgen import write_cell_corpus

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def write_cover_pair(path: Path, m: int) -> Path:
    """The m x m identity cell pair of ``write_cell_corpus`` plus the seed
    files of ``scripts/scale.py``: ``cover.imp``, in which every proposition
    of either side implies its twin, and ``narrowed.imp``, the same except
    that ``a0`` implies ``false``.  The closure of the narrowed file forces
    within-language pairs, so ``close`` takes the dense fallback."""
    write_cell_corpus(path, m, star=False)
    formulas = {prefix: [" | ".join(f"{prefix}{k}" for k in range(m) if mask >> k & 1)
                         or "false" for mask in range(1 << m)]
                for prefix in "ab"}
    cover = "".join(f"imp: {src}.{lhs} => {dst}.{rhs}\n"
                    for (src, sp), (dst, dp) in ((("lang1", "a"), ("lang2", "b")),
                                                 (("lang2", "b"), ("lang1", "a")))
                    for lhs, rhs in zip(formulas[sp], formulas[dp]))
    (path / "cover.imp").write_text(cover)
    (path / "narrowed.imp").write_text(cover.replace(
        "imp: lang1.a0 => lang2.b0\n", "imp: lang1.a0 => lang2.false\n", 1))
    return path


@pytest.fixture(scope="session")
def oil():
    return load_corpus(CORPUS / "oil-prices")


@pytest.fixture(scope="session")
def platypus():
    return load_corpus(CORPUS / "platypus")


@pytest.fixture(scope="session")
def fixed_point_gap():
    return load_corpus(CORPUS / "fixed-point-gap")


@pytest.fixture(scope="session")
def violation():
    return load_corpus(CORPUS / "adjunction-violation")


@pytest.fixture(scope="session")
def nested():
    return load_corpus(CORPUS / "nested-grids")


@pytest.fixture(scope="session")
def twin_pair():
    """Two structurally identical three-cell languages under different names."""
    def make(name):
        text = (
            f"language {name}\n"
            "atoms: x y z\n"
            "believe: x | y | z\n"
            "believe: !(x & y)\nbelieve: !(x & z)\nbelieve: !(y & z)\n"
        )
        return Algebra.from_spec(parse_language(text))

    return make("first"), make("second")
