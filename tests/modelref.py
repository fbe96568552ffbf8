"""Model enumeration, atom columns and atom labels from before a language's
models were held as one array of keys, kept verbatim (with a model read as
its key) as the reference for ``test_algebra.py``'s differential property."""

from crosslang.algebra import DEFAULT_ATOM_CAP, _atom_column, _evaluate
from crosslang.errors import AtomCapError, ContradictionError
from crosslang.language import LanguageSpec


def enumerate_models(spec: LanguageSpec, max_atoms: int = DEFAULT_ATOM_CAP) -> list[int]:
    """All assignments satisfying every belief, in lexicographic atom order."""
    n = len(spec.elementary)
    if n > max_atoms:
        raise AtomCapError(
            f"{spec.name!r} declares {n} atoms, above the cap of {max_atoms}"
        )
    full = (1 << (1 << n)) - 1
    columns = {
        name: _atom_column(n - 1 - j, n) for j, name in enumerate(spec.elementary)
    }
    surviving = full
    for belief in spec.beliefs:
        surviving &= _evaluate(belief, columns, full)
        if surviving == 0:
            raise ContradictionError(f"beliefs of {spec.name!r} admit no model")
    keys = []
    while surviving:
        low = surviving & -surviving
        keys.append(low.bit_length() - 1)
        surviving ^= low
    return keys


def columns(spec: LanguageSpec, keys: list[int]) -> dict[str, int]:
    """Each atom's truth column over the models: bit i is its value in model i."""
    n = len(spec.elementary)
    out = {}
    for j, atom in enumerate(spec.elementary):
        col = 0
        for i, key in enumerate(keys):
            col |= ((key >> (n - 1 - j)) & 1) << i
        out[atom] = col
    return out


def labels(spec: LanguageSpec, keys: list[int]) -> list[str]:
    """The label of each model: the first atom true in it alone, else the
    conjunction of its literals."""
    by_mask = {}
    for name, col in columns(spec, keys).items():
        by_mask.setdefault(col, name)
    out = []
    n = len(spec.elementary)
    for i, key in enumerate(keys):
        mask = 1 << i
        if mask in by_mask:
            out.append(by_mask[mask])
        else:
            lits = []
            for j, atom in enumerate(spec.elementary):
                val = (key >> (n - 1 - j)) & 1
                lits.append(atom if val else "!" + atom)
            out.append(" & ".join(lits))
    return out


def formula_texts(spec: LanguageSpec, keys: list[int]) -> list[str]:
    """``formula_text`` of every proposition, indexed by mask, one mask at a
    time."""
    names = labels(spec, keys)
    full = (1 << len(keys)) - 1
    texts = []
    for mask in range(full + 1):
        if mask == 0:
            texts.append("false")
        elif mask == full:
            texts.append("true")
        else:
            texts.append(" | ".join(names[i] for i in range(len(keys)) if mask >> i & 1))
    return texts
