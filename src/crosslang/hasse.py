"""Cover diagrams and cross-implication arrows as Graphviz DOT text."""

from __future__ import annotations

import itertools
from collections.abc import Iterator

import numpy as np

from .algebra import Algebra, cover_pairs
from .implication import CrossImplication


_STYLE = "color=forestgreen, style=bold"
_BLOCK = 1 << 12  # lines, or node labels, joined into one block of text
_CELLS = 1 << 16  # entries of a relation scanned for arrows at a time


def _ids(side: int, count: int) -> list[str]:
    return [f"n{side}_{mask}" for mask in range(count)]


def _lines(indent: str, src_ids: list[str], src: np.ndarray, dst_ids: list[str],
           dst: np.ndarray, ends: tuple[str, ...] = (";\n",),
           kind: np.ndarray | None = None):
    """The lines ``indent + src_ids[src[k]] + " -> " + dst_ids[dst[k]] +
    ends[kind[k]]`` (``ends[0]`` without ``kind``), a block of lines to a
    string: a full diagram has millions of arrows, and no string is made per
    line, nor per node for each way a line can start or end."""
    for lo in range(0, len(src), _BLOCK):
        block_src = src[lo:lo + _BLOCK].tolist()
        parts = [indent, "", " -> ", "", ends[0]] * len(block_src)
        parts[1::5] = map(src_ids.__getitem__, block_src)
        parts[3::5] = map(dst_ids.__getitem__, dst[lo:lo + _BLOCK].tolist())
        if kind is not None:
            parts[4::5] = map(ends.__getitem__, kind[lo:lo + _BLOCK].tolist())
        yield "".join(parts)


def _cluster(ids: list[str], texts: tuple[str, ...], indent: str):
    """The node and cover-edge lines of one algebra's Hasse diagram, each
    starting with ``indent``, in blocks; ``ids`` names the nodes by mask and
    ``texts`` labels them."""
    for lo in range(0, len(ids), _BLOCK):
        yield "".join([f'{indent}{node} [label="{label}"];\n'
                       for node, label in zip(ids[lo:lo + _BLOCK], texts[lo:lo + _BLOCK])])
    # covers by source mask, then by the bit added, for a block of about
    # _BLOCK / m sources at a time
    bits = np.arange(len(ids).bit_length() - 1)
    step = max(_BLOCK // max(len(bits), 1), 1)
    for lo in range(0, len(ids), step):
        src, bit = np.nonzero((np.arange(lo, min(lo + step, len(ids)))[:, None] >> bits
                               & 1) == 0)
        src += lo
        yield from _lines(indent, ids, src, ids, src | 1 << bit)


def algebra_dot(algebra: Algebra, side: int = 1) -> Iterator[str]:
    """The cover (Hasse) diagram of one algebra, as blocks of text.  Its
    labels are read, and a too large algebra refused, before it returns."""
    texts = algebra.formula_texts()
    return itertools.chain([f'digraph "{algebra.name}" {{\n  rankdir=BT;\n'],
                           _cluster(_ids(side, len(texts)), texts, "  "), ["}\n"])


def _reduced_cross(rows: np.ndarray) -> np.ndarray:
    """Drop cross pairs that factor through a strictly finer step on either
    side; what remains is the transitive reduction restricted to props.

    This dense form serves relations with a row that is not the up-set of
    its meet.  Every relation is down-closed in its sources and up-closed
    in its targets, as it is built from its seeds by sweeping both.  So
    (λ, η) factors through a finer step iff it factors through a cover: λ
    with one more bit reaches η, or λ reaches η with one bit less.
    """
    block = rows[:-1, :-1]
    keep = block.copy()
    for (keep_lower, _), (_, block_upper) in zip(cover_pairs(keep), cover_pairs(block)):
        keep_lower &= ~block_upper
    keep_t = np.ascontiguousarray(keep.T)
    block_t = np.ascontiguousarray(block.T)
    for (_, keep_upper), (block_lower, _) in zip(cover_pairs(keep_t),
                                                 cover_pairs(block_t)):
        keep_upper &= ~block_lower
    return keep_t.T


def _reduced_targets(meet: np.ndarray) -> np.ndarray:
    """The cover reduction of a relation whose rows are the up-sets of their
    meets, as one target per source (-1 for none): only (λ, meet[λ]) can
    survive, and it does unless λ with one more bit has the same meet."""
    meet = meet[:-1]
    keep = meet != -1
    for (keep_lower, _), (lower, upper) in zip(cover_pairs(keep), cover_pairs(meet)):
        keep_lower &= lower != upper
    return np.where(keep, meet, -1)


def _arrows(rel: np.ndarray):
    """(sources, targets) of dense boolean rows, or of one target per source,
    in row-major order, for about ``_CELLS`` entries at a time."""
    step = max(_CELLS // rel.shape[1], 1) if rel.ndim == 2 else _CELLS
    for lo in range(0, len(rel), step):
        part = rel[lo:lo + step]
        if rel.ndim == 2:
            src, dst = np.nonzero(part)
        else:
            src = np.flatnonzero(part != -1)
            dst = part[src]
        yield src + lo, dst


def _has(rel: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    return rel[src, dst] if rel.ndim == 2 else rel[src] == dst


def _cross_arrows(fwd: np.ndarray, back: np.ndarray, ids1: list[str], ids2: list[str]):
    """The cross arrows of both directions, mutually implied pairs once and
    double-headed, as blocks of lines."""
    ends = (f" [{_STYLE}];\n", f" [{_STYLE}, dir=both];\n")
    for src, dst in _arrows(fwd):
        yield from _lines("  ", ids1, src, ids2, dst, ends, _has(back, dst, src))
    for src, dst in _arrows(back):
        alone = ~_has(fwd, dst, src)
        yield from _lines("  ", ids2, src[alone], ids1, dst[alone], ends)


def cross_dot(r: CrossImplication, full: bool = False) -> Iterator[str]:
    """Both cover diagrams plus the cross arrows (reduced unless ``full``),
    as blocks of text.  Every step that can fail (the rows or meets of the
    relation, the reductions, the labels) is taken before it returns."""
    a1, a2 = r.algebra1, r.algebra2
    meets = None if full else r.principal_meets
    if meets is not None:
        fwd, back = _reduced_targets(meets[0]), _reduced_targets(meets[1])
    elif full:
        fwd, back = r.rows12[:-1, :-1], r.rows21[:-1, :-1]
    else:
        fwd, back = _reduced_cross(r.rows12), _reduced_cross(r.rows21)
    texts1, texts2 = a1.formula_texts(), a2.formula_texts()

    def blocks():
        ids1, ids2 = _ids(1, len(texts1)), _ids(2, len(texts2))
        yield f'digraph cross {{\n  rankdir=BT;\n  subgraph cluster_1 {{ label="{a1.name}";\n'
        yield from _cluster(ids1, texts1, "    ")
        yield f'  }}\n  subgraph cluster_2 {{ label="{a2.name}";\n'
        yield from _cluster(ids2, texts2, "    ")
        yield "  }\n"
        yield from _cross_arrows(fwd, back, ids1, ids2)
        yield "}\n"

    return blocks()
