"""Cover diagrams and cross-implication arrows as Graphviz DOT text."""

from __future__ import annotations

import numpy as np

from .algebra import Algebra, cover_pairs
from .implication import CrossImplication


_STYLE = "color=forestgreen, style=bold"
_BLOCK = 1 << 16  # lines joined into one string at a time


def _ids(side: int, count: int) -> list[str]:
    return [f"n{side}_{mask}" for mask in range(count)]


def _lines(heads: list[str], tails: list[str], src: np.ndarray,
           dst: np.ndarray) -> list[str]:
    """The lines ``heads[src[k]] + tails[dst[k]]``, joined a block of lines
    to a string: a full diagram has millions of arrows, and no string per
    line is ever made."""
    blocks = []
    for lo in range(0, len(src), _BLOCK):
        block_src, block_dst = src[lo:lo + _BLOCK].tolist(), dst[lo:lo + _BLOCK].tolist()
        parts = [""] * (2 * len(block_src))
        parts[0::2] = map(heads.__getitem__, block_src)
        parts[1::2] = map(tails.__getitem__, block_dst)
        blocks.append("".join(parts))
    return blocks


def _cluster(algebra: Algebra, ids: list[str], indent: str) -> str:
    """The node and cover-edge lines of one algebra's Hasse diagram, each
    starting with ``indent``, as one string; ``ids`` names the nodes by
    mask."""
    nodes = [f'{indent}{node} [label="{label}"];\n'
             for node, label in zip(ids, algebra.formula_texts())]
    # covers by source mask, then by the bit added
    src, bit = np.nonzero((np.arange(len(ids))[:, None] >> np.arange(algebra.model_count)
                           & 1) == 0)
    return "".join(nodes + _lines([f"{indent}{node} -> " for node in ids],
                                  [f"{node};\n" for node in ids], src, src | 1 << bit))


def algebra_dot(algebra: Algebra, side: int = 1) -> str:
    """The cover (Hasse) diagram of one algebra."""
    return (f'digraph "{algebra.name}" {{\n  rankdir=BT;\n'
            + _cluster(algebra, _ids(side, algebra.full_mask + 1), "  ") + "}\n")


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
    in row-major order."""
    if rel.ndim == 2:
        return np.nonzero(rel)
    src = np.flatnonzero(rel != -1)
    return src, rel[src]


def _has(rel: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    return rel[src, dst] if rel.ndim == 2 else rel[src] == dst


def _cross_arrows(fwd: np.ndarray, back: np.ndarray, ids1: list[str],
                  ids2: list[str]) -> list[str]:
    """The cross arrows of both directions, mutually implied pairs once and
    double-headed, as blocks of lines."""
    fwd_src, fwd_dst = _arrows(fwd)
    back_src, back_dst = _arrows(back)
    alone = ~_has(fwd, back_dst, back_src)
    # a mutual arrow's target is looked up past the plain ones
    to2 = ([f"{node} [{_STYLE}];\n" for node in ids2]
           + [f"{node} [{_STYLE}, dir=both];\n" for node in ids2])
    mutual = _has(back, fwd_dst, fwd_src)
    return (_lines([f"  {node} -> " for node in ids1], to2,
                   fwd_src, fwd_dst + len(ids2) * mutual)
            + _lines([f"  {node} -> " for node in ids2],
                     [f"{node} [{_STYLE}];\n" for node in ids1],
                     back_src[alone], back_dst[alone]))


def cross_dot(r: CrossImplication, full: bool = False) -> str:
    """Both cover diagrams plus the cross arrows (reduced unless ``full``)."""
    a1, a2 = r.algebra1, r.algebra2
    meets = None if full else r.principal_meets
    if meets is not None:
        fwd, back = _reduced_targets(meets[0]), _reduced_targets(meets[1])
    elif full:
        fwd, back = r.rows12[:-1, :-1], r.rows21[:-1, :-1]
    else:
        fwd, back = _reduced_cross(r.rows12), _reduced_cross(r.rows21)
    ids1, ids2 = _ids(1, a1.full_mask + 1), _ids(2, a2.full_mask + 1)
    return "".join([
        "digraph cross {\n  rankdir=BT;\n",
        f'  subgraph cluster_1 {{ label="{a1.name}";\n', _cluster(a1, ids1, "    "), "  }\n",
        f'  subgraph cluster_2 {{ label="{a2.name}";\n', _cluster(a2, ids2, "    "), "  }\n",
        *_cross_arrows(fwd, back, ids1, ids2),
        "}\n",
    ])
