"""Cover diagrams and cross-implication arrows as Graphviz DOT text."""

from __future__ import annotations

import numpy as np

from .algebra import Algebra
from .implication import CrossImplication, _bit_pairs


def _node_id(side: int, mask: int) -> str:
    return f"n{side}_{mask}"


def _hasse_lines(algebra: Algebra, side: int) -> list[str]:
    ids = [_node_id(side, mask) for mask in range(algebra.full_mask + 1)]
    lines = [f'  {node} [label="{label}"];'
             for node, label in zip(ids, algebra.formula_texts())]
    lines.extend(f"  {node} -> {ids[mask | 1 << i]};"
                 for mask, node in enumerate(ids)
                 for i in range(algebra.model_count) if not mask >> i & 1)
    return lines


def algebra_dot(algebra: Algebra, side: int = 1) -> str:
    """The cover (Hasse) diagram of one algebra."""
    lines = [f'digraph "{algebra.name}" {{', "  rankdir=BT;"]
    lines.extend(_hasse_lines(algebra, side))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _reduced_cross(rows: np.ndarray, m_src: int, m_dst: int) -> np.ndarray:
    """Drop cross pairs that factor through a strictly finer step on either
    side; what remains is the transitive reduction restricted to props.

    Every relation drawn here is down-closed in its sources and up-closed in
    its targets: ``close`` and its Warshall fallback saturate both, and a row
    of ``implication_from_translation`` is the up-set of a monotone outer
    image.  So (λ, η) factors through a finer step iff it factors through a
    cover: λ with one more bit reaches η, or λ reaches η with one bit less.
    """
    block = rows[:-1, :-1]
    keep = block.copy()
    for b in range(m_src):
        _bit_pairs(keep, b)[:, 0] &= ~_bit_pairs(block, b)[:, 1]
    keep_t = np.ascontiguousarray(keep.T)
    block_t = np.ascontiguousarray(block.T)
    for b in range(m_dst):
        _bit_pairs(keep_t, b)[:, 1] &= ~_bit_pairs(block_t, b)[:, 0]
    return keep_t.T


def cross_dot(r: CrossImplication, full: bool = False) -> str:
    """Both cover diagrams plus the cross arrows (reduced unless ``full``);
    mutually implied pairs are drawn once, double-headed."""
    a1, a2 = r.algebra1, r.algebra2
    lines = ['digraph cross {', "  rankdir=BT;"]
    lines.append(f'  subgraph cluster_1 {{ label="{a1.name}";')
    lines.extend("  " + l for l in _hasse_lines(a1, 1))
    lines.append("  }")
    lines.append(f'  subgraph cluster_2 {{ label="{a2.name}";')
    lines.extend("  " + l for l in _hasse_lines(a2, 2))
    lines.append("  }")
    if full:
        fwd = r.rows12[: a1.full_mask + 1, : a2.full_mask + 1]
        back = r.rows21[: a2.full_mask + 1, : a1.full_mask + 1]
    else:
        fwd = _reduced_cross(r.rows12, a1.model_count, a2.model_count)
        back = _reduced_cross(r.rows21, a2.model_count, a1.model_count)
    style = 'color=forestgreen, style=bold'
    for x, y in np.argwhere(fwd):
        if back[y, x]:
            lines.append(
                f"  {_node_id(1, int(x))} -> {_node_id(2, int(y))} "
                f"[{style}, dir=both];"
            )
        else:
            lines.append(
                f"  {_node_id(1, int(x))} -> {_node_id(2, int(y))} [{style}];"
            )
    for y, x in np.argwhere(back):
        if not fwd[x, y]:
            lines.append(
                f"  {_node_id(2, int(y))} -> {_node_id(1, int(x))} [{style}];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
