"""The DOT writers of ``crosslang.hasse`` from before each cluster was built
as one string and the arrows in blocks, kept verbatim as the reference for
``test_output_identity.py``: same diagrams, byte for byte.  The cover
reductions are the program's own; only the text is compared."""

from __future__ import annotations

import numpy as np

from crosslang.algebra import Algebra
from crosslang.hasse import _reduced_cross, _reduced_targets
from crosslang.implication import CrossImplication


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


def _arrows(rel: np.ndarray):
    """(sources, targets) of dense boolean rows, or of one target per source,
    in row-major order."""
    if rel.ndim == 2:
        return np.nonzero(rel)
    src = np.flatnonzero(rel != -1)
    return src, rel[src]


def _has(rel: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    return rel[src, dst] if rel.ndim == 2 else rel[src] == dst


def _arrow_lines(fwd: np.ndarray, back: np.ndarray) -> list[str]:
    """The cross arrows of both directions, mutually implied pairs once and
    double-headed, one arrow at a time: a full diagram has millions."""
    fwd_src, fwd_dst = _arrows(fwd)
    back_src, back_dst = _arrows(back)
    alone = ~_has(fwd, back_dst, back_src)
    style = 'color=forestgreen, style=bold'
    lines = []
    for x, y, mutual in zip(map(int, fwd_src), map(int, fwd_dst),
                            _has(back, fwd_dst, fwd_src)):
        if mutual:
            lines.append(
                f"  {_node_id(1, x)} -> {_node_id(2, y)} "
                f"[{style}, dir=both];"
            )
        else:
            lines.append(f"  {_node_id(1, x)} -> {_node_id(2, y)} [{style}];")
    for y, x in zip(map(int, back_src[alone]), map(int, back_dst[alone])):
        lines.append(f"  {_node_id(2, y)} -> {_node_id(1, x)} [{style}];")
    return lines


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
    lines = ['digraph cross {', "  rankdir=BT;"]
    lines.append(f'  subgraph cluster_1 {{ label="{a1.name}";')
    lines.extend("  " + l for l in _hasse_lines(a1, 1))
    lines.append("  }")
    lines.append(f'  subgraph cluster_2 {{ label="{a2.name}";')
    lines.extend("  " + l for l in _hasse_lines(a2, 2))
    lines.append("  }")
    lines.extend(_arrow_lines(fwd, back))
    lines.append("}")
    return "\n".join(lines) + "\n"
