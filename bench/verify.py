"""Checks of the program's outputs, made apart from the program.

Each check compares what ``crosslang`` printed with answers computed here
from the cut points alone: outer images are the cells a union overlaps,
inner images the cells it contains, and probabilities are interval lengths
as exact fractions.  Every function returns a list of problems; an empty
list means the output is right.

The only convention taken from the program is its documented canonical
model order (lexicographic in declared atom order).  For a cell language
that lists the atoms last to first, so bit ``i`` of a mask is cell
``n - 1 - i``; witnesses are first in masks-ascending order.
"""

from __future__ import annotations

import json
import re

from gen import (ImplicationCase, NestedCase, Partition, TranslationCase,
                 contained, length, overlapping)

STAR = None  # parsed form of the undefined element ``*``
BOUNDS_TOLERANCE = 1e-9


def cells_of_mask(p: Partition, mask: int) -> frozenset[int]:
    return frozenset(p.size - 1 - i for i in range(p.size) if mask >> i & 1)


def parse_cells(p: Partition, text: str):
    """A canonical formula text as a set of cells, or STAR for ``*``."""
    if text == "*":
        return STAR
    if text == "false":
        return frozenset()
    if text == "true":
        return frozenset(range(p.size))
    return frozenset(p.index(atom) for atom in text.split(" | "))


def _load(text: str, problems: list[str]):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        problems.append(f"output is not JSON: {exc}")
        return None


def _leq(x, y) -> bool:
    """Star-lattice order on cell sets: everything implies the star."""
    if y is STAR:
        return True
    return x is not STAR and x <= y


# --- check-translation ---------------------------------------------------------

TRANSLATION_CHECKS = {f"{axiom}:{d}" for axiom in ("galois", "approximation",
                                                   "restricted-duality")
                      for d in ("1>2", "2>1")}


def galois_fails_at(case: TranslationCase, lam, eta) -> bool:
    """The adjunction biconditional of the mutated direction, at one pair,
    in interval arithmetic with the override applied."""
    o = case.override
    src, dst = ((case.left, case.right) if o.direction == "1>2"
                else (case.right, case.left))
    if lam is STAR:
        inner = STAR
    elif lam == o.arg:
        inner = o.value
    else:
        inner = contained(src, dst, lam)
    outer_back = STAR if eta is STAR else overlapping(dst, src, eta)
    return _leq(eta, inner) != _leq(outer_back, lam)


def check_translation(case: TranslationCase, rc: int, text: str) -> list[str]:
    problems: list[str] = []
    report = _load(text, problems)
    if report is None:
        return problems
    checks = {c["name"]: c for c in report["axioms"]["checks"]}
    if set(checks) != TRANSLATION_CHECKS:
        problems.append(f"unexpected checks {sorted(checks)}")
        return problems
    o = case.override
    if o is None:
        if rc != 0 or report["passed"] is not True:
            problems.append(f"overlap-derived pair must PASS (exit {rc})")
        problems += [f"{n} failed on an overlap-derived pair"
                     for n, c in checks.items() if not c["passed"]]
        return problems
    if rc != 1 or report["passed"] is not False:
        problems.append(f"mutant must FAIL with exit 1 (exit {rc})")
    back = "2>1" if o.direction == "1>2" else "1>2"
    if not checks[f"galois:{back}"]["passed"]:
        problems.append(f"galois:{back} failed, but only {o.direction} was mutated")
    galois = checks[f"galois:{o.direction}"]
    if galois["passed"] or len(galois["witnesses"]) != 1:
        problems.append(f"galois:{o.direction} must fail with one witness")
        return problems
    src, dst = ((case.left, case.right) if o.direction == "1>2"
                else (case.right, case.left))
    lam_text, eta_text = galois["witnesses"][0]
    lam, eta = parse_cells(src, lam_text), parse_cells(dst, eta_text)
    if lam != o.arg:
        problems.append(f"witness {lam_text!r} is not the overridden argument")
    elif not galois_fails_at(case, lam, eta):
        problems.append(f"biconditional holds at witness ({lam_text}, {eta_text})")
    else:
        first = next((e for e in [cells_of_mask(dst, m) for m in range(1 << dst.size)]
                      + [STAR] if galois_fails_at(case, lam, e)), None)
        if first != eta:
            problems.append(f"witness ({lam_text}, {eta_text}) is not the first")
    return problems


# --- check-implication ---------------------------------------------------------

IMPLICATION_CHECKS = {"extensibility:1", "extensibility:2", "transitivity",
                      "bound-consistency", "connective-consistency:1>2",
                      "connective-consistency:2>1", "negation-consistency:1>2",
                      "negation-consistency:2>1"}


def check_implication(case: ImplicationCase, rc: int, text: str,
                      rows12, rows21) -> list[str]:
    """The verdict, then the operators read back from the relation's cross
    pairs: the outer image of a proposition is the meet of what it reaches,
    the inner image the join of what reaches it."""
    problems: list[str] = []
    report = _load(text, problems)
    if report is None:
        return problems
    checks = {c["name"]: c["passed"] for c in report["axioms"]["checks"]}
    if set(checks) != IMPLICATION_CHECKS:
        problems.append(f"unexpected checks {sorted(checks)}")
    if rc != 0 or report["passed"] is not True or not all(checks.values()):
        problems.append(f"cover seeds must PASS (exit {rc})")
    for src, dst, fwd, back in ((case.left, case.right, rows12, rows21),
                                (case.right, case.left, rows21, rows12)):
        n_src, n_dst = 1 << src.size, 1 << dst.size
        targets = [cells_of_mask(dst, m) for m in range(n_dst)]
        sources = [cells_of_mask(src, m) for m in range(n_src)]
        for lam_mask in range(n_src):
            lam = sources[lam_mask]
            reached = [targets[m] for m in fwd[lam_mask, :n_dst].nonzero()[0]]
            outer = frozenset.intersection(*reached) if reached else STAR
            inner = frozenset().union(
                *(targets[m] for m in back[:n_dst, lam_mask].nonzero()[0]))
            if outer != overlapping(src, dst, lam):
                problems.append(f"outer {src.name}>{dst.name} of "
                                f"{src.formula(lam)} read back wrong")
            if inner != contained(src, dst, lam):
                problems.append(f"inner {src.name}>{dst.name} of "
                                f"{src.formula(lam)} read back wrong")
            if len(problems) > 5:
                return problems
    return problems


# --- analyse-nested ------------------------------------------------------------

NESTED_COMMANDS = ("joint", "common", "classify", "export-dot",
                   "translate-inner", "translate-outer", "bounds-fine", "bounds-coarse")

_NODE = re.compile(r"\s+n(\d)_(\d+) \[label=")
_EDGE = re.compile(r"\s+n(\d)_(\d+) -> n(\d)_(\d+);$")


def check_dot(case: NestedCase, text: str) -> list[str]:
    """Each cluster is the cover diagram of its algebra: 2^m nodes and
    m * 2^(m-1) edges, each adding exactly one model."""
    problems = []
    nodes = {1: set(), 2: set()}
    edges = {1: 0, 2: 0}
    for line in text.splitlines():
        if m := _NODE.match(line):
            nodes[int(m[1])].add(int(m[2]))
        elif m := _EDGE.match(line):
            side, a, side_b, b = int(m[1]), int(m[2]), int(m[3]), int(m[4])
            if side != side_b or a & ~b or bin(a ^ b).count("1") != 1:
                problems.append(f"edge n{side}_{a} -> n{side_b}_{b} is not a cover")
            edges[side] += 1
    for side, p in ((1, case.coarse), (2, case.fine)):
        m = p.size
        if nodes[side] != set(range(1 << m)):
            problems.append(f"cluster {side} has {len(nodes[side])} nodes, not {1 << m}")
        if edges[side] != m << (m - 1):
            problems.append(f"cluster {side} has {edges[side]} cover edges, "
                            f"not {m << (m - 1)}")
    return problems[:5]


def _close(x, exact) -> bool:
    return isinstance(x, (int, float)) and abs(x - float(exact)) <= BOUNDS_TOLERANCE


def check_nested(case: NestedCase, results: list[tuple[int, str]]) -> list[str]:
    """One analysis session, outputs in the order of ``NESTED_COMMANDS``."""
    problems = [f"{name} exited {rc}" for name, (rc, _) in zip(NESTED_COMMANDS, results)
                if rc != 0]
    if problems:
        return problems
    out = dict(zip(NESTED_COMMANDS, (text for _, text in results)))
    coarse, fine = case.coarse, case.fine

    joint = _load(out["joint"], problems)
    if joint is not None:
        got = [(e["atom1"], e["atom2"])
               for e in joint["joint_state_space"]["states"]]
        want = [(coarse.atom(i), fine.atom(j)) for i, j in case.state_cells()]
        if got != want:
            problems.append("joint states do not pair each fine cell with its "
                            "enclosing coarse cell")

    common = _load(out["common"], problems)
    if common is not None:
        lang = common["common_language"]
        hosts = set()
        for member in lang["members"]:
            host = parse_cells(coarse, member["host"])
            hosts.add(host)
            if parse_cells(fine, member["partner"]) != contained(coarse, fine, host):
                problems.append(f"partner of {member['host']} is not the union "
                                "of the fine cells inside it")
                break
        if lang["size"] != 1 << coarse.size or len(hosts) != 1 << coarse.size:
            problems.append(f"common language has {lang['size']} members, "
                            f"not {1 << coarse.size}")

    classify = _load(out["classify"], problems)
    if classify is not None and (classify["verdict"]["classification"]
                                 != "1-pure-coarsening-of-2"):
        problems.append(f"classified {classify['verdict']['classification']}")

    problems += check_dot(case, out["export-dot"])

    q = case.fine_query
    expected = {"translate-inner": contained(fine, coarse, q),
                "translate-outer": overlapping(fine, coarse, q)}
    for name, cells in expected.items():
        report = _load(out[name], problems)
        if report is not None and parse_cells(coarse, report["result"]) != cells:
            problems.append(f"{name} of {fine.formula(q)} gave {report['result']}")

    for name, lo, hi in (
        ("bounds-fine", length(coarse, contained(fine, coarse, q)),
         length(coarse, overlapping(fine, coarse, q))),
        ("bounds-coarse", length(coarse, case.coarse_query),
         length(coarse, case.coarse_query)),
    ):
        report = _load(out[name], problems)
        if report is not None and not (_close(report["low"], lo)
                                       and _close(report["high"], hi)):
            problems.append(f"{name} gave [{report['low']}, {report['high']}], "
                            f"exact [{lo}, {hi}]")
    return problems
