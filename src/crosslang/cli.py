"""Command line front end.

Exit codes: 0 when every requested check passes, 1 on axiom failures or
inconsistent inputs, 2 on unusable inputs (syntax errors, missing or
unreadable files, files that are not UTF-8, invalid probability weights, a
size cap exceeded).
Output is byte-identical for identical inputs and flags; wall-clock timing
is only included when explicitly requested with ``--timing``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import time

from .corpus import (
    load_algebras,
    load_corpus,
    parse_implication_file,
    parse_translation_file,
    read_input,
)
from .commonality import classify_awareness, common_language, joint_embeddings
from .errors import (
    AlgebraTooLargeError,
    AtomCapError,
    BudgetExceededError,
    ContradictionError,
    CrosslangError,
    DegenerateCommonLanguageError,
    InvalidWeightsError,
    LanguageNameClashError,
    ParseError,
)
from .hasse import algebra_dot, cross_dot
from .implication import implication_from_translation, translation_from_implication
from .oracle import OracleBudget, brute_adjoint, brute_states, state_set_of
from .reports import write
from .semantics import joint_space_from_translation, probability_bounds
from .translation import check_consistency

SCHEMA_VERSION = 1


@contextlib.contextmanager
def _sink(args):
    """The ``--output`` file, opened only now, or stdout."""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as out:
            yield out
    else:
        yield sys.stdout


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    with _sink(args) as out:
        if args.format == "json":
            write(payload, out, "\n")
        else:
            out.write("\n".join(text_lines) + "\n")


def _base_report(command: str, inputs: dict, started: float, args) -> dict:
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
    }
    if args.timing:
        report["timing"] = {"seconds": round(time.perf_counter() - started, 6)}
    return report


def _oracle_section_for(t) -> tuple[dict, bool]:
    """Cross-validate derived inners and the state construction."""
    section = {}
    agree = True
    if not t.is_consistent():
        section["status"] = "skipped: translation fails its axioms"
        return section, agree
    budget = OracleBudget()
    try:
        # the brute force refuses over-budget algebras before any work
        for direction in ("1>2", "2>1"):
            section[f"adjoint:{direction}"] = bool(
                (brute_adjoint(t, direction, budget) == t.array(direction, "inner")).all())
        r = implication_from_translation(t)
        brute = sorted(sorted(repr(x) for x in s) for s in brute_states(r, budget))
        space = joint_space_from_translation(t)
        fast = sorted(
            (sorted(repr(x) for x in state_set_of(r, pair)) for pair in space.states)
        )
        section["states"] = fast == brute
        agree = all(v for v in section.values() if isinstance(v, bool))
    except BudgetExceededError as exc:
        section["status"] = f"budget exceeded: {exc}"
    return section, agree


def _attach_oracle(args, payload, t) -> int:
    """Add the oracle section under ``--oracle``; ``t`` is None when the
    checked input failed before a translation could be read off it."""
    if not args.oracle:
        return 0
    if t is None:
        payload["oracle"] = {"status": "skipped: axioms failed"}
        return 0
    section, agree = _oracle_section_for(t)
    payload["oracle"] = section
    return 0 if agree else 1


def cmd_check(args) -> int:
    started = time.perf_counter()
    digests = []
    a1, a2 = load_algebras(args.lang1, args.lang2, digests)
    pair_text = read_input(args.pair_file, digests)
    if args.mode == "translation":
        t = parse_translation_file(pair_text, a1, a2)
        report = check_consistency(t)
    else:
        r = parse_implication_file(pair_text, a1, a2)
        report = r.axiom_report()
        t = translation_from_implication(r) if args.oracle and report.passed else None
    inputs = dict(zip(("lang1", "lang2", "pair_file"), digests))
    payload = _base_report("check", inputs, started, args)
    payload["mode"] = args.mode
    payload["axioms"] = report.to_dict()
    payload["passed"] = report.passed
    oracle_exit = _attach_oracle(args, payload, t)
    _emit(args, payload, report.summary_lines()
          + [f"overall: {'PASS' if report.passed else 'FAIL'}"])
    return (0 if report.passed else 1) or oracle_exit


def cmd_translate(args) -> int:
    started = time.perf_counter()
    corpus = load_corpus(args.corpus)
    t = corpus.require_translation()
    if not t.is_consistent():
        sys.stderr.write("translation fails its axioms\n")
        return 1
    src, dst = t.endpoints(args.direction)
    x = src.denote_text(args.formula)
    result = t.apply(args.direction, args.mode, x)
    rendered = dst.formula_text(result)
    payload = _base_report("translate", corpus.inputs, started, args)
    payload.update({
        "direction": args.direction,
        "mode": args.mode,
        "formula": args.formula,
        "result": rendered,
    })
    exit_code = _attach_oracle(args, payload, t)
    _emit(args, payload, [rendered])
    return exit_code


def cmd_joint(args) -> int:
    started = time.perf_counter()
    corpus = load_corpus(args.corpus)
    t = corpus.require_translation()
    space = joint_space_from_translation(t)
    payload = _base_report("joint", corpus.inputs, started, args)
    table = payload["joint_state_space"] = space.to_dict()
    exit_code = _attach_oracle(args, payload, t)
    lines = []
    if args.format == "text":
        lines = [f"states: {space.state_count}"]
        lines.extend(f"  ({entry['atom1']}, {entry['atom2']})" for entry in table["states"])
    _emit(args, payload, lines)
    return exit_code


def cmd_common(args) -> int:
    started = time.perf_counter()
    corpus = load_corpus(args.corpus)
    t = corpus.require_translation()
    try:
        common = common_language(t)
    except DegenerateCommonLanguageError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    payload = _base_report("common", corpus.inputs, started, args)
    table = payload["common_language"] = common.to_dict()
    exit_code = _attach_oracle(args, payload, t)
    lines = []
    if args.format == "text":
        lines = [f"common language: {len(common.masks)} members"]
        lines.extend(f"  {entry['host']}  <->  {entry['partner']}"
                     for entry in table["members"])
    _emit(args, payload, lines)
    return exit_code


def cmd_classify(args) -> int:
    started = time.perf_counter()
    corpus = load_corpus(args.corpus)
    t = corpus.require_translation()
    space = joint_space_from_translation(t)
    verdict = classify_awareness(t, space)
    embeddings = joint_embeddings(t, space)
    payload = _base_report("classify", corpus.inputs, started, args)
    payload["verdict"] = verdict.to_dict()
    payload["embeddings"] = embeddings.to_dict()
    exit_code = _attach_oracle(args, payload, t)
    _emit(args, payload, [verdict.summary, f"classification: {verdict.classification}"])
    return exit_code


def cmd_bounds(args) -> int:
    started = time.perf_counter()
    corpus = load_corpus(args.corpus)
    t = corpus.require_translation()
    space = joint_space_from_translation(t)
    digests = []
    weights = json.loads(read_input(args.probabilities, digests))
    src = space.algebra(args.lang)
    x = src.denote_text(args.formula)
    target = 2 if args.lang == 1 else 1
    lo, hi = probability_bounds(space, weights, x, target)
    payload = _base_report("bounds", {**corpus.inputs, "probabilities": digests[0]},
                           started, args)
    payload.update({
        "formula": args.formula,
        "source_language": args.lang,
        "low": lo,
        "high": hi,
    })
    exit_code = _attach_oracle(args, payload, t)
    _emit(args, payload, [f"[{round(lo, 4)}, {round(hi, 4)}]"])
    return exit_code


def cmd_export_dot(args) -> int:
    corpus = load_corpus(args.corpus)
    if args.what == "algebra1":
        blocks = algebra_dot(corpus.algebra1, 1)
    elif args.what == "algebra2":
        blocks = algebra_dot(corpus.algebra2, 2)
    else:
        blocks = cross_dot(corpus.require_relation(), full=args.full)
    with _sink(args) as out:
        out.writelines(blocks)
    return 0


def _add_common(parser, default_format: str | None):
    parser.add_argument("--output", help="write output to this file instead of stdout")
    if default_format is None:
        return
    parser.add_argument("--format", choices=["json", "text"], default=default_format)
    parser.add_argument("--oracle", action="store_true",
                        help="cross-validate against the brute-force oracle")
    parser.add_argument("--timing", action="store_true",
                        help="include wall-clock timing in the report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crosslang",
        description="translate propositions between two finite languages and "
                    "analyse their joint structure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the axiom checkers")
    p.add_argument("lang1")
    p.add_argument("lang2")
    p.add_argument("pair_file")
    p.add_argument("--mode", choices=["translation", "implication"],
                   default="translation")
    _add_common(p, "text")

    p = sub.add_parser("translate", help="translate one formula")
    p.add_argument("corpus")
    p.add_argument("direction", choices=["1>2", "2>1"])
    p.add_argument("mode", choices=["inner", "outer"])
    p.add_argument("formula")
    _add_common(p, "text")

    for name, text in (("joint", "construct the joint state-space"),
                       ("common", "extract the common language"),
                       ("classify", "compare the languages' awareness")):
        p = sub.add_parser(name, help=text)
        p.add_argument("corpus")
        _add_common(p, "json")

    p = sub.add_parser("bounds", help="probability interval of a translated formula")
    p.add_argument("corpus")
    p.add_argument("probabilities", help="JSON map of state index to weight")
    p.add_argument("formula")
    p.add_argument("--lang", type=int, choices=[1, 2], required=True,
                   help="language the formula belongs to")
    _add_common(p, "json")

    p = sub.add_parser("export-dot", help="emit Graphviz DOT diagrams")
    p.add_argument("corpus")
    p.add_argument("--what", choices=["algebra1", "algebra2", "cross"],
                   default="cross")
    p.add_argument("--full", action="store_true",
                   help="emit the full closure instead of the reduction")
    _add_common(p, None)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: every ``main`` call reuses it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up by name on each call, so a replaced ``cmd_*`` is the one run
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (ParseError, OSError, UnicodeDecodeError, json.JSONDecodeError, AtomCapError,
            AlgebraTooLargeError, ContradictionError, InvalidWeightsError,
            LanguageNameClashError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except CrosslangError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
