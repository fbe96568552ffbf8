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
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

from .algebra import DEFAULT_ATOM_CAP
from .corpus import (
    IMPLICATION_FILE,
    LANG1_FILE,
    LANG2_FILE,
    TRANSLATION_FILE,
    load_algebras,
    load_corpus,
    parse_implication_file,
    parse_translation_file,
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
    ParseError,
)
from .hasse import algebra_dot, cross_dot
from .implication import implication_from_translation, translation_from_implication
from .language import parse_formula
from .oracle import OracleBudget, brute_adjoint, brute_states, state_set_of
from .semantics import joint_space_from_translation, probability_bounds
from .translation import check_consistency

SCHEMA_VERSION = 1


def _digest(path: Path) -> dict:
    return {
        "path": str(path),
        "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
    }


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        out = "\n".join(text_lines) + "\n"
    if args.output:
        Path(args.output).write_text(out, encoding="utf-8")
    else:
        sys.stdout.write(out)


def _base_report(command: str, inputs: dict, started: float, args) -> dict:
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
    }
    if args.timing:
        report["timing"] = {"seconds": round(time.perf_counter() - started, 6)}
    return report


def _corpus_inputs(path: Path) -> dict:
    inputs = {}
    for name in (LANG1_FILE, LANG2_FILE, TRANSLATION_FILE, IMPLICATION_FILE):
        p = path / name
        if p.exists():
            inputs[name] = _digest(p)
    return inputs


def _oracle_section_for(t) -> tuple[dict, bool]:
    """Cross-validate derived inners and the state construction."""
    section = {}
    agree = True
    if not t.is_consistent():
        section["status"] = "skipped: translation fails its axioms"
        return section, agree
    try:
        for direction in ("1>2", "2>1"):
            section[f"adjoint:{direction}"] = (
                bool((brute_adjoint(t, direction) == t.array(direction, "inner")).all())
            )
        r = implication_from_translation(t)
        # the brute force refuses over-budget algebras before any work
        brute = sorted(
            sorted(repr(x) for x in s) for s in brute_states(r, OracleBudget())
        )
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
    a1, a2 = load_algebras(args.lang1, args.lang2, args.max_atoms)
    pair_text = Path(args.pair_file).read_text(encoding="utf-8")
    if args.mode == "translation":
        t = parse_translation_file(pair_text, a1, a2)
        report = check_consistency(t)
    else:
        r = parse_implication_file(pair_text, a1, a2)
        report = r.axiom_report()
        t = translation_from_implication(r) if args.oracle and report.passed else None
    inputs = {
        "lang1": _digest(Path(args.lang1)),
        "lang2": _digest(Path(args.lang2)),
        "pair_file": _digest(Path(args.pair_file)),
    }
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
    corpus = load_corpus(args.corpus, args.max_atoms)
    t = corpus.require_translation()
    if not t.is_consistent():
        sys.stderr.write("translation fails its axioms\n")
        return 1
    src, dst = t.endpoints(args.direction)
    x = src.denote(parse_formula(args.formula, src.spec))
    result = t.apply(args.direction, args.mode, x)
    rendered = dst.formula_text(result)
    payload = _base_report("translate", _corpus_inputs(corpus.path), started, args)
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
    corpus = load_corpus(args.corpus, args.max_atoms)
    t = corpus.require_translation()
    space = joint_space_from_translation(t)
    payload = _base_report("joint", _corpus_inputs(corpus.path), started, args)
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
    corpus = load_corpus(args.corpus, args.max_atoms)
    t = corpus.require_translation()
    try:
        common = common_language(t)
    except DegenerateCommonLanguageError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    payload = _base_report("common", _corpus_inputs(corpus.path), started, args)
    table = payload["common_language"] = common.to_dict()
    exit_code = _attach_oracle(args, payload, t)
    lines = []
    if args.format == "text":
        lines = [f"common language: {len(common.members)} members"]
        lines.extend(f"  {entry['host']}  <->  {entry['partner']}"
                     for entry in table["members"])
    _emit(args, payload, lines)
    return exit_code


def cmd_classify(args) -> int:
    started = time.perf_counter()
    corpus = load_corpus(args.corpus, args.max_atoms)
    t = corpus.require_translation()
    space = joint_space_from_translation(t)
    verdict = classify_awareness(t, space)
    embeddings = joint_embeddings(t, space)
    payload = _base_report("classify", _corpus_inputs(corpus.path), started, args)
    payload["verdict"] = verdict.to_dict()
    payload["embeddings"] = embeddings.to_dict()
    exit_code = _attach_oracle(args, payload, t)
    _emit(args, payload, [verdict.summary, f"classification: {verdict.classification}"])
    return exit_code


def cmd_bounds(args) -> int:
    started = time.perf_counter()
    corpus = load_corpus(args.corpus, args.max_atoms)
    t = corpus.require_translation()
    space = joint_space_from_translation(t)
    weights = json.loads(Path(args.probabilities).read_text(encoding="utf-8"))
    src = space.algebra(args.lang)
    x = src.denote(parse_formula(args.formula, src.spec))
    target = 2 if args.lang == 1 else 1
    lo, hi = probability_bounds(space, weights, x, target)
    payload = _base_report("bounds", _corpus_inputs(corpus.path), started, args)
    payload["inputs"]["probabilities"] = _digest(Path(args.probabilities))
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
    started = time.perf_counter()
    corpus = load_corpus(args.corpus, args.max_atoms)
    if args.what == "algebra1":
        dot = algebra_dot(corpus.algebra1, 1)
    elif args.what == "algebra2":
        dot = algebra_dot(corpus.algebra2, 2)
    else:
        dot = cross_dot(corpus.require_relation(), full=args.full)
    if args.output:
        Path(args.output).write_text(dot, encoding="utf-8")
    else:
        sys.stdout.write(dot)
    return 0


def _add_common(parser, default_format: str):
    parser.add_argument("--format", choices=["json", "text"], default=default_format)
    parser.add_argument("--output", help="write output to this file instead of stdout")
    parser.add_argument("--max-atoms", type=int, default=DEFAULT_ATOM_CAP,
                        help="cap on elementary propositions per language")
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
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("translate", help="translate one formula")
    p.add_argument("corpus")
    p.add_argument("direction", choices=["1>2", "2>1"])
    p.add_argument("mode", choices=["inner", "outer"])
    p.add_argument("formula")
    _add_common(p, "text")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("joint", help="construct the joint state-space")
    p.add_argument("corpus")
    _add_common(p, "json")
    p.set_defaults(func=cmd_joint)

    p = sub.add_parser("common", help="extract the common language")
    p.add_argument("corpus")
    _add_common(p, "json")
    p.set_defaults(func=cmd_common)

    p = sub.add_parser("classify", help="compare the languages' awareness")
    p.add_argument("corpus")
    _add_common(p, "json")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("bounds", help="probability interval of a translated formula")
    p.add_argument("corpus")
    p.add_argument("probabilities", help="JSON map of state index to weight")
    p.add_argument("formula")
    p.add_argument("--lang", type=int, choices=[1, 2], required=True,
                   help="language the formula belongs to")
    _add_common(p, "json")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("export-dot", help="emit Graphviz DOT diagrams")
    p.add_argument("corpus")
    p.add_argument("--what", choices=["algebra1", "algebra2", "cross"],
                   default="cross")
    p.add_argument("--full", action="store_true",
                   help="emit the full closure instead of the reduction")
    _add_common(p, "text")
    p.set_defaults(func=cmd_export_dot)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: every ``main`` call reuses it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError, UnicodeDecodeError, json.JSONDecodeError, AtomCapError,
            AlgebraTooLargeError, ContradictionError, InvalidWeightsError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except CrosslangError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
