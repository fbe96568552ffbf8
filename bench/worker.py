"""One workload in one fresh process: set-up, a timed closed loop, checks.

``run.py`` starts this script; it is not meant to be run by hand.  Set-up
imports crosslang, writes the seeded inputs to a temporary directory and
runs the first operation once.  The timed loop then runs whole rounds (every
distinct input once, in order), each operation starting when the previous
one ends, until ``--seconds`` have passed.  Operations go through
``crosslang.cli.main(argv)`` with stdout and stderr captured.  After the
loop the first output of every input is checked by ``verify.py``, and every
later output must repeat it byte for byte.

With ``--trace 1`` the rounds alternate between untraced and traced ones,
so the per-layer figures and the tracing overhead come from the same
inputs.  The last line of stdout is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

import gen  # noqa: E402  (bench/ is the script's own directory)
import verify  # noqa: E402
from spans import SIZE_NAMES, SPAN_NAMES, SPANNED, Tracer  # noqa: E402

Command = tuple[list[str], int]  # argv and the exit code it must give


@dataclass(frozen=True)
class Workload:
    make: Callable[[int, Path], list]
    commands: Callable[[object], list[Command]]
    verify: Callable[[object, list[tuple[int, str]]], list[str]]


def _check_translation(case) -> list[Command]:
    d = case.directory
    return [(["check", str(d / "lang1.lang"), str(d / "lang2.lang"),
              str(d / "translation.tr"), "--mode", "translation", "--format", "json"],
             0 if case.override is None else 1)]


def _check_implication(case) -> list[Command]:
    d = case.directory
    return [(["check", str(d / "lang1.lang"), str(d / "lang2.lang"),
              str(d / "implication.imp"), "--mode", "implication", "--format", "json"],
             0)]


def _verify_implication(case, results):
    from crosslang.corpus import load_corpus

    relation = load_corpus(case.directory).relation
    return verify.check_implication(case, *results[0], relation.rows12, relation.rows21)


def _analysis_session(case) -> list[Command]:
    """joint, common, classify, export-dot, two translate and two bounds
    calls, in the order of ``verify.NESTED_COMMANDS``."""
    d = str(case.directory)
    weights = str(case.directory / "weights.json")
    fine_q = case.fine.formula(case.fine_query)
    coarse_q = case.coarse.formula(case.coarse_query)
    js = ["--format", "json"]
    return [(argv, 0) for argv in (
        ["joint", d, *js],
        ["common", d, *js],
        ["classify", d, *js],
        ["export-dot", d, "--what", "cross"],
        ["translate", d, "2>1", "inner", fine_q, *js],
        ["translate", d, "2>1", "outer", fine_q, *js],
        ["bounds", d, weights, fine_q, "--lang", "2", *js],
        ["bounds", d, weights, coarse_q, "--lang", "1", *js],
    )]


WORKLOADS = {
    # 12 x 12 interval partitions: 4 overlap-derived pairs, each with a mutant
    "check-translation": Workload(
        lambda seed, root: gen.translation_cases(seed, root, n_pairs=4, cells=12),
        _check_translation,
        lambda case, results: verify.check_translation(case, *results[0]),
    ),
    # full cover-seed files (2 x 1024 seeds) for 10 x 10 partitions
    "check-implication": Workload(
        lambda seed, root: gen.implication_cases(seed, root, n_pairs=4, cells=10),
        _check_implication,
        _verify_implication,
    ),
    # whole sessions on an 8-cell partition against a 12-cell refinement
    "analyse-nested": Workload(
        lambda seed, root: gen.nested_cases(seed, root, n_pairs=2,
                                            coarse_cells=8, fine_cells=12),
        _analysis_session,
        verify.check_nested,
    ),
}


class Operation:
    """The commands of one distinct input, and the first output they gave."""

    def __init__(self, cli, commands: list[Command]):
        self.cli = cli
        self.commands = commands
        self.reference: list[tuple[int, str]] | None = None

    def run(self) -> tuple[float, int, bool]:
        """Seconds taken, bytes printed, and whether the answer is complete:
        no crash, the expected exit codes, and the same output as before."""
        results = []
        started = time.perf_counter()
        try:
            for argv, _ in self.commands:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = self.cli.main(argv)
                results.append((rc, out.getvalue()))
        except (Exception, SystemExit):
            traceback.print_exc(file=sys.stderr)
            return time.perf_counter() - started, 0, False
        elapsed = time.perf_counter() - started
        printed = sum(len(text.encode()) for _, text in results)
        if [rc for rc, _ in results] != [rc for _, rc in self.commands]:
            sys.stderr.write(f"unexpected exit codes {[rc for rc, _ in results]} "
                             f"for {self.commands[0][0][:2]}\n")
            return elapsed, printed, False
        if self.reference is None:
            self.reference = results
        elif results != self.reference:
            sys.stderr.write(f"output changed between runs of {self.commands[0][0][:2]}\n")
            return elapsed, printed, False
        return elapsed, printed, True


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


ROUND_KINDS = ("plain", "spans", "alloc")  # the cycle of a traced run


def per_layer(names, rounds: dict) -> dict[str, float]:
    """Per-operation values of the per-layer metrics named in BENCHMARK.json.

    Times, calls and sizes come from the ``spans`` rounds, allocation peaks
    from the ``alloc`` rounds, which also run ``tracemalloc``."""
    timed, alloc = rounds["spans"], rounds["alloc"]
    n = len(timed.latencies)
    plain_p50 = statistics.median(rounds["plain"].latencies)
    out = {}
    for name in names:
        if name in SIZE_NAMES:
            value = timed.sizes.get(name, 0) / n
        elif name == "cli.output_bytes":
            value = timed.printed / n
        elif name == "trace.overhead_pct":
            value = (statistics.median(timed.latencies) / plain_p50 - 1) * 100
        elif name == "trace.alloc_overhead_pct":
            value = (statistics.median(alloc.latencies) / plain_p50 - 1) * 100
        elif name.startswith("layer.") and name.endswith(".self_ms"):
            layer = name[len("layer."):-len(".self_ms")]
            if layer not in SPANNED:
                raise KeyError(f"no layer {layer!r} for metric {name!r}")
            value = sum(st["self_ms"] for span, st in timed.spans.items()
                        if span.startswith(layer + ".")) / n
        else:
            span, _, field = name.rpartition(".")
            if span not in SPAN_NAMES or field not in ("ms", "self_ms", "calls",
                                                       "peak_alloc_mb"):
                raise KeyError(f"unknown per-layer metric {name!r}")
            if field == "peak_alloc_mb":
                value = alloc.spans.get(span, {}).get(field, 0.0)
            else:
                value = timed.spans.get(span, {}).get(field, 0) / n
        out[name] = value
    return out


class RoundStats:
    """What the rounds of one kind measured, summed over their operations."""

    def __init__(self):
        self.latencies: list[float] = []
        self.spans: dict[str, dict] = {}
        self.sizes: dict[str, int] = {}
        self.printed = 0
        self.ops: list[dict] = []

    def add(self, i: int, seconds: float, nbytes: int, stats, sizes) -> None:
        self.latencies.append(seconds)
        self.printed += nbytes
        for key, n in sizes.items():
            self.sizes[key] = self.sizes.get(key, 0) + n
        for name, st in stats.items():
            agg = self.spans.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0,
                                               "peak_alloc_mb": 0.0, "callers": {}})
            d = st.as_dict()
            for key in ("calls", "ms", "self_ms"):
                agg[key] += d[key]
            agg["peak_alloc_mb"] = max(agg["peak_alloc_mb"], d["peak_alloc_mb"])
            for caller, k in d["callers"].items():
                agg["callers"][caller] = agg["callers"].get(caller, 0) + k
        if stats:
            self.ops.append({"input": i, "ms": seconds * 1e3, "sizes": sizes,
                             "spans": {k: v.as_dict() for k, v in stats.items()}})


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="stop after set-up (repeated set-ups for setup_s)")
    p.add_argument("--per-layer", default="",
                   help="comma-separated per-layer metric names to report")
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import crosslang.cli as cli

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"inputs-{args.workload}-", dir=OUT))
    try:
        cases = workload.make(args.seed, workdir)
        ops = [Operation(cli, workload.commands(case)) for case in cases]
        ops[0].run()  # warm-up
        ready_at = time.monotonic()
        if args.setup_only:
            _emit({"ready_at": ready_at})
            return 0
        return _measure(args, workload, cases, ops, ready_at)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workload, cases, ops, ready_at) -> int:
    tracer = Tracer()
    kinds = ROUND_KINDS if args.trace else ROUND_KINDS[:1]
    rounds = {kind: RoundStats() for kind in kinds}
    attempted = failed = 0
    started = time.perf_counter()
    deadline = started + args.seconds
    count = 0
    while True:
        kind = kinds[count % len(kinds)]
        if kind != "plain":
            tracer.memory = kind == "alloc"
            if tracer.memory:
                tracemalloc.start()
            tracer.install()
        try:
            for i, op in enumerate(ops):
                seconds, nbytes, ok = op.run()
                stats, sizes = tracer.take()
                attempted += 1
                if ok:
                    rounds[kind].add(i, seconds, nbytes, stats, sizes)
                else:
                    failed += 1
        finally:
            tracer.uninstall()
            tracemalloc.stop()
        count += 1
        if time.perf_counter() >= deadline and count >= len(kinds):
            break
    loop_seconds = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not all(r.latencies for r in rounds.values()):
        sys.stderr.write("no operation completed in some kind of round\n")
        return 1

    problems = []
    for i, (case, op) in enumerate(zip(cases, ops)):
        if op.reference is not None:
            problems += [f"input {i}: {msg}" for msg in workload.verify(case, op.reference)]
    for msg in problems:
        sys.stderr.write(f"wrong output: {msg}\n")

    plain = rounds["plain"].latencies
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "ready_at": ready_at,
        "loop_seconds": loop_seconds,
        "latencies_ms": [s * 1e3 for s in plain],
    }
    if not args.trace:
        result["metrics"] = {
            "ops_per_s": len(plain) / loop_seconds,
            "op_p50_ms": statistics.median(plain) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        names = [s for s in args.per_layer.split(",") if s]
        result["metrics"] = per_layer(names, rounds)
        if tracer.missing:
            sys.stderr.write(f"not traced, reported as 0: {sorted(tracer.missing)}\n")
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "op_p50_ms": {kind: statistics.median(r.latencies) * 1e3
                          for kind, r in rounds.items()},
            "metrics": result["metrics"], "missing": sorted(tracer.missing),
            "rounds": {kind: {"spans": r.spans, "sizes": r.sizes, "ops": r.ops}
                       for kind, r in rounds.items() if kind != "plain"},
        }, indent=1) + "\n")
        result["trace_file"] = str(trace_file.relative_to(ROOT))
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
