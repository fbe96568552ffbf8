"""Scale sweep: CLI commands as fresh processes on identity cell pairs.

For each size m in ``SIZES`` it writes the m x m identity cell pair of
``crosslang.randgen.write_cell_corpus`` (always with this checkout's code)
with its ``translation.tr``, which ``check-translation`` checks and
``translate`` reads to translate ``a0 | a1``; uniform weights; a cover-seed
file in which every proposition of either side implies its twin; and a
narrowed copy of it in which ``a0`` implies ``false`` (so the closure
forces within-language pairs and takes the dense fallback).  For each size
n in ``FREE_SIZES`` it writes the pair of n-atom languages without beliefs
of ``crosslang.randgen.write_free_corpus`` (2**n models each) with its
one-line translation and seed files.  For each size m in
``OVERRIDE_SIZES`` it writes the m x m identity cell pair whose
translation file also restates every derived ``inner 1>2`` value as an
``override`` line, 2**m of them, for ``OVERRIDE_COMMANDS``.  It runs each
of ``COMMANDS`` on every pair (the narrowed seed file only on cell pairs),
one fresh
``python -m crosslang`` process each, under a wall-clock cap of ``CAP_S``
seconds and an address-space cap of ``MEM_CAP_MB`` (so that a run which
would exhaust the host's memory fails with MemoryError instead).  Each row
records the wall time, the peak RSS of that child process, the bytes it
printed with the first 16 hex digits of their sha256, and its exit code, or
``"timeout"`` when the cap killed it, plus the last line of its stderr as
``error`` when there is one.  The sweep never
skips a row.

    python3 scripts/scale.py                       # writes BENCH_scale.json
    python3 scripts/scale.py --src ../other-checkout/src --output other.json
    python3 scripts/scale.py --compare BENCH_scale.json

``--src`` picks the crosslang source tree the commands run from, so that
two versions can be compared on the same pairs: equal ``stdout_sha256``
digests show byte-identical output, not just equal byte counts.
``--compare FILE`` reruns the sweep and lists every row whose
``stdout_sha256``, exit code or ``error`` differs from that row in FILE,
or that only one of the two sweeps has; it exits 1 if any row differs and
writes a result file only when ``--output`` is given.  The steady benchmark under
``bench/`` keeps its inputs and bounds fixed; this sweep is for the size
frontier and is not part of it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from crosslang.randgen import write_cell_corpus, write_free_corpus  # noqa: E402

SIZES = (8, 10, 12, 14, 16)
FREE_SIZES = (17, 20)
COMMANDS = ("check-translation", "translate", "joint", "common", "classify", "bounds",
            "check-implication", "check-implication-narrowed", "export-dot-cross",
            "export-dot-full")
CAP_S = 60.0
MEM_CAP_MB = 3072
SEED_FILES = {"check-implication": "cover.imp",
              "check-implication-narrowed": "narrowed.imp"}
FREE_SEED_FILES = {"check-implication": "seed.imp"}
FREE_COMMANDS = tuple(c for c in COMMANDS if c != "check-implication-narrowed")
OVERRIDE_SIZES = (16,)
OVERRIDE_COMMANDS = ("check-translation", "translate")
NARROWED = ("imp: lang1.a0 => lang2.b0\n", "imp: lang1.a0 => lang2.false\n")


def write_pair(path: Path, m: int) -> None:
    """The m x m identity cell pair, uniform weights over its m states, the
    cover seeds (each proposition of either side implies its twin) and the
    cover seeds with ``a0`` narrowed to ``false``."""
    write_cell_corpus(path, m, star=False)
    (path / "weights.json").write_text(json.dumps([1 / m] * m) + "\n")
    formulas = {prefix: [" | ".join(f"{prefix}{k}" for k in range(m) if mask >> k & 1)
                         or "false" for mask in range(1 << m)]
                for prefix in "ab"}
    cover = "".join(f"imp: {src}.{lhs} => {dst}.{rhs}\n"
                    for (src, sp), (dst, dp) in ((("lang1", "a"), ("lang2", "b")),
                                                 (("lang2", "b"), ("lang1", "a")))
                    for lhs, rhs in zip(formulas[sp], formulas[dp]))
    (path / SEED_FILES["check-implication"]).write_text(cover)
    (path / SEED_FILES["check-implication-narrowed"]).write_text(cover.replace(*NARROWED, 1))


def write_overrides(path: Path, m: int) -> None:
    """The m x m identity cell pair whose translation file restates, after
    its outer lines, the derived inner 1>2 value of every proposition (its
    twin) as an override line."""
    write_cell_corpus(path, m, star=False)
    formulas = {prefix: [" | ".join(f"{prefix}{k}" for k in range(m) if mask >> k & 1)
                         or "false" for mask in range(1 << m)]
                for prefix in "ab"}
    with open(path / "translation.tr", "a") as out:
        out.writelines(f"override inner 1>2: {lhs} => {rhs}\n"
                       for lhs, rhs in zip(formulas["a"], formulas["b"]))


def write_free(path: Path, n: int) -> None:
    """The n-atom pair without beliefs and a weights file, which the
    commands refuse the pair before reading."""
    write_free_corpus(path, n)
    (path / "weights.json").write_text("[1.0]\n")


def argv(command: str, corpus: Path, seed_files: dict) -> list[str]:
    if command == "bounds":
        return ["bounds", str(corpus), str(corpus / "weights.json"), "a0 | a1",
                "--lang", "1", "--format", "json"]
    if command == "check-translation":
        return ["check", str(corpus / "lang1.lang"), str(corpus / "lang2.lang"),
                str(corpus / "translation.tr"), "--mode", "translation", "--format", "json"]
    if command == "translate":
        return ["translate", str(corpus), "1>2", "inner", "a0 | a1", "--format", "json"]
    if command in seed_files:
        return ["check", str(corpus / "lang1.lang"), str(corpus / "lang2.lang"),
                str(corpus / seed_files[command]), "--mode", "implication",
                "--format", "json"]
    if command.startswith("export-dot"):
        return ["export-dot", str(corpus), "--what", "cross",
                *(["--full"] if command.endswith("full") else [])]
    return [command, str(corpus), "--format", "json"]


def _cap_memory():
    cap = MEM_CAP_MB * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def run(cmd: list[str], env: dict, cwd: Path) -> dict:
    """One child process: wall time, its own peak RSS (from ``wait4``), the
    bytes it printed and their digest, its exit code or ``timeout``, and its
    last stderr line."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        started = time.perf_counter()
        child = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd,
                                 preexec_fn=_cap_memory)
        deadline = started + CAP_S
        while True:
            pid, status, usage = os.wait4(child.pid, os.WNOHANG)
            if pid:
                code = os.waitstatus_to_exitcode(status)
                break
            if time.perf_counter() > deadline:
                child.kill()
                _, _, usage = os.wait4(child.pid, 0)
                code = "timeout"
                break
            time.sleep(0.01)
        wall = time.perf_counter() - started
        child.returncode = code   # reaped here; keeps Popen from waiting again
        size = out.tell()
        out.seek(0)
        digest = hashlib.file_digest(out, "sha256").hexdigest()[:16]
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace").strip().splitlines()
        row = {"wall_s": round(wall, 3),
               "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
               "output_bytes": size,
               "stdout_sha256": digest,
               "exit": code}
        if stderr:
            row["error"] = stderr[-1][:200]
        return row


IDENTITY = ("stdout_sha256", "exit", "error")


def differences(old_rows: list[dict], new_rows: list[dict]) -> list[str]:
    """One line for each row whose ``IDENTITY`` fields differ between two
    sweeps, or which only one of them has; rows are matched on command,
    pair kind and size."""
    def key(row):
        return f"{row['command']} {row['pair']}{row['m']}"
    old = {key(row): row for row in old_rows}
    lines = []
    for row in new_rows:
        before = old.pop(key(row), None)
        if before is None:
            lines.append(f"{key(row)}: not in the compared file")
            continue
        changed = [f"{field} {before.get(field)!r} -> {row.get(field)!r}"
                   for field in IDENTITY if before.get(field) != row.get(field)]
        if changed:
            lines.append(f"{key(row)}: " + "; ".join(changed))
    lines.extend(f"{name}: not in this sweep" for name in old)
    return lines


def main(argv_in=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=str(ROOT / "src"),
                   help="the crosslang source tree to run")
    p.add_argument("--output", default=None,
                   help="result file (default BENCH_scale.json; none with --compare)")
    p.add_argument("--compare", metavar="FILE",
                   help="list the rows whose output, exit code or error differ from FILE")
    args = p.parse_args(argv_in)
    old_rows = json.loads(Path(args.compare).read_text())["rows"] if args.compare else None
    if args.output is None and not args.compare:
        args.output = str(ROOT / "BENCH_scale.json")

    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()),
               PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1")
    rows = []
    with tempfile.TemporaryDirectory(prefix="crosslang-scale-") as tmp_name:
        tmp = Path(tmp_name)
        pairs = ([("cells", m, write_pair, COMMANDS, SEED_FILES) for m in SIZES]
                 + [("free", n, write_free, FREE_COMMANDS, FREE_SEED_FILES)
                    for n in FREE_SIZES]
                 + [("overrides", m, write_overrides, OVERRIDE_COMMANDS, {})
                    for m in OVERRIDE_SIZES])
        for kind, m, write, commands, seed_files in pairs:
            # the commands name the pair relative to the scratch directory, so
            # that the input paths in their reports are the same on every run
            corpus = Path(f"{kind}{m}")
            (tmp / corpus).mkdir()
            write(tmp / corpus, m)
            for command in commands:
                cmd = [sys.executable, "-m", "crosslang", *argv(command, corpus, seed_files)]
                row = {"command": command, "pair": kind, "m": m, **run(cmd, env, tmp)}
                rows.append(row)
                print(json.dumps(row), flush=True)
    if args.output is not None:
        Path(args.output).write_text(json.dumps({
            "pair": "cells: identity cell pair, m x m models; "
                    "free: m atoms without beliefs a side, 2**m models; "
                    "overrides: the cell pair with every derived inner 1>2 value "
                    "restated as an override",
            "cap_s": CAP_S,
            "mem_cap_mb": MEM_CAP_MB,
            "python": platform.python_version(),
            "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
            "rows": rows,
        }, indent=1) + "\n")
    if old_rows is None:
        return 0
    lines = differences(old_rows, rows)
    print("\n".join(lines) if lines else f"all {len(rows)} rows match {args.compare}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
