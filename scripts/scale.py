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
one-line translation and seed files.  It runs each of ``COMMANDS`` on every
pair (the narrowed seed file only on cell pairs), one fresh
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

``--src`` picks the crosslang source tree the commands run from, so that
two versions can be compared on the same pairs: equal ``stdout_sha256``
digests show byte-identical output, not just equal byte counts.  The steady benchmark under
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


def main(argv_in=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=str(ROOT / "src"),
                   help="the crosslang source tree to run")
    p.add_argument("--output", default=str(ROOT / "BENCH_scale.json"))
    args = p.parse_args(argv_in)

    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()),
               PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1")
    rows = []
    with tempfile.TemporaryDirectory(prefix="crosslang-scale-") as tmp_name:
        tmp = Path(tmp_name)
        pairs = ([("cells", m, write_pair, COMMANDS, SEED_FILES) for m in SIZES]
                 + [("free", n, write_free, FREE_COMMANDS, FREE_SEED_FILES)
                    for n in FREE_SIZES])
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
    Path(args.output).write_text(json.dumps({
        "pair": "cells: identity cell pair, m x m models; "
                "free: m atoms without beliefs a side, 2**m models",
        "cap_s": CAP_S,
        "mem_cap_mb": MEM_CAP_MB,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "rows": rows,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
