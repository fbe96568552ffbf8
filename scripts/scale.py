"""Scale sweep: the analysis commands as fresh processes on identity cell pairs.

For each size m in ``SIZES`` it writes the m x m identity cell pair of
``crosslang.randgen.write_cell_corpus`` (always with this checkout's code)
plus uniform weights, and runs each of ``COMMANDS`` on it, one fresh
``python -m crosslang`` process each, under a wall-clock cap of ``CAP_S``
seconds.  Each row records the wall time, the peak RSS of that child
process, the bytes it printed and its exit code, or ``"timeout"`` when the
cap killed it.  The sweep never skips a row.

    python3 scripts/scale.py                       # writes BENCH_scale.json
    python3 scripts/scale.py --src ../other-checkout/src --output other.json

``--src`` picks the crosslang source tree the commands run from, so that
two versions can be compared on the same pairs.  The steady benchmark under
``bench/`` keeps its inputs and bounds fixed; this sweep is for the size
frontier and is not part of it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from crosslang.randgen import write_cell_corpus  # noqa: E402

SIZES = (8, 10, 12, 14, 16)
COMMANDS = ("joint", "common", "classify", "bounds")
CAP_S = 60.0


def write_pair(path: Path, m: int) -> None:
    """The m x m identity cell pair and uniform weights over its m states."""
    write_cell_corpus(path, m, star=False)
    (path / "weights.json").write_text(json.dumps([1 / m] * m) + "\n")


def argv(command: str, corpus: Path) -> list[str]:
    if command == "bounds":
        return ["bounds", str(corpus), str(corpus / "weights.json"), "a0 | a1",
                "--lang", "1", "--format", "json"]
    return [command, str(corpus), "--format", "json"]


def run(cmd: list[str], env: dict) -> dict:
    """One child process: wall time, its own peak RSS (from ``wait4``), the
    bytes it printed and its exit code, or ``timeout``."""
    with tempfile.TemporaryFile() as out:
        started = time.perf_counter()
        child = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL, env=env)
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
        return {"wall_s": round(wall, 3),
                "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
                "output_bytes": out.tell(),
                "exit": code}


def main(argv_in=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=str(ROOT / "src"),
                   help="the crosslang source tree to run")
    p.add_argument("--output", default=str(ROOT / "BENCH_scale.json"))
    args = p.parse_args(argv_in)

    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()),
               PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1")
    rows = []
    with tempfile.TemporaryDirectory(prefix="crosslang-scale-") as tmp:
        for m in SIZES:
            corpus = Path(tmp) / f"cells{m}"
            corpus.mkdir()
            write_pair(corpus, m)
            for command in COMMANDS:
                row = {"command": command, "m": m,
                       **run([sys.executable, "-m", "crosslang", *argv(command, corpus)], env)}
                rows.append(row)
                print(json.dumps(row), flush=True)
    Path(args.output).write_text(json.dumps({
        "pair": "identity cell pair, m x m",
        "cap_s": CAP_S,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "rows": rows,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
