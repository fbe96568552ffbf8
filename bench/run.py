"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload check-translation --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``; there is nothing to build).  Each run starts the workload in
fresh worker processes (``worker.py``) with the BLAS thread pools limited
to one thread and a fixed hash seed.  Set-up is repeated ``SETUP_REPEATS``
times, each in its own fresh process, and ``setup_s`` is their median; the
last of those processes goes on to the timed loop.

With ``--trace 0`` the result carries the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics.  The full result
is also written to ``bench/out/``.  The exit code is not 0, and no result
is printed, when the checkout or a worker is unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
DEADLINE_S = 170  # a run must end within 180 s

# set for every worker and recorded in the result file
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class RunError(Exception):
    pass


def _worker(args, extra: list[str], deadline: float) -> dict:
    """Run one worker process to its end; return its JSON line."""
    env = dict(os.environ, **WORKER_ENV)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("worker ran past the deadline")
    if proc.returncode != 0:
        raise RunError(f"worker exited {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RunError("worker printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = result.pop("ready_at") - spawned_at
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="crosslang benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    spec_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "crosslang" / "cli.py").is_file() or not spec_file.is_file():
        sys.stderr.write(f"{ROOT} is not a crosslang checkout (no src/crosslang)\n")
        return 2
    spec = json.loads(spec_file.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.stderr.write(f"unknown workload {args.workload!r}\n")
        return 2
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        setups = [_worker(args, ["--setup-only"], deadline)["setup_s"]
                  for _ in range(0 if args.trace else SETUP_REPEATS - 1)]
        result = _worker(args, ["--per-layer", ",".join(m["name"] for m in metrics)],
                         deadline)
    except (RunError, json.JSONDecodeError, KeyError) as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 1
    setups.append(result["setup_s"])
    values = dict(result["metrics"], setup_s=statistics.median(setups))

    summary = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    record = dict(summary, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, env=WORKER_ENV,
                  setups_s=setups, loop_seconds=result["loop_seconds"],
                  latencies_ms=result["latencies_ms"],
                  trace_file=result.get("trace_file"))
    name = f"result-{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
