"""solitonlab benchmark: one workload per invocation, run from the repo root.

    python3 bench/run.py --workload oracle_bulk --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen): ``oracle_bulk``,
``codazzi_probe``, ``cli_defaults``.  Each runs as a closed loop with one
caller in a fresh worker process with BLAS pinned to one thread.  With
``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  Lines before it name
every failed job and record the seed and the machine and library versions.

Set-up time is the median over ``SETUP_PROBES`` set-up-only processes, half
of them run before the measuring process and half after, and the measuring
process itself.  ``--tiny`` shrinks the FD grids (same
spacing) and runs one round; the self-test uses it.

The program is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2 and prints no result.
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

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("oracle_bulk", "codazzi_probe", "cli_defaults")
SETUP_PROBES = 6
DEADLINE_S = 170.0


class WorkerError(Exception):
    pass


def run_worker(args, extra, deadline) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    t0 = time.monotonic_ns()
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--t0-ns", str(t0), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded the {DEADLINE_S:g} s deadline") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "solitonlab" / "__init__.py").is_file():
        print(f"bench: no solitonlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    extra = ["--tiny"] if args.tiny else []
    try:
        probes = 0 if args.trace else SETUP_PROBES // 2
        setups = [run_worker(args, extra + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(probes)]
        res = run_worker(args, extra, deadline)
        setups += [run_worker(args, extra + ["--setup-only"], deadline)["setup_s"]
                   for _ in range(probes)]
    except WorkerError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    metrics = res["metrics"]
    if not args.trace:
        metrics["setup_s"]["value"] = statistics.median(setups + [res["setup_s"]])

    print("# run " + json.dumps(res["meta"], sort_keys=True))
    for name, (count, reason) in sorted(res["failures"].items()):
        print(f"# failed job x{count}: {name}: {reason}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
