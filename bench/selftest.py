"""Self-test of the benchmark, run from the repo root:

    python3 bench/selftest.py

1. Runs every workload of BENCHMARK.json at the tiny size, untraced and
   traced, and checks that the result line has exactly the keys the
   benchmark promises and every metric BENCHMARK.json names, with its unit.
2. Gives one CLI job a wrong expected exit code and checks that the gate
   counts it as a failure in failed_frac.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace} exited "
                             f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            res = run_bench(workload, trace)
            label = f"{workload} --trace {trace}"
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, label
            assert res["correct"] is True and res["attempted"] >= 1, label
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == want, f"{label}: metrics differ: {set(got) ^ set(want)}"
            for name, m in res["metrics"].items():
                assert math.isfinite(m["value"]), f"{label}: {name} = {m['value']}"
            print(f"ok  {label}: {len(got)} metrics, {res['attempted']} jobs, "
                  f"{res['failed']} failed")


def check_wrong_expectation() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import worker
    import workloads

    tmpdir = worker.OUT_DIR / "selftest"
    tmpdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.CliDefaults(1, True, tmpdir)
    baseline, _ = worker.run_rounds(wl, 1)
    index, (name, _) = next((i, job) for i, job in enumerate(wl.jobs)
                            if job[0].startswith("verify --family flat "))
    argv = name.split()
    wl.jobs[index] = (name, lambda: wl.run(index, argv, 1))   # flat passes: exit 0
    flipped, _ = worker.run_rounds(wl, 1)
    assert name not in baseline.failures
    assert set(flipped.failures) == set(baseline.failures) | {name}
    assert flipped.failed == baseline.failed + 1
    assert worker.failed_frac([flipped]) == (baseline.failed + 1) / flipped.attempted
    print(f"ok  a wrong expected exit for {name!r} is counted in failed_frac")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metrics(spec)
    check_wrong_expectation()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
