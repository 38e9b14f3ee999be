"""Run the benchmark in pairs on a git revision and on the working tree.

    python3 tools/bench_pairs.py REV --workload W --pairs N --seed0 S --out BENCH_n.json

REV is extracted with ``git archive`` into a temporary directory, and
each run is a fresh process in its own session (`gitrev.Workspace`).  Pair
i runs

    python3 bench/run.py --workload W --seed S+i --seconds T --trace 0

once in each tree, each with its own ``bench/``, and the tree that runs
first alternates from pair to pair.  T is ``run_seconds`` of the working
tree's ``BENCHMARK.json``, the same on both sides.  N is at least 10.
``--workload`` may be given more than once; each workload gets its own
pairs.  The output file holds every run's result line and, per workload
and end-to-end metric of ``BENCHMARK.json``, each side's median and
quartiles, the relative change of the medians, the number of pairs the
working tree wins and two verdicts:

* ``claim``: whether a gain on the metric could be claimed, that is the
  working tree wins at least 9 of 10 pairs and its median is better than
  the revision's by more than the revision's quartile gap;
* ``bound``: ``"within"`` when the working tree's median is worse than the
  revision's by at most the metric's ``bound`` (relative to the revision's
  median), ``"outside"`` when it is worse by more, and ``"unresolved"``
  when the revision's own quartile gap is wider than the bound, unless every
  run of the working tree is better than every run of the revision.

It names the working tree by its HEAD commit and, when
tracked files differ from HEAD, by the SHA-256 of ``git diff --binary
HEAD`` (untracked files are not covered).  A run that fails stops the tool
with exit code 1 and writes nothing; exit code 2 means REV cannot be
extracted.  SIGTERM or SIGINT ends every run's processes, removes the
extract and stops the tool with exit code 128 + the signal's number,
writing nothing.  Nothing under ``bench/`` is written, only its ``.bench_out/``
scratch directory in each tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
from pathlib import Path

from gitrev import ROOT, Workspace, git

MIN_PAIRS = 10


def bench_run(ws: Workspace, tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one ``bench/run.py`` run in ``tree``, with the
    machine facts of its ``# run`` line under ``meta``.  A run that fails
    ends the tool with exit code 1."""
    proc = ws.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"], tree, fail=1)
    lines = proc.stdout.decode().strip().splitlines()
    result = json.loads(lines[-1])
    result["meta"] = next((json.loads(line[len("# run "):]) for line in lines
                           if line.startswith("# run ")), {})
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(pairs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per metric of ``metrics`` (name to its `BENCHMARK.json` entry): both
    sides' median and quartiles, the change of the medians relative to the
    revision's, the pairs the tree wins and the two verdicts."""
    out = {}
    for name, spec in metrics.items():
        sign = 1.0 if spec["better"] == "lower" else -1.0
        rev = [p["rev"]["metrics"][name]["value"] for p in pairs]
        tree = [p["tree"]["metrics"][name]["value"] for p in pairs]
        wins = sum(sign * (t - r) < 0 for r, t in zip(rev, tree))
        rev_s, tree_s = summary(rev), summary(tree)
        gap = rev_s["q3"] - rev_s["q1"]
        worse = sign * (tree_s["median"] - rev_s["median"])  # < 0 is a gain
        allowed = spec["bound"] * abs(rev_s["median"])
        beats_all = all(sign * (t - r) < 0 for t in tree for r in rev)
        out[name] = {"better": spec["better"], "rev": rev_s, "tree": tree_s,
                     "change": (tree_s["median"] / rev_s["median"] - 1.0
                                if rev_s["median"] else None),
                     "wins": wins, "pairs": len(pairs),
                     "claim": 10 * wins >= 9 * len(pairs) and -worse > gap,
                     "bound": ("unresolved" if gap > allowed and not beats_all
                               else "within" if worse <= allowed else "outside")}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision to compare with")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    with Workspace("bench_pairs") as ws:
        base = ws.extract(args.rev)
        diff = git("diff", "--binary", "HEAD")
        report = {"rev": args.rev, "rev_commit": git("rev-parse", args.rev).decode().strip(),
                  "tree_head": git("rev-parse", "HEAD").decode().strip(),
                  "tree_diff_sha256": hashlib.sha256(diff).hexdigest() if diff else None,
                  "run_seconds": seconds, "workloads": {}}
        for workload in args.workload:
            pairs = []
            for i in range(args.pairs):
                seed = args.seed0 + i
                order = ("rev", "tree") if i % 2 == 0 else ("tree", "rev")
                runs = {side: bench_run(ws, base if side == "rev" else ROOT, workload, seed,
                                        seconds) for side in order}
                pairs.append({"seed": seed, "first": order[0], **runs})
                wall = {side: runs[side]["metrics"]["wall_s"]["value"] for side in order}
                print(f"{workload} seed {seed}: wall_s {wall['rev']:.4f} -> {wall['tree']:.4f}",
                      flush=True)
            report["workloads"][workload] = {"pairs": pairs, "metrics": compare(pairs, metrics)}
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for workload, entry in report["workloads"].items():
        for name, m in entry["metrics"].items():
            change = "" if m["change"] is None else f" ({100 * m['change']:+.1f} %)"
            print(f"{workload} {name}: {m['rev']['median']:.6g} "
                  f"[{m['rev']['q1']:.6g}, {m['rev']['q3']:.6g}] -> {m['tree']['median']:.6g}"
                  f"{change}, {m['wins']}/{m['pairs']} wins, claim {m['claim']}, "
                  f"bound {m['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
