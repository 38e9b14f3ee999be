"""Compare what the CLI and the demos print at a git revision with what the
working tree prints.

    python3 tools/report_diff.py REV

REV is extracted with ``git archive`` into a temporary directory.  Every job
then runs in a fresh Python process, once against each ``src/`` tree, and
the two runs are compared on exit code, stdout, stderr and the bytes of the
``--out`` report.  The jobs are:

* ``verify``, ``oracle``, ``classify`` and ``integrate`` at their defaults
  for every CLI family, once as JSON and once as CSV;
* the boundary arguments of the benchmark (``BOUNDARY_JOBS`` in
  ``bench/workloads.py``), and the edge jobs of `EDGE_JOBS`;
* the demos, each tree running its own copy.

Each job that differs is listed with the fields that differ.  Where both
``--out`` reports are JSON, the listing adds the largest absolute difference
over the float fields and the path of each other field that changed.  The
exit code is 1 if any job differs, 0 if none does, 2 if REV cannot be
extracted.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
sys.dont_write_bytecode = True  # read the job lists, leave no cache beside them
from workloads import BOUNDARY_JOBS, CLI_FAMILIES  # noqa: E402
from gitrev import extract  # noqa: E402

COMMANDS = ("verify", "oracle", "classify", "integrate")
# overflowing potentials, integrate runs whose CSV prints every state with
# its identity residuals, and integrate's refusals: an unknown family, a
# family without a reduced start, and a bad --lam of one with it
EDGE_JOBS = (
    "verify --family gaussian --lam 1e308",
    "verify --family product --lam 1e200",
    "classify --family gaussian --lam 1e308",
    "integrate --family singular-steady --from 1 --to 0.01 --format csv",
    "integrate --family product --lam 2.5 --from 0.5 --to 3 --step 1e-2 --format csv",
    "integrate --family product --lam=-0.5 --from 2 --to 1 --step 1e-2 --format csv",
    "integrate --family nosuch",
    "integrate --family cylinder --lam 0",
    "integrate --family product --lam 0",
)
OUT = "report.out"


def jobs(tree: Path) -> list[tuple[str, list[str]]]:
    """(name, argv after the interpreter) of every job, for one tree."""
    cli = ["-m", "solitonlab.cli"]
    out = [(f"{command} --family {family} --format {fmt}",
            cli + [command, "--family", family, "--format", fmt, "--out", OUT])
           for command in COMMANDS for family in CLI_FAMILIES for fmt in ("json", "csv")]
    out += [(text, cli + text.split() + ["--out", OUT])
            for text in [text for text, _ in BOUNDARY_JOBS] + list(EDGE_JOBS)]
    out += [(f"demos/{demo.name}", [str(tree / "demos" / demo.name)])
            for demo in sorted((ROOT / "demos").glob("*.py"))]
    return out


def run(tree: Path, argv: list[str], workdir: Path) -> dict:
    """Exit code, stdout, stderr and report bytes of one job in a fresh
    process; paths into the tree read ``<tree>``, so the trees compare."""
    out = workdir / OUT
    out.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, *argv], cwd=workdir, env=env,
                          capture_output=True)
    tree_bytes = str(tree).encode()
    return {"exit code": proc.returncode,
            "stdout": proc.stdout.replace(tree_bytes, b"<tree>"),
            "stderr": proc.stderr.replace(tree_bytes, b"<tree>"),
            "--out bytes": out.read_bytes() if out.exists() else None}


def json_changes(old, new, path="$") -> tuple[float, list[str]]:
    """(largest |difference| over the float fields, paths of the other
    fields that changed) between two parsed JSON values."""
    if isinstance(old, float) or isinstance(new, float):
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new)):
            return abs(old - new), []
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        pieces = [json_changes(old[key], new[key], f"{path}.{key}") for key in old]
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        pieces = [json_changes(a, b, f"{path}[{i}]") for i, (a, b) in enumerate(zip(old, new))]
    else:
        return 0.0, [] if old == new else [path]
    return max((d for d, _ in pieces), default=0.0), [p for _, paths in pieces for p in paths]


def report_detail(old: bytes | None, new: bytes | None) -> str:
    """The numeric detail of two ``--out`` reports, or "" unless both are JSON."""
    try:
        largest, paths = json_changes(json.loads(old), json.loads(new))
    except (TypeError, ValueError):
        return ""
    return (f"\n         largest float difference {largest:.3g}"
            + "".join(f"\n         changed {path}" for path in paths))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision to compare with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="report_diff_") as tmp:
        base, workdir = Path(tmp) / "rev", Path(tmp) / "work"
        base.mkdir()
        workdir.mkdir()
        if not extract("report_diff", args.rev, base):
            return 2
        differing = 0
        pairs = list(zip(jobs(base), jobs(ROOT)))
        for (name, old_argv), (_, new_argv) in pairs:
            old, new = run(base, old_argv, workdir), run(ROOT, new_argv, workdir)
            fields = [key for key in old if old[key] != new[key]]
            if fields:
                differing += 1
                detail = (report_detail(old["--out bytes"], new["--out bytes"])
                          if "--out bytes" in fields else "")
                print(f"DIFFERS  {name}: {', '.join(fields)} "
                      f"(exit {old['exit code']} -> {new['exit code']}){detail}")
    print(f"{differing} of {len(pairs)} jobs differ from {args.rev}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
