"""Compare a git revision with the working tree: the line counts of
``src/``, ``tests/`` and ``tools/``, the bits of the FD oracle's outputs, and
what the CLI and the demos print.

    python3 tools/revdiff.py [REV]

REV (HEAD when not given) is extracted once, and each dump and job below runs
in a fresh process, once with each tree's ``src/`` (`gitrev.Workspace`).  It
prints:

* each module's total and code-only lines (`line_counts`) under ``src/``,
  ``tests/`` and ``tools/`` at REV and in the working tree, and the
  difference;
* every FD array of `dump` that differs in bits or shape or that one tree
  lacks, comparing int64 views of the float64 values, so that the sign of
  zero counts;
* every job of `jobs` that differs on exit code, stdout, stderr or the bytes
  of its ``--out`` report, with the fields that differ.  Where both reports
  are JSON, it adds the largest absolute difference over the float fields
  and the path of each other field that changed.

The exit code is 1 if any array or job differs, 2 if REV cannot be extracted
or a tree's dump fails, else 0.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import sys
import tokenize
from pathlib import Path

import numpy as np

from gitrev import ROOT, Workspace

ACCEPTANCE_FAMILIES = ("sphere", "product", "singular_steady", "gaussian", "cylinder")
BUNDLE_FIELDS = ("g", "christoffel", "riem", "ric", "scalar", "weyl", "codazzi_residual")
# (shape, seed) of the dense random grids of tests/test_fdgrid.py
RANDOM_GRIDS = (((11, 10, 9, 9), 0), ((9, 9, 8, 8), 1), ((12, 11, 10, 10), 2))
# the child that writes `dump` of the solitonlab on its path to the file argv[1]
DUMP = "import sys, numpy, revdiff; numpy.savez(sys.argv[1], **revdiff.dump())"
OUT = "report.out"


def line_counts(path: Path) -> tuple[int, int]:
    """(total lines, code-only lines) of one Python file: code-only lines
    leave out blank lines, comment-only lines and the lines of docstrings
    (the leading string of a module, class or function)."""
    text = path.read_text()
    lines = text.splitlines()
    skip = {i for i, line in enumerate(lines, start=1) if not line.strip()}
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT and not lines[tok.start[0] - 1][:tok.start[1]].strip():
            skip.add(tok.start[0])
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            skip.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines), len(lines) - len(skip)


def table(src: Path, base_src: Path) -> list[str]:
    """One row per module and a total row: the `line_counts` of each module
    under ``base_src``, then under ``src``, then the difference."""
    counts, base = ({str(f.relative_to(d)): line_counts(f) for f in sorted(d.rglob("*.py"))}
                    for d in (src, base_src))
    names = sorted(set(counts) | set(base))
    rows = [(name, counts.get(name, (0, 0)), base.get(name, (0, 0))) for name in names]
    rows.append(("total", *(tuple(map(sum, zip(*c.values()))) or (0, 0) for c in (counts, base))))
    width = max(len(name) for name, _, _ in rows)
    return [f"{name:<{width}}  {b_total:>6,} / {b_code:>5,}  ->  {total:>6,} / {code:>5,}"
            f"  ({total - b_total:+,} / {code - b_code:+,})"
            for name, (total, code), (b_total, b_code) in rows]


def dump() -> dict[str, np.ndarray]:
    """The FD arrays compared, by name, computed with the ``solitonlab`` on
    the path:

    * on the 14 grids of the benchmark's Codazzi probe, the 7 canonical
      families on narrow grids of 129 and 257 s-nodes: ``fd_ricci_block``
      and ``fd_codazzi_block`` on the s-line, and every field of
      ``fd_curvature`` at the middle node;
    * ``fd_ricci_block`` on all interior nodes of the 129-node grids of the 5
      acceptance families, as the benchmark's full-grid oracle runs it;
    * the same three calls on the 3 dense random grids of
      ``tests/test_fdgrid.py`` (smooth metrics with every entry nonzero), on
      all their interior nodes; the bundle at the middle node of the two
      grids with 9 nodes or more on every axis (the Codazzi margin needs
      them).
    """
    from helpers import smooth_random_grid  # of tests/, on the path of `DUMP`'s child
    from solitonlab.families import CANONICAL_FAMILIES
    from solitonlab.fdgrid import (fd_codazzi_block, fd_curvature, fd_ricci_block,
                                   grid_from_family)
    out = {}

    def calls(name, grid, ricci_nodes, codazzi_nodes, node):
        for key, val in fd_ricci_block(grid, ricci_nodes).items():
            out[f"{name} ricci {key}"] = val
        out[f"{name} codazzi"] = fd_codazzi_block(grid, codazzi_nodes)
        if min(grid.shape) >= 9:
            bundle = fd_curvature(grid, node)
            for field in BUNDLE_FIELDS:
                out[f"{name} bundle {field}"] = getattr(bundle, field)

    for fam_name, build in CANONICAL_FAMILIES.items():
        fam = build()
        for n in (129, 257):
            h = 1.5 / (n - 1)
            grid = grid_from_family(fam, (0.5, 2.0), n, r_range=(1.0 - 4 * h, 1.0 + 4 * h),
                                    n_r=9)
            mid = tuple(k // 2 for k in grid.shape)
            line = np.array([(i,) + mid[1:] for i in range(4, n - 4)])
            calls(f"probe {fam_name} n{n}", grid, line, line, mid)
        if fam_name in ACCEPTANCE_FAMILIES:
            grid = grid_from_family(fam, (0.5, 2.0), 129, n_r=129)
            for key, val in fd_ricci_block(grid, grid.interior_nodes()).items():
                out[f"bulk {fam_name} ricci {key}"] = val
    for shape, seed in RANDOM_GRIDS:
        grid = smooth_random_grid(shape, seed)
        calls(f"random seed {seed}", grid, grid.interior_nodes(margin=2),
              grid.interior_nodes(), tuple(k // 2 for k in shape))
    return out


def jobs(tree: Path) -> list[tuple[str, list[str]]]:
    """(name, argv after the interpreter) of every job, for one tree: every
    row of the CLI job catalogue (``tools/cli_jobs.py``), with ``--out``, and
    the demos, each tree running its own copy."""
    import cli_jobs
    out = [(job.argv, ["-m", "solitonlab.cli", *job.argv.split(), "--out", OUT])
           for job in cli_jobs.jobs()]
    out += [(f"demos/{demo.name}", [str(tree / "demos" / demo.name)])
            for demo in sorted((ROOT / "demos").glob("*.py"))]
    return out


def run(ws: Workspace, tree: Path, argv: list[str]) -> dict:
    """Exit code, stdout, stderr and report bytes of one job; paths into the
    tree read ``<tree>``, so the trees compare."""
    out = ws.dir / OUT
    out.unlink(missing_ok=True)
    proc = ws.run([sys.executable, *argv], ws.dir, PYTHONPATH=str(tree / "src"))
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
    parser.add_argument("rev", nargs="?", default="HEAD", help="the git revision to compare with")
    rev = parser.parse_args(argv).rev
    sys.path.insert(0, str(ROOT / "src"))  # for the job catalogue
    from cli_jobs import SAMPLES_FILES
    with Workspace("revdiff") as ws:
        base = ws.extract(rev)
        for top in ("src", "tests", "tools"):
            print(f"{top}/ lines, total / code only: {rev} -> working tree (difference)")
            print("\n".join(table(ROOT / top, base / top)), flush=True)
        for tree, name in ((base, "rev.npz"), (ROOT, "tree.npz")):
            ws.run([sys.executable, "-c", DUMP, name], ws.dir, fail=2,
                   PYTHONPATH=f"{tree / 'src'}:{ROOT / 'tools'}:{ROOT / 'tests'}")
        with np.load(ws.dir / "rev.npz") as old, np.load(ws.dir / "tree.npz") as new:
            names = sorted(set(old.files) | set(new.files))
            arrays = [name for name in names if name not in old.files or name not in new.files
                      or not np.array_equal(old[name].view(np.int64), new[name].view(np.int64))]
        for name in arrays:
            print(f"DIFFERS  {name}")
        print(f"{len(arrays)} of {len(names)} FD arrays differ from {rev}", flush=True)
        for name, rows in SAMPLES_FILES.items():
            (ws.dir / name).write_text(json.dumps(rows))
        differing = 0
        pairs = list(zip(jobs(base), jobs(ROOT)))
        for (name, old_argv), (_, new_argv) in pairs:
            old, new = run(ws, base, old_argv), run(ws, ROOT, new_argv)
            fields = [key for key in old if old[key] != new[key]]
            if fields:
                differing += 1
                detail = (report_detail(old["--out bytes"], new["--out bytes"])
                          if "--out bytes" in fields else "")
                print(f"DIFFERS  {name}: {', '.join(fields)} "
                      f"(exit {old['exit code']} -> {new['exit code']}){detail}", flush=True)
    print(f"{differing} of {len(pairs)} jobs differ from {rev}")
    return 1 if arrays or differing else 0


if __name__ == "__main__":
    sys.exit(main())
