"""Count the lines of each ``src/`` module: total, and code only.

    python3 tools/src_lines.py [REV]

Code-only lines leave out blank lines, comment-only lines and the lines of
docstrings (the leading string of a module, class or function).  With REV,
the ``src/`` tree of that git revision is extracted with ``git archive``
and its counts are printed beside the working tree's, with the difference.
The exit code is 2 if REV cannot be extracted, else 0.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tempfile
import tokenize
from pathlib import Path

from gitrev import extract

ROOT = Path(__file__).resolve().parent.parent


def line_counts(path: Path) -> tuple[int, int]:
    """(total lines, code-only lines) of one Python file."""
    text = path.read_text()
    lines = text.splitlines()
    skip = {i for i, line in enumerate(lines, start=1) if not line.strip()}
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT and not lines[tok.start[0] - 1][:tok.start[1]].strip():
            skip.add(tok.start[0])
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                skip.update(range(first.lineno, first.end_lineno + 1))
    return len(lines), len(lines) - len(skip)


def tree_counts(src: Path) -> dict[str, tuple[int, int]]:
    """``line_counts`` of every module under ``src``, by path relative to it."""
    return {str(f.relative_to(src)): line_counts(f) for f in sorted(src.rglob("*.py"))}


def table(counts: dict[str, tuple[int, int]], base=None) -> list[str]:
    """One row per module and a total row; with ``base``, the counts of REV
    before the working tree's and the difference after them."""
    old = base or {}
    names = sorted(set(counts) | set(old))
    rows = [(name, counts.get(name, (0, 0)), old.get(name, (0, 0))) for name in names]
    rows.append(("total", *(tuple(map(sum, zip(*c.values()))) or (0, 0) for c in (counts, old))))
    width = max(len(name) for name, _, _ in rows)
    out = []
    for name, (total, code), (b_total, b_code) in rows:
        line = f"{name:<{width}}"
        if base is not None:
            line += f"  {b_total:>6,} / {b_code:>5,}  ->"
        line += f"  {total:>6,} / {code:>5,}"
        if base is not None:
            line += f"  ({total - b_total:+,} / {code - b_code:+,})"
        out.append(line)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", help="a git revision to compare with")
    args = parser.parse_args(argv)
    counts = tree_counts(ROOT / "src")
    if args.rev is None:
        print("src/ lines, total / code only")
        print("\n".join(table(counts)))
        return 0
    with tempfile.TemporaryDirectory(prefix="src_lines_") as tmp:
        if not extract("src_lines", args.rev, Path(tmp), "src"):
            return 2
        base = tree_counts(Path(tmp) / "src")
    print(f"src/ lines, total / code only: {args.rev} -> working tree (difference)")
    print("\n".join(table(counts, base)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
