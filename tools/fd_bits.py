"""Compare the bits of the FD oracle's outputs at a git revision with the
working tree's.

    python3 tools/fd_bits.py [REV]

REV (HEAD when not given) is extracted with ``git archive``.  A fresh Python
process per tree then dumps, with that tree's ``solitonlab``:

* on the 14 grids of the benchmark's Codazzi probe, the 7 canonical
  families on narrow grids of 129 and 257 s-nodes: ``fd_ricci_block`` and
  ``fd_codazzi_block`` on the s-line, and every field of ``fd_curvature`` at
  the middle node;
* ``fd_ricci_block`` on all interior nodes of the 129-node grids of the 5
  acceptance families, as the benchmark's full-grid oracle runs it;
* the same three calls on the 3 dense random grids of ``tests/test_fdgrid.py``
  (smooth metrics with every entry nonzero), on all their interior nodes;
  the bundle at the middle node of the two grids with 9 nodes or more on
  every axis (the Codazzi margin needs them).

The dumps are compared as int64 views of their float64 values, so that the
sign of zero counts.  It prints the name of every array that differs (in
bits or shape, or that one tree lacks) and the count compared.  The exit
code is 1 if any array differs, 2 if REV cannot be extracted or a tree's
dump fails, else 0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from gitrev import extract

ROOT = Path(__file__).resolve().parent.parent
ACCEPTANCE_FAMILIES = ("sphere", "product", "singular_steady", "gaussian", "cylinder")
BUNDLE_FIELDS = ("g", "christoffel", "riem", "ric", "scalar", "weyl", "codazzi_residual")
# (shape, seed) of the dense random grids of tests/test_fdgrid.py
RANDOM_GRIDS = (((11, 10, 9, 9), 0), ((9, 9, 8, 8), 1), ((12, 11, 10, 10), 2))


def random_grid(shape, seed, spacing=0.1):
    """The dense grid of g = I + 0.05 sum_k (A_k + A_k^T) sin(k . x + phi_k),
    three random waves, as ``smooth_random_grid`` of the tests builds it."""
    from solitonlab.fdgrid import MetricGrid
    rng = np.random.default_rng(seed)
    axes = tuple(np.arange(n) * spacing for n in shape)
    x = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    g = np.tile(np.eye(4), shape + (1, 1))
    for _ in range(3):
        a = rng.standard_normal((4, 4))
        wave = np.sin(x @ rng.uniform(-1.5, 1.5, 4) + rng.uniform(0.0, 2.0 * np.pi))
        g += 0.05 * (a + a.T) * wave[..., None, None]
    return MetricGrid(axes, g)


def dump() -> dict[str, np.ndarray]:
    """Every array named in the module docstring, by name."""
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
        grid = random_grid(shape, seed)
        calls(f"random seed {seed}", grid, grid.interior_nodes(margin=2),
              grid.interior_nodes(), tuple(k // 2 for k in shape))
    return out


def dump_tree(src: Path, path: Path) -> bool:
    """Run `dump` in a fresh process on the ``solitonlab`` of ``src`` into
    the .npz file ``path``; False, after a message, if it fails."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, __file__, "--dump", str(path)], env=env)
    if proc.returncode != 0:
        print(f"fd_bits: the dump of {src} failed", file=sys.stderr)
    return proc.returncode == 0


def bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", default="HEAD", help="the git revision to compare with")
    parser.add_argument("--dump", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump is not None:  # a child process: write this tree's arrays
        np.savez(args.dump, **dump())
        return 0
    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory(prefix="fd_bits_") as tmp:
        tmp = Path(tmp)
        if not (extract("fd_bits", args.rev, tmp, "src")
                and dump_tree(tmp / "src", tmp / "rev.npz")
                and dump_tree(ROOT / "src", tmp / "tree.npz")):
            return 2
        with np.load(tmp / "rev.npz") as old, np.load(tmp / "tree.npz") as new:
            names = sorted(set(old.files) | set(new.files))
            differing = [name for name in names
                         if name not in old.files or name not in new.files
                         or old[name].shape != new[name].shape
                         or not np.array_equal(bits(old[name]), bits(new[name]))]
    for name in differing:
        print(f"DIFFERS  {name}")
    print(f"{len(differing)} of {len(names)} FD arrays differ from {args.rev}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
