"""The CLI jobs: every command line that the tests and ``tools/revdiff.py``
run to check the CLI's exit contract, each once, with the exit the contract
asks for: 0 a pass, 1 a real breach, 2 one ``solitonlab: error:`` line on
stderr and no report.

A row (`Job`) holds the argv as one string, that exit, ``classify``'s label
where the row checks one, and, for an open defect (a run that exits
otherwise today), the ROADMAP item that mends it.  `jobs` gives every row:

* `DEFAULTS`: each command at its defaults on each CLI family, as JSON and
  as CSV, at the exit its family record asks for (`default_job`);
* the sections below, each a kind of input;
* the benchmark's boundary jobs (`boundary_jobs`) that no row above holds,
  at the benchmark's exit.

`SAMPLES_FILES` are the files that the ``classify --samples-file`` rows
read, which a runner writes into its working directory first.  No row asks
for more samples or nodes than the CLI allows, unless for far more than any
machine can allocate (10^15): ``revdiff`` runs every row on the tree of
another revision too, which may not check the bound.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import NamedTuple

from solitonlab.families import CANONICAL_FAMILIES, canonical_family

COMMANDS = ("verify", "oracle", "classify", "integrate")
CLI_FAMILIES = tuple(name.replace("_", "-") for name in CANONICAL_FAMILIES)


class Job(NamedTuple):
    argv: str
    exit: int
    label: str | None = None  # classify's verdict label, where the row checks it
    item: str | None = None   # the ROADMAP item that mends an open defect


def default_job(command: str, family: str, fmt: str) -> Job:
    """``command`` at its defaults on a CLI family in a report format, at
    the exit its family record asks for: every soliton passes; the broken
    control (no soliton) fails verify's Codazzi check and gives classify no
    potential; integrate refuses a doubly-warped family without a reduced
    start, and on a warped family waits for its reduced path (item 9)."""
    argv, fam = f"{command} --family {family}{fmt}", canonical_family(family.replace("-", "_"))
    if command == "integrate" and fam.reduced is None:
        return Job(argv, 0, item="9") if fam.p is None else Job(argv, 2)
    if fam.soliton is None:
        return Job(argv, {"verify": 1, "classify": 2}.get(command, 0))
    return Job(argv, 0)


def _refused(*argvs: str) -> tuple[Job, ...]:
    return tuple(Job(argv, 2) for argv in argvs)


DEFAULTS = tuple(default_job(command, family, fmt) for command in COMMANDS
                 for family in CLI_FAMILIES for fmt in ("", " --format csv"))
# no command, family or value where one is due, an unknown one, an empty
# range, an option that nothing would read, and the parser's own errors
USAGE_ERRORS = _refused(
    "", "nosuch", "verify --bogus 1", "verify --family product --no-such-option",
    "verify --family no-such-family", "integrate --family nosuch",
    "verify --family singular-steady --s 2.0:0.5", "verify --family flat --s -1:-2",
    "verify --family product --samples x", "oracle --family product --nodes 1.5",
    "verify --family sphere --lam 5", "oracle --family singular-steady --lam 1",
    "integrate --family singular-steady --lam 1", "classify --family flat --lam 0",
    "integrate --family cylinder --lam 0", "verify --family product --tol 0",
    "integrate --family product --tol -1")
# values outside a domain: too few samples, too many steps, a soliton
# constant that overflows the arithmetic, sizes far above their bounds,
# integrate starts outside the range of a trajectory (a = 1/(3s) above 1e8),
# oracle grids too coarse for their fiber (one on a range that %g cannot tell
# apart, one on a fiber of k = 100), and --s ranges wider than the largest float
DOMAIN_ERRORS = _refused(
    "integrate --family singular-steady --from -1", "integrate --family singular-steady --step 0",
    "classify --family singular-steady --samples 4", "oracle --family singular-steady --nodes 9",
    "verify --family product --lam 0", "integrate --family product --lam 0",
    "classify --family product --lam 1e308", "integrate --family singular-steady --to 1e6",
    "integrate --family singular-steady --step 1e-300", "oracle --family product --lam=-1e308",
    "integrate --family product --lam 1e200", "verify --family gaussian --lam 1e308",
    "verify --family product --lam 1e200", "classify --family gaussian --lam 1e308",
    f"verify --family flat --samples {10**15}", f"classify --family flat --samples {10**15}",
    f"oracle --family flat --nodes {10**15}", "integrate --family singular-steady --from 1e-310",
    "integrate --family singular-steady --from 1e-120 --to 1e-120",
    "integrate --family singular-steady --from 1e-9 --to 1",
    "integrate --family singular-steady --from 1e-9 --to 1e-9",
    "oracle --family product --nodes 21", "oracle --family product --s 1e10:1.0000001e10",
    "oracle --family product --lam 100", "verify --family flat --s=-1e308:1e308",
    "classify --family flat --s=-1e308:1e308", "verify --family cylinder --s=-1.5e308:1e308",
    "oracle --family flat --s=-1e308:1e308")
NON_FINITE_NUMBERS = _refused(
    "integrate --family singular-steady --to inf", "verify --family broken-product --tol nan",
    "verify --family gaussian --lam nan", "verify --family flat --s 0.5:inf")
# one node, no node inside the margins, a grid outside the family's domain
ORACLE_GRID_ERRORS = _refused(
    "oracle --family flat --nodes 1", "oracle --family flat --s 0.5:0.52 --nodes 5",
    "oracle --family singular-steady --s=-1:1")
# fibers of curvature k > (pi/2)^2, whose window sits at the fiber's equator
SHORT_FIBERS = tuple(Job(f"oracle --family {family} --lam {lam}", 0) for family, lam in (
    ("product", "7"), ("product", "8.9"), ("product", "10"), ("product", "4"),
    ("cylinder", "16"), ("cylinder", "17.8"), ("cylinder", "30")))
# runs on exact solitons that exited otherwise once, near the sphere's poles,
# at large lambda, near s = 0 or far out along s; the open ones last
KNOWN_DEFECTS = (
    Job("verify --family sphere --s 0:4", 0), Job("verify --family sphere --s 3.0:3.1315", 0),
    Job("verify --family sphere --s 1e-5:0.5", 0),
    Job("integrate --family singular-steady --from 1 --to 1e-4", 0),
    Job("verify --family product --lam 1e4", 0), Job("verify --family gaussian --lam 1e4", 0),
    Job("verify --family singular-steady --s 1e-3:1e-2", 0),
    Job("classify --family singular-steady --s 100:1000", 0, "SingularSteady_iii"),
    # far out along s, f'^2 outgrows the curvature of the product and of the
    # flat metric; neither may read flat against it, nor overflow in it
    Job("classify --family product --lam 1e8", 0, "Product_ii"),
    Job("classify --family product --s 1e4:2e4", 0, "Product_ii"),
    Job("classify --family gaussian --lam 1e200", 0, "WarpedLCF_iv"),
    # the unstable b = 0 state of the product at lambda > 0 amplifies the
    # truncation (blowing up at step 317 on the third and fourth)
    Job("integrate --family product --lam 10", 0, item="38"),
    Job("integrate --family product --lam 1 --from 0.5 --to 4", 0, item="38"),
    Job("integrate --family product --lam 3 --from 1 --to 30 --step 0.01", 0, item="38"),
    Job("integrate --family product --lam 3 --from 1 --to 30 --step 0.01 --format csv", 0,
        item="38"),
    Job("integrate --family product --lam 2.5 --from 0.5 --to 3 --step 1e-2 --format csv", 0,
        item="38"),
    # truncation drift at a coarse step, judged against a free tol
    Job("integrate --family product --lam=-0.5 --from 2 --to 1 --step 1e-2 --format csv", 0,
        item="36"),
    # FD truncation 0.008 from the pole, judged against the free 1e-6
    Job("oracle --family sphere --s 3.0:3.14", 0, item="26 and 36"))
# the rows of the samples files: a product-like set, a pairwise-distinct
# spectrum and integer values that reach the singular steady test
SAMPLES_FILES = {
    "product_samples.json": [{"s": 0.5 + 0.25 * i, "eigenvalues": [0.0, 0.0, -1.0, -1.0],
                              "fprime": -0.5 - 0.25 * i, "scalar": -2.0, "weyl_sq": 4 / 3}
                             for i in range(8)],
    "distinct_samples.json": [{"s": 1.0 + 0.1 * i, "eigenvalues": [1.0, 0.5, 0.2, -0.1],
                               "fprime": 1.0, "scalar": 1.6, "weyl_sq": 1.0} for i in range(8)],
    "integer_samples.json": [{"s": i, "eigenvalues": [1, 0, -1, -1], "fprime": i,
                              "scalar": -1, "weyl_sq": 2} for i in range(1, 9)],
}
# the rest: a long CSV run towards s = 0, and the samples files
EDGE = (Job("integrate --family singular-steady --from 1 --to 0.01 --format csv", 0),
        Job("classify --samples-file product_samples.json", 0, "Product_ii"),
        Job("classify --samples-file distinct_samples.json", 1, "Unknown"),
        Job("classify --samples-file integer_samples.json", 1, "Unknown"))


def boundary_jobs() -> tuple[tuple[str, int], ...]:
    """(argv, exit) of each boundary job of the benchmark: ``BOUNDARY_JOBS``
    of ``bench/workloads.py``, read from its source."""
    source = (Path(__file__).resolve().parent.parent / "bench" / "workloads.py").read_text()
    return next(ast.literal_eval(node.value) for node in ast.parse(source).body
                if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "BOUNDARY_JOBS")


def jobs() -> tuple[Job, ...]:
    """Every row: `DEFAULTS`, the sections, then each boundary job that no
    row before it holds, at the benchmark's exit."""
    held = (DEFAULTS + USAGE_ERRORS + DOMAIN_ERRORS + NON_FINITE_NUMBERS + ORACLE_GRID_ERRORS
            + SHORT_FIBERS + KNOWN_DEFECTS + EDGE)
    argvs = {job.argv for job in held}
    return held + tuple(Job(argv, code) for argv, code in boundary_jobs() if argv not in argvs)
