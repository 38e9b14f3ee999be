"""Batch command-line interface: reproducible verification, integration,
oracle cross-check and classification jobs with JSON/CSV reports.

    solitonlab verify    --family singular-steady --s 0.5:2.0 --samples 64
    solitonlab integrate --family singular-steady --from 1 --to 2 --step 1e-3
    solitonlab oracle    --family product --lam -1 --nodes 65
    solitonlab classify  --family cylinder --lam 2
    solitonlab job jobfile.json
    solitonlab report --in report.json --format csv

Every verdict follows one scale rule (`solitonlab.report`): a residual r of
length dimension d passes at a point when |r| <= tol * sigma^(d/2), where
sigma (length^-2) is the local scale there, so no verdict depends on the
unit of length.  0/0 counts as 0, a nonzero residual over sigma = 0 fails,
and a residual or sigma that is not finite is a domain error.  ``--tol`` is
tol, a positive finite number for every command (the parser refuses any
other value), recorded once in the report's ``job`` block.  Each check
reports an evidence entry: ``max_abs`` (the largest |r|), ``worst_point``
(the s where it peaks), ``ratio`` (the largest |r| / sigma^(d/2), which
decides) and, where the check has several residuals, ``per_equation`` (the
largest |r| of each).

* ``verify``: sigma is the largest of zeta_i^2 and the |sectional
  curvatures| at the sample, and in the checks that take a soliton also of
  the |terms| of that identity: |f''|, |zeta_i f'| and |lambda| for the
  Hessian entries (d = 2), |lambda_1 f'|^(2/3) for ``scalar_slope`` (d = 3),
  and f'^2 and |2 lambda f| for ``conserved_deviation`` (d = 2), judged
  against the largest sigma of the samples.  d is 3 for the Codazzi
  components.
* ``integrate``: sigma is the largest of a^2, b^2, f'^2, |lambda| and
  |k/h^2| at the state.  d is 2 for ``linear`` and ``second_order``, 3 for
  ``quadratic`` and ``cubic_slope`` and 5 for ``branch_cubic``; the branch
  factors b, lambda + 3ab and lambda - 2a^2 + ab (d = 1, 2, 2) name the
  ``branch``.  A pass certifies the identities along the computed
  trajectory, not the accuracy of its endpoint.
* ``oracle``: ``max_relative_deviation`` is relative to max(1, |R|,
  max |lambda_i|) of the closed form already.
* ``classify``: each test's evidence is judged against the sample set's own
  scales (`solitonlab.classify`), beside the verdict's
  ``pair_signature_fraction``; a run passes when a type is found.

Exit codes: 0 pass, 1 a check fails (report still written), 2 usage or
domain error (one message line on stderr, no report), the parser's own
usage errors and a --samples or --nodes above `MAX_SAMPLES` or `MAX_NODES`
included.  Reports are byte-identical across runs of the same job.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from .classify import LABEL_UNKNOWN, SAMPLE, classify, sample_family
from .families import (BOUNDARY_MARGIN, CANONICAL_FAMILIES, PARAMETRIC_FAMILIES, MetricFamily,
                       canonical_family)
from .fdgrid import MARGIN_CODAZZI, grid_from_family
from .reduced import branch_label, integrate
from .report import canonical_csv, canonical_json, weigh
from .verify import (codazzi_residual_closed, hamilton_check, oracle_deviation,
                     soliton_residual)


class UsageError(Exception):
    pass


# the largest --samples (verify, classify) and --nodes (oracle): at about
# 0.43 KB a verify sample, 0.32 KB a classify sample and up to 4.3 KB an
# oracle node, each keeps a run's peak memory under about 0.5 GB, near that
# of a MAX_STEPS integrate run (ru_maxrss 376 MB as JSON, 389 MB as CSV)
MAX_SAMPLES = 10**6
MAX_NODES = 10**5

_CLI_FAMILIES = {name.replace("_", "-"): name for name in CANONICAL_FAMILIES}
# the families whose record has a reduced start; integrate checks this
# before it builds the family
_REDUCED_FAMILIES = sorted(cli for cli, name in _CLI_FAMILIES.items()
                           if canonical_family(name).reduced is not None)
# the families whose soliton constant --lam sets
_LAM_FAMILIES = sorted(cli for cli, name in _CLI_FAMILIES.items() if name in PARAMETRIC_FAMILIES)


def _build_family(name: str, lam) -> MetricFamily:
    if name not in _CLI_FAMILIES:
        raise UsageError(f"unknown family {name!r}; choose from "
                         f"{sorted(_CLI_FAMILIES)}")
    return canonical_family(_CLI_FAMILIES[name], lam)


def _check_lam(args) -> None:
    """Refuse a --lam that nothing would read: next to --samples-file, or
    on a family without a soliton constant.  An unknown family is left to
    `_build_family`."""
    if getattr(args, "samples_file", None):
        raise UsageError("--lam does not apply to --samples-file")
    if args.family in _CLI_FAMILIES and args.family not in _LAM_FAMILIES:
        raise UsageError(f"family {args.family!r} has no soliton constant; --lam applies "
                         f"to {_LAM_FAMILIES}")


def _job(args, **fields) -> dict:
    """The job block of a report: the command, ``fields``, the tolerance,
    and the --lam when one is given."""
    return {"command": args.command, **fields, "tol": args.tol,
            **({} if args.lam is None else {"lam": args.lam})}


def _read_json(path: str, what: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read {what} {path!r}: {exc}") from exc


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise UsageError(f"expected a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise UsageError(f"expected a finite number, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    """--tol, of every command and job file: a positive finite number."""
    if not _finite_float(text) > 0.0:
        raise UsageError(f"--tol must be positive, got {text!r}")
    return float(text)


def _shown(x: float) -> str:
    """x as %g where that reads back as x, else as its repr, so that a
    message shows the number that was given."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


def _parse_range(text: str) -> tuple[float, float]:
    ends = text.split(":")
    if len(ends) != 2:
        raise UsageError(f"range must look like 0.5:2.0, got {text!r}")
    lo, hi = map(_finite_float, ends)
    if not lo < hi:
        raise UsageError(f"empty range {text!r}")
    if not math.isfinite(hi - lo):
        raise UsageError(f"range {text!r} is wider than the largest float")
    return lo, hi


def _samples(fam: MetricFamily, s_range, count: int) -> np.ndarray:
    lo, hi = s_range
    lo = max(lo, fam.domain[0] + BOUNDARY_MARGIN)
    hi = min(hi, fam.domain[1] - BOUNDARY_MARGIN)
    if not lo < hi:
        raise UsageError(f"sample range {s_range} misses the family domain")
    if count < 3:
        raise UsageError("need at least 3 samples")
    if count > MAX_SAMPLES:
        raise UsageError(f"--samples {count} is more than {MAX_SAMPLES}")
    return np.linspace(lo, hi, count)


def _judged(args, report: dict, evidence, holds: bool = True) -> dict:
    """``report`` with its verdict, the one place a command's ``pass`` is
    set: ``holds`` (the command's other conditions) and every `Evidence`
    of ``evidence`` within --tol."""
    report["pass"] = holds and all(ev.passes(args.tol) for ev in evidence)
    return report


# ---------------------------------------------------------------------------
# command implementations: each returns (judged report dict, csv override)


def _cmd_verify(args) -> tuple:
    fam = _build_family(args.family, args.lam)
    samples = _samples(fam, args.s, args.samples)
    reports = {"codazzi": codazzi_residual_closed(fam, samples)}
    if fam.soliton is None:
        skipped = {"skipped": "family has no canonical potential"}
        checks = {"soliton": skipped, "hamilton": skipped}
    else:
        reports["soliton"] = soliton_residual(fam, fam.soliton, samples)
        reports["hamilton"] = hamilton_check(fam, fam.soliton, samples)
        checks = {}
    checks.update((name, rep.as_dict()) for name, rep in reports.items())
    report = {
        "job": _job(args, family=args.family, s_range=list(args.s), samples=args.samples),
        "checks": checks,
    }
    return _judged(args, report, reports.values()), None


def _cmd_integrate(args) -> tuple:
    if args.family not in _REDUCED_FAMILIES:
        raise UsageError("integrate supports the families with reduced data: "
                         f"{_REDUCED_FAMILIES}")
    fam = _build_family(args.family, args.lam)
    traj = integrate(fam.reduced(getattr(args, "from")), args.to, args.step)
    identities = traj.identities.evidence()
    end = traj.final
    report = {
        "job": _job(args, family=args.family, to=args.to, step=args.step,
                    **{"from": getattr(args, "from")}),
        "truncated": traj.truncated,
        "reason": traj.reason,
        "branch": list(branch_label(traj, args.tol)),
        "steps": traj.columns.shape[1] - 1,
        "endpoint": {"s": end.s, "a": end.a, "b": end.b, "fp": end.fp, "h": end.h},
        "identities": identities.as_dict(),
    }
    csv_text = traj.identities.to_csv() if args.format == "csv" else None
    return _judged(args, report, [identities], not traj.truncated), csv_text


def _cmd_oracle(args) -> tuple:
    fam = _build_family(args.family, args.lam)
    lo, hi = args.s
    n_s = args.nodes
    if n_s > MAX_NODES:
        raise UsageError(f"--nodes {n_s} is more than {MAX_NODES}")
    h = (hi - lo) / max(1, n_s - 1)
    # the fiber's 9 r-nodes r0 +- 4h: r0 = 1, or the equator of a shorter fiber
    r0 = min(1.0, math.pi / (2.0 * math.sqrt(fam.k))) if fam.k > 0 else 1.0
    r_lo, r_hi = r0 - MARGIN_CODAZZI * h, r0 + MARGIN_CODAZZI * h
    # 4 margin nodes on each side of the checked s nodes, and the r-nodes 10h
    # away from r = 0, as `grid_from_family` tests it, and so from the fiber's
    # other pole 2 r0 where r0 is its equator: r0 >= 14h
    if n_s < 9 or r_lo < 10.0 * ((r_hi - r_lo) / 8):
        bound = "1/14" if r0 == 1.0 else (f"r0/14, where r0 = {r0:.6g} is the equator of "
                                          f"the fiber (k = {fam.k:g}, set by --lam)")
        raise UsageError(f"oracle needs --nodes >= 9 and an s-spacing h <= {bound}; --s "
                         f"{_shown(lo)}:{_shown(hi)} on --nodes {n_s} gives h = {h:.6g}")
    grid = grid_from_family(fam, (lo, hi), n_s, n_r=9, r_range=(r_lo, r_hi))
    mid = [n // 2 for n in grid.shape]
    nodes = np.array([(i, *mid[1:]) for i in range(MARGIN_CODAZZI, n_s - MARGIN_CODAZZI)])
    # the deviations are relative to their own scale already, so d = 0
    agreement = weigh(grid.axes[0][nodes[:, 0]], [oracle_deviation(fam, grid, nodes)], [0], 1.0,
                      what="oracle deviation")
    report = {
        "job": _job(args, family=args.family, s_range=list(args.s), nodes=n_s),
        "max_relative_deviation": agreement.ratio,
        "worst_s": agreement.worst_point,
        "interior_nodes_checked": int(len(nodes)),
    }
    return _judged(args, report, [agreement]), None


def _sample_row(i: int, row) -> tuple:
    """Row i of a samples file as a `SAMPLE` entry: each value a finite JSON
    number (not a bool), the eigenvalues a list of four of them."""
    values = [row[key] for key in SAMPLE.names]
    number = lambda v: type(v) in (int, float) and math.isfinite(v)
    for key, v in zip(SAMPLE.names, values):
        if not (type(v) is list and len(v) == 4 and all(map(number, v))
                if key == "eigenvalues" else number(v)):
            raise UsageError(f"samples file row {i}: {key} must be a finite number "
                             f"(eigenvalues: a list of four), got {json.dumps(v)}")
    return tuple(values)


def _cmd_classify(args) -> tuple:
    if args.samples_file:
        raw = _read_json(args.samples_file, "samples file")
        try:
            samples = np.array([_sample_row(i, row) for i, row in enumerate(raw)], SAMPLE)
        except (KeyError, TypeError) as exc:
            raise UsageError("samples file must be a list of objects with keys s, "
                             f"eigenvalues, fprime, scalar, weyl_sq: {exc!r}") from exc
        job_src = {"samples_file": args.samples_file}
    else:
        fam = _build_family(args.family, args.lam)
        if fam.soliton is None:
            raise UsageError(f"family {args.family!r} has no canonical potential; "
                             "supply --samples-file")
        samples = sample_family(fam, fam.soliton, _samples(fam, args.s, args.samples))
        job_src = {"family": args.family, "s_range": list(args.s),
                   "samples": args.samples}
    verdict = classify(samples, args.tol)
    report = {"job": _job(args, **job_src), "verdict": verdict.as_dict()}
    # the tests are judged inside `classify`; a run passes when one type holds
    return _judged(args, report, [], verdict.label != LABEL_UNKNOWN), None


def _cmd_report(args) -> tuple:
    data = _read_json(getattr(args, "in"), "report")
    if not isinstance(data, dict):
        raise UsageError("a report must be a JSON object")
    return data, None  # re-emitted with the verdict it holds


def _dispatch(args) -> int:
    report, csv_text = args.handler(args)
    if args.format == "csv":
        text = csv_text if csv_text is not None else canonical_csv(report)
    else:
        text = canonical_json(report)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:  # a directory, a missing parent, no permission
            raise UsageError(f"cannot write report {args.out!r}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return 0 if report.get("pass", True) else 1


def _add_common(sp, with_range=True):
    sp.add_argument("--family", required=False, default=None)
    sp.add_argument("--lam", type=_finite_float, default=None,
                    help="soliton constant for the parametric families")
    if with_range:
        sp.add_argument("--s", type=_parse_range, default=(0.5, 2.0),
                        metavar="LO:HI")
    sp.add_argument("--tol", type=_tolerance)
    sp.add_argument("--out", default=None, metavar="PATH")
    sp.add_argument("--format", choices=("json", "csv"), default="json")


class _Parser(argparse.ArgumentParser):
    """An argument parser that takes a word starting like a negative number
    ("-1e-3", "-1:1") for a value, as it takes "-1" and "-.5": otherwise
    ``--lam -1e-3`` fails with "expected one argument".  No option string of
    this CLI starts like a negative number.  Its usage errors raise
    `UsageError`, so they exit 2 with one line as every other does; --help
    still exits 0."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="solitonlab",
        description="verification and exploration jobs for structured "
                    "4-d gradient Ricci solitons")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="soliton / Codazzi / conservation residuals")
    _add_common(p)
    p.add_argument("--samples", type=int, default=64)
    p.set_defaults(handler=_cmd_verify, tol=1e-9)

    p = sub.add_parser("integrate", help="integrate the reduced system")
    _add_common(p, with_range=False)
    p.add_argument("--from", type=_finite_float, default=1.0)
    p.add_argument("--to", type=_finite_float, default=2.0)
    p.add_argument("--step", type=_finite_float, default=1e-3)
    p.set_defaults(handler=_cmd_integrate, tol=1e-10)

    p = sub.add_parser("oracle", help="finite-difference cross-check of closed forms")
    _add_common(p)
    p.add_argument("--nodes", type=int, default=129,
                   help=f"s-axis resolution, at most {MAX_NODES}, at least 9 and an "
                        "s-spacing of at most 1/14 (r0/14 on a fiber whose equator r0 "
                        "is below 1); the 1e-6 agreement default is calibrated at 129")
    p.set_defaults(handler=_cmd_oracle, tol=1e-6)

    p = sub.add_parser("classify", help="match sampled data to the four types")
    _add_common(p)
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--samples-file", default=None)
    p.set_defaults(handler=_cmd_classify, tol=1e-8)

    p = sub.add_parser("report", help="re-emit an existing JSON report")
    p.add_argument("--in", required=True, metavar="PATH")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=_cmd_report)

    p = sub.add_parser("job", help="run a JSON job file")
    p.add_argument("jobfile")
    p.set_defaults(handler=None)
    return parser


def _args_from_job(parser: argparse.ArgumentParser, path: str):
    spec = _read_json(path, "job file")
    if not isinstance(spec, dict) or "command" not in spec:
        raise UsageError("job file must be a JSON object with a 'command' field")
    argv = [str(spec["command"])]
    flags = {"s_range": "s", "samples_file": "samples-file", "in": "in"}
    for key, val in spec.items():
        if key == "command" or val is None:
            continue
        flag = flags.get(key, key.replace("_", "-"))
        if flag == "s" and isinstance(val, (list, tuple)):
            val = ":".join(map(str, val))  # any number of ends: _parse_range judges
        argv += [f"--{flag}", str(val)]
    return parser.parse_args(argv)


_PARSER = build_parser()  # one per process: parse_args keeps no state between calls


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if args.command == "job":
            args = _args_from_job(_PARSER, args.jobfile)
        if args.command != "report" and not getattr(args, "samples_file", None) \
                and args.family is None:
            raise UsageError("--family is required")
        if getattr(args, "lam", None) is not None:
            _check_lam(args)
        return _dispatch(args)
    except (UsageError, ValueError) as exc:  # ValueError covers DomainError
        print(f"solitonlab: error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # a finite input too large for float arithmetic
        print(f"solitonlab: error: floating-point overflow: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size argument too large to allocate
        print(f"solitonlab: error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
