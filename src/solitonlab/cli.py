"""Batch command-line interface: reproducible verification, integration,
oracle cross-check and classification jobs with JSON/CSV reports.

    solitonlab verify    --family singular-steady --s 0.5:2.0 --samples 64
    solitonlab integrate --family singular-steady --from 1 --to 2 --step 1e-3
    solitonlab oracle    --family product --lam -1 --nodes 65
    solitonlab classify  --family cylinder --lam 2
    solitonlab job jobfile.json
    solitonlab report --in report.json --format csv

Exit codes: 0 all residuals below their thresholds, 1 threshold breach
(report still written), 2 usage or domain error (one message line on
stderr, no report).  Reports are byte-identical across runs of the same job.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .classify import ClassifySample, LABEL_UNKNOWN, classify, sample_family
from .curvature import family_eigenvalues
from .errors import UnsupportedFamilyError
from .families import (MetricFamily, broken_family, canonical_soliton_for,
                       cylinder_family, flat_family, gaussian_family,
                       product_family, singular_steady_family, sphere_family)
from .fdgrid import fd_ricci_block, grid_from_family
from .frames import sym_eigen
from .reduced import (branch_label, dw_rhs, integrate, product_state,
                      reduced_identity_residuals, singular_steady_state,
                      trajectory_to_csv)
from .report import canonical_csv, canonical_json
from .verify import codazzi_residual_closed, hamilton_check, soliton_residual


class UsageError(Exception):
    pass


_FAMILY_BUILDERS = {
    "singular-steady": lambda lam: singular_steady_family(),
    "product": lambda lam: product_family(-1.0 if lam is None else lam),
    "gaussian": lambda lam: gaussian_family(1.0 if lam is None else lam),
    "cylinder": lambda lam: cylinder_family(2.0 if lam is None else lam),
    "sphere": lambda lam: sphere_family(),
    "flat": lambda lam: flat_family(),
    "broken-product": lambda lam: broken_family(),
}


def _build_family(name: str, lam) -> MetricFamily:
    if name not in _FAMILY_BUILDERS:
        raise UsageError(f"unknown family {name!r}; choose from "
                         f"{sorted(_FAMILY_BUILDERS)}")
    return _FAMILY_BUILDERS[name](lam)


def _read_json(path: str, what: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read {what} {path!r}: {exc}") from exc


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(x) for x in text.split(":"))
    except ValueError as exc:
        raise UsageError(f"range must look like 0.5:2.0, got {text!r}") from exc
    if not lo < hi:
        raise UsageError(f"empty range {text!r}")
    return lo, hi


def _samples(fam: MetricFamily, s_range, count: int) -> np.ndarray:
    lo, hi = s_range
    lo = max(lo, fam.domain[0] + 1e-6)
    hi = min(hi, fam.domain[1] - 1e-6)
    if not lo < hi:
        raise UsageError(f"sample range {s_range} misses the family domain")
    if count < 3:
        raise UsageError("need at least 3 samples")
    return np.linspace(lo, hi, count)


# ---------------------------------------------------------------------------
# command implementations: each returns (report dict, passed, csv override)

def _cmd_verify(args) -> tuple[dict, bool, None]:
    fam = _build_family(args.family, args.lam)
    samples = _samples(fam, args.s, args.samples)
    tol = args.tol if args.tol is not None else 1e-9
    checks: dict = {}
    breaches = []
    cod = codazzi_residual_closed(fam, samples)
    checks["codazzi"] = cod.as_dict()
    breaches.append(cod.max_abs > tol)
    try:
        sol = canonical_soliton_for(fam)
    except UnsupportedFamilyError:
        checks["soliton"] = {"skipped": "family has no canonical potential"}
        checks["hamilton"] = {"skipped": "family has no canonical potential"}
    else:
        srep = soliton_residual(fam, sol, samples)
        hrep = hamilton_check(fam, sol, samples)
        checks["soliton"] = srep.as_dict()
        checks["hamilton"] = hrep.as_dict()
        breaches += [srep.max_abs > tol, hrep.max_abs > tol]
    passed = not any(breaches)
    report = {
        "job": {"command": "verify", "family": args.family,
                "s_range": list(args.s), "samples": args.samples},
        "thresholds": {"residual_tol": tol},
        "checks": checks,
        "pass": passed,
    }
    return report, passed, None


_REDUCED_STATES = {
    "singular-steady": lambda lam, s: singular_steady_state(s),
    "product": lambda lam, s: product_state(s, -1.0 if lam is None else lam),
}


def _cmd_integrate(args) -> tuple[dict, bool, str | None]:
    if args.family not in _REDUCED_STATES:
        raise UsageError("integrate supports the families with reduced data: "
                         f"{sorted(_REDUCED_STATES)}")
    tol = args.tol if args.tol is not None else 1e-10
    st0 = _REDUCED_STATES[args.family](args.lam, getattr(args, "from"))
    traj = integrate(st0, args.to, args.step)
    worst = 0.0
    for st in traj.states:
        res = reduced_identity_residuals(st, dw_rhs(st).ap)
        worst = max(worst, max(abs(v) for v in res.values()))
    end = traj.final
    passed = (worst <= tol) and not traj.truncated
    report = {
        "job": {"command": "integrate", "family": args.family,
                "from": getattr(args, "from"), "to": args.to, "step": args.step},
        "thresholds": {"identity_tol": tol},
        "truncated": traj.truncated,
        "reason": traj.reason,
        "branch": list(branch_label(traj)),
        "steps": len(traj.states) - 1,
        "endpoint": {"s": end.s, "a": end.a, "b": end.b, "fp": end.fp, "h": end.h},
        "max_identity_residual": worst,
        "pass": passed,
    }
    csv_text = trajectory_to_csv(traj) if args.format == "csv" else None
    return report, passed, csv_text


def _cmd_oracle(args) -> tuple[dict, bool, None]:
    fam = _build_family(args.family, args.lam)
    tol = args.tol if args.tol is not None else 1e-6
    lo, hi = args.s
    n_s = args.nodes
    h = (hi - lo) / (n_s - 1)
    grid = grid_from_family(fam, (lo, hi), n_s, r_range=(1.0 - 4 * h, 1.0 + 4 * h),
                            n_r=9)
    sh = grid.shape
    mid = tuple(n // 2 for n in sh)
    nodes = np.array([(i, mid[1], mid[2], mid[3]) for i in range(4, sh[0] - 4)])
    blk = fd_ricci_block(grid, nodes)
    worst = 0.0
    worst_s = float(grid.axes[0][nodes[0][0]])
    for j, node in enumerate(nodes):
        s = float(grid.axes[0][node[0]])
        cf = np.array(family_eigenvalues(fam, s))
        eigs = np.array([w for w, _ in sym_eigen(blk["ric"][j], blk["g"][j])])
        scale = max(1.0, abs(cf[4]), float(np.max(np.abs(cf[:4]))))
        dev = max(float(np.max(np.abs(eigs - np.sort(cf[:4])[::-1]))),
                  abs(float(blk["scalar"][j]) - cf[4])) / scale
        if dev > worst:
            worst, worst_s = dev, s
    passed = bool(worst <= tol)
    report = {
        "job": {"command": "oracle", "family": args.family,
                "s_range": list(args.s), "nodes": n_s},
        "thresholds": {"agreement_tol": tol},
        "max_relative_deviation": worst,
        "worst_s": worst_s,
        "interior_nodes_checked": int(len(nodes)),
        "pass": passed,
    }
    return report, passed, None


def _cmd_classify(args) -> tuple[dict, bool, None]:
    tol = args.tol if args.tol is not None else 1e-8
    if args.samples_file:
        raw = _read_json(args.samples_file, "samples file")
        try:
            samples = [ClassifySample(row["s"], tuple(row["eigenvalues"]),
                                      row["fprime"], row["scalar"], row["weyl_sq"])
                       for row in raw]
        except (KeyError, TypeError) as exc:
            raise UsageError("samples file must be a list of objects with keys s, "
                             f"eigenvalues, fprime, scalar, weyl_sq: {exc!r}") from exc
        job_src = {"samples_file": args.samples_file}
    else:
        fam = _build_family(args.family, args.lam)
        try:
            sol = canonical_soliton_for(fam)
        except UnsupportedFamilyError as exc:
            raise UsageError(f"family {args.family!r} has no canonical potential; "
                             "supply --samples-file") from exc
        samples = sample_family(fam, sol, _samples(fam, args.s, args.samples))
        job_src = {"family": args.family, "s_range": list(args.s),
                   "samples": args.samples}
    verdict = classify(samples, tol)
    passed = verdict.label != LABEL_UNKNOWN
    report = {
        "job": {"command": "classify", **job_src},
        "thresholds": {"tol": tol},
        "verdict": verdict.as_dict(),
        "pass": passed,
    }
    return report, passed, None


def _cmd_report(args) -> tuple[dict, bool, None]:
    data = _read_json(getattr(args, "in"), "report")
    if not isinstance(data, dict):
        raise UsageError("a report must be a JSON object")
    return data, bool(data.get("pass", True)), None


def _dispatch(args) -> int:
    report, passed, csv_text = args.handler(args)
    if args.format == "csv":
        text = csv_text if csv_text is not None else canonical_csv(report)
    else:
        text = canonical_json(report)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


def _add_common(sp, with_range=True):
    sp.add_argument("--family", required=False, default=None)
    sp.add_argument("--lam", type=float, default=None,
                    help="soliton constant for the parametric families")
    if with_range:
        sp.add_argument("--s", type=_parse_range, default=(0.5, 2.0),
                        metavar="LO:HI")
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--out", default=None, metavar="PATH")
    sp.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solitonlab",
        description="verification and exploration jobs for structured "
                    "4-d gradient Ricci solitons")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="soliton / Codazzi / conservation residuals")
    _add_common(p)
    p.add_argument("--samples", type=int, default=64)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("integrate", help="integrate the reduced system")
    _add_common(p, with_range=False)
    p.add_argument("--from", type=float, default=1.0)
    p.add_argument("--to", type=float, default=2.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.set_defaults(handler=_cmd_integrate)

    p = sub.add_parser("oracle", help="finite-difference cross-check of closed forms")
    _add_common(p)
    p.add_argument("--nodes", type=int, default=129,
                   help="s-axis resolution; the 1e-6 agreement default is "
                        "calibrated at 129")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("classify", help="match sampled data to the four types")
    _add_common(p)
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--samples-file", default=None)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("report", help="re-emit an existing JSON report")
    p.add_argument("--in", required=True, metavar="PATH")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=_cmd_report)

    p = sub.add_parser("job", help="run a JSON job file")
    p.add_argument("jobfile")
    p.set_defaults(handler=None)
    return parser


_JOB_KEYS = ("family", "lam", "s", "tol", "out", "format", "samples",
             "from", "to", "step", "nodes", "samples_file", "in")


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
            val = f"{val[0]}:{val[1]}"
        argv += [f"--{flag}", str(val)]
    return parser.parse_args(argv)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "job":
            args = _args_from_job(parser, args.jobfile)
        if args.command != "report" and not getattr(args, "samples_file", None) \
                and args.family is None:
            raise UsageError("--family is required")
        return _dispatch(args)
    except (UsageError, ValueError) as exc:  # ValueError covers DomainError
        print(f"solitonlab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
