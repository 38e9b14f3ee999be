"""Run one workload in this process and print its result as a JSON line.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                            --t0-ns T [--setup-only] [--tiny]

``--t0-ns`` is the CLOCK_MONOTONIC time at which the parent started this
process; set-up time runs from it until the first job is ready (imports,
inputs, one warm-up call).  A run does a fixed number of rounds, sized from
``--seconds`` and the workload's round time at this commit, so a faster
program shows as shorter times for the same work.  Every round times each
job, or each phase of a job that times its own; the end-to-end timings are
built from the fastest of those samples (see `Stats.job_times`).

With ``--trace 0`` the line carries the end-to-end metrics.  With
``--trace 1`` every job (on ``oracle_bulk`` every round) runs twice, untraced
and traced, and the line carries per-layer metrics from the traced spans
plus the tracing overhead (traced minus untraced job time); the spans are
written to ``.bench_out/<workload>.spans.csv``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


@dataclass
class Stats:
    wall_s: float = 0.0
    latencies: dict = field(default_factory=dict)  # job name -> [seconds]
    rates: dict = field(default_factory=dict)      # (job, phase) -> [s per unit]
    units: dict = field(default_factory=dict)      # (job, phase) -> units per run
    nodes: int = 0
    max_rel_dev: float = 0.0
    attempted: int = 0
    failures: dict = field(default_factory=dict)   # job name -> [count, reason]

    @property
    def failed(self) -> int:
        return sum(count for count, _ in self.failures.values())

    @property
    def busy_s(self) -> float:
        return sum(sum(v) for v in self.latencies.values())

    def add_sample(self, job: str, phase: str, seconds: float, units: int) -> None:
        self.rates.setdefault((job, phase), []).append(seconds / units)

    def job_times(self) -> dict:
        """Job name -> its time per run: the sum over its phases of units
        per run times the phase's fastest time per unit in the run.

        The sandbox's cores switch between a fast state and one about 1.5x
        slower, each lasting from seconds to half a minute (other tenants
        share the host).  That noise only ever adds time, so the fastest of
        many short samples spread over the run reads the program's own cost
        whenever the run sees the fast state at all; a median or quartile
        moves with the share of the run the slow state takes."""
        out = defaultdict(float)
        for (job, phase), rates in self.rates.items():
            out[job] += self.units[job, phase] * min(rates)
        return dict(out)

    def run_job(self, wl, index: int, tracer=None) -> None:
        """Run one job, time it and gate its outcome.  With a tracer the
        program is wrapped for this job only."""
        from workloads import JobResult
        name, job = wl.jobs[index]
        wl.tracer = tracer
        with tracer.installed() if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                res = job() if tracer is None else tracer.span("bench.job", job)
            except Exception as exc:   # an escaping exception fails the job
                res = JobResult(f"traceback {type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - t0
        wl.tracer = None
        self.record(name, res, elapsed)

    def record(self, name: str, res, elapsed: float) -> None:
        """Count a finished job.  A job that timed its own phases
        (``res.timings``) is sampled per phase, any other as a whole."""
        self.latencies.setdefault(name, []).append(elapsed)
        per_run = defaultdict(int)
        for phase, seconds, units in res.timings or [("job", elapsed, 1)]:
            self.add_sample(name, phase, seconds, units)
            per_run[phase] += units
        for phase, units in per_run.items():
            self.units.setdefault((name, phase), units)
        self.attempted += 1
        self.nodes += res.nodes
        if res.max_rel_dev is not None:
            self.max_rel_dev = max(self.max_rel_dev, res.max_rel_dev)
        if res.failure is not None:
            self.failures.setdefault(name, [0, res.failure])[0] += 1


def failed_frac(stats) -> float:
    return sum(st.failed for st in stats) / sum(st.attempted for st in stats)


def run_rounds(wl, rounds: int, tracer=None) -> tuple[Stats, Stats]:
    """Run ``rounds`` rounds of the workload's jobs (`Workload.run_round`);
    with a tracer, each round's work runs both untraced and traced.
    Returns the (untraced, traced) stats."""
    untraced, traced = Stats(), Stats()
    t_start = time.perf_counter()
    for r in range(rounds):
        wl.run_round(r, wl.round_order(r), untraced, traced, tracer)
    untraced.wall_s = time.perf_counter() - t_start
    return untraced, traced


def end_to_end_metrics(st: Stats, setup_s: float, rounds: int) -> dict:
    """Timings come from `Stats.job_times`: ``wall_s`` is the time of one
    round (every job once), the rates are per that time, and the
    percentiles are taken across the workload's jobs."""
    per_job = sorted(st.job_times().values())
    wall = sum(per_job)
    p50 = 1e3 * statistics.median(per_job)
    p90 = 1e3 * statistics.quantiles(per_job, n=10, method="inclusive")[8]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "jobs_per_s": (len(per_job) / wall, "1/s"),
        "nodes_per_s": (st.nodes / rounds / wall, "1/s"),
        "job_ms_p50": (p50, "ms"),
        "job_ms_p90": (p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "max_rel_dev": (st.max_rel_dev, "ratio"),
    }


def layer_metrics(tracer, untraced: Stats, traced: Stats, rounds: int,
                  is_cli: bool) -> dict:
    """Per-layer numbers from the traced rounds' spans.  Times are
    inclusive of the call's children unless named self_ms; a layer the
    workload does not call reads 0."""
    own = tracer.self_ns()
    dur = defaultdict(int)
    info = defaultdict(int)
    calls = defaultdict(int)
    by_command = defaultdict(list)
    module_self = defaultdict(int)
    families_setup = 0
    for sid, _, job, name, t0, t1, extra in tracer.spans:
        module = name.split(".")[0]
        if job == "setup":
            if module == "families":
                families_setup += own[sid]
            continue
        if name != "fdgrid.MetricGrid":   # re-validation only the traced run does
            module_self[module] += own[sid]
        dur[name] += t1 - t0
        calls[name] += 1
        if name == "cli.main":
            by_command[extra].append(t1 - t0)
        elif extra is not None:
            info[name] += extra

    def mean(name, scale):
        return dur[name] / calls[name] / scale if calls[name] else 0.0

    def per_item_us(name):
        return dur[name] / info[name] / 1e3 if info[name] else 0.0

    def per_round(value):
        return value / rounds

    ricci = per_item_us("fdgrid.fd_ricci_block")
    codazzi = per_item_us("fdgrid.fd_codazzi_block")
    emits = calls["report.canonical_json"] + calls["report.canonical_csv"]
    out = {f"{m}.self_ms": (per_round(module_self[m]) / 1e6, "ms/round")
           for m in tracing.MODULES}
    out.update({
        "fdgrid.build_ms": (mean("fdgrid.grid_from_family", 1e6), "ms"),
        "fdgrid.validate_ms": (mean("fdgrid.MetricGrid", 1e6), "ms"),
        "fdgrid.grid_mb": (info["fdgrid.grid_from_family"] / 1e6
                           / max(1, calls["fdgrid.grid_from_family"]), "MB_computed"),
        "fdgrid.ricci_us_per_node": (ricci, "us"),
        "fdgrid.nodes": (per_round(info["fdgrid.fd_ricci_block"]
                                   + info["fdgrid.fd_codazzi_block"]
                                   + info["fdgrid.fd_curvature"]), "count/round"),
        "fdgrid.codazzi_us_per_node": (codazzi, "us"),
        "fdgrid.codazzi_over_ricci": (codazzi / ricci if ricci else 0.0, "ratio"),
        "fdgrid.bundle_ms": (mean("fdgrid.fd_curvature", 1e6), "ms"),
        "frames.eigen_us_per_call": (mean("frames.sym_eigen", 1e3), "us"),
        "frames.eigen_calls": (per_round(calls["frames.sym_eigen"]), "count/round"),
        "curvature.eigenvalues_us_per_call": (mean("curvature.family_eigenvalues", 1e3), "us"),
        "curvature.weyl_sq_us_per_call": (mean("curvature.family_weyl_sq", 1e3), "us"),
        "families.setup_ms": (families_setup / 1e6, "ms"),
        "verify.codazzi_us_per_sample": (per_item_us("verify.codazzi_residual_closed"), "us"),
        "verify.soliton_us_per_sample": (per_item_us("verify.soliton_residual"), "us"),
        "verify.hamilton_us_per_sample": (per_item_us("verify.hamilton_check"), "us"),
        "reduced.rk4_us_per_step": (per_item_us("reduced.integrate"), "us"),
        "reduced.steps": (per_round(info["reduced.integrate"]), "count/round"),
        "reduced.identity_us_per_state": (mean("reduced.reduced_identity_residuals", 1e3), "us"),
        "classify.sample_us_per_sample": (per_item_us("classify.sample_family"), "us"),
        "classify.classify_us_per_sample": (per_item_us("classify.classify"), "us"),
        "report.emit_us": ((dur["report.canonical_json"] + dur["report.canonical_csv"])
                           / 1e3 / emits if emits else 0.0, "us"),
        "report.bytes": ((info["report.canonical_json"] + info["report.canonical_csv"])
                         / emits if emits else 0.0, "bytes"),
        "cli.failed": (per_round(traced.failed) if is_cli else 0.0, "count/round"),
        "failed_frac": (failed_frac([untraced, traced]), "ratio"),
        "trace.overhead_s": (traced.busy_s - dur["fdgrid.MetricGrid"] / 1e9
                             - untraced.busy_s, "s"),
    })
    for command in ("verify", "oracle", "classify", "integrate"):
        spans = by_command.get(command, [])
        out[f"cli.{command}_ms"] = (sum(spans) / len(spans) / 1e6 if spans else 0.0, "ms")
    return out


def machine_info() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--t0-ns", type=int, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import solitonlab
    if not Path(solitonlab.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"solitonlab imported from {solitonlab.__file__}, not {ROOT / 'src'}")
    import workloads

    tmpdir = OUT_DIR / args.workload
    tmpdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    with tracer.installed() if tracer else contextlib.nullcontext():
        wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, tmpdir)
        wl.tracer = tracer
        wl.warm_up()
        wl.tracer = None
    setup_s = (time.monotonic_ns() - args.t0_ns) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    per_round_s = wl.nominal_round_s * (2 if args.trace else 1)
    rounds = 1 if args.tiny else max(1, round(args.seconds / per_round_s))
    untraced, traced = run_rounds(wl, rounds, tracer)
    stats = [untraced]
    if tracer:
        stats.append(traced)
        metrics = layer_metrics(tracer, untraced, traced, rounds,
                                is_cli=wl.name == "cli_defaults")
        tracer.write(OUT_DIR / f"{args.workload}.spans.csv")
    else:
        metrics = end_to_end_metrics(untraced, setup_s, rounds)
    failures = {}
    for st in stats:
        for name, (count, reason) in st.failures.items():
            failures.setdefault(name, [0, reason])[0] += count
    for value, _ in metrics.values():
        if not math.isfinite(value):
            raise ValueError(f"non-finite metric in {metrics}")
    print(json.dumps({
        "setup_s": setup_s,
        "correct": set(failures) <= workloads.KNOWN_DEFECTS,
        "attempted": sum(st.attempted for st in stats),
        "failed": sum(st.failed for st in stats),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": failures,
        "meta": {"workload": args.workload, "seed": args.seed, "rounds": rounds,
                 "jobs_per_round": len(wl.jobs),
                 "jobs_timed": untraced.attempted,
                 "wall_s_measured": untraced.wall_s,
                 "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
                 **machine_info()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
