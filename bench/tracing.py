"""Span tracing for the benchmark's traced run.

`Tracer.install` wraps every public function of the nine solitonlab modules
and rebinds each wrapper at every name that holds the original, in the
defining module and in every module that imported it, so a call is traced at
the name its caller binds.  `Tracer.uninstall` puts the originals back.

A span is (id, parent id, job id, name, start ns, end ns, info).  ``info`` is
the work count the call did (nodes, samples, steps, bytes), taken from the
arguments or the result by `COUNTERS`, or the subcommand for ``cli.main``.
Spans stay in memory until `Tracer.write` is called at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time

import numpy as np

MODULES = ("frames", "families", "curvature", "fdgrid", "verify", "reduced",
           "classify", "report", "cli")


def _node_count(nodes) -> int:
    return len(np.atleast_2d(np.asarray(nodes)))


# work counts per call: f(args, result) -> number, or the subcommand name
COUNTERS = {
    "fdgrid.grid_from_family": lambda a, r: r.g.nbytes,
    "fdgrid.fd_ricci_block": lambda a, r: _node_count(a[1]),
    "fdgrid.fd_codazzi_block": lambda a, r: _node_count(a[1]),
    "fdgrid.fd_curvature": lambda a, r: 1,
    "verify.codazzi_residual_closed": lambda a, r: len(a[1]),
    "verify.soliton_residual": lambda a, r: len(a[2]),
    "verify.hamilton_check": lambda a, r: len(a[2]),
    "reduced.integrate": lambda a, r: len(r.states) - 1,
    "classify.sample_family": lambda a, r: len(a[2]),
    "classify.classify": lambda a, r: len(a[0]),
    "report.canonical_json": lambda a, r: len(r.encode()),
    "report.canonical_csv": lambda a, r: len(r.encode()),
    "cli.main": lambda a, r: str(a[0][0]) if a and a[0] else "",
}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.job = "setup"
        self._stack: list[int] = []
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _record(self, sid, parent, name, t0, info):
        self.spans.append((sid, parent, self.job, name, t0,
                           time.perf_counter_ns(), info))

    def span(self, name: str, fn, *args):
        """Call fn(*args) inside a span named ``name``; return its result."""
        return self._wrap(name, fn)(*args)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else 0
            tracer._stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._stack.pop()
                tracer._record(sid, parent, name, t0, None)
                raise
            tracer._stack.pop()
            tracer._record(sid, parent, name, t0,
                           counter(args, result) if counter else None)
            return result

        return traced

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"solitonlab.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        namespaces = list(mods.values()) + [importlib.import_module("solitonlab")]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ----------------------------------------------------------

    def self_ns(self) -> dict[int, int]:
        """Span id -> duration minus the durations of its direct children."""
        own = {s[0]: s[5] - s[4] for s in self.spans}
        for s in self.spans:
            if s[1] in own:
                own[s[1]] -= s[5] - s[4]
        return own

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,job,name,start_ns,end_ns,info\n")
            for s in self.spans:
                fh.write(",".join("" if v is None else str(v) for v in s) + "\n")
