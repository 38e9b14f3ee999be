"""Run a git revision of this repository beside the working tree.

`Workspace` owns that lifecycle for the tools in ``tools/``: it extracts the
revision once into a temporary directory, runs each child in a fresh process
in its own session, and removes the directory when it closes.  On SIGTERM or
SIGINT it ends every process of those sessions (their children included),
removes the directory and exits with code 128 + the signal's number.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# every child runs with BLAS on one thread and a fixed hash seed, so that the
# runs of two trees compare
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}


def git(*args: str) -> bytes:
    """The stdout of ``git args`` in this repository; raises
    `subprocess.CalledProcessError` if git fails."""
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          check=True).stdout


class Workspace(contextlib.AbstractContextManager):
    """A temporary directory ``<tool>_*`` and the children run beside it, to
    be used as a context manager; it handles SIGTERM and SIGINT from its
    creation until it closes."""

    def __init__(self, tool: str):
        self.tool = tool
        self.sessions: set[int] = set()  # the process group of each running child
        self.dir = Path(tempfile.mkdtemp(prefix=f"{tool}_"))
        self.handlers = {sig: signal.signal(sig, self.stop)
                         for sig in (signal.SIGTERM, signal.SIGINT)}

    def close(self, *exc) -> None:
        """Kill every process of every running child's session, remove the
        directory and give SIGTERM and SIGINT back their handlers."""
        for pid in list(self.sessions):
            with contextlib.suppress(ProcessLookupError):
                os.killpg(pid, signal.SIGKILL)
        shutil.rmtree(self.dir, ignore_errors=True)
        for sig, handler in self.handlers.items():
            signal.signal(sig, handler)

    __exit__ = close

    def stop(self, signum, frame) -> None:
        self.close()
        sys.exit(128 + signum)

    def extract(self, rev: str) -> Path:
        """The directory ``rev/`` of the workspace, holding the files of
        ``rev`` written by ``git archive``.  If git cannot archive ``rev``,
        print ``<tool>: cannot extract <rev>: <git's message>`` to stderr and
        exit with code 2."""
        try:
            archive = git("archive", "--format=tar", "--prefix=rev/", rev)
        except subprocess.CalledProcessError as exc:
            print(f"{self.tool}: cannot extract {rev!r}: {exc.stderr.decode().strip()}",
                  file=sys.stderr)
            sys.exit(2)
        subprocess.run(["tar", "-x", "-C", str(self.dir)], input=archive, check=True)
        return self.dir / "rev"

    def run(self, argv: list[str], cwd: Path, fail: int | None = None,
            **env: str) -> subprocess.CompletedProcess:
        """Run ``argv`` in ``cwd`` in a fresh process in its own session, with
        `CHILD_ENV` and ``env`` over this process's environment; its stdout
        and stderr are returned as bytes.  With ``fail``, a child that exits
        non-zero has its stderr printed and ends this process with code
        ``fail``."""
        proc = subprocess.Popen(argv, cwd=cwd, env={**os.environ, **CHILD_ENV, **env},
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        self.sessions.add(proc.pid)
        stdout, stderr = proc.communicate()
        self.sessions.discard(proc.pid)
        if fail is not None and proc.returncode != 0:
            print(f"{self.tool}: {' '.join(argv)} in {cwd} exited {proc.returncode}:\n"
                  f"{stderr.decode()}", file=sys.stderr)
            sys.exit(fail)
        return subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr)
