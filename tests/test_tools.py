"""The revision tools in ``tools/``: a stopped tool leaves no process and no
directory behind, and `line_counts` counts code lines only.  Neither test
needs git."""

import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))
from revdiff import line_counts  # noqa: E402

# a tool: one child under the shared runner, in a workspace it names on stdout
TOOL = """
import sys
from gitrev import Workspace
with Workspace("test_tools") as ws:
    print(ws.dir, flush=True)
    ws.run([sys.executable, "-c", sys.argv[1]], ws.dir)
"""
# the child: starts a grandchild, then writes both pids to the file "pids"
CHILD = """
import os, subprocess, sys, time
grandchild = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
with open("pids.tmp", "w") as f:
    f.write(f"{os.getpid()} {grandchild.pid}")
os.replace("pids.tmp", "pids")
time.sleep(60)
"""


def alive(pid: int) -> bool:
    """Whether process ``pid`` exists and has not ended (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def wait_until(condition, seconds: float = 5.0) -> bool:
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states in /proc")
def test_sigterm_ends_the_child_and_grandchild_and_removes_the_directory():
    tool = subprocess.Popen([sys.executable, "-c", TOOL, CHILD], stdout=subprocess.PIPE,
                            text=True, env=dict(os.environ, PYTHONPATH=str(TOOLS)))
    pids = []
    try:
        workdir = Path(tool.stdout.readline().strip())
        assert wait_until(lambda: (workdir / "pids").exists())
        pids = [int(pid) for pid in (workdir / "pids").read_text().split()]
        assert all(alive(pid) for pid in pids)
        tool.send_signal(signal.SIGTERM)
        assert tool.wait(timeout=5) == 128 + signal.SIGTERM
        assert wait_until(lambda: not any(alive(pid) for pid in pids))
        assert not workdir.exists()
    finally:
        tool.kill()
        tool.wait()
        tool.stdout.close()
        for pid in [pid for pid in pids if alive(pid)]:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


def test_line_counts_leave_out_blank_comment_and_docstring_lines(tmp_path):
    source = tmp_path / "fixture.py"
    source.write_text('''"""A module docstring
over two lines."""

# a comment
import os  # a trailing comment keeps its line


class A:
    """One line."""

    def f(self):
        """Two
        lines."""
        x = """a string that is not a docstring"""
        return x
''')
    assert line_counts(source) == (15, 5)
