"""Extract a git revision of this repository into a directory.

The comparison tools in ``tools/`` run a revision beside the working tree;
this is how each of them gets the revision's files.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def extract(tool: str, rev: str, dest: Path, *paths: str) -> bool:
    """Write the files of ``rev`` (only those under ``paths``, if given)
    into ``dest`` with ``git archive``.  If git cannot archive ``rev``,
    print ``<tool>: cannot extract <rev>: <git's message>`` to stderr and
    return False."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, *paths],
                             capture_output=True)
    if archive.returncode != 0:
        print(f"{tool}: cannot extract {rev!r}: {archive.stderr.decode().strip()}",
              file=sys.stderr)
        return False
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return True
