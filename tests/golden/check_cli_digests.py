"""Check that CLI commands print what ``cli_digests.json`` pins.

Usage::

    python tests/golden/check_cli_digests.py [--write]

``cli_digests.json`` maps each argv (what follows ``python -m repro``)
to the sha256 of its stdout.  Every argv runs in a new process from this
checkout's ``src``, so a deferred import that fails, or one that changes
a registry's order, shows even when the same command passes in a
process that has already imported everything.  Exits 1 on a moved
digest or a non-zero exit status.  ``--write`` re-records the digests
of the argvs already in the file; a change that means to move an output
re-records it and says why.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "cli_digests.json"
SRC = HERE.parents[1] / "src"


def stdout_digest(argv, cwd) -> tuple:
    """``(exit status, sha256 of stdout)`` of ``python -m repro argv``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "repro", *argv],
                          env=env, cwd=cwd, capture_output=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
    return proc.returncode, hashlib.sha256(proc.stdout).hexdigest()


def main(argv) -> int:
    write = argv == ["--write"]
    if argv and not write:
        print(__doc__, file=sys.stderr)
        return 2
    pinned = json.loads(DIGESTS.read_text())
    failed = []
    # Commands that write reports write them here, not into the tree.
    with tempfile.TemporaryDirectory() as cwd:
        for command, want in pinned.items():
            status, got = stdout_digest(command.split(), cwd)
            if status != 0:
                failed.append(f"{command}: exit {status}")
            elif write:
                pinned[command] = got
            elif got != want:
                failed.append(f"{command}: digest {got}, pinned {want}")
            else:
                print(f"ok  {command}")
    for line in failed:
        print(f"FAILED  {line}")
    if write and not failed:
        DIGESTS.write_text(json.dumps(pinned, indent=2) + "\n")
        print(f"wrote {DIGESTS}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
