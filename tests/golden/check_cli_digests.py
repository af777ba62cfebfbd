"""Check that CLI commands print and write what ``cli_digests.json`` pins.

Usage::

    python tests/golden/check_cli_digests.py [--write]

``cli_digests.json`` maps each argv (what follows ``python -m repro``)
to the sha256 of each of its outputs: ``stdout``, and every file the
argv writes, named by the relative path it gives.  Every argv runs in a
new process from this checkout's ``src``, in a new empty working
directory, so a deferred import that fails, or one that changes a
registry's order, shows even when the same command passes in a process
that has already imported everything, and no file is left over from
another argv.  Exits 1 on a moved digest, a missing file or a non-zero
exit status.  ``--write`` re-records the digests of the outputs already
in the file; a change that means to move an output re-records it and
says why.
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


def output_digests(argv, outputs) -> tuple:
    """``(exit status, {output: sha256 or None})`` of ``python -m repro
    argv`` run in a new empty directory: ``stdout``, or a file the
    command writes there (``None`` if it wrote none)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([sys.executable, "-m", "repro", *argv],
                              env=env, cwd=cwd, capture_output=True,
                              timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        digests = {}
        for output in outputs:
            path = Path(cwd, output)
            data = (proc.stdout if output == "stdout"
                    else path.read_bytes() if path.is_file() else None)
            digests[output] = (None if data is None
                               else hashlib.sha256(data).hexdigest())
    return proc.returncode, digests


def main(argv) -> int:
    write = argv == ["--write"]
    if argv and not write:
        print(__doc__, file=sys.stderr)
        return 2
    pinned = json.loads(DIGESTS.read_text())
    failed = []
    for command, want in pinned.items():
        status, got = output_digests(command.split(), want)
        problems = [f"{command}: exit {status}"] if status != 0 else []
        problems += [f"{command}: wrote no {output}"
                     for output, digest in got.items() if digest is None]
        if not write:
            problems += [f"{command}: {output} digest {got[output]}, "
                         f"pinned {want[output]}"
                         for output in want
                         if got[output] not in (None, want[output])]
        if problems:
            failed += problems
        elif write:
            pinned[command] = got
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
