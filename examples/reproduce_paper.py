#!/usr/bin/env python3
"""Regenerate every table and figure of the paper's evaluation.

Runs the CLI's ``repro report`` and writes what it prints to stdout
(and optionally, byte for byte, to a file).  The heavier experiments
(GA, random baseline) run at reduced sizes by default; pass ``--full``
for ``report --population 300 --generations 60 --samples 1000``.

Run:  python examples/reproduce_paper.py [--full] [-o report.txt]
"""

import argparse
import io
import sys
from contextlib import redirect_stdout

from repro import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="paper-scale GA population / 1000 random "
                             "clusterings")
    parser.add_argument("-o", "--output", default=None,
                        help="also write the report to this file")
    parser.add_argument("-j", "--jobs", type=int, default=1,
                        help="worker processes for profiling/measurement "
                             "(1 = serial, 0 = all cores)")
    parser.add_argument("--cache-dir", default=None,
                        help="on-disk profile cache; a warm re-run "
                             "skips all re-profiling")
    args = parser.parse_args()

    argv = ["-j", str(args.jobs)]
    if args.cache_dir:
        argv += ["--cache-dir", args.cache_dir]
    argv.append("report")
    if args.full:
        argv += ["--population", "300", "--generations", "60",
                 "--samples", "1000"]

    out = io.StringIO()
    with redirect_stdout(out):
        status = cli.main(argv)
    sys.stdout.write(out.getvalue())
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out.getvalue())
        print(f"report written to {args.output}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
