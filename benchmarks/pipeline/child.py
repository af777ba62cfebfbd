"""Run one ``repro`` CLI command in this process and report it as JSON.

Usage::

    python benchmarks/pipeline/child.py [--trace] ARGV...

``ARGV`` is what would follow ``python -m repro``.  The command's stdout
is captured, and one JSON line goes to the real stdout:

``cmd_s``
    ``perf_counter`` time of ``repro.cli.main(ARGV)`` alone: interpreter
    start, ``import repro.cli`` and exit are outside it, so the parent's
    wall time minus ``cmd_s`` is the command's set-up cost.
``exit``
    The command's exit status.
``digest``
    sha256 of stdout after :func:`normalize` drops the ``run health:``
    accounting line, the one line that legitimately differs between a
    cold, a warm-cache and a ``-j 2`` run of the same argv.
``maxrss_kb``
    ``max(ru_maxrss)`` over this process and its reaped children, so the
    pool workers of a ``-j 2`` command count.

With ``--trace`` the public functions in :data:`layers.LAYER_TABLE` are
wrapped before ``main`` runs, and a ``trace`` field carries their calls,
self and inclusive times, plus the work counters read at exit.

``python benchmarks/pipeline/child.py --provenance`` prints the versions
and input digests that identify what a result was measured on.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HEALTH_PREFIX = "run health:"


def normalize(stdout: str) -> str:
    """``stdout`` without its ``run health:`` lines, every other line
    kept byte for byte."""
    return "".join(line for line in stdout.splitlines(keepends=True)
                   if not line.startswith(HEALTH_PREFIX))


def digest(stdout: str) -> str:
    return hashlib.sha256(normalize(stdout).encode()).hexdigest()


def _import_cli():
    """Import ``repro.cli`` from this checkout's ``src``, never from an
    installed copy, so the benchmark measures the code beside it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro
    import repro.cli

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {src}")
    return repro.cli


def run_command(argv, trace: bool) -> dict:
    cli = _import_cli()
    tracer = None
    if trace:
        import layers

        imported = len(layers.repro_modules())
        tracer = layers.Tracer()
        layers.install(tracer)
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out):
            status = cli.main(list(argv))
    except SystemExit as exc:
        status = (0 if exc.code is None
                  else exc.code if isinstance(exc.code, int) else 1)
    cmd_s = time.perf_counter() - t0
    maxrss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {"cmd_s": cmd_s, "exit": status,
              "digest": digest(out.getvalue()), "maxrss_kb": maxrss}
    if tracer is not None:
        from repro.isa.compiler import lowering_memo_stats

        result["trace"] = tracer.snapshot(
            cmd_s=cmd_s, imported_modules=imported,
            lowering=lowering_memo_stats())
    return result


def provenance() -> dict:
    """What a measurement depends on besides the benchmark's own code:
    interpreter and numpy versions, and digests of the two suite
    definitions and of the default :class:`SubsettingConfig`."""
    import numpy

    _import_cli()
    from repro.core.pipeline import SubsettingConfig
    from repro.suites import build_nas_suite, build_nr_suite

    def sha(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    return {"python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "suite_nas": sha(repr(build_nas_suite(1.0))),
            "suite_nr": sha(repr(build_nr_suite(1.0))),
            "subsetting_config": sha(repr(SubsettingConfig()))}


def main(argv) -> int:
    if argv == ["--provenance"]:
        print(json.dumps(provenance(), sort_keys=True))
        return 0
    trace = argv[:1] == ["--trace"]
    print(json.dumps(run_command(argv[1:] if trace else argv, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
