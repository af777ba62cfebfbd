"""Pipeline benchmark: real ``repro`` CLI commands, timed end to end.

Usage (from anywhere; paths are relative to this checkout)::

    python3 benchmarks/pipeline/run.py [--workload NAME|all] [--seed N]
        [--seconds S] [--trace 0|1] [--record FILE] [--write-digests]

Each workload is a session of CLI commands run back to back, one client
in a closed loop: a command starts when the previous one has exited.
Every command runs in a fresh ``child.py`` process, so no process-global
memo (lowering, ``Measurer``) carries over from one command to the next.
``--seed`` permutes the command order within each session; it never
changes an argv, so the expected output digests in ``digests.json`` hold
for every seed.  Sessions repeat until ``--seconds`` is spent.

The human-readable report goes to stdout first; its last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` every other session is traced and the metrics are the
per-layer ones from ``layers.py``, plus ``trace.overhead``.

``--write-digests`` re-records ``digests.json`` from plain serial,
uncached runs; ``--record FILE`` runs every workload and stores the set
with its provenance in ``FILE`` (see ``baseline.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD = HERE / "child.py"
DIGESTS = HERE / "digests.json"
#: Scratch space inside the checkout: WORK is emptied before each
#: workload and removed at exit; PYCACHE keeps the children's bytecode
#: between runs.
WORK = ROOT / ".pipeline_bench" / "work"
PYCACHE = ROOT / ".pipeline_bench" / "pycache"

COMMAND_TIMEOUT_S = 120.0
#: A tail percentile is reported only with this many samples beyond it.
TAIL_MIN_BEYOND = 10
TAIL_PERCENTILES = (99, 95, 90, 75)
#: Untraced sessions measured however short ``--seconds`` is, so the
#: median of even the slowest workload has a middle sample.
MIN_SESSIONS = 3

PREDICT = (("predict", "--suite", "nas"), ("predict", "--suite", "nr"))


@dataclass(frozen=True)
class Workload:
    """One session shape.  ``commands`` are plain argvs, which also key
    the expected digests; ``jobs`` and ``cache`` add global flags."""

    name: str
    commands: Tuple[Tuple[str, ...], ...]
    jobs: int = 1
    #: "none"; "cold": a new empty --cache-dir for every command;
    #: "warm": one --cache-dir that the untimed warm-up session fills.
    cache: str = "none"
    #: One ``repro report`` costs ~8 s; the provenance probe has
    #: already warmed imports and bytecode, so it skips the warm-up.
    warmup: bool = True


WORKLOADS = (
    Workload("reduce-cold", (("reduce", "--suite", "nas"),
                             ("reduce", "--suite", "nr")), cache="cold"),
    Workload("predict-warm", PREDICT, cache="warm"),
    Workload("predict-j2", PREDICT, jobs=2),
    Workload("report", (("report",),), warmup=False),
)
BY_NAME = {w.name: w for w in WORKLOADS}
#: Runnable with ``--workload`` but not declared in BENCHMARK.json: its
#: two pool workers need both vCPUs of a shared machine, and its fastest
#: session moved by ~30% between runs (0.52 s or 0.72 s, depending on
#: the other tenants), more than the largest allowed bound.
UNDECLARED = ("predict-j2",)


@dataclass
class CommandResult:
    ok: bool
    wall_s: float = 0.0
    cmd_s: float = 0.0
    maxrss_kb: int = 0
    trace: Optional[dict] = None
    error: str = ""


@dataclass
class Session:
    commands: List[CommandResult]
    traced: bool

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.commands)

    @property
    def session_s(self) -> float:
        return sum(c.cmd_s for c in self.commands)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.commands)


@dataclass
class Outcome:
    workload: str
    sessions: List[Session] = field(default_factory=list)
    warmup: List[Session] = field(default_factory=list)
    inconsistent_counts: List[str] = field(default_factory=list)

    @property
    def commands(self) -> List[CommandResult]:
        return [c for s in self.warmup + self.sessions for c in s.commands]

    @property
    def attempted(self) -> int:
        return len(self.commands)

    @property
    def failed(self) -> int:
        return (sum(1 for c in self.commands if not c.ok)
                + len(self.inconsistent_counts))


# -- statistics ---------------------------------------------------------------

def tail_percentile(values) -> Optional[Tuple[int, float]]:
    """The highest of :data:`TAIL_PERCENTILES` with at least
    :data:`TAIL_MIN_BEYOND` samples beyond it, or ``None``."""
    n = len(values)
    for q in TAIL_PERCENTILES:
        if n * (100 - q) // 100 >= TAIL_MIN_BEYOND:
            cuts = statistics.quantiles(values, n=100, method="inclusive")
            return q, cuts[q - 1]
    return None


# -- running commands ---------------------------------------------------------

def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(WORK / "tmp")
    # Import from cached bytecode, as an installed package does, so
    # setup_s does not depend on whether the caller's shell disables
    # it; the prefix keeps every .pyc write inside the checkout.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    return env


def _spawn(args: List[str]) -> Tuple[int, str, str]:
    """Run ``child.py args`` in its own process group; on timeout the
    whole group, pool workers included, is killed and reaped."""
    cmd = [sys.executable, str(CHILD)] + args
    with subprocess.Popen(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          cwd=WORK, env=_child_env(),
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return -1, "", f"timed out after {COMMAND_TIMEOUT_S:.0f} s"
    return proc.returncode, out, err


def run_command(argv: List[str], expected_digest: Optional[str],
                trace: bool) -> CommandResult:
    t0 = time.perf_counter()
    code, out, err = _spawn((["--trace"] if trace else []) + argv)
    wall = time.perf_counter() - t0
    if code != 0:
        return CommandResult(False, error=f"child exited {code}: "
                             f"{err.strip()[-400:]}")
    line = json.loads(out.splitlines()[-1])
    result = CommandResult(True, wall_s=wall, cmd_s=line["cmd_s"],
                           maxrss_kb=line["maxrss_kb"],
                           trace=line.get("trace"))
    if line["exit"] != 0:
        result.ok, result.error = False, f"repro exited {line['exit']}"
    elif line["digest"] != expected_digest:
        result.ok, result.error = False, "stdout digest mismatch"
    return result


def command_argv(workload: Workload, plain: Tuple[str, ...],
                 cache_dir: Optional[Path]) -> List[str]:
    flags: List[str] = []
    if workload.jobs != 1:
        flags += ["-j", str(workload.jobs)]
    if cache_dir is not None:
        flags += ["--cache-dir", str(cache_dir)]
    return flags + list(plain)


def run_session(workload: Workload, rng: random.Random,
                expected: Dict[str, str], trace: bool) -> Session:
    order = list(workload.commands)
    rng.shuffle(order)
    results = []
    for plain in order:
        cache_dir = None
        if workload.cache == "cold":
            # A new directory rather than emptying one: deleting ~95
            # entries just before a command adds file-system work to
            # its time.  WORK is removed once the workload is done.
            cache_dir = Path(tempfile.mkdtemp(prefix="cold-", dir=WORK))
        elif workload.cache == "warm":
            cache_dir = WORK / "warm"
        argv = command_argv(workload, plain, cache_dir)
        result = run_command(argv, expected.get(" ".join(plain)), trace)
        if not result.ok:
            print(f"# FAILED {' '.join(argv)}: {result.error}",
                  file=sys.stderr)
        results.append(result)
    return Session(results, trace)


def _reset_work() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "tmp").mkdir(parents=True)


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            expected: Dict[str, str]) -> Outcome:
    """Sessions of ``workload`` until ``seconds`` are spent.  With
    ``trace``, untraced and traced sessions alternate, so both see the
    same machine conditions and their ratio is the tracing overhead."""
    _reset_work()
    rng = random.Random(f"{seed}:{workload.name}")
    outcome = Outcome(workload.name)
    if workload.warmup:
        outcome.warmup.append(run_session(workload, rng, expected, False))
    start = time.perf_counter()
    while True:
        done = outcome.sessions
        untraced = [s for s in done if not s.traced]
        traced = [s for s in done if s.traced]
        enough = (len(untraced) >= 1 and len(traced) >= 1 if trace
                  else len(untraced) >= MIN_SESSIONS)
        typical = statistics.median(s.wall_s for s in done) if done else 0
        if enough and time.perf_counter() - start + typical > seconds:
            break
        next_traced = trace and len(traced) < len(untraced)
        done.append(run_session(workload, rng, expected, next_traced))
    return outcome


# -- metrics ------------------------------------------------------------------

Metrics = Dict[str, Tuple[float, str, str]]


def end_to_end(outcome: Outcome) -> Metrics:
    """``{name: (value, unit, samples)}`` over the measured sessions."""
    sessions = [s for s in outcome.sessions if s.ok]
    if not sessions:
        return {}
    commands = [c for s in sessions for c in s.commands]
    times = [s.session_s for s in sessions]
    per_session = f"n={len(times)} sessions"
    per_command = f"n={len(commands)} commands"
    return {
        "session_s.min": (min(times), "s", per_session),
        "setup_s": (statistics.median(c.wall_s - c.cmd_s
                                      for c in commands), "s", per_command),
        "peak_rss_mb": (max(c.maxrss_kb for c in commands) / 1024, "MB",
                        per_command),
    }


def per_layer(outcome: Outcome) -> Tuple[Metrics, List[str]]:
    """Median over the traced sessions of each :mod:`layers` metric,
    plus ``trace.overhead``; and the names of the count metrics that
    did not repeat exactly between traced sessions."""
    import layers

    traced = [s for s in outcome.sessions if s.traced and s.ok]
    untraced = [s for s in outcome.sessions if not s.traced and s.ok]
    if not traced or not untraced:
        return {}, []
    per_session = [layers.layer_metrics(layers.merge(
        c.trace for c in s.commands)) for s in traced]
    samples = f"n={len(traced)} traced sessions"
    metrics, inconsistent = {}, []
    for name, unit, _ in layers.LAYER_METRICS:
        values = [m[name][0] for m in per_session]
        if unit != "s" and len(set(values)) > 1:
            inconsistent.append(name)
        metrics[name] = (statistics.median(values), unit, samples)
    overhead = (statistics.median(s.session_s for s in traced)
                / statistics.median(s.session_s for s in untraced))
    metrics["trace.overhead"] = (overhead, "ratio", samples)
    return metrics, inconsistent


# -- provenance and output ----------------------------------------------------

def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def provenance(seed: int) -> dict:
    code, out, err = _spawn(["--provenance"])
    if code != 0:
        raise RuntimeError(f"provenance probe failed: {err.strip()}")
    info = {"commit": git_commit(), "nproc": len(os.sched_getaffinity(0)),
            "seed": seed}
    info.update(json.loads(out.splitlines()[-1]))
    return info


def print_metrics(metrics: Metrics) -> None:
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit:6s} ({samples})")


def report_workload(outcome: Outcome, trace: bool) -> Metrics:
    if trace:
        metrics, outcome.inconsistent_counts = per_layer(outcome)
    else:
        metrics = end_to_end(outcome)
    print(f"# workload {outcome.workload}: {len(outcome.sessions)} "
          f"sessions, {outcome.attempted} commands, "
          f"{outcome.failed} failed")
    print_metrics(metrics)
    if outcome.inconsistent_counts:
        print(f"# counts differ between traced sessions: "
              f"{', '.join(outcome.inconsistent_counts)}")
    times = [s.session_s for s in outcome.sessions if s.ok]
    if times and not trace:
        # Printed for reading, not part of the result line: the median
        # moves with other tenants' load far more than the minimum, and
        # a run of BENCHMARK.json's run_seconds rarely has the samples
        # for a tail percentile.
        samples = f"n={len(times)} sessions"
        extra = {"session_s.p50": (statistics.median(times), "s", samples)}
        tail = tail_percentile(times)
        if tail is not None:
            extra[f"session_s.p{tail[0]}"] = (tail[1], "s", samples)
        print_metrics(extra)
    return metrics


def result_line(outcomes, metrics, nested: bool) -> dict:
    failed = sum(o.failed for o in outcomes)
    if nested:
        values = {wl: {name: {"value": v, "unit": u}
                       for name, (v, u, _n) in m.items()}
                  for wl, m in metrics.items()}
    else:
        [m] = metrics.values()
        values = {name: {"value": v, "unit": u}
                  for name, (v, u, _n) in m.items()}
    return {"correct": failed == 0,
            "attempted": sum(o.attempted for o in outcomes),
            "failed": failed, "metrics": values}


def record(path: Path, info: dict, seconds: float, metrics) -> None:
    """Store one full set under its seed and refresh the set-to-set
    spread, ``(max - min) / median`` over the stored sets."""
    data = json.loads(path.read_text()) if path.exists() else {}
    sets = data.get("sets", {})
    sets[str(info["seed"])] = {
        "provenance": info, "seconds": seconds,
        "metrics": {wl: {name: value for name, (value, _u, _n) in m.items()}
                    for wl, m in metrics.items()}}
    spread: Dict[str, Dict[str, float]] = {}
    for wl in metrics:
        for name in metrics[wl]:
            values = [s["metrics"][wl][name] for s in sets.values()
                      if name in s["metrics"].get(wl, {})]
            if len(values) > 1 and statistics.median(values):
                spread.setdefault(wl, {})[name] = (
                    (max(values) - min(values))
                    / statistics.median(values))
    data = {"sets": sets, "spread": spread}
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"# recorded seed {info['seed']} in {path}")


def write_digests() -> int:
    digests = {}
    for workload in WORKLOADS:
        for plain in workload.commands:
            key = " ".join(plain)
            if key in digests:
                continue
            code, out, err = _spawn(list(plain))
            line = json.loads(out.splitlines()[-1]) if code == 0 else {}
            if line.get("exit") != 0:
                print(f"run.py: {key} failed: {err.strip()}",
                      file=sys.stderr)
                return 1
            digests[key] = line["digest"]
            print(f"{key}: {digests[key]}")
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True)
                       + "\n")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + tuple(BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--record", type=Path, default=None,
                        metavar="FILE",
                        help="store this set (all workloads) in FILE")
    parser.add_argument("--write-digests", action="store_true",
                        help="re-record digests.json and exit")
    args = parser.parse_args(argv)
    if args.record is not None and (args.workload != "all" or args.trace):
        parser.error("--record stores an untraced set of all workloads")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"run.py: no src/repro under {ROOT}: the benchmark runs the "
              f"repro package of the checkout it sits in", file=sys.stderr)
        return 2
    try:
        _reset_work()
        if args.write_digests:
            return write_digests()
        expected = json.loads(DIGESTS.read_text())
        info = provenance(args.seed)
        print("# pipeline benchmark " + " ".join(
            f"{k}={v}" for k, v in info.items()))
        if args.workload == "all":
            selected = list(WORKLOADS)
            random.Random(args.seed).shuffle(selected)
        else:
            selected = [BY_NAME[args.workload]]
        outcomes, metrics = [], {}
        for workload in selected:
            outcome = measure(workload, args.seed, args.seconds,
                              bool(args.trace), expected)
            metrics[workload.name] = report_workload(outcome,
                                                     bool(args.trace))
            outcomes.append(outcome)
        if args.record is not None:
            record(args.record, info, args.seconds, metrics)
        result = result_line(outcomes, metrics,
                             nested=args.workload == "all")
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
