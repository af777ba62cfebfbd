"""The differential oracle: paired-configuration pipeline runs.

The runtime layer promises that its execution knobs change wall-clock
time and nothing else.  The oracle makes that promise executable: it
runs the full pipeline under *paired* configurations that must be
observationally identical —

* serial vs. process-pool execution (``jobs=1`` vs ``jobs=2``),
* cached vs. uncached profiling (plus cold vs. warm cache),
* elbow-selected K vs. the same K requested explicitly —

and structurally diffs the resulting :class:`ReducedSuite` objects and
target predictions, reporting any discrepancy by field with the first
witnessing values.  Unlike the golden snapshots (which pin one suite's
numbers), the oracle holds on any seed, so every later performance PR
inherits it as a regression net.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..codelets.measurement import Measurer
from ..core.pipeline import (BenchmarkReducer, ReducedSuite,
                             TargetEvaluation, evaluate_on_target)
from ..machine.architecture import TARGETS
from ..runtime.config import RuntimeConfig

if False:  # pragma: no cover - import cycle guard for type checkers
    from .invariants import VerifyContext


@dataclass(frozen=True)
class Discrepancy:
    """One structural difference between paired pipeline runs."""

    field: str
    detail: str

    def __str__(self) -> str:
        return f"{self.field}: {self.detail}"


@dataclass(frozen=True)
class DifferentialResult:
    """Outcome of one paired-configuration case."""

    name: str
    description: str
    passed: bool
    discrepancies: Tuple[Discrepancy, ...] = ()


def _first_diff(a: Sequence, b: Sequence) -> str:
    if len(a) != len(b):
        return f"length {len(a)} vs {len(b)}"
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"entry {i}: {x!r} vs {y!r}"
    return "unknown difference"


def diff_reduced(a: ReducedSuite, b: ReducedSuite) -> List[Discrepancy]:
    """Structural diff of two reductions (``requested_k`` excepted —
    paired elbow/explicit runs differ there by construction)."""
    out: List[Discrepancy] = []
    names_a = [p.name for p in a.profiles]
    names_b = [p.name for p in b.profiles]
    if names_a != names_b:
        out.append(Discrepancy("profiles.order",
                               _first_diff(names_a, names_b)))
        return out                      # aligned diffs are meaningless
    if a.profiles != b.profiles:
        mismatch = next(n for pa, pb, n in
                        zip(a.profiles, b.profiles, names_a)
                        if pa != pb)
        out.append(Discrepancy(
            "profiles.values",
            f"profile of {mismatch!r} differs bit-wise"))
    if a.discarded != b.discarded:
        out.append(Discrepancy("discarded",
                               _first_diff(a.discarded, b.discarded)))
    if not np.array_equal(a.normalized_rows, b.normalized_rows):
        out.append(Discrepancy("normalized_rows",
                               "clustering input rows differ"))
    if a.elbow != b.elbow:
        out.append(Discrepancy("elbow", f"{a.elbow} vs {b.elbow}"))
    if not np.array_equal(a.labels, b.labels):
        out.append(Discrepancy(
            "labels", _first_diff(list(a.labels), list(b.labels))))
    if a.representatives != b.representatives:
        out.append(Discrepancy(
            "representatives",
            _first_diff(a.representatives, b.representatives)))
    if a.selection.clusters != b.selection.clusters:
        out.append(Discrepancy(
            "clusters",
            _first_diff(a.selection.clusters, b.selection.clusters)))
    if a.selection.ill_behaved != b.selection.ill_behaved:
        out.append(Discrepancy(
            "ill_behaved",
            _first_diff(a.selection.ill_behaved,
                        b.selection.ill_behaved)))
    if a.k != b.k:
        out.append(Discrepancy("k", f"{a.k} vs {b.k}"))
    return out


def diff_evaluations(a: TargetEvaluation,
                     b: TargetEvaluation) -> List[Discrepancy]:
    """Structural diff of two Step E target evaluations."""
    out: List[Discrepancy] = []
    if a.codelets != b.codelets:
        out.append(Discrepancy(
            f"predictions[{a.arch_name}]",
            _first_diff(a.codelets, b.codelets)))
    if a.applications != b.applications:
        out.append(Discrepancy(
            f"applications[{a.arch_name}]",
            _first_diff(a.applications, b.applications)))
    if a.reduction != b.reduction:
        out.append(Discrepancy(f"reduction[{a.arch_name}]",
                               "reduction accounting differs"))
    return out


# ---------------------------------------------------------------------------
# Paired-configuration cases
# ---------------------------------------------------------------------------


def _case_serial_vs_parallel(ctx) -> List[Discrepancy]:
    serial_measurer = Measurer()
    serial = BenchmarkReducer(ctx.suite, serial_measurer,
                              ctx.config).reduce("elbow")
    parallel_config = replace(ctx.config, runtime=RuntimeConfig(jobs=2))
    parallel_measurer = Measurer()
    parallel = BenchmarkReducer(ctx.suite, parallel_measurer,
                                parallel_config).reduce("elbow")
    out = diff_reduced(serial, parallel)
    if out or not serial.profiles:
        return out
    # Step E under an executor must match the serial path too.
    target = TARGETS[0]
    eval_serial = evaluate_on_target(serial, target, serial_measurer)
    with parallel_config.runtime.make_executor() as executor:
        eval_parallel = evaluate_on_target(parallel, target,
                                           parallel_measurer,
                                           executor=executor)
    out.extend(diff_evaluations(eval_serial, eval_parallel))
    return out


def _case_cached_vs_uncached(ctx) -> List[Discrepancy]:
    uncached = ctx.fresh_reducer().reduce("elbow")
    with tempfile.TemporaryDirectory(prefix="repro-oracle-") as tmp:
        cache_config = replace(ctx.config,
                               runtime=RuntimeConfig(jobs=1,
                                                     cache_dir=tmp))
        cold = ctx.fresh_reducer(cache_config).reduce("elbow")
        warm = ctx.fresh_reducer(cache_config).reduce("elbow")
    out = diff_reduced(uncached, cold)
    out.extend(Discrepancy(f"warm.{d.field}", d.detail)
               for d in diff_reduced(cold, warm))
    return out


def _case_elbow_vs_explicit_k(ctx) -> List[Discrepancy]:
    reducer = ctx.fresh_reducer()
    by_elbow = reducer.reduce("elbow")
    explicit = reducer.reduce(by_elbow.elbow)
    return diff_reduced(by_elbow, explicit)


@dataclass(frozen=True)
class DifferentialCase:
    """One registered paired-configuration comparison."""

    name: str
    description: str
    run: Callable[["VerifyContext"], List[Discrepancy]]


#: name -> DifferentialCase, in registration order.
DIFFERENTIAL_CASES: Dict[str, DifferentialCase] = {
    case.name: case for case in (
        DifferentialCase(
            "serial-vs-parallel",
            "jobs=1 and jobs=2 produce bit-identical reductions and "
            "target predictions",
            _case_serial_vs_parallel),
        DifferentialCase(
            "cached-vs-uncached",
            "profiling through the on-disk cache (cold and warm) "
            "matches the uncached run bit for bit",
            _case_cached_vs_uncached),
        DifferentialCase(
            "elbow-vs-explicit-k",
            "requesting the elbow K explicitly reproduces the "
            "elbow-selected reduction exactly",
            _case_elbow_vs_explicit_k),
    )
}


def run_differential(ctx, names: Optional[Sequence[str]] = None
                     ) -> List[DifferentialResult]:
    """Execute (a subset of) the paired-configuration cases."""
    if names:
        unknown = sorted(set(names) - set(DIFFERENTIAL_CASES))
        if unknown:
            raise KeyError(f"unknown differential cases: {unknown}; "
                           f"registered: {sorted(DIFFERENTIAL_CASES)}")
        selected = [DIFFERENTIAL_CASES[name] for name in names]
    else:
        selected = list(DIFFERENTIAL_CASES.values())

    results: List[DifferentialResult] = []
    for case in selected:
        try:
            discrepancies = tuple(case.run(ctx))
        except Exception as exc:  # noqa: BLE001 - report, don't mask
            discrepancies = (Discrepancy(
                "error", f"unexpected {type(exc).__name__}: {exc}"),)
        results.append(DifferentialResult(
            name=case.name, description=case.description,
            passed=not discrepancies, discrepancies=discrepancies))
    return results
