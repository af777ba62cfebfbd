"""Benchmarking-reduction accounting (Table 5).

The reduction factor is the ratio between the target-machine execution
time of the *full* benchmark suite and the time spent benchmarking the
representatives.  It decomposes into two factors, as in Table 5:

* **reduced invocations** — every codelet is benchmarked for the fewest
  invocations that still measure well (Section 3.4), instead of its full
  in-app invocation count;
* **clustering** — only one representative per cluster is benchmarked
  at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..codelets.measurement import Measurer
from ..codelets.profiling import CodeletProfile
from ..machine.architecture import Architecture


@dataclass(frozen=True)
class ReductionBreakdown:
    """Table 5 row: total = invocations factor × clustering factor."""

    arch_name: str
    full_suite_seconds: float           # all codelets, all invocations
    all_reduced_seconds: float          # all codelets, reduced invocations
    representative_seconds: float       # representatives only, reduced

    @property
    def total_factor(self) -> float:
        return self.full_suite_seconds / self.representative_seconds

    @property
    def invocation_factor(self) -> float:
        return self.full_suite_seconds / self.all_reduced_seconds

    @property
    def clustering_factor(self) -> float:
        return self.all_reduced_seconds / self.representative_seconds


def reduction_breakdown(profiles: Sequence[CodeletProfile],
                        representatives: Sequence[str],
                        measurer: Measurer,
                        target: Architecture) -> ReductionBreakdown:
    """Compute the Table 5 decomposition on one target architecture.

    Representative names without a matching profile are ignored rather
    than fatal: the resilient runtime may quarantine (and drop) a
    codelet after a representative list naming it was materialised, and
    the accounting should degrade with the run, not abort it.
    """
    reps = set(representatives) & {p.name for p in profiles}
    full = 0.0
    all_reduced = 0.0
    rep_time = 0.0
    for p in profiles:
        codelet = p.codelet
        true_target = measurer.true_inapp_seconds(codelet, target)
        full += true_target * codelet.invocations
        bench = measurer.benchmark_standalone(codelet, target)
        all_reduced += bench.total_bench_s
        if p.name in reps:
            rep_time += bench.total_bench_s
    return ReductionBreakdown(
        arch_name=target.name,
        full_suite_seconds=full,
        all_reduced_seconds=all_reduced,
        representative_seconds=rep_time,
    )
