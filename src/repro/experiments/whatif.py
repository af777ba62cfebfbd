"""What-if generalisation experiment (beyond the paper — Section 5).

The paper warns that its feature set is partly architecture-dependent
and suggests microarchitecture-independent metrics for very different
targets.  This experiment tests both claims on a machine no feature was
trained on and whose vector ISA (256-bit AVX) differs from everything
in Table 1:

1. cluster the NAS codelets with the reference-trained Table 2 feature
   set, predict Haswell;
2. cluster the same codelets with the architecture-independent feature
   set of :mod:`repro.analysis.arch_independent`, predict Haswell;
3. compare median errors at the same K.

Both pipelines share Steps A/B/D/E; only the Step C feature space
changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..analysis.arch_independent import arch_independent_matrix
from ..core.pipeline import cluster_and_select
from ..machine.architecture import HASWELL, Architecture
from ..machine.noise import median
from .context import ExperimentContext
from .report import format_table


@dataclass(frozen=True)
class WhatIfRow:
    feature_set: str
    k: int
    median_error_pct: float
    average_error_pct: float


@dataclass(frozen=True)
class WhatIfResult:
    target_name: str
    rows: Tuple[WhatIfRow, ...]

    def row(self, feature_set: str) -> WhatIfRow:
        for r in self.rows:
            if r.feature_set == feature_set:
                return r
        raise KeyError(feature_set)

    def format(self) -> str:
        table = format_table(
            ("Feature set", "K", "median %", "average %"),
            [(r.feature_set, r.k, r.median_error_pct,
              r.average_error_pct) for r in self.rows],
            f"What-if: predicting {self.target_name} (AVX, unseen in "
            f"training)")
        return (table + "\nBoth feature spaces must keep the method "
                        "usable on an unseen vector ISA (Section 5).")


def run_whatif(ctx: ExperimentContext, k: int = 16,
               target: Architecture = HASWELL) -> WhatIfResult:
    profiles = ctx.nas.profiling().profiles
    by_name = {p.name: p for p in profiles}
    ill_behaved, ineligible = ctx.nas.fidelity()
    real = {p.name: ctx.measurer.measure_inapp(p.codelet, target)
            for p in profiles}
    rows = []
    for feature_set, features in (
            ("reference-trained (Table 2)", ctx.nas.feature_matrix()),
            ("architecture-independent", arch_independent_matrix(profiles))):
        _, selection, model = cluster_and_select(
            profiles, ctx.config.rows(features), k, ill_behaved,
            frozenset(ineligible))
        rep_times = {r: ctx.measurer.benchmark_standalone(
            by_name[r].codelet, target).per_invocation_s
            for r in selection.representatives}
        errors = model.errors(rep_times, real)
        rows.append(WhatIfRow(feature_set, selection.k,
                              float(median(errors)), float(np.mean(errors))))
    return WhatIfResult(target.name, tuple(rows))
