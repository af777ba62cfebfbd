"""Figure 8 — cross-application vs per-application subsetting.

Sweeps the representative budget.  Per-application subsetting (the
SimPoint-like regime) distributes the budget evenly over applications
and cannot exploit inter-application redundancy — nor predict an
application whose codelets are all ill-behaved (MG).  Cross-application
subsetting reaches lower errors with fewer representatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from ..core.subsetting import (SubsettingComparison,
                               cross_application_subsetting,
                               per_application_subsetting)
from ..machine.architecture import ATOM, CORE2, SANDY_BRIDGE
from .context import ExperimentContext
from .report import format_series


@dataclass(frozen=True)
class Figure8Point:
    arch_name: str
    reps_per_app: int
    per_app: SubsettingComparison
    cross_app: SubsettingComparison


@dataclass(frozen=True)
class Figure8Result:
    points: Tuple[Figure8Point, ...]

    def series(self, arch_name: str) -> Tuple[Figure8Point, ...]:
        return tuple(p for p in self.points if p.arch_name == arch_name)

    def cross_wins_fraction(self, arch_name: str) -> float:
        pts = self.series(arch_name)
        wins = sum(1 for p in pts
                   if p.cross_app.median_error_pct
                   <= p.per_app.median_error_pct)
        return wins / len(pts)

    def mg_unpredictable_everywhere(self) -> bool:
        """The paper's MG observation: per-application subsetting cannot
        predict MG because its codelets are ill-behaved."""
        return all("mg" in p.per_app.unpredictable for p in self.points)

    def format(self) -> str:
        lines = ["Figure 8: across-applications vs per-application "
                 "subsetting"]
        for arch in ("Atom", "Core 2", "Sandy Bridge"):
            pts = self.series(arch)
            budgets = [p.cross_app.total_representatives for p in pts]
            lines.append(format_series(
                f"{arch} across-apps %", budgets,
                [p.cross_app.median_error_pct for p in pts]))
            lines.append(format_series(
                f"{arch} per-app %",
                [p.per_app.total_representatives for p in pts],
                [p.per_app.median_error_pct for p in pts]))
            lines.append(
                f"  across-apps wins at "
                f"{100 * self.cross_wins_fraction(arch):.0f}% of "
                f"budgets; per-app unpredictable: "
                f"{sorted(set(sum((p.per_app.unpredictable for p in pts), ())))}")
        return "\n".join(lines)


def run_figure8(ctx: ExperimentContext,
                reps_per_app: Sequence[int] = (1, 2, 3),
                targets=(ATOM, CORE2, SANDY_BRIDGE)) -> Figure8Result:
    n_apps = len(ctx.nas.suite.applications)
    points = []
    for budget in reps_per_app:
        for arch in targets:
            per_app = per_application_subsetting(ctx, arch, budget)
            cross = cross_application_subsetting(ctx, arch,
                                                 budget * n_apps)
            points.append(Figure8Point(arch.name, budget, per_app,
                                       cross))
    return Figure8Result(tuple(points))
