"""Figure 3 — error / reduction-factor trade-off as K grows (NAS).

Sweeps the number of clusters on the NAS suite and reports, per target
architecture, the median prediction error and the benchmarking
reduction factor, with the elbow K marked.  The paper's elbow lands at
18 with errors 3.9-8% and reductions x22-x44.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from ..machine.architecture import ATOM, CORE2, SANDY_BRIDGE
from .context import ExperimentContext
from .report import format_series

#: Paper's headline point (at the elbow, K=18).
PAPER_ELBOW = {
    "Atom": {"error": 8.0, "reduction": 44.0},
    "Core 2": {"error": 3.9, "reduction": 25.0},
    "Sandy Bridge": {"error": 5.8, "reduction": 23.0},
}


@dataclass(frozen=True)
class Figure3Point:
    arch_name: str
    requested_k: int
    k: int                      # final K after ill-behaved handling
    median_error_pct: float
    reduction_factor: float


@dataclass(frozen=True)
class Figure3Result:
    points: Tuple[Figure3Point, ...]
    elbow_k: int

    def series(self, arch_name: str) -> Tuple[Figure3Point, ...]:
        return tuple(p for p in self.points if p.arch_name == arch_name)

    def at(self, arch_name: str, requested_k: int) -> Figure3Point:
        for p in self.points:
            if p.arch_name == arch_name and p.requested_k == requested_k:
                return p
        raise KeyError((arch_name, requested_k))

    def format(self) -> str:
        lines = [f"Figure 3: error vs reduction trade-off "
                 f"(elbow K={self.elbow_k})"]
        for arch in ("Atom", "Core 2", "Sandy Bridge"):
            pts = self.series(arch)
            ks = [p.requested_k for p in pts]
            lines.append(format_series(
                f"{arch} median error %", ks,
                [p.median_error_pct for p in pts]))
            lines.append(format_series(
                f"{arch} reduction x", ks,
                [p.reduction_factor for p in pts]))
            elbow_pt = self.at(arch, self.elbow_k)
            paper = PAPER_ELBOW[arch]
            lines.append(
                f"  at elbow: error {elbow_pt.median_error_pct:.1f}% "
                f"(paper {paper['error']}%), reduction "
                f"x{elbow_pt.reduction_factor:.0f} "
                f"(paper x{paper['reduction']:.0f})")
        return "\n".join(lines)


def run_figure3(ctx: ExperimentContext,
                ks: Sequence[int] = tuple(range(2, 25, 2))
                ) -> Figure3Result:
    elbow = ctx.nas.elbow()
    sweep = sorted(set(list(ks) + [elbow]))
    points = []
    for k in sweep:
        reduced = ctx.reduced("nas", k)
        for arch in (ATOM, CORE2, SANDY_BRIDGE):
            ev = ctx.evaluation("nas", k, arch)
            points.append(Figure3Point(
                arch_name=arch.name,
                requested_k=k,
                k=reduced.k,
                median_error_pct=ev.median_error_pct,
                reduction_factor=ev.reduction.total_factor,
            ))
    return Figure3Result(tuple(points), elbow)
