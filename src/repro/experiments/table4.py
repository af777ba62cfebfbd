"""Table 4 — Numerical Recipes prediction errors.

Predicts the NR codelets on Atom and Sandy Bridge from K=14 clusters and
from the elbow-selected K (the paper's elbow picked 24, where almost
every codelet is its own representative and errors vanish), reporting
median and average errors against the paper's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..machine.architecture import ATOM, SANDY_BRIDGE
from .context import ExperimentContext
from .report import format_table

#: Paper Table 4 (percent).
PAPER_TABLE4 = {
    ("Atom", 14): {"median": 1.8, "average": 12.0},
    ("Sandy Bridge", 14): {"median": 3.2, "average": 9.3},
    ("Atom", "elbow"): {"median": 0.0, "average": 1.70},
    ("Sandy Bridge", "elbow"): {"median": 0.0, "average": 0.97},
}


@dataclass(frozen=True)
class Table4Cell:
    arch_name: str
    k_label: str
    k: int
    median: float
    average: float
    paper_median: float
    paper_average: float


@dataclass(frozen=True)
class Table4Result:
    cells: Tuple[Table4Cell, ...]
    elbow_k: int

    def cell(self, arch_name: str, k_label: str) -> Table4Cell:
        for c in self.cells:
            if c.arch_name == arch_name and c.k_label == k_label:
                return c
        raise KeyError((arch_name, k_label))

    def format(self) -> str:
        headers = ("Target", "K", "median %", "avg %",
                   "paper median %", "paper avg %")
        rows = [(c.arch_name, f"{c.k} ({c.k_label})", c.median,
                 c.average, c.paper_median, c.paper_average)
                for c in self.cells]
        return format_table(
            headers, rows,
            f"Table 4: NR prediction errors (elbow K={self.elbow_k})")


def run_table4(ctx: ExperimentContext) -> Table4Result:
    cells = []
    elbow = ctx.nr.elbow()
    for k_label, k in (("14", 14), ("elbow", "elbow")):
        for arch in (ATOM, SANDY_BRIDGE):
            ev = ctx.evaluation("nr", k, arch)
            paper = PAPER_TABLE4[(arch.name,
                                  14 if k_label == "14" else "elbow")]
            cells.append(Table4Cell(
                arch_name=arch.name,
                k_label=k_label,
                k=ctx.reduced("nr", k).k,
                median=ev.median_error_pct,
                average=ev.average_error_pct,
                paper_median=paper["median"],
                paper_average=paper["average"],
            ))
    return Table4Result(tuple(cells), elbow)
