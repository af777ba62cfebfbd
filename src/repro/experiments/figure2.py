"""Figure 2 — predicted vs real Atom times for two NR clusters.

The paper illustrates the model on cluster 1 ({toeplz_1, rstrct_29,
mprove_8, toeplz_4}, representative toeplz_1) and cluster 2
({realft_4}): representatives have 0% error by construction, and the
representative's speedup translated onto each sibling gives the
prediction.  We report the clusters our K=14 cut builds around the same
two anchor codelets; an anchor a fault plan dropped in Step B is
skipped (the run health names it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..machine.architecture import ATOM
from .context import ExperimentContext
from .report import format_table

ANCHORS = ("toeplz_1", "realft_4")


@dataclass(frozen=True)
class Figure2Row:
    codelet: str
    anchor: str                  # which anchor cluster it belongs to
    ref_ms: float                # Nehalem, per invocation
    real_atom_ms: float
    predicted_atom_ms: float
    error_pct: float
    is_representative: bool


@dataclass(frozen=True)
class Figure2Result:
    rows: Tuple[Figure2Row, ...]

    def representatives(self) -> Tuple[str, ...]:
        return tuple(r.codelet for r in self.rows
                     if r.is_representative)

    def format(self) -> str:
        headers = ("Cluster of", "Codelet", "Ref ms", "Atom real ms",
                   "Atom predicted ms", "error %", "rep")
        body = [(r.anchor, r.codelet, r.ref_ms, r.real_atom_ms,
                 r.predicted_atom_ms, r.error_pct,
                 r.is_representative) for r in self.rows]
        return format_table(headers, body,
                            "Figure 2: Atom prediction, clusters around "
                            "toeplz_1 and realft_4")


def run_figure2(ctx: ExperimentContext, k: int = 14) -> Figure2Result:
    reduced = ctx.reduced("nr", k)
    evaluation = ctx.evaluation("nr", k, ATOM)
    preds = {p.name: p for p in evaluation.codelets}
    reps = set(reduced.representatives)

    rows = []
    for anchor in ANCHORS:
        anchor_name = next((p.name for p in reduced.profiles
                            if p.app == anchor), None)
        if anchor_name is None:
            continue
        cluster_idx = reduced.selection.cluster_of(anchor_name)
        for member in reduced.selection.clusters[cluster_idx]:
            pred = preds[member]
            rows.append(Figure2Row(
                codelet=next(p.app for p in reduced.profiles
                             if p.name == member),
                anchor=anchor,
                ref_ms=pred.ref_seconds * 1e3,
                real_atom_ms=pred.real_seconds * 1e3,
                predicted_atom_ms=pred.predicted_seconds * 1e3,
                error_pct=pred.error_pct,
                is_representative=member in reps,
            ))
    return Figure2Result(tuple(rows))
