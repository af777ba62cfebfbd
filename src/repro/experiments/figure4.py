"""Figure 4 — per-codelet predicted vs real times on Sandy Bridge.

Reports, per NAS application, each codelet's reference / real / predicted
per-invocation time on Sandy Bridge.  The paper's median error is 5.8%,
with the residual concentrated in short-lived codelets (< 10 ms per
invocation) where probe overhead bites; the result object exposes both
populations so tests can check that property too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..machine.architecture import SANDY_BRIDGE
from ..machine.noise import median
from ..suites.nas import NAS_APP_ORDER
from .context import ExperimentContext
from .report import format_table

#: Real per-invocation time (ms) below which a codelet is short-lived.
SHORT_LIVED_MS = 10.0


@dataclass(frozen=True)
class Figure4Row:
    app: str
    codelet: str
    ref_ms: float
    real_ms: float
    predicted_ms: float
    error_pct: float


@dataclass(frozen=True)
class Figure4Result:
    rows: Tuple[Figure4Row, ...]

    @property
    def median_error_pct(self) -> float:
        return float(median([r.error_pct for r in self.rows]))

    def app_rows(self, app: str) -> Tuple[Figure4Row, ...]:
        return tuple(r for r in self.rows if r.app == app)

    def median_error_short_lived(self) -> float:
        short = [r.error_pct for r in self.rows
                 if r.real_ms < SHORT_LIVED_MS]
        return float(median(short)) if short else 0.0

    def median_error_long_lived(self) -> float:
        long_ = [r.error_pct for r in self.rows
                 if r.real_ms >= SHORT_LIVED_MS]
        return float(median(long_)) if long_ else 0.0

    def format(self) -> str:
        headers = ("App", "Codelet", "Ref ms", "SB real ms",
                   "SB predicted ms", "error %")
        body = [(r.app, r.codelet, r.ref_ms, r.real_ms,
                 r.predicted_ms, r.error_pct) for r in self.rows]
        table = format_table(headers, body,
                             "Figure 4: Sandy Bridge codelet prediction")
        return (table +
                f"\nmedian error: {self.median_error_pct:.1f}% "
                f"(paper 5.8%); short-lived codelets "
                f"{self.median_error_short_lived():.1f}% vs long-lived "
                f"{self.median_error_long_lived():.1f}%")


def run_figure4(ctx: ExperimentContext, k="elbow") -> Figure4Result:
    evaluation = ctx.evaluation("nas", k, SANDY_BRIDGE)
    rows = []
    for app in NAS_APP_ORDER:
        for pred in evaluation.codelets:
            if pred.app != app:
                continue
            rows.append(Figure4Row(
                app=app,
                codelet=pred.name,
                ref_ms=pred.ref_seconds * 1e3,
                real_ms=pred.real_seconds * 1e3,
                predicted_ms=pred.predicted_seconds * 1e3,
                error_pct=pred.error_pct,
            ))
    return Figure4Result(tuple(rows))
