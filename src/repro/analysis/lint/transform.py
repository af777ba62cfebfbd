"""Pass ``transform`` — loop-transformation opportunities (L601-L606).

Surfaces the :mod:`repro.ir.rewrite` legality analysis as lint
diagnostics, so ``repro lint`` reports per kernel which classic loop
rewrites its dependence structure admits:

* **L601/L602** — interchange of the two outermost loops of a >=2-deep
  perfect nest is legal (opportunity) / blocked by a dependence whose
  direction vector would flip lexicographic sign;
* **L603/L604** — the whole perfect band is fully permutable (tilable)
  / tiling blocked by a ``>`` direction entry;
* **L605/L606** — two adjacent same-bounds top-level loops are fusable
  / fusion blocked by a backward dependence after alignment.

All findings are INFO severity: they describe headroom, not defects.
Messages cite only canonical loop/site labels, so reports stay
byte-identical across builds (``lint-determinism``).
"""

from __future__ import annotations

from typing import List

from ...ir.dependence import AnalysisContext
from ...ir.rewrite.legality import (fuse_verdict, interchange_verdict,
                                    tile_verdict)
from ...ir.rewrite.substitute import perfect_chain, scoping_ok
from ...ir.stmt import Loop
from .diagnostics import Diagnostic, Severity
from .registry import lint_pass, make_diagnostic


@lint_pass(
    "transform", ("L601", "L602", "L603", "L604", "L605", "L606"),
    "loop-transformation legality from direction-vector matrices "
    "(interchange, tiling, fusion opportunities and blockers)")
def check_transformations(ctx: AnalysisContext) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    outer_loops = [s for s in ctx.kernel.body if isinstance(s, Loop)]

    for outer in outer_loops:
        chain = perfect_chain(outer)
        if len(chain) < 2:
            continue
        labels = [ctx.loop_label(lp) for lp in chain]
        pair_site = f"{labels[0]}/{labels[1]}"
        band_site = "/".join(labels)
        swapped = list(chain)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        if scoping_ok(swapped):
            verdict = interchange_verdict(ctx, chain, 0, 1)
            if verdict.legal:
                diags.append(make_diagnostic(
                    ctx, code="L601", pass_id="transform",
                    severity=Severity.INFO, site=pair_site,
                    message=(f"loop interchange {labels[0]}<->"
                             f"{labels[1]} is legal — transformation "
                             "opportunity")))
            else:
                diags.append(make_diagnostic(
                    ctx, code="L602", pass_id="transform",
                    severity=Severity.INFO, site=pair_site,
                    message=(f"loop interchange {labels[0]}<->"
                             f"{labels[1]} blocked by "
                             f"{verdict.blocking}")))
        # Mirror the tile pass's structural gate: only rectangular
        # constant-bound bands are tiling candidates, so a triangular
        # nest is neither an opportunity nor a blocker.
        if any(not (lp.lower.is_constant() and lp.upper.is_constant())
               for lp in chain):
            continue
        verdict = tile_verdict(ctx, chain)
        if verdict.legal:
            diags.append(make_diagnostic(
                ctx, code="L603", pass_id="transform",
                severity=Severity.INFO, site=band_site,
                message=(f"band ({', '.join(labels)}) is fully "
                         "permutable — tilable")))
        else:
            diags.append(make_diagnostic(
                ctx, code="L604", pass_id="transform",
                severity=Severity.INFO, site=band_site,
                message=(f"tiling of band ({', '.join(labels)}) "
                         f"blocked by {verdict.blocking}")))

    for first, second in zip(outer_loops, outer_loops[1:]):
        if (first.lower, first.upper) != (second.lower, second.upper):
            continue
        la, lb = ctx.loop_label(first), ctx.loop_label(second)
        verdict = fuse_verdict(ctx, first, second)
        if verdict.legal:
            diags.append(make_diagnostic(
                ctx, code="L605", pass_id="transform",
                severity=Severity.INFO, site=f"{la}+{lb}",
                message=(f"adjacent loops {la} and {lb} are fusable — "
                         "transformation opportunity")))
        else:
            diags.append(make_diagnostic(
                ctx, code="L606", pass_id="transform",
                severity=Severity.INFO, site=f"{la}+{lb}",
                message=(f"fusing loops {la} and {lb} blocked by "
                         f"{verdict.blocking}")))
    return diags
