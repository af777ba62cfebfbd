"""Pass ``bounds`` — out-of-bounds detection for affine accesses (L301).

Every subscript is affine in loop variables whose ranges the context
derives by interval evaluation of the (affine) loop bounds, so each
dimension's reachable index span is computable in closed form.  A span
that provably escapes ``[0, extent)`` is an error: the extracted
microbenchmark would fault or silently read a neighbouring array in
the memory dump.

The interval is conservative only for correlated triangular bounds; it
is exact for the rectangular and triangular nests the IR builder
produces, so an L301 is a proof, not a heuristic.
"""

from __future__ import annotations

from typing import List

from ...ir.dependence import AnalysisContext
from .diagnostics import Diagnostic, Severity
from .registry import lint_pass, make_diagnostic


@lint_pass(
    "bounds", ("L301",),
    "out-of-bounds detection: affine index spans checked against "
    "declared array extents")
def check_bounds(ctx: AnalysisContext) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    for site in ctx.sites:
        if ctx.unreachable(site):
            continue
        violations = []
        for d, idx in enumerate(site.indices):
            lo, hi = ctx.index_interval(idx)
            extent = site.array.shape[d]
            if lo < 0 or hi >= extent:
                violations.append(f"dim {d} spans [{lo}, {hi}] outside "
                                  f"[0, {extent})")
        if violations:
            access = "store" if site.is_store else "load"
            diags.append(make_diagnostic(
                ctx, code="L301", pass_id="bounds",
                severity=Severity.ERROR, site=site.site_id,
                array=site.array.name,
                message=(f"{access} {site.site_id} indexes "
                         f"{site.array.name!r} out of bounds: "
                         + "; ".join(violations))))
    return diags
