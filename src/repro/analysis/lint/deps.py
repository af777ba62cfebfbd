"""Pass ``deps`` — loop-carried dependence analysis (L101-L104).

For every store the pass tests dependence against each read of the same
array inside the same nest, and against itself:

* a carried store/load pair with a resolved distance vector is a
  recurrence — legal IR, but not vectorizable and a hazard for
  outlining transformations (**L101**, warning);
* a carried pair whose distance cannot be resolved (non-uniform
  subscripts with overlapping ranges, or an underdetermined system) is
  reported conservatively (**L102**, warning);
* a store whose right-hand side reads the stored location and whose
  dependence is carried only through *free* loops is a reduction
  accumulation — outlineable, reported for information (**L103**);
* a non-reduction store that hits the same location on every iteration
  of some enclosing loop (carried output self-dependence) loses all but
  the last value (**L104**, warning).
"""

from __future__ import annotations

from typing import List

from ...ir.dependence import FREE, AnalysisContext, format_distance
from .diagnostics import Diagnostic, Severity
from .registry import lint_pass, make_diagnostic


def _pair_message(ctx: AnalysisContext, store_site, load_site, dep) -> str:
    dist = format_distance(ctx, dep)
    if dep.kind != "uniform" or any(d is FREE for d in dep.distance):
        return (f"loop-carried dependence between store {store_site.site_id} "
                f"and read {load_site.site_id} of {store_site.array.name!r}, "
                f"{dist}")
    first = next(d for d in dep.distance if d != 0)
    kind = ("read-after-write" if first > 0 else "write-after-read")
    return (f"loop-carried {kind} between store {store_site.site_id} and "
            f"read {load_site.site_id} of {store_site.array.name!r}, "
            f"distance {dist}")


@lint_pass(
    "deps", ("L101", "L102", "L103", "L104"),
    "loop-carried dependence analysis over affine subscripts "
    "(distance/direction vectors; recurrences, reductions, overwrites)")
def check_carried_dependences(ctx: AnalysisContext) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    for store_site in ctx.store_sites:
        store, _ = ctx.stores[store_site.store_ordinal]
        reduction = ctx.is_reduction_store(store)
        # -- store vs. every read of the same array -----------------------
        for load_site in ctx.load_sites:
            if load_site.array.name != store_site.array.name:
                continue
            dep = ctx.dependence_between(store_site, load_site)
            if dep is None or not dep.carried:
                continue
            accumulation = (load_site.store_ordinal
                            == store_site.store_ordinal
                            and load_site.indices == store_site.indices)
            if reduction and accumulation:
                if dep.kind == "uniform":
                    diags.append(make_diagnostic(
                        ctx, code="L103", pass_id="deps",
                        severity=Severity.INFO, site=store_site.site_id,
                        array=store_site.array.name,
                        message=(f"reduction accumulation into "
                                 f"{store_site.array.name!r}, carried "
                                 f"{format_distance(ctx, dep)}")))
                    continue
            resolved = (dep.kind == "uniform"
                        and all(d is not FREE for d in dep.distance))
            diags.append(make_diagnostic(
                ctx, code="L101" if resolved else "L102", pass_id="deps",
                severity=Severity.WARNING,
                site=f"{store_site.site_id}/{load_site.site_id}",
                array=store_site.array.name,
                message=_pair_message(ctx, store_site, load_site, dep)))
        # -- store vs. itself (carried overwrite) --------------------------
        if reduction:
            continue
        self_dep = ctx.dependence_between(store_site, store_site)
        if self_dep is not None and self_dep.carried \
                and self_dep.kind == "uniform":
            carried = ", ".join(ctx.loop_label(lp)
                                for lp in self_dep.carried_loops())
            diags.append(make_diagnostic(
                ctx, code="L104", pass_id="deps",
                severity=Severity.WARNING, site=store_site.site_id,
                array=store_site.array.name,
                message=(f"store {store_site.site_id} writes the same "
                         f"element of {store_site.array.name!r} on every "
                         f"iteration of {carried}; only the last value "
                         "survives")))
    return diags
