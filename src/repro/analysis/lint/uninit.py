"""Pass ``uninit`` — uninitialized-read detection (L401).

A kernel may declare its *input* arrays (:attr:`Kernel.inputs`); the
extractor's memory dump then guarantees those are materialised before
the first invocation.  Under a declared contract, a load from an array
that is never stored by the kernel and is not an input reads memory
nothing defined — in the original system this is a codelet whose
standalone microbenchmark computes on garbage.

Kernels that do not declare inputs (``inputs is None``) keep the
historical convention that every array is externally initialised, so
the pass stays silent on them.
"""

from __future__ import annotations

from typing import List

from ...ir.dependence import AnalysisContext
from .diagnostics import Diagnostic, Severity
from .registry import lint_pass, make_diagnostic


@lint_pass(
    "uninit", ("L401",),
    "uninitialized-read detection: loads from arrays never stored and "
    "not declared kernel inputs")
def check_uninitialized_reads(ctx: AnalysisContext) -> List[Diagnostic]:
    inputs = ctx.kernel.inputs
    if inputs is None:
        return []
    declared = set(inputs)
    stored = set(ctx.stored_arrays)
    diags: List[Diagnostic] = []
    for name in ctx.loaded_arrays:
        if name in stored or name in declared:
            continue
        site = next(s for s in ctx.load_sites if s.array.name == name)
        diags.append(make_diagnostic(
            ctx, code="L401", pass_id="uninit",
            severity=Severity.ERROR, site=site.site_id, array=name,
            message=(f"load {site.site_id} reads {name!r}, which is "
                     "never stored by the kernel and is not a declared "
                     "input")))
    return diags
