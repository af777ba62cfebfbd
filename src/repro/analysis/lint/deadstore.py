"""Pass ``deadstore`` — dead-store detection (L501).

Within one straight-line block, a store whose exact location is written
again before any possible read of the array is dead: its value cannot
be observed.  The check is conservative across control flow — a nested
loop that loads *or* stores the array clears every pending candidate
for it, so only same-block, provably-unread overwrites are reported.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ...ir.dependence import AnalysisContext
from ...ir.expr import AffineIndex
from ...ir.stmt import Block, Loop, Store, walk_statements
from .diagnostics import Diagnostic, Severity
from .registry import lint_pass, make_diagnostic

_Key = Tuple[str, Tuple[AffineIndex, ...]]


def _arrays_touched(loop: Loop) -> Tuple[set, set]:
    """(loaded, stored) array names anywhere under ``loop``."""
    loaded, stored = set(), set()
    for stmt, _ in walk_statements(loop):
        if isinstance(stmt, Store):
            stored.add(stmt.array.name)
            for ld in stmt.loads():
                loaded.add(ld.array.name)
    return loaded, stored


@lint_pass(
    "deadstore", ("L501",),
    "dead-store detection: a store overwritten in the same block "
    "before any read of the array")
def check_dead_stores(ctx: AnalysisContext) -> List[Diagnostic]:
    ordinal_of = {id(store): k for k, (store, _) in enumerate(ctx.stores)}
    diags: List[Diagnostic] = []
    blocks: List[Block] = [ctx.kernel.body]
    blocks.extend(lp.body for lp in ctx.loops)
    for block in blocks:
        pending: Dict[_Key, Store] = {}
        for stmt in block:
            if isinstance(stmt, Store):
                # RHS reads happen before the write kills anything.
                for ld in stmt.loads():
                    for key in [k for k in pending
                                if k[0] == ld.array.name]:
                        del pending[key]
                key = (stmt.array.name, stmt.indices)
                prev = pending.get(key)
                if prev is not None:
                    prev_id = f"S{ordinal_of[id(prev)]}"
                    over_id = f"S{ordinal_of[id(stmt)]}"
                    diags.append(make_diagnostic(
                        ctx, code="L501", pass_id="deadstore",
                        severity=Severity.WARNING, site=prev_id,
                        array=stmt.array.name,
                        message=(f"store {prev_id} to "
                                 f"{stmt.array.name!r} is dead: "
                                 f"overwritten by {over_id} before any "
                                 "read")))
                pending[key] = stmt
            elif isinstance(stmt, Loop):
                loaded, stored = _arrays_touched(stmt)
                touched = loaded | stored
                for key in [k for k in pending if k[0] in touched]:
                    del pending[key]
    return diags
