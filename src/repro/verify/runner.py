"""Orchestration: one call runs the whole verification harness.

:func:`run_verify` seeds a synthetic suite, executes the invariant
registry and the differential oracle against it, and assembles a
:class:`~repro.verify.report.VerifyReport`.  The ``repro verify`` CLI
subcommand is a thin wrapper over this function, so tests exercise the
exact production path.
"""

from __future__ import annotations

from typing import Optional

from .invariants import (BREAKAGES, REGISTRY, VerifyContext,
                         run_registry)
from .oracle import DIFFERENTIAL_CASES, run_differential
from .report import VerifyReport


def run_verify(seed: int = 0, n_apps: int = 3,
               codelets_per_app: int = 4,
               breakage: Optional[str] = None,
               skip_differential: bool = False) -> VerifyReport:
    """Run the harness on one seeded synthetic suite.

    ``breakage`` injects a named defect from :data:`BREAKAGES`; the
    returned report then documents which invariant caught it (the
    differential cases still run — a defect shared by both sides of a
    pair is exactly what they *cannot* see, which is why the registry
    exists).  A suite with no codelet left to cluster raises
    ``ValueError`` before any check runs.
    """
    ctx = VerifyContext(seed=seed, n_apps=n_apps,
                        codelets_per_app=codelets_per_app,
                        breakage=breakage)
    reduced = ctx.reduced
    invariants = run_registry(ctx)
    differentials = [] if skip_differential else run_differential(ctx)
    return VerifyReport(
        seed=seed,
        suite_name=ctx.suite.name,
        n_codelets=len(ctx.codelets),
        n_profiled=len(reduced.profiles),
        n_discarded=len(reduced.discarded),
        breakage=breakage,
        invariants=tuple(invariants),
        differentials=tuple(differentials),
    )


def describe_registry() -> str:
    """The ``repro verify --list`` text: every invariant, differential
    case and injectable defect with its one-line contract."""
    lines = [f"invariants ({len(REGISTRY)}):"]
    for inv in REGISTRY.values():
        lines.append(f"  {inv.name:32s} {inv.description}")
    lines.append("")
    lines.append(f"differential cases ({len(DIFFERENTIAL_CASES)}):")
    for case in DIFFERENTIAL_CASES.values():
        lines.append(f"  {case.name:32s} {case.description}")
    lines.append("")
    lines.append(f"injectable defects ({len(BREAKAGES)}, via --break):")
    for name, row in BREAKAGES.items():
        caught_by = " and ".join(f"'{inv}'" for inv in row.caught_by)
        lines.append(f"  {name:32s} {row.description}; "
                     f"caught by {caught_by}")
    return "\n".join(lines)
