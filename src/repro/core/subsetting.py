"""Cross-application vs per-application subsetting (Figure 8).

SimPoint-style approaches cluster phases *within* one program, so a
representative can never predict another application.  The paper's
method shares representatives across the whole suite; Figure 8 shows
that this exploits inter-application redundancy and reaches low errors
with far fewer representatives.

``per_application_subsetting`` simulates the SimPoint-like regime: Steps
A-E run on each application separately, with the representative budget
split evenly, and the per-codelet errors aggregated afterwards.  An
application whose codelets are all ill-behaved (MG in the paper) cannot
be predicted this way and is reported in ``unpredictable``.

Both take the :class:`repro.experiments.ExperimentContext` and ask it
for every reducer (``"nas"``, or ``"nas:bt"`` for one application),
reduction and evaluation, which it builds once and caches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..machine.architecture import Architecture
from .prediction import CodeletPrediction, median_error
from .representatives import NoRepresentativeError


@dataclass(frozen=True)
class SubsettingComparison:
    """One point of Figure 8: error at a representative budget."""

    arch_name: str
    total_representatives: int
    median_error_pct: float
    codelets: Tuple[CodeletPrediction, ...]
    unpredictable: Tuple[str, ...] = ()


def cross_application_subsetting(ctx, target: Architecture,
                                 k: int) -> SubsettingComparison:
    """Shared representatives across the NAS suite at budget ``k``."""
    evaluation = ctx.evaluation("nas", k, target)
    return SubsettingComparison(
        arch_name=target.name,
        total_representatives=len(ctx.reduced("nas", k).representatives),
        median_error_pct=evaluation.median_error_pct,
        codelets=evaluation.codelets,
    )


def per_application_subsetting(ctx, target: Architecture,
                               reps_per_app: int) -> SubsettingComparison:
    """Independent per-application subsetting (the SimPoint-like regime).

    Each NAS application gets ``reps_per_app`` representatives.  Apps
    where representative selection fails outright (all codelets
    ill-behaved: :class:`NoRepresentativeError`) are excluded from the
    error computation and listed as unpredictable, as the paper does
    for MG.  Any other error of an application's Steps C-D propagates.
    """
    all_predictions: List[CodeletPrediction] = []
    unpredictable: List[str] = []
    total_reps = 0
    for app in ctx.nas.suite.applications:
        name = f"nas:{app.name}"
        n_codelets = len(ctx.reducer(name).profiling().profiles)
        if n_codelets == 0:
            unpredictable.append(app.name)
            continue
        k = max(1, min(reps_per_app, n_codelets))
        try:
            reduced = ctx.reduced(name, k)
        except NoRepresentativeError:
            # Every codelet ill-behaved: no faithful representative.
            unpredictable.append(app.name)
            continue
        total_reps += len(reduced.representatives)
        all_predictions.extend(ctx.evaluation(name, k, target).codelets)
    if not all_predictions:
        raise ValueError("no application could be predicted")
    return SubsettingComparison(
        arch_name=target.name,
        total_representatives=total_reps,
        median_error_pct=median_error(all_predictions),
        codelets=tuple(all_predictions),
        unpredictable=tuple(unpredictable),
    )
