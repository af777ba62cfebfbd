"""Runtime knobs: worker fan-out, the profile cache, and resilience.

:class:`RuntimeConfig` is carried by
:class:`repro.core.pipeline.SubsettingConfig` and surfaced on the CLI as
``--jobs`` / ``--cache-dir`` plus the resilience flags ``--retries`` /
``--fault-plan`` / ``--strict``.
The defaults (serial, no cache, two retries, no faults) reproduce the
historical results exactly: with no faults to recover from, the
resilient path computes bit-identical values to the plain one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cache import DiskCache
from .executor import Executor, make_executor
from .faults import FaultPlan
from .resilience import ResilientExecutor, RetryPolicy, RunHealth


@dataclass(frozen=True)
class RuntimeConfig:
    """How batch-parallel pipeline stages execute.

    Attributes
    ----------
    jobs:
        Worker processes for Step B profiling and Step E target
        measurement; 1 = serial, 0 = one per core.
    cache_dir:
        Directory of the content-addressed profile cache; ``None``
        disables caching entirely.
    retries:
        Extra attempts per failed task before its circuit breaker
        quarantines it (the CLI's ``--retries``; 0 restores the
        historical fail-fast behaviour).
    fault_plan:
        Deterministic fault injection (``--fault-plan``); ``None`` in
        production.
    strict:
        Escalate graceful degradation (quarantines, cache poisoning,
        destroyed clusters) into a non-zero CLI exit instead of a
        health-report footnote.
    """

    jobs: int = 1
    cache_dir: Optional[str] = None
    retries: int = 2
    fault_plan: Optional[FaultPlan] = None
    strict: bool = False

    def make_executor(self) -> Executor:
        """A fresh executor for ``jobs`` (use as a context manager)."""
        return make_executor(self.jobs)

    def make_cache(self, obs=None) -> Optional[DiskCache]:
        """The profile cache, or ``None`` when caching is off.

        ``obs`` (an :class:`repro.obs.Observation`) mirrors the cache
        accounting into the run's ``cache.*`` metrics.
        """
        if self.cache_dir:
            return DiskCache(self.cache_dir, obs=obs)
        return None

    @property
    def resilience_active(self) -> bool:
        """Whether pipeline stages should run through the resilient
        executor.  ``--retries 0`` with no fault plan restores the
        historical fail-fast code path exactly."""
        return self.retries > 0 or self.fault_plan is not None

    def make_resilience(self, health: Optional[RunHealth] = None,
                        obs=None) -> Optional[ResilientExecutor]:
        """A run-scoped resilient executor, or ``None`` when inactive.

        One instance must span the whole pipeline run so the per-task
        circuit breaker carries quarantine decisions across stages.
        ``obs`` (an :class:`repro.obs.Observation`) turns retry rounds
        into trace spans and failure handling into ``resilience.*``
        metrics.
        """
        if not self.resilience_active:
            return None
        return ResilientExecutor(policy=RetryPolicy(retries=self.retries),
                                 fault_plan=self.fault_plan,
                                 health=health, obs=obs)
