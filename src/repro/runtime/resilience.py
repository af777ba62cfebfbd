"""Fault-tolerant task execution: retries, quarantine, run health.

The historical executors (:mod:`repro.runtime.executor`) treat every
task failure as fatal — one crashed worker aborts a whole Step B/E
batch.  This module wraps them with the failure semantics a production
measurement harness needs:

* **retries** — a failed attempt is retried up to ``retries`` more
  times, in back-to-back rounds over the still-failing tasks, the batch
  staying in input order and every value bit-identical to a
  failure-free run (tasks are pure functions of their payload, so
  re-running one is always safe);
* **per-task circuit breaker** — a task whose attempts are exhausted is
  *quarantined*: it is reported, not raised, and any later execution of
  the same (stage, task) key short-circuits without running;
* **structured health reporting** — every attempt, failure, retry and
  quarantine is recorded in a :class:`RunHealth` whose JSON rendering
  is deterministic (no wall-clock values), so replaying a run with the
  same seed and fault plan yields byte-identical health reports.

Deterministic fault injection (:mod:`repro.runtime.faults`) plugs in
underneath: injected crashes/timeouts/corruptions surface exactly like
organic ones, which is how the test-suite proves the degradation paths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Optional, Sequence,
                    Tuple)

from ..obs import Observation
from .executor import Executor, SerialExecutor
from .faults import (CorruptResult, FaultPlan, InjectedCrash,
                     InjectedFault, InjectedTimeout)


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the executor tries before quarantining a task.

    ``retries`` is the number of *extra* attempts after the first, so a
    task gets ``retries + 1`` attempts total; retry rounds run back to
    back.
    """

    retries: int = 2

    def __post_init__(self):
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")

    @property
    def max_attempts(self) -> int:
        return self.retries + 1


@dataclass
class TaskHealth:
    """Everything that happened to one task in one batch."""

    stage: str
    task: str
    arch: str
    attempts: int = 0
    outcome: str = "ok"         # ok | recovered | quarantined | skipped
    failures: List[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"stage": self.stage, "task": self.task,
                "arch": self.arch, "attempts": self.attempts,
                "outcome": self.outcome, "failures": list(self.failures)}


@dataclass
class RunHealth:
    """Structured account of one pipeline run's failures and recoveries.

    Deliberately free of wall-clock values: two runs with the same seed
    and fault plan serialise to byte-identical JSON, which ``repro
    verify`` checks as an invariant.
    """

    tasks: List[TaskHealth] = field(default_factory=list)
    degradations: List[str] = field(default_factory=list)
    cache_checksum_failures: int = 0
    cache_errors: int = 0

    # -- recording ------------------------------------------------------------

    def record(self, record: TaskHealth) -> None:
        self.tasks.append(record)

    def degrade(self, message: str) -> None:
        """Note a graceful-degradation decision (dropped codelet,
        destroyed cluster, reselected representative, ...)."""
        self.degradations.append(message)

    def note_cache(self, stats) -> None:
        """Absorb cache accounting (idempotent per cache instance)."""
        self.cache_checksum_failures = getattr(
            stats, "checksum_failures", 0)
        self.cache_errors = getattr(stats, "errors", 0)

    # -- accounting -----------------------------------------------------------

    @property
    def total_attempts(self) -> int:
        return sum(t.attempts for t in self.tasks)

    @property
    def total_retries(self) -> int:
        return sum(max(0, t.attempts - 1) for t in self.tasks)

    @property
    def quarantined(self) -> Tuple[str, ...]:
        """(stage, task) keys that exhausted their attempts, in order."""
        seen = []
        for t in self.tasks:
            if (t.outcome in ("quarantined", "skipped")
                    and (t.stage, t.task) not in seen):
                seen.append((t.stage, t.task))
        return tuple(f"{stage}:{task}" for stage, task in seen)

    @property
    def recovered(self) -> Tuple[str, ...]:
        return tuple(f"{t.stage}:{t.task}" for t in self.tasks
                     if t.outcome == "recovered")

    @property
    def degraded(self) -> bool:
        """Whether the run finished by degrading rather than cleanly."""
        return bool(self.quarantined or self.degradations
                    or self.cache_checksum_failures)

    # -- rendering ------------------------------------------------------------

    def to_json(self) -> str:
        """Deterministic JSON twin of the report (no timestamps)."""
        return json.dumps({
            "tasks": [t.to_json() for t in self.tasks],
            "degradations": list(self.degradations),
            "quarantined": list(self.quarantined),
            "recovered": list(self.recovered),
            "total_attempts": self.total_attempts,
            "total_retries": self.total_retries,
            "cache_checksum_failures": self.cache_checksum_failures,
            "cache_errors": self.cache_errors,
            "degraded": self.degraded,
        }, indent=2, sort_keys=True)

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    def format(self) -> str:
        """The human-readable summary ``repro reduce`` prints."""
        lines = [
            f"run health: {len(self.tasks)} tasks, "
            f"{self.total_attempts} attempts "
            f"({self.total_retries} retries), "
            f"{len(self.quarantined)} quarantined, "
            f"{len(self.recovered)} recovered"]
        if self.cache_checksum_failures or self.cache_errors:
            lines.append(
                f"  cache: {self.cache_checksum_failures} checksum "
                f"failures, {self.cache_errors} unreadable entries "
                "(invalidated and recomputed)")
        for t in self.tasks:
            if t.outcome == "ok":
                continue
            lines.append(f"  [{t.outcome}] {t.stage}:{t.task} "
                         f"({t.attempts} attempts)")
            for f in t.failures:
                lines.append(f"      {f}")
        for message in self.degradations:
            lines.append(f"  degraded: {message}")
        if not self.degraded:
            lines.append("  no degradation: every task completed")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Guarded task execution (runs in workers, so module-level + picklable)
# ---------------------------------------------------------------------------


def _classify(exc: BaseException) -> str:
    if isinstance(exc, InjectedTimeout):
        return "timeout"
    if isinstance(exc, CorruptResult):
        return "corrupt"
    if isinstance(exc, InjectedCrash):
        return "crash"
    if isinstance(exc, TimeoutError):
        return "timeout"
    return "error"


def _guarded_call(fn: Callable[[Any], Any], item: Any, stage: str,
                  task: str, arch: str, attempt: int,
                  plan: Optional[FaultPlan]) -> Any:
    """One attempt: inject the plan's faults around running the task."""
    faults = (plan.faults_for(stage, task, arch, attempt)
              if plan is not None else ())
    if "crash" in faults:
        raise InjectedCrash(
            f"injected crash ({stage}:{task}, attempt {attempt})")
    if "timeout" in faults:
        raise InjectedTimeout(
            f"injected timeout ({stage}:{task}, attempt {attempt})")
    result = fn(item)
    if "corrupt" in faults:
        raise CorruptResult(
            f"injected corrupt result ({stage}:{task}, "
            f"attempt {attempt})")
    return result


def _resilient_worker(payload) -> Tuple[str, Any, str]:
    """Run one guarded attempt, folding failures into the return value
    so a crashed task can never abort the surrounding pool ``map``."""
    fn, item, stage, task, arch, attempt, plan = payload
    try:
        result = _guarded_call(fn, item, stage, task, arch, attempt, plan)
    except InjectedFault as exc:
        return ("fail", _classify(exc), str(exc))
    except Exception as exc:        # noqa: BLE001 - report, don't mask
        return ("fail", _classify(exc),
                f"{type(exc).__name__}: {exc}")
    return ("ok", result, "")


#: Sentinel distinguishing a quarantined task from a ``None`` result.
QUARANTINED = object()


class ResilientExecutor:
    """Retry/quarantine wrapper over a plain :class:`Executor`.

    One instance should live for a whole pipeline run: the circuit
    breaker remembers quarantined (stage, task) keys across batches, so
    a codelet that exhausted its attempts in Step B is skipped instantly
    if Step D asks about it again.
    """

    def __init__(self, policy: RetryPolicy = RetryPolicy(),
                 fault_plan: Optional[FaultPlan] = None,
                 health: Optional[RunHealth] = None,
                 obs: Optional[Observation] = None):
        self.policy = policy
        self.fault_plan = fault_plan
        self.health = health if health is not None else RunHealth()
        #: Optional observability sink: retry rounds become spans,
        #: attempts/retries/quarantines/recoveries become counters.
        self.obs = obs
        self._tripped: Dict[Tuple[str, str], bool] = {}

    def is_quarantined(self, stage: str, task: str) -> bool:
        return (stage, task) in self._tripped

    # -- batch execution ------------------------------------------------------

    def map_tasks(self, fn: Callable[[Any], Any], items: Sequence[Any],
                  keys: Sequence[str], stage: str, arch: str,
                  executor: Optional[Executor] = None) -> List[Any]:
        """Order-preserving map with retries and quarantine.

        Returns one entry per item: the task's result, or
        :data:`QUARANTINED` if its attempts were exhausted (or its
        breaker was already tripped).  ``executor`` fans attempts out
        (each retry round is one pool ``map``); ``None`` runs inline.
        """
        items = list(items)
        if len(items) != len(keys):
            raise ValueError(
                f"map_tasks: {len(items)} items but {len(keys)} keys")
        inner = executor if executor is not None else SerialExecutor()
        results: List[Any] = [QUARANTINED] * len(items)
        records = [TaskHealth(stage=stage, task=key, arch=arch)
                   for key in keys]

        active: List[int] = []
        for i, key in enumerate(keys):
            if self.is_quarantined(stage, key):
                records[i].outcome = "skipped"
                records[i].failures.append(
                    "circuit breaker already open (quarantined "
                    "earlier in this run)")
            else:
                active.append(i)

        metrics = self.obs.metrics if self.obs is not None else None
        attempt = 0
        while active and attempt < self.policy.max_attempts:
            payloads = [(fn, items[i], stage, keys[i], arch, attempt,
                         self.fault_plan) for i in active]
            if metrics is not None:
                metrics.counter("resilience.attempts").inc(
                    len(payloads))
                if attempt > 0:
                    metrics.counter("resilience.retries").inc(
                        len(payloads))
            if self.obs is not None and attempt > 0:
                # Round 0 is ordinary execution; only actual *retry*
                # rounds earn a span, so a failure-free run's trace is
                # identical to the fail-fast path's.
                with self.obs.span("retry-round", stage=stage,
                                   attempt=attempt,
                                   tasks=len(payloads)):
                    outcomes = inner.map(_resilient_worker, payloads)
            else:
                outcomes = inner.map(_resilient_worker, payloads)
            still_failing: List[int] = []
            for i, (status, value, detail) in zip(active, outcomes):
                records[i].attempts = attempt + 1
                if status == "ok":
                    results[i] = value
                    if attempt > 0:
                        records[i].outcome = "recovered"
                        if metrics is not None:
                            metrics.counter(
                                "resilience.recovered").inc()
                else:
                    records[i].failures.append(
                        f"attempt {attempt}: {value}: {detail}")
                    still_failing.append(i)
            active = still_failing
            attempt += 1

        for i in active:
            records[i].outcome = "quarantined"
            self._tripped[(stage, keys[i])] = True
        if metrics is not None:
            if active:
                metrics.counter("resilience.quarantined").inc(
                    len(active))
            skipped = sum(1 for r in records if r.outcome == "skipped")
            if skipped:
                metrics.counter("resilience.skipped").inc(skipped)
        for record in records:
            self.health.record(record)
        return results

    # -- single tasks ---------------------------------------------------------

    def run(self, fn: Callable[[], Any], key: str, stage: str,
            arch: str) -> Any:
        """Run one task inline (parent process) with full semantics."""
        [result] = self.map_tasks(lambda _: fn(), [None], [key],
                                  stage, arch)
        return result
