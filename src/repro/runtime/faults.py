"""Deterministic fault injection for the measurement pipeline.

Real fine-grained measurement harnesses fail in the field: workers
crash, measurements hang, results come back garbled, cache files rot on
disk.  A :class:`FaultPlan` reproduces those failures *on purpose* so
the resilient execution path (:mod:`repro.runtime.resilience`) can be
exercised deterministically — the same plan replayed against the same
suite injects exactly the same faults, attempt for attempt.

Injection is keyed like the measurement-noise model
(:class:`repro.machine.noise.NoiseModel`): whether a rule fires for a
given (stage, task, architecture, attempt) is a pure function of the
plan seed and that key, never of wall-clock time or scheduling.  Plans
are plain frozen dataclasses — picklable, so faults fire identically
inside process-pool workers — and round-trip through a small JSON
format (see ``docs/RESILIENCE.md``) for the ``--fault-plan`` CLI flag.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Tuple

#: The failure taxonomy (docs/RESILIENCE.md).
FAULT_KINDS = ("crash", "timeout", "corrupt", "cache-poison")

#: Pipeline stages a rule can target.  ``profile`` is Step B per-codelet
#: profiling, ``fidelity`` the Step D standalone-vs-in-app probe,
#: ``bench`` the Step E representative microbenchmark, and ``cache``
#: the on-disk profile-cache write path (``cache-poison`` only).
FAULT_STAGES = ("profile", "fidelity", "bench", "cache")


class InjectedFault(RuntimeError):
    """Base class for failures raised by fault injection."""


class InjectedCrash(InjectedFault):
    """The task process 'crashed' (modelled as an exception)."""


class InjectedTimeout(InjectedFault):
    """The task 'hung' (modelled as an exception)."""


class CorruptResult(InjectedFault):
    """The task returned garbage that failed result validation."""


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: *kind* fires for matching task attempts.

    ``match``/``arch`` are ``fnmatch`` patterns over the task key
    (codelet name) and architecture name; ``stage`` targets one pipeline
    stage or ``*``.  ``attempts`` limits the rule to specific attempt
    indices (empty = every attempt); ``probability`` thins firing with a
    deterministic keyed draw, so flaky-but-reproducible failures can be
    modelled too.
    """

    kind: str
    match: str = "*"
    stage: str = "*"
    arch: str = "*"
    attempts: Tuple[int, ...] = ()
    probability: float = 1.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}: "
                f"choose from {', '.join(FAULT_KINDS)}")
        if self.stage != "*" and self.stage not in FAULT_STAGES:
            raise ValueError(
                f"unknown fault stage {self.stage!r}: "
                f"choose from {', '.join(FAULT_STAGES)} or '*'")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"fault probability must be in [0, 1], "
                f"got {self.probability!r}")

    def matches(self, stage: str, task: str, arch: str,
                attempt: int) -> bool:
        if self.stage != "*" and self.stage != stage:
            return False
        if self.attempts and attempt not in self.attempts:
            return False
        return (fnmatchcase(task, self.match)
                and fnmatchcase(arch, self.arch))


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, replayable set of injection rules."""

    seed: int = 0
    rules: Tuple[FaultRule, ...] = ()

    def _draw(self, rule_idx: int, stage: str, task: str, arch: str,
              attempt: int) -> float:
        """Uniform [0, 1) draw keyed exactly like the noise model."""
        digest = hashlib.sha256(
            f"{self.seed}|{rule_idx}|{stage}|{task}|{arch}|{attempt}"
            .encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little") / 2.0 ** 64

    def faults_for(self, stage: str, task: str, arch: str,
                   attempt: int) -> Tuple[str, ...]:
        """Fault kinds firing for this attempt, in rule order."""
        fired = []
        for idx, rule in enumerate(self.rules):
            if not rule.matches(stage, task, arch, attempt):
                continue
            if (rule.probability >= 1.0
                    or self._draw(idx, stage, task, arch,
                                  attempt) < rule.probability):
                if rule.kind not in fired:
                    fired.append(rule.kind)
        return tuple(fired)

    def poisons_cache(self, task: str, arch: str) -> bool:
        """Whether the cache entry written for ``task`` gets poisoned."""
        return "cache-poison" in self.faults_for("cache", task, arch, 0)

    # -- (de)serialisation ----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({
            "seed": self.seed,
            "rules": [{
                "kind": r.kind, "match": r.match, "stage": r.stage,
                "arch": r.arch, "attempts": list(r.attempts),
                "probability": r.probability,
            } for r in self.rules],
        }, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"fault plan is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise ValueError("fault plan must be a JSON object")
        rules = []
        for i, raw in enumerate(data.get("rules", [])):
            if not isinstance(raw, dict) or "kind" not in raw:
                raise ValueError(
                    f"fault rule {i} must be an object with a 'kind'")
            unknown = set(raw) - {"kind", "match", "stage", "arch",
                                  "attempts", "probability"}
            if unknown:
                raise ValueError(
                    f"fault rule {i} has unknown fields: "
                    f"{', '.join(sorted(unknown))}")
            rules.append(FaultRule(
                kind=raw["kind"],
                match=raw.get("match", "*"),
                stage=raw.get("stage", "*"),
                arch=raw.get("arch", "*"),
                attempts=tuple(int(a) for a in raw.get("attempts", ())),
                probability=float(raw.get("probability", 1.0)),
            ))
        return cls(seed=int(data.get("seed", 0)), rules=tuple(rules))

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path) as fh:
            return cls.from_json(fh.read())


def crash_plan(pattern: str, stage: str = "*", seed: int = 0,
               arch: str = "*") -> FaultPlan:
    """A plan crashing every attempt of every task matching ``pattern``
    — the canonical 'this codelet is broken' scenario used throughout
    the tests and docs."""
    return FaultPlan(seed=seed, rules=(
        FaultRule(kind="crash", match=pattern, stage=stage, arch=arch),))
