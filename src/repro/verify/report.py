"""Pass/fail reporting for the verification harness.

A :class:`VerifyReport` aggregates the invariant-registry and
differential-oracle outcomes for one seeded run, renders the
human-readable summary ``repro verify`` prints, and persists the same
text (plus a machine-readable JSON twin) under ``reports/``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .invariants import InvariantResult
from .oracle import DifferentialResult


@dataclass(frozen=True)
class VerifyReport:
    """Everything one ``repro verify`` run observed."""

    seed: int
    suite_name: str
    n_codelets: int
    n_profiled: int
    n_discarded: int
    breakage: Optional[str]
    invariants: Tuple[InvariantResult, ...]
    differentials: Tuple[DifferentialResult, ...]

    @property
    def passed(self) -> bool:
        return (all(r.passed for r in self.invariants)
                and all(r.passed for r in self.differentials))

    @property
    def n_failed(self) -> int:
        return (sum(not r.passed for r in self.invariants)
                + sum(not r.passed for r in self.differentials))

    def failed_names(self) -> List[str]:
        return ([r.name for r in self.invariants if not r.passed]
                + [r.name for r in self.differentials if not r.passed])

    # -- rendering ------------------------------------------------------------

    def format(self) -> str:
        lines = [
            f"repro verify — seed {self.seed}, suite "
            f"{self.suite_name} ({self.n_codelets} codelets, "
            f"{self.n_profiled} profiled, {self.n_discarded} "
            "discarded)",
        ]
        if self.breakage:
            lines.append(f"injected defect: {self.breakage}")
        lines.append("")
        lines.append(f"invariants ({len(self.invariants)}):")
        for r in self.invariants:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"  [{status}] {r.name}")
            if not r.passed:
                lines.append(f"         {r.detail}")
        lines.append("")
        lines.append(f"differential cases ({len(self.differentials)}):")
        for r in self.differentials:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"  [{status}] {r.name}")
            for d in r.discrepancies:
                lines.append(f"         {d}")
        lines.append("")
        verdict = "OK" if self.passed else (
            f"FAILED ({self.n_failed}: "
            f"{', '.join(self.failed_names())})")
        lines.append(
            f"verdict: {verdict} — {len(self.invariants)} invariants, "
            f"{len(self.differentials)} differential cases")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "suite": self.suite_name,
            "n_codelets": self.n_codelets,
            "n_profiled": self.n_profiled,
            "n_discarded": self.n_discarded,
            "breakage": self.breakage,
            "passed": self.passed,
            "invariants": [
                {"name": r.name, "passed": r.passed,
                 "detail": r.detail}
                for r in self.invariants],
            "differentials": [
                {"name": r.name, "passed": r.passed,
                 "discrepancies": [str(d) for d in r.discrepancies]}
                for r in self.differentials],
        }

    def save(self, directory: str) -> str:
        """Write the text + JSON reports; returns the text path."""
        os.makedirs(directory, exist_ok=True)
        stem = f"verify_seed{self.seed}"
        if self.breakage:
            stem += f"_break-{self.breakage}"
        text_path = os.path.join(directory, stem + ".txt")
        with open(text_path, "w") as fh:
            fh.write(self.format() + "\n")
        with open(os.path.join(directory, stem + ".json"), "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return text_path
