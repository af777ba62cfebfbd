"""Measurement noise model.

Hardware-counter measurements are not exact: timer/probe overhead is
constant per invocation, so *short-lived codelets carry larger relative
error* — the paper attributes its residual Sandy Bridge error to codelets
under 10 ms per invocation (Section 4.4).  The model reproduces that:

``measured = true * (1 + eps) + overhead``

with ``eps ~ N(0, rel_sigma)`` and ``overhead ~ N(mu, sigma)`` clipped at
zero.  Every draw is keyed by (seed, codelet, architecture, run), so
measurements are reproducible yet independent across runs: the same key
always draws the same value, and a fresh draw, as re-measuring on real
hardware would give, needs a new ``run_id``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NoiseModel:
    """Deterministic, keyed measurement perturbation."""

    seed: int = 2014
    rel_sigma: float = 0.02
    overhead_mean_s: float = 4.0e-7
    overhead_sigma_s: float = 1.5e-7

    def _rng(self, key: str) -> np.random.Generator:
        digest = hashlib.sha256(
            f"{self.seed}|{key}".encode("utf-8")).digest()
        return np.random.default_rng(
            int.from_bytes(digest[:8], "little"))

    def measure(self, true_seconds: float, key: str) -> float:
        """One noisy wall-time measurement of ``true_seconds``."""
        rng = self._rng(key)
        rel = rng.normal(0.0, self.rel_sigma)
        overhead = max(0.0, rng.normal(self.overhead_mean_s,
                                       self.overhead_sigma_s))
        return max(1e-12, true_seconds * (1.0 + rel) + overhead)

    def measure_many(self, true_seconds: float, key: str,
                     n: int) -> np.ndarray:
        """``n`` repeated measurements (per-invocation timings)."""
        rng = self._rng(key)
        rel = rng.normal(0.0, self.rel_sigma, size=n)
        overhead = np.clip(rng.normal(self.overhead_mean_s,
                                      self.overhead_sigma_s, size=n),
                           0.0, None)
        return np.maximum(1e-12, true_seconds * (1.0 + rel) + overhead)


#: Noise-free measurements, for tests that need exact arithmetic.
EXACT = NoiseModel(rel_sigma=0.0, overhead_mean_s=0.0, overhead_sigma_s=0.0)
