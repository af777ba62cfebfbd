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

:func:`median` is the median every layer takes of such samples.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np


def median(values, axis: Optional[int] = None):
    """``np.median(values, axis)``, bit for bit, for ``axis`` None or 1.

    It takes numpy's steps: one ``np.partition`` at the middle order
    statistics plus the last one (so a NaN sorts last), then
    ``np.mean`` over the one or two middle elements; where the last
    element is NaN, the median is NaN.  Order statistics are unique
    values whatever algorithm partitions, so every result has
    ``np.median``'s bits.  It only skips ``np.median``'s masked-array
    check, whose first call imports ``numpy.ma`` (about 20 ms).
    """
    if axis not in (None, 1):
        raise ValueError(f"median takes axis None or 1, got {axis!r}")
    a = np.asarray(values)
    size = a.size if axis is None else a.shape[1]
    half = size // 2
    kth = [half - 1, half, -1] if size % 2 == 0 else [half, -1]
    part = np.partition(a, kth, axis=axis)
    middle = slice(half - 1 + size % 2, half + 1)
    if axis is None:
        result = np.mean(part[middle])
        return part[-1] if size and np.isnan(part[-1]) else result
    last = part[:, -1]
    return np.where(np.isnan(last), last, np.mean(part[:, middle], axis=1))


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
