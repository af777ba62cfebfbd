"""Random-clustering baseline (Figure 7).

To show the feature-guided clustering earns its keep, the paper compares
it against 1000 *random* partitionings for every K from 2 to 24: the GA
feature set should sit near or below the best random clustering's
error.  A random partitioning has no feature space, so representatives
are drawn uniformly from each cluster.

The samples are drawn one at a time, in the order and from the random
stream of a per-cluster ``rng.choice`` loop, and scored together: one
(samples × n) matrix of representative indices, which every target
scores with elementwise prediction errors in
:func:`~repro.core.prediction.percent_error`'s operation order and one
row-wise median.  Every statistic is bit-identical to scoring each
sample on each target on its own (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..codelets.measurement import Measurer
from ..codelets.profiling import CodeletProfile
from ..machine.architecture import Architecture
from ..machine.noise import median


def random_partition(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """A uniform random partition of ``n`` items into exactly ``k``
    non-empty clusters."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    labels = rng.integers(0, k, size=n)
    # Force non-emptiness: assign one random distinct item per cluster.
    seeds = rng.permutation(n)[:k]
    labels[seeds] = np.arange(k)
    return labels


@dataclass(frozen=True)
class RandomClusteringStats:
    """Error distribution of random clusterings at one K."""

    k: int
    arch_name: str
    worst: float
    median: float
    best: float
    samples: int


def random_clustering_errors(profiles: Sequence[CodeletProfile],
                             measurer: Measurer,
                             targets: Sequence[Architecture],
                             k: int,
                             samples: int = 1000,
                             seed: int = 7
                             ) -> Tuple[RandomClusteringStats, ...]:
    """Figure 7 statistics: worst/median/best median-error over
    ``samples`` random K-partitionings, one record per target.  Every
    target scores the same partitions and representatives."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed + 1000 * k)
    n = len(profiles)
    rep_of = np.empty((samples, n), dtype=np.intp)
    for s in range(samples):
        labels = random_partition(n, k, rng)
        # One bounded draw per cluster, into its members in ascending
        # order: the stream k calls of rng.choice(members) consume.
        counts = np.bincount(labels, minlength=k)
        starts = np.cumsum(counts) - counts
        by_cluster = np.argsort(labels, kind="stable")
        reps_idx = by_cluster[starts + rng.integers(0, counts)]
        rep_of[s] = reps_idx[labels]
    ref = np.array([p.ref_seconds for p in profiles])
    ref_rep = ref[rep_of]
    stats = []
    for target in targets:
        real = np.array([measurer.measure_inapp(p.codelet, target)
                         for p in profiles])
        if (real <= 0).any():
            raise ValueError("real time must be positive")
        bench = np.array([measurer.benchmark_standalone(
            p.codelet, target).per_invocation_s for p in profiles])
        predicted = ref * bench[rep_of] / ref_rep
        errors = 100.0 * np.abs(predicted - real) / real
        medians = median(errors, axis=1)
        stats.append(RandomClusteringStats(
            k=k,
            arch_name=target.name,
            worst=float(medians.max()),
            median=float(median(medians)),
            best=float(medians.min()),
            samples=samples,
        ))
    return tuple(stats)
