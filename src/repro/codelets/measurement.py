"""Measurement layer: in-app probing and standalone microbenchmarking.

Two measurement modes exist, mirroring the paper's toolchain:

* **in-app** (Steps B and validation): the codelet runs inside its
  application — every dataset variant occurs, the rest of the program
  keeps pressure on the shared cache, and the probe overhead is paid per
  invocation;
* **standalone** (Steps D/E): the extracted microbenchmark replays only
  the first captured dataset, with no cache pressure, possibly compiled
  differently (fragile codelets), timed with the smallest invocation
  count that still measures well (≥ 1 ms and ≥ 10 invocations, median
  over invocations — Section 3.4).

The divergence between the two is precisely the ill-behaved-codelet
phenomenon the selection loop of Step D defends against.

A :class:`Measurer` memoizes model runs and noisy measurements, since
sweeps re-measure the same (codelet, architecture) pairs many times.
Every noise draw is keyed by codelet, architecture and run, so a
repeated request could only recompute the value it already returned: a
fresh draw takes a new ``run_id``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..machine.architecture import Architecture
from ..machine.counters import DynamicMetrics
from ..machine.noise import NoiseModel, median
from ..machine.platform import MeasuredRun, run_kernel_model
from .codelet import Codelet

#: Step D invocation-reduction policy (Section 3.4).
MIN_BENCH_SECONDS = 1e-3
MIN_INVOCATIONS = 10
#: Upper bound on the invocation count: a degenerate codelet whose
#: standalone time is (near-)zero would otherwise ask for billions of
#: invocations to fill the 1 ms budget.
MAX_INVOCATIONS = 10 ** 6

#: Section 3.4 fidelity tolerance: a standalone time deviating more
#: than this from the in-app time marks a codelet ill-behaved.
ILL_BEHAVED_TOLERANCE = 0.10


@dataclass(frozen=True)
class StandaloneTiming:
    """A standalone microbenchmark measurement on one architecture."""

    codelet_name: str
    arch_name: str
    invocations: int
    per_invocation_s: float        # median over invocations
    total_bench_s: float           # wall time spent benchmarking

    @property
    def seconds(self) -> float:
        return self.per_invocation_s


def choose_invocations(estimated_seconds: float) -> int:
    """Fewest invocations so the run lasts :data:`MIN_BENCH_SECONDS`
    (at least :data:`MIN_INVOCATIONS`).

    Degenerate estimates — zero, negative, NaN or infinite — fall back
    to :data:`MIN_INVOCATIONS`, and the count is capped at
    :data:`MAX_INVOCATIONS` so a near-zero standalone time (an empty or
    constant-folded codelet) can never demand an unbounded benchmark.
    """
    if not math.isfinite(estimated_seconds) or estimated_seconds <= 0:
        return MIN_INVOCATIONS
    # The epsilon keeps exact ratios (1 ms / 10 us -> 100) from rounding
    # up on floating-point dust.
    needed = MIN_BENCH_SECONDS / estimated_seconds - 1e-9
    if needed >= MAX_INVOCATIONS:
        return MAX_INVOCATIONS
    return max(MIN_INVOCATIONS, int(math.ceil(needed)))


def average_metrics(parts: List[Tuple[DynamicMetrics, float]]) -> DynamicMetrics:
    """Invocation-weighted average of dynamic metric records."""
    if not parts:
        raise ValueError("no metrics to average")
    total_w = sum(w for _, w in parts)
    values: Dict[str, float] = {}
    for f in fields(DynamicMetrics):
        if f.name == "arch_name":
            continue
        values[f.name] = sum(getattr(m, f.name) * w
                             for m, w in parts) / total_w
    return DynamicMetrics(arch_name=parts[0][0].arch_name, **values)


@dataclass(frozen=True)
class MeasurerSpec:
    """A picklable recipe for rebuilding an equivalent measurer.

    Worker processes cannot share the parent's :class:`Measurer` (its
    memo table would have to cross the process boundary on every task),
    so they rebuild one from this spec.  Because the machine model is
    deterministic and the noise model is keyed, a rebuilt measurer
    returns bit-identical values.
    """

    cls: type
    noise: NoiseModel

    def build(self) -> "Measurer":
        return self.cls(noise=self.noise)


class Measurer:
    """Memoizing facade over the machine model plus measurement noise.

    Model runs are memoized per (codelet, dataset variant,
    architecture, mode), and ``measure_inapp`` / ``benchmark_standalone``
    per (kind, codelet, architecture, run): the same key returns the
    stored object, the value a recomputation would draw again.  Worker
    processes carry only the model runs (:meth:`runs_snapshot`).
    """

    def __init__(self, noise: Optional[NoiseModel] = None):
        self.noise = noise if noise is not None else NoiseModel()
        self._runs: Dict[Tuple, MeasuredRun] = {}
        self._measured: Dict[Tuple, Union[float, StandaloneTiming]] = {}

    # -- worker transfer ------------------------------------------------------

    def spec(self) -> MeasurerSpec:
        """The configuration needed to rebuild this measurer elsewhere."""
        return MeasurerSpec(type(self), self.noise)

    def runs_snapshot(self) -> Dict[Tuple, MeasuredRun]:
        """A copy of the memoized model runs (for transfer to the parent)."""
        return dict(self._runs)

    def absorb_runs(self, runs: Dict[Tuple, MeasuredRun]) -> None:
        """Merge model runs memoized in a worker process.

        Worker and parent compute identical values for identical keys,
        so ``setdefault`` (rather than overwrite) is purely defensive.
        """
        for key, run in runs.items():
            self._runs.setdefault(key, run)

    # -- raw model runs -------------------------------------------------------

    def model_run(self, codelet: Codelet, variant_idx: int,
                  arch: Architecture, standalone: bool) -> MeasuredRun:
        """Model one invocation of one dataset variant on ``arch``."""
        key = (codelet.name, variant_idx, arch.name, standalone)
        run = self._runs.get(key)
        if run is None:
            run = run_kernel_model(
                codelet.variants[variant_idx], arch,
                pressure_bytes=0.0 if standalone else codelet.pressure_bytes,
                force_scalar=standalone and codelet.fragile_opt)
            self._runs[key] = run
        return run

    # -- noise-free truths ----------------------------------------------------

    def true_inapp_seconds(self, codelet: Codelet,
                           arch: Architecture) -> float:
        """True per-invocation time inside the application (all variants)."""
        return sum(
            self.model_run(codelet, i, arch, standalone=False).seconds_per_invocation * w
            for i, w in enumerate(codelet.variant_weights))

    def true_standalone_seconds(self, codelet: Codelet,
                                arch: Architecture) -> float:
        """True per-invocation time of the extracted microbenchmark."""
        return self.model_run(codelet, 0, arch,
                              standalone=True).seconds_per_invocation

    def inapp_metrics(self, codelet: Codelet,
                      arch: Architecture) -> DynamicMetrics:
        """Hardware-counter metrics over the in-app invocations."""
        parts = [(self.model_run(codelet, i, arch, standalone=False).metrics, w)
                 for i, w in enumerate(codelet.variant_weights)]
        return average_metrics(parts)

    def reference_cycles(self, codelet: Codelet,
                         arch: Architecture) -> float:
        """True cycles per invocation in-app (for the 1M-cycle filter)."""
        return sum(
            self.model_run(codelet, i, arch, standalone=False).cycles_per_invocation * w
            for i, w in enumerate(codelet.variant_weights))

    # -- noisy measurements ---------------------------------------------------

    @staticmethod
    def _memo_key(kind: str, codelet: Codelet, arch: Architecture,
                  run_id: int) -> Tuple:
        """Memo key of one measurement: every input of its noise draw."""
        return (kind, codelet.name, arch.name, run_id)

    def measure_inapp(self, codelet: Codelet, arch: Architecture,
                      run_id: int = 0) -> float:
        """One probed in-app measurement (per-invocation seconds)."""
        key = self._memo_key("inapp", codelet, arch, run_id)
        seconds = self._measured.get(key)
        if seconds is None:
            true = self.true_inapp_seconds(codelet, arch)
            seconds = self.noise.measure(
                true, f"inapp|{codelet.name}|{arch.name}|{run_id}")
            self._measured[key] = seconds
        return seconds

    def benchmark_standalone(self, codelet: Codelet, arch: Architecture,
                             run_id: int = 0) -> StandaloneTiming:
        """Time the extracted microbenchmark per Section 3.4.

        Picks the invocation count, measures each invocation with noise
        (constant probe overhead included), reports the median.
        """
        key = self._memo_key("standalone", codelet, arch, run_id)
        timing = self._measured.get(key)
        if timing is None:
            true = self.true_standalone_seconds(codelet, arch)
            n = choose_invocations(true)
            samples = self.noise.measure_many(
                true, f"standalone|{codelet.name}|{arch.name}|{run_id}", n)
            timing = StandaloneTiming(
                codelet_name=codelet.name,
                arch_name=arch.name,
                invocations=n,
                per_invocation_s=float(median(samples)),
                total_bench_s=float(np.sum(samples)),
            )
            self._measured[key] = timing
        return timing

    # -- fidelity -------------------------------------------------------------

    def behavior_deviation(self, codelet: Codelet,
                           arch: Architecture) -> float:
        """Relative |standalone - in-app| / in-app deviation.

        A non-positive in-app time means the codelet does no measurable
        in-app work, so its standalone benchmark cannot represent
        anything: the deviation is infinite (ill-behaved), never the
        silently well-behaved 0.0 a naive guard would report.
        """
        inapp = self.true_inapp_seconds(codelet, arch)
        if inapp <= 0:
            return float("inf")
        standalone = self.true_standalone_seconds(codelet, arch)
        return abs(standalone - inapp) / inapp

    def is_ill_behaved(self, codelet: Codelet, arch: Architecture) -> bool:
        """Step D criterion: standalone deviates > 10% from the original
        (Step D asks once per codelet, via ``ill_behaved_codelets``)."""
        return self.behavior_deviation(codelet, arch) > ILL_BEHAVED_TOLERANCE
