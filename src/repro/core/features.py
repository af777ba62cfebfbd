"""The feature catalogue and feature matrices (Section 3.2).

MAQAO + Likwid give the paper 76 candidate features per codelet.  Our
catalogue is also exactly 76: the 58 static metrics of
:class:`repro.analysis.StaticProfile` plus 18 dynamic metrics derived
from the hardware-counter substitute.  Feature vectors are normalised to
zero mean / unit variance before clustering so that every feature weighs
equally in the Euclidean distance (Section 3.3).

``TABLE2_FEATURES`` is the paper's GA-selected feature set (Table 2)
mapped onto our catalogue names; the GA of :mod:`repro.core.ga` searches
the same space and the experiments compare what it finds against this
reference set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..analysis.static_metrics import STATIC_FEATURE_NAMES
from ..codelets.profiling import CodeletProfile
from ..machine.counters import DynamicMetrics

#: Dynamic (Likwid-substitute) features, derived per codelet invocation.
DYNAMIC_FEATURE_NAMES: Tuple[str, ...] = (
    "mflops_rate",
    "l2_bandwidth_mbs",
    "l3_bandwidth_mbs",
    "mem_bandwidth_mbs",
    "l1_miss_ratio",
    "l2_miss_ratio",
    "l3_miss_ratio",
    "dyn_ipc",
    "compute_fraction",
    "memory_fraction",
    "log_time",
    "log_cycles",
    "log_flops",
    "log_dram_bytes",
    "bytes_per_flop",
    "flops_per_l1_access",
    "log_l1_accesses",
    "dyn_bytes_per_cycle",
)

ALL_FEATURE_NAMES: Tuple[str, ...] = STATIC_FEATURE_NAMES + \
    DYNAMIC_FEATURE_NAMES

#: Paper Table 2: the best feature set found by the genetic algorithm,
#: expressed in our catalogue (4 dynamic + 10 static features).
TABLE2_FEATURES: Tuple[str, ...] = (
    # Likwid dynamic features
    "mflops_rate",                  # Floating point rate in MFLOPS/s
    "l2_bandwidth_mbs",             # L2 bandwidth in MB/s
    "l3_miss_ratio",                # L3 miss rate
    "mem_bandwidth_mbs",            # Memory bandwidth in MB/s
    # MAQAO static features
    "bytes_stored_per_cycle_l1",    # Bytes stored per cycle assuming L1
    "dep_stall_cycles",             # Data dependency stalls
    "est_ipc_l1",                   # Estimated IPC assuming only L1 hits
    "n_fp_div",                     # Number of floating point DIV
    "n_sd_instr",                   # Number of SD instructions
    "p1_pressure",                  # Pressure on dispatch port P1
    "ratio_add_mul",                # Ratio ADD+SUB / MUL
    "vec_ratio_mul",                # Vectorization ratio, FP multiplies
    "vec_ratio_other_fp_int",       # Vectorization ratio, other (FP+INT)
    "vec_ratio_other_int",          # Vectorization ratio, other (INT)
)


def _log10p(value: float) -> float:
    return math.log10(1.0 + max(0.0, value))


def dynamic_features(metrics: DynamicMetrics) -> Dict[str, float]:
    """Flatten a dynamic profile into the catalogue's dynamic features."""
    flops = max(metrics.flops, 0.0)
    bytes_moved = metrics.bytes_loaded + metrics.bytes_stored
    return {
        "mflops_rate": metrics.mflops_rate,
        "l2_bandwidth_mbs": metrics.l2_bandwidth_mbs,
        "l3_bandwidth_mbs": metrics.l3_bandwidth_mbs,
        "mem_bandwidth_mbs": metrics.mem_bandwidth_mbs,
        "l1_miss_ratio": metrics.l1_miss_ratio,
        "l2_miss_ratio": metrics.l2_miss_ratio,
        "l3_miss_ratio": metrics.l3_miss_ratio,
        "dyn_ipc": metrics.ipc,
        "compute_fraction": metrics.compute_fraction,
        "memory_fraction": metrics.memory_fraction,
        "log_time": math.log10(max(metrics.time_s, 1e-12)),
        "log_cycles": _log10p(metrics.cycles),
        "log_flops": _log10p(flops),
        "log_dram_bytes": _log10p(metrics.dram_bytes),
        # Both intensity ratios are capped symmetrically at 64: a
        # zero-denominator codelet (no flops / no L1 accesses) must not
        # produce a ~1e9 outlier that dominates every z-scored distance
        # (docs/MODELING.md).
        "bytes_per_flop": min(64.0, bytes_moved / max(flops, 1.0)),
        "flops_per_l1_access": min(64.0,
                                   flops / max(metrics.l1_accesses, 1.0)),
        "log_l1_accesses": _log10p(metrics.l1_accesses),
        "dyn_bytes_per_cycle": bytes_moved / max(metrics.cycles, 1e-9),
    }


def feature_vector(profile: CodeletProfile) -> Dict[str, float]:
    """All 76 features of one profiled codelet."""
    out = dict(profile.static.as_dict())
    out.update(dynamic_features(profile.dynamic))
    return out


@dataclass(frozen=True)
class FeatureMatrix:
    """Codelets × features, with optional z-score normalisation."""

    codelet_names: Tuple[str, ...]
    feature_names: Tuple[str, ...]
    values: np.ndarray                  # shape (n_codelets, n_features)

    def __post_init__(self):
        if self.values.shape != (len(self.codelet_names),
                                 len(self.feature_names)):
            raise ValueError("feature matrix shape mismatch")

    @classmethod
    def from_profiles(cls, profiles: Sequence[CodeletProfile],
                      feature_names: Optional[Sequence[str]] = None
                      ) -> "FeatureMatrix":
        names = tuple(feature_names or ALL_FEATURE_NAMES)
        unknown = set(names) - set(ALL_FEATURE_NAMES)
        if unknown:
            raise KeyError(f"unknown features: {sorted(unknown)}")
        rows = []
        for p in profiles:
            vec = feature_vector(p)
            rows.append([vec[name] for name in names])
        return cls(tuple(p.name for p in profiles), names,
                   np.asarray(rows, dtype=float))

    @property
    def n_codelets(self) -> int:
        return len(self.codelet_names)

    def subset(self, feature_names: Sequence[str]) -> "FeatureMatrix":
        """Select a feature subset (GA individuals / Table 2 set)."""
        index = {n: i for i, n in enumerate(self.feature_names)}
        cols = [index[n] for n in feature_names]
        return FeatureMatrix(self.codelet_names, tuple(feature_names),
                             self.values[:, cols])

    def subset_mask(self, mask: Sequence[bool]) -> "FeatureMatrix":
        mask = np.asarray(mask, dtype=bool)
        names = tuple(n for n, keep in zip(self.feature_names, mask)
                      if keep)
        return FeatureMatrix(self.codelet_names, names,
                             self.values[:, mask])

    def normalized(self) -> np.ndarray:
        """Zero-mean / unit-variance feature columns (Section 3.3).

        Constant features normalise to all-zero columns so they simply
        stop contributing to distances.

        The result is memoized (and marked read-only so no caller can
        corrupt the shared array): GA fitness evaluation calls this for
        every individual of every generation, and z-scores are
        column-local, so one full normalisation serves them all
        (docs/PERFORMANCE.md).
        """
        memo = getattr(self, "_normalized_memo", None)
        if memo is not None:
            return memo
        n_cols = self.values.shape[1]
        mean = np.empty(n_cols)
        std = np.empty(n_cols)
        for j in range(n_cols):
            # Per-column stats on a contiguous copy: numpy's reduction
            # order then cannot depend on the matrix width, which is
            # what makes norm(subset) == norm(full)[:, subset] hold
            # bit-for-bit (axis=0 reductions don't guarantee that).
            col = np.ascontiguousarray(self.values[:, j])
            mean[j] = col.mean()
            std[j] = col.std()
        std[std < 1e-12] = 1.0
        out = (self.values - mean) / std
        out.setflags(write=False)
        object.__setattr__(self, "_normalized_memo", out)
        return out

    def row(self, codelet_name: str) -> np.ndarray:
        return self.values[self.codelet_names.index(codelet_name)]
