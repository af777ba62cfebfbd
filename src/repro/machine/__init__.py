"""Machine models: the hardware + hardware-counter substitute.

Provides the four Table 1 architectures, the analytical cache model
(plus the trace-driven simulator that validates it), a bounded-resource
execution-time model, a Likwid-style dynamic metric deriver, and the
measurement-noise model.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".architecture": ("ALL_ARCHITECTURES", "ATOM", "CORE2",
                      "EXTENDED_ARCHITECTURES", "HASWELL", "NEHALEM",
                      "REFERENCE", "SANDY_BRIDGE", "TARGETS", "Architecture",
                      "CacheLevel", "architecture_by_name", "table1_rows"),
    ".cache_model": ("AccessGroup", "CacheProfile", "LevelStats",
                     "analyze_cache", "collect_groups", "lines_touched"),
    ".cache_sim": ("HierarchySim", "SetAssociativeCache", "generate_trace",
                   "simulate_cache"),
    ".counters": ("DynamicMetrics", "derive_metrics"),
    ".exec_model": ("ExecutionEstimate", "NestCycles", "compute_cycles",
                    "estimate_execution", "memory_cycles"),
    ".noise": ("EXACT", "NoiseModel"),
    ".platform": ("MeasuredRun", "default_options", "run_kernel_model"),
})
