"""Codelet layer: detection (Step A), profiling (Step B), extraction and
measurement (Step D) — the Codelet Finder + probe substrate."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".codelet": ("Application", "BenchmarkSuite", "Codelet",
                 "CodeletRegion", "Routine"),
    ".extractor": ("MemoryDump", "Microbenchmark", "capture_memory",
                   "extract"),
    ".finder": ("DetectionReport", "find_codelets", "find_suite_codelets"),
    ".measurement": ("MIN_BENCH_SECONDS", "MIN_INVOCATIONS", "Measurer",
                     "MeasurerSpec", "StandaloneTiming", "average_metrics",
                     "choose_invocations"),
    ".profiling": ("MIN_TOTAL_CYCLES", "CodeletProfile", "ProfileOutcome",
                   "ProfilingReport", "profile_codelet", "profile_codelets",
                   "profile_outcome"),
})
