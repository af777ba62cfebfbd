"""Parallel, cache-backed, fault-tolerant runtime for the pipeline.

The pipeline is embarrassingly parallel at its two measurement-heavy
stages — per-codelet profiling on the reference machine (Step B) and
per-codelet benchmarking on each target (Step E) — and profiling is a
pure function of (codelet source, architecture, measurer config).  This
package supplies the corresponding machinery:

* :mod:`~repro.runtime.executor` — an order-preserving :class:`Executor`
  abstraction (serial, or a ``ProcessPoolExecutor`` fan-out) with
  deterministic, bit-identical results;
* :mod:`~repro.runtime.cache` — a content-addressed on-disk
  :class:`DiskCache` with hit/miss accounting, per-entry payload
  checksums and corruption recovery;
* :mod:`~repro.runtime.fingerprint` — stable content fingerprints of
  codelets, architectures and measurer configurations for cache keys;
* :mod:`~repro.runtime.faults` — deterministic, replayable fault
  injection (:class:`FaultPlan`) keyed like the measurement noise
  model;
* :mod:`~repro.runtime.resilience` — :class:`ResilientExecutor`
  (per-task retries in back-to-back rounds, circuit breakers) and the
  structured :class:`RunHealth` report;
* :mod:`~repro.runtime.config` — :class:`RuntimeConfig`, the knob bundle
  wired through :class:`repro.core.pipeline.SubsettingConfig` and the
  CLI (``--jobs``, ``--cache-dir``, ``--retries``, ``--fault-plan``).

This package deliberately depends only on :mod:`repro.ir` and
:mod:`repro.machine`; the codelet and core layers import *it*.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".cache": ("CACHE_FORMAT", "CacheStats", "DiskCache", "content_key"),
    ".config": ("RuntimeConfig",),
    ".executor": ("Executor", "ProcessExecutor", "SerialExecutor",
                  "make_executor", "resolve_jobs"),
    ".faults": ("FAULT_KINDS", "FAULT_STAGES", "CorruptResult", "FaultPlan",
                "FaultRule", "InjectedCrash", "InjectedFault",
                "InjectedTimeout", "crash_plan"),
    ".fingerprint": ("architecture_fingerprint", "codelet_fingerprint",
                     "kernel_fingerprint", "measurer_fingerprint",
                     "profile_cache_key"),
    ".resilience": ("QUARANTINED", "ResilientExecutor", "RetryPolicy",
                    "RunHealth", "TaskHealth"),
})
