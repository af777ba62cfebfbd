"""Fine-grained benchmark subsetting for system selection.

A complete reproduction of de Oliveira Castro et al., CGO 2014: break
benchmark suites into codelets, profile them once on a reference
machine, cluster similar codelets, extract one well-behaved
representative microbenchmark per cluster, and predict every codelet's
(and application's) performance on new architectures from the
representatives alone.

Quick start::

    from repro import (BenchmarkReducer, Measurer, build_nas_suite,
                       evaluate_on_target, TARGETS)

    measurer = Measurer()
    reducer = BenchmarkReducer(build_nas_suite(), measurer)
    reduced = reducer.reduce("elbow")
    for target in TARGETS:
        result = evaluate_on_target(reduced, target, measurer)
        print(target.name, result.median_error_pct,
              result.reduction.total_factor)

The package layers, bottom-up:

* :mod:`repro.ir` — the loop-nest kernel IR (source-language substrate);
* :mod:`repro.isa` — the compiler substrate (icc role);
* :mod:`repro.analysis` — static loop metrics (MAQAO role);
* :mod:`repro.machine` — architecture/cache/execution models and
  hardware counters (target machines + Likwid role);
* :mod:`repro.runtime` — parallel execution + content-addressed profile
  caching for the batch stages of the pipeline;
* :mod:`repro.codelets` — detection, extraction, measurement (Codelet
  Finder role);
* :mod:`repro.suites` — the NR and NAS-like benchmark suites;
* :mod:`repro.core` — clustering, representative selection, prediction,
  GA feature selection, the end-to-end pipeline;
* :mod:`repro.experiments` — one driver per paper table/figure.
"""

from ._exports import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".codelets": ("Application", "BenchmarkSuite", "Codelet", "Measurer",
                  "extract", "find_codelets", "find_suite_codelets",
                  "profile_codelets"),
    ".core": ("ALL_FEATURE_NAMES", "TABLE2_FEATURES", "BenchmarkReducer",
              "FeatureMatrix", "GAConfig", "ReducedSuite",
              "SubsettingConfig", "TargetEvaluation", "evaluate_on_target",
              "geometric_mean_speedup", "select_features", "ward_linkage"),
    ".machine": ("ALL_ARCHITECTURES", "ATOM", "CORE2", "NEHALEM",
                 "REFERENCE", "SANDY_BRIDGE", "TARGETS", "Architecture",
                 "NoiseModel", "run_kernel_model"),
    ".runtime": ("DiskCache", "ProcessExecutor", "RuntimeConfig",
                 "SerialExecutor", "make_executor"),
    ".suites": ("build_nas_suite", "build_nr_suite"),
})
__all__.append("__version__")
