"""Core benchmark-subsetting method: features, clustering,
representative selection, prediction, reduction accounting, the GA
feature search and the end-to-end pipeline (Steps A-E of the paper)."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "..codelets.measurement": ("ILL_BEHAVED_TOLERANCE",),
    ".clustering": ("ELBOW_K_MAX", "ELBOW_THRESHOLD", "LINKAGE_METHODS",
                    "Dendrogram", "elbow_k", "linkage", "linkage_reference",
                    "variance_curve", "ward_linkage",
                    "within_cluster_variance"),
    ".features": ("ALL_FEATURE_NAMES", "DYNAMIC_FEATURE_NAMES",
                  "TABLE2_FEATURES", "FeatureMatrix", "dynamic_features",
                  "feature_vector"),
    ".ga": ("FeatureSelectionProblem", "GAConfig", "GAResult", "run_ga",
            "select_features"),
    ".persist": ("ReducedSuiteManifest", "benchmark_manifest",
                 "export_manifest"),
    ".pipeline": ("BenchmarkReducer", "ReducedSuite", "SubsettingConfig",
                  "TargetEvaluation", "evaluate_on_target"),
    ".prediction": ("ApplicationPrediction", "ClusterModel",
                    "CodeletPrediction", "aggregate_application",
                    "average_error", "build_cluster_model",
                    "geometric_mean_speedup", "median_error",
                    "percent_error"),
    ".random_baseline": ("RandomClusteringStats", "random_clustering_errors",
                         "random_partition"),
    ".reduction": ("ReductionBreakdown", "reduction_breakdown"),
    ".representatives": ("SelectionResult", "select_representatives"),
    ".subsetting": ("SubsettingComparison", "cross_application_subsetting",
                    "per_application_subsetting"),
})
