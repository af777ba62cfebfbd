"""Core benchmark-subsetting method: features, clustering,
representative selection, prediction, reduction accounting, the GA
feature search and the end-to-end pipeline (Steps A-E of the paper)."""

from ..codelets.measurement import ILL_BEHAVED_TOLERANCE
from .clustering import (ELBOW_K_MAX, ELBOW_THRESHOLD, LINKAGE_METHODS,
                         Dendrogram, Merge, elbow_k, linkage,
                         linkage_reference, variance_curve, ward_linkage,
                         within_cluster_variance)
from .features import (ALL_FEATURE_NAMES, DYNAMIC_FEATURE_NAMES,
                       TABLE2_FEATURES, FeatureMatrix, dynamic_features,
                       feature_vector)
from .ga import (FeatureSelectionProblem, GAConfig, GAResult, run_ga,
                 select_features)
from .persist import (ReducedSuiteManifest, benchmark_manifest,
                      export_manifest)
from .pipeline import (BenchmarkReducer, ReducedSuite, SubsettingConfig,
                       TargetEvaluation, evaluate_on_target)
from .prediction import (ApplicationPrediction, ClusterModel,
                         CodeletPrediction, aggregate_application,
                         average_error, build_cluster_model,
                         geometric_mean_speedup, median_error,
                         percent_error)
from .random_baseline import (RandomClusteringStats, random_clustering_errors,
                              random_partition)
from .reduction import ReductionBreakdown, reduction_breakdown
from .representatives import SelectionResult, select_representatives
from .subsetting import (SubsettingComparison, cross_application_subsetting,
                         per_application_subsetting)

__all__ = [
    "Dendrogram", "Merge", "ward_linkage", "linkage", "LINKAGE_METHODS",
    "linkage_reference", "elbow_k", "variance_curve",
    "within_cluster_variance", "ELBOW_THRESHOLD", "ELBOW_K_MAX",
    "FeatureMatrix", "feature_vector", "dynamic_features",
    "ALL_FEATURE_NAMES", "DYNAMIC_FEATURE_NAMES", "TABLE2_FEATURES",
    "GAConfig", "GAResult", "run_ga", "select_features",
    "FeatureSelectionProblem",
    "BenchmarkReducer", "ReducedSuite",
    "SubsettingConfig", "TargetEvaluation", "evaluate_on_target",
    "ClusterModel", "CodeletPrediction", "ApplicationPrediction",
    "build_cluster_model", "aggregate_application", "percent_error",
    "median_error", "average_error", "geometric_mean_speedup",
    "RandomClusteringStats", "random_clustering_errors",
    "random_partition",
    "ReductionBreakdown", "reduction_breakdown",
    "SelectionResult", "select_representatives", "ILL_BEHAVED_TOLERANCE",
    "ReducedSuiteManifest", "export_manifest", "benchmark_manifest",
    "SubsettingComparison", "cross_application_subsetting",
    "per_application_subsetting",
]
