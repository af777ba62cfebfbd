"""End-to-end benchmark reduction pipeline (Steps A-E, Figure 1).

:class:`BenchmarkReducer` wires the whole method together:

* **Step A** — detect codelets (:mod:`repro.codelets.finder`);
* **Step B** — profile them on the reference machine
  (:mod:`repro.codelets.profiling`), once, whatever K is later used;
* **Step C** — normalise features, Ward-cluster, cut at a fixed K or the
  elbow K (:mod:`repro.core.clustering`);
* **Step D** — judge every codelet's fidelity once, then select
  well-behaved representatives (:mod:`repro.core.representatives`);
* **Step E** — benchmark representatives on a target and extrapolate
  (:func:`evaluate_on_target`).

Profiling and fidelity are cached on the reducer, so sweeping K
(Figure 3) or evaluating several targets re-uses Steps A-B and D's
probe.  The reducer records its stage metrics (``profiles.*``,
``features.count``, ``cluster.*``, ``elbow.k``, ``ill_behaved.count``)
into its :class:`~repro.obs.Observation`: the profiling and feature
metrics once, when the memoized artifact is first computed, the cluster
metrics on every :meth:`BenchmarkReducer.reduce`.  The
:class:`~repro.runtime.config.RuntimeConfig` carried by
:class:`SubsettingConfig` additionally fans Steps B and E out across
worker processes (``jobs``) and persists per-codelet profiling outcomes
in a content-addressed on-disk cache (``cache_dir``), with results
guaranteed bit-identical to a serial, cold run (see
:mod:`repro.runtime`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Sequence, Tuple, Union

import numpy as np

from ..codelets.codelet import BenchmarkSuite
from ..codelets.finder import find_suite_codelets
from ..codelets.measurement import Measurer
from ..codelets.profiling import (MIN_TOTAL_CYCLES, CodeletProfile,
                                  ProfilingReport, profile_codelets)
from ..machine.architecture import Architecture, REFERENCE
from ..obs import Observation, active_observation
from ..runtime.cache import CacheStats
from ..runtime.config import RuntimeConfig
from ..runtime.executor import Executor
from ..runtime.resilience import (QUARANTINED, ResilientExecutor,
                                  RunHealth)
from .clustering import (ELBOW_K_MAX, Dendrogram, ElbowCut, elbow_stack,
                         ward_linkage)
from .features import TABLE2_FEATURES, FeatureMatrix
from .prediction import (ApplicationPrediction, ClusterModel,
                         CodeletPrediction, aggregate_application,
                         average_error, build_cluster_model, median_error)
from .reduction import ReductionBreakdown, reduction_breakdown
from .representatives import (SelectionResult, ill_behaved_codelets,
                              select_representatives)


@dataclass(frozen=True)
class SubsettingConfig:
    """Pipeline knobs.

    The paper fixes the rest of the method, so those are module
    constants rather than settings: the Nehalem :data:`REFERENCE`, the
    :data:`MIN_TOTAL_CYCLES` filter of Step B, the
    :data:`ILL_BEHAVED_TOLERANCE` of Step D and the
    :data:`ELBOW_K_MAX` of the elbow sweep.
    """

    feature_names: Tuple[str, ...] = TABLE2_FEATURES
    runtime: RuntimeConfig = RuntimeConfig()

    def rows(self, features: FeatureMatrix) -> np.ndarray:
        """Step C's rows: the z-scored features."""
        return features.normalized()


def cluster_and_select(profiles: Sequence[CodeletProfile], rows: np.ndarray,
                       k: Union[int, str], ill_behaved: FrozenSet[str],
                       ineligible: FrozenSet[str] = frozenset(), *,
                       dendrogram: Optional[Dendrogram] = None,
                       elbow: Optional[ElbowCut] = None
                       ) -> Tuple[np.ndarray, SelectionResult, ClusterModel]:
    """Steps C-D: cut the Ward dendrogram of ``rows`` at ``k`` (clamped
    to ``[1, n]``) or at its elbow K, select the well-behaved
    representatives and build the model; returns ``(labels, selection,
    model)``.  ``dendrogram`` and ``elbow`` are computed unless given,
    the elbow only for ``k == "elbow"``.  A cut at the elbow K takes the
    elbow's centroid distances, bit for bit the ones
    :func:`select_representatives` computes (``stacked-elbow-equivalence``
    checks it)."""
    if dendrogram is None:
        dendrogram = ward_linkage(rows)
    if k == "elbow" and elbow is None:
        elbow = elbow_stack([rows], [dendrogram], ELBOW_K_MAX)[0]
    cut_k = (elbow.k if k == "elbow"
             else max(1, min(int(k), dendrogram.n_leaves)))
    labels = dendrogram.cut(cut_k)
    selection = select_representatives(
        profiles, rows, labels, ill_behaved, ineligible,
        centroid_distances=(elbow.distances if elbow is not None
                            and elbow.k == cut_k else None))
    return labels, selection, build_cluster_model(profiles, selection)


@dataclass(frozen=True)
class ReducedSuite:
    """Result of Steps A-D: a reduced benchmark ready for any target."""

    suite: BenchmarkSuite
    profiles: Tuple[CodeletProfile, ...]
    discarded: Tuple[Tuple[str, float], ...]
    features: FeatureMatrix
    normalized_rows: np.ndarray
    dendrogram: Dendrogram
    requested_k: Union[int, str]
    elbow: int
    labels: np.ndarray
    selection: SelectionResult
    model: ClusterModel
    quarantined: Tuple[str, ...] = ()   # dropped by the resilient runtime
    #: Codelets whose Step D fidelity probe was quarantined: they stay
    #: in the suite but may never represent a cluster.
    ineligible: Tuple[str, ...] = ()

    @property
    def k(self) -> int:
        """Final number of clusters (after possible destructions)."""
        return self.selection.k

    @property
    def representatives(self) -> Tuple[str, ...]:
        return self.selection.representatives

    def profile(self, name: str) -> CodeletProfile:
        # The index lives in __dict__ (not a field) so it is built once
        # per instance without affecting equality or the frozen API.
        index = self.__dict__.get("_profile_index")
        if index is None:
            index = {p.name: p for p in self.profiles}
            object.__setattr__(self, "_profile_index", index)
        try:
            return index[name]
        except KeyError:
            raise KeyError(name) from None


class BenchmarkReducer:
    """Runs the benchmark reduction method over a suite, profiling and
    judging fidelity once whatever K is later used."""

    def __init__(self, suite: BenchmarkSuite,
                 measurer: Optional[Measurer] = None,
                 config: SubsettingConfig = SubsettingConfig(),
                 obs: Optional[Observation] = None):
        self.suite = suite
        self.measurer = measurer if measurer is not None else Measurer()
        self.config = config
        #: Run-scoped observability (span tree + metrics).  Falls back
        #: to the CLI-activated observation, else a private one, so
        #: recording is always safe and never global by accident.
        if obs is None:
            obs = active_observation()
        self.obs = obs if obs is not None else Observation()
        self._cache = config.runtime.make_cache(obs=self.obs)
        self.health = RunHealth()
        #: Run-scoped resilient executor (``None`` when ``--retries 0``
        #: and no fault plan restore the fail-fast path); one instance
        #: spans all stages so quarantines carry across them.
        self.resilience = config.runtime.make_resilience(self.health,
                                                         obs=self.obs)
        self._report: Optional[ProfilingReport] = None
        self._fidelity: Optional[Tuple[FrozenSet[str], Tuple[str, ...]]] = None
        self._features: Optional[FeatureMatrix] = None
        self._normalized: Optional[np.ndarray] = None
        self._dendrogram: Optional[Dendrogram] = None
        self._elbow: Optional[ElbowCut] = None

    @property
    def cache_stats(self) -> Optional[CacheStats]:
        """Profile-cache accounting, or ``None`` when caching is off."""
        return self._cache.stats if self._cache is not None else None

    # -- Steps A + B ----------------------------------------------------------

    def profiling(self) -> ProfilingReport:
        """Detect and profile codelets (cached in memory and, when the
        runtime config names a cache directory, on disk)."""
        if self._report is None:
            with self.obs.span("stage:profile",
                               suite=self.suite.name) as span:
                codelets = find_suite_codelets(self.suite)
                span.set("codelets", len(codelets))
                with self.config.runtime.make_executor() as executor:
                    self._report = profile_codelets(
                        codelets, self.measurer,
                        executor=executor, cache=self._cache,
                        resilience=self.resilience, obs=self.obs)
                span.set("kept", len(self._report.profiles))
            for name in self._report.quarantined:
                self.health.degrade(
                    f"step B: codelet {name!r} dropped — every "
                    "profiling attempt failed")
            if self._cache is not None:
                self.health.note_cache(self._cache.stats)
            metrics = self.obs.metrics
            metrics.gauge("profiles.kept").set(len(self._report.profiles))
            metrics.gauge("profiles.discarded").set(
                len(self._report.discarded))
            metrics.gauge("profiles.quarantined").set(
                len(self._report.quarantined))
            for profile in self._report.profiles:
                metrics.histogram("profile.total_ref_seconds").observe(
                    profile.total_ref_seconds)
        return self._report

    # -- Step C ---------------------------------------------------------------

    def feature_matrix(self) -> FeatureMatrix:
        if self._features is None:
            report = self.profiling()
            if not report.profiles:
                raise ValueError(
                    f"suite {self.suite.name!r} has no measurable "
                    f"codelets left to cluster: "
                    f"{len(report.discarded)} discarded by the "
                    f"{MIN_TOTAL_CYCLES:g}-cycle filter, "
                    f"{len(report.quarantined)} quarantined by the "
                    "resilient runtime")
            with self.obs.span("stage:features"):
                self._features = FeatureMatrix.from_profiles(
                    report.profiles, self.config.feature_names)
                self._normalized = self.config.rows(self._features)
            self.obs.metrics.gauge("features.count").set(
                len(self._features.feature_names))
        return self._features

    def dendrogram(self) -> Dendrogram:
        if self._dendrogram is None:
            self.feature_matrix()
            with self.obs.span("stage:cluster",
                               codelets=self._normalized.shape[0]):
                self._dendrogram = ward_linkage(self._normalized)
        return self._dendrogram

    def elbow(self) -> int:
        if self._elbow is None:
            dendrogram = self.dendrogram()
            self._elbow = elbow_stack([self._normalized], [dendrogram],
                                      ELBOW_K_MAX)[0]
        return self._elbow.k

    # -- Steps C + D ----------------------------------------------------------

    def fidelity(self) -> Tuple[FrozenSet[str], Tuple[str, ...]]:
        """Step D's verdicts ``(ill_behaved, ineligible)``, judged once.
        Under resilience every codelet's probe runs through the
        retry/quarantine wrapper, and a codelet whose probe is
        quarantined is ineligible as representative, not ill-behaved."""
        if self._fidelity is not None:
            return self._fidelity
        profiles = self.profiling().profiles
        if self.resilience is None:
            self._fidelity = (
                ill_behaved_codelets(profiles, self.measurer), ())
            return self._fidelity
        ill_behaved, ineligible = [], []
        with self.obs.span("stage:fidelity", probes=len(profiles)):
            for p in profiles:
                result = self.resilience.run(
                    lambda p=p: self.measurer.is_ill_behaved(
                        p.codelet, REFERENCE),
                    key=p.name, stage="fidelity", arch=REFERENCE.name)
                self.obs.metrics.counter("tasks.fidelity").inc()
                self.obs.event(
                    f"fidelity:{p.name}",
                    quarantined=result is QUARANTINED,
                    ill_behaved=(result is not QUARANTINED
                                 and bool(result)))
                if result is QUARANTINED:
                    ineligible.append(p.name)
                    self.health.degrade(
                        f"step D: fidelity probe for {p.name!r} "
                        "quarantined — ineligible as representative")
                elif result:
                    ill_behaved.append(p.name)
        self._fidelity = frozenset(ill_behaved), tuple(ineligible)
        return self._fidelity

    def reduce(self, k: Union[int, str] = "elbow") -> ReducedSuite:
        """Cluster at ``k`` (or the elbow K) and select representatives."""
        with self.obs.span("reduce", suite=self.suite.name,
                           requested_k=str(k)) as span:
            reduced = self._reduce(k)
            span.set("final_k", reduced.k)
            span.set("elbow_k", reduced.elbow)
        return reduced

    def _reduce(self, k: Union[int, str]) -> ReducedSuite:
        report = self.profiling()
        features = self.feature_matrix()
        dendrogram = self.dendrogram()
        elbow = self.elbow()
        cut_k = elbow if k == "elbow" else int(k)
        cut_k = max(1, min(cut_k, features.n_codelets))
        ill_behaved, ineligible = self.fidelity()
        with self.obs.span("stage:select", cut_k=cut_k) as span:
            labels, selection, model = cluster_and_select(
                report.profiles, self._normalized, cut_k, ill_behaved,
                frozenset(ineligible), dendrogram=dendrogram,
                elbow=self._elbow)
            span.set("final_k", selection.k)
            span.set("destroyed", selection.destroyed_clusters)
        if ineligible and selection.destroyed_clusters:
            self.health.degrade(
                f"step D: {selection.destroyed_clusters} cluster(s) "
                "destroyed (no trustworthy representative); members "
                "re-homed to their nearest surviving neighbours")
        reduced = ReducedSuite(
            suite=self.suite,
            profiles=report.profiles,
            discarded=report.discarded,
            features=features,
            normalized_rows=self._normalized,
            dendrogram=dendrogram,
            requested_k=k,
            elbow=elbow,
            labels=labels,
            selection=selection,
            model=model,
            quarantined=report.quarantined,
            ineligible=ineligible,
        )
        metrics = self.obs.metrics
        metrics.gauge("cluster.count").set(reduced.k)
        metrics.gauge("cluster.destroyed").set(selection.destroyed_clusters)
        metrics.gauge("elbow.k").set(elbow)
        metrics.gauge("ill_behaved.count").set(len(selection.ill_behaved))
        for members in selection.clusters:
            metrics.histogram("cluster.size").observe(len(members))
        return reduced


# ---------------------------------------------------------------------------
# Step E: evaluation on a target architecture
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TargetEvaluation:
    """Predictions and accounting for one target architecture.

    ``degraded_representatives`` lists representatives the resilient
    runtime quarantined on this target; their clusters were re-selected
    (and possibly re-homed) before prediction, so the evaluation is
    complete but degraded.
    """

    arch_name: str
    codelets: Tuple[CodeletPrediction, ...]
    applications: Tuple[ApplicationPrediction, ...]
    reduction: ReductionBreakdown
    degraded_representatives: Tuple[str, ...] = ()

    def _require_codelets(self) -> None:
        if not self.codelets:
            raise ValueError(
                f"target evaluation on {self.arch_name!r} has no "
                "codelet predictions to aggregate — every codelet was "
                "discarded or quarantined before prediction")

    @property
    def median_error_pct(self) -> float:
        self._require_codelets()
        return median_error(self.codelets)

    @property
    def average_error_pct(self) -> float:
        self._require_codelets()
        return average_error(self.codelets)

    def application(self, name: str) -> ApplicationPrediction:
        for app in self.applications:
            if app.app == name:
                return app
        raise KeyError(name)


def _target_model_worker(payload):
    """Model one codelet's in-app and standalone runs on one target.

    Module-level so process pools can pickle it.  Only the memoized
    model runs travel back: the parent absorbs them and then executes
    the unchanged serial measurement code against a warm memo table, so
    parallel evaluation is bit-identical to serial by construction.
    """
    codelet, spec, arch = payload
    measurer = spec.build()
    measurer.true_inapp_seconds(codelet, arch)
    measurer.true_standalone_seconds(codelet, arch)
    return measurer.runs_snapshot()


def evaluate_on_target(reduced: ReducedSuite, target: Architecture,
                       measurer: Measurer,
                       executor: Optional[Executor] = None,
                       resilience: Optional[ResilientExecutor] = None,
                       obs: Optional[Observation] = None
                       ) -> TargetEvaluation:
    """Benchmark the representatives on ``target`` and compare the
    extrapolated codelet/application times to real measurements.

    With a multi-job ``executor``, the expensive part — modelling every
    codelet on the target — is fanned out first to pre-warm the
    measurer's memo table; the measurements below then hit the memo and
    produce exactly the serial results.

    With ``resilience``, a representative whose standalone benchmark is
    quarantined (every attempt failed) does not abort the evaluation:
    it is barred and Step D reselects — possibly destroying its cluster
    and re-homing the members via the ill-behaved machinery — until
    every surviving representative measures cleanly.  The reselection
    keeps Step D's ill-behaved and ineligible codelets barred too.
    """
    if obs is None:
        obs = active_observation()
    if obs is None:
        obs = Observation()

    with obs.span("evaluate", target=target.name,
                  representatives=len(reduced.representatives)) as span:
        if (executor is not None and executor.jobs > 1
                and reduced.profiles):
            spec = measurer.spec()
            payloads = [(p.codelet, spec, target)
                        for p in reduced.profiles]
            for runs in executor.map(_target_model_worker, payloads):
                measurer.absorb_runs(runs)

        # Measure the representatives' standalone microbenchmarks.
        # Under resilience this loops: each quarantined representative
        # joins the barred set and selection re-runs until a clean set
        # emerges (or no cluster can be kept, which
        # select_representatives reports).
        selection = reduced.selection
        model = reduced.model
        rep_times: Dict[str, float] = {}
        barred: set = set()
        while True:
            failed = None
            for rep_name in selection.representatives:
                if rep_name in rep_times:
                    continue
                codelet = reduced.profile(rep_name).codelet
                obs.metrics.counter("tasks.bench").inc()
                if resilience is None:
                    result = measurer.benchmark_standalone(codelet,
                                                           target)
                else:
                    result = resilience.run(
                        lambda c=codelet: measurer.benchmark_standalone(
                            c, target),
                        key=rep_name, stage="bench", arch=target.name)
                if result is QUARANTINED:
                    obs.event(f"bench:{rep_name}", quarantined=True)
                    failed = rep_name
                    break
                rep_times[rep_name] = result.per_invocation_s
                obs.metrics.counter("model_seconds.bench").inc(
                    result.total_bench_s)
                obs.event(f"bench:{rep_name}",
                          invocations=result.invocations,
                          model_s=result.total_bench_s)
            if failed is None:
                break
            barred.add(failed)
            obs.metrics.counter("bench.reselections").inc()
            resilience.health.degrade(
                f"step E: representative {failed!r} quarantined on "
                f"{target.name}; reselecting its cluster")
            selection = select_representatives(
                reduced.profiles, reduced.normalized_rows,
                reduced.labels, frozenset(reduced.selection.ill_behaved),
                barred.union(reduced.ineligible))
            model = build_cluster_model(reduced.profiles, selection)

        span.set("measured", len(rep_times))
        span.set("quarantined", len(barred))
        predicted = model.predict(rep_times)

        # "Real" target measurements: the original codelets in-app.
        real: Dict[str, float] = {}
        for p in reduced.profiles:
            real[p.name] = measurer.measure_inapp(p.codelet, target)

    codelet_preds = tuple(
        CodeletPrediction(
            name=p.name,
            app=p.app,
            ref_seconds=p.ref_seconds,
            predicted_seconds=predicted[p.name],
            real_seconds=real[p.name],
        ) for p in reduced.profiles)

    apps = []
    for app in reduced.suite.applications:
        if any(p.app == app.name for p in reduced.profiles):
            apps.append(aggregate_application(
                app.name, reduced.profiles, predicted, real,
                app.codelet_coverage))

    reduction = reduction_breakdown(
        reduced.profiles, selection.representatives, measurer, target)

    return TargetEvaluation(
        arch_name=target.name,
        codelets=codelet_preds,
        applications=tuple(apps),
        reduction=reduction,
        degraded_representatives=tuple(sorted(barred)),
    )
