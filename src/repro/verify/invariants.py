"""The executable invariant registry (metamorphic correctness checks).

Every invariant is a named, self-contained property of the reduction
pipeline (Steps B-E) that must hold on *any* suite — stated once here,
executed by ``repro verify`` on seeded synthetic suites and by the
``pytest -m verify`` tests.  An invariant either returns quietly or
raises :class:`InvariantViolation` with a report that names the
violated property and the witnessing values.

Each invariant's contract is the description it registers with
:func:`invariant`; ``repro verify --list`` prints them all, and
docs/VERIFY.md explains each.  :data:`BREAKAGES` holds the deliberate
defects that prove the invariants bite.  Each is planted inside the
invariant that owns it, through an input that can carry it or by
:func:`_planted`, so no production signature knows a defect exists.
"""

from __future__ import annotations

import functools
import json
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..codelets.codelet import Codelet
from ..codelets.finder import find_suite_codelets
from ..codelets.measurement import ILL_BEHAVED_TOLERANCE, Measurer
from ..codelets.profiling import profile_codelets
from ..core import clustering
from ..core.clustering import (ELBOW_K_MAX, LINKAGE_METHODS, Dendrogram,
                               elbow_stack, linkage, linkage_reference,
                               linkage_stack, variance_curve, ward_linkage,
                               within_cluster_variance)
from ..core.features import ALL_FEATURE_NAMES, FeatureMatrix
from ..core.ga import INIT_DENSITY, GAConfig
from ..core.pipeline import (BenchmarkReducer, ReducedSuite,
                             SubsettingConfig, cluster_and_select)
from ..core.representatives import ill_behaved_codelets
from ..ir.dependence import FREE
from ..ir.traverse import NestAnalysis, analyze_nests
from ..isa import deps
from ..isa.compiler import clear_lowering_memo, compile_kernel
from ..machine.architecture import NEHALEM, REFERENCE, TARGETS
from ..machine.cache_model import CacheProfile, analyze_cache
from ..machine.noise import NoiseModel, median
from ..machine.platform import default_options
from ..obs import Observation, Tracer
from ..runtime.config import RuntimeConfig
from ..runtime.faults import FaultPlan, FaultRule
from .strategies import (FEATURE_MATRIX_VARIANTS, _feature_matrix,
                         random_codelets, synthetic_suite)


class InvariantViolation(AssertionError):
    """A pipeline invariant does not hold; the message names it."""


@dataclass(frozen=True)
class Invariant:
    """A named, executable pipeline property."""

    name: str
    description: str
    check: Callable[["VerifyContext"], None]


#: name -> Invariant, in registration order.
REGISTRY: Dict[str, Invariant] = {}


def invariant(name: str, description: str):
    """Register a pipeline invariant under ``name``."""
    def register(fn: Callable[["VerifyContext"], None]):
        if name in REGISTRY:
            raise ValueError(f"invariant {name!r} registered twice")
        REGISTRY[name] = Invariant(name, description, fn)
        return fn
    return register


@dataclass(frozen=True)
class InvariantResult:
    """Outcome of executing one invariant against a context."""

    name: str
    description: str
    passed: bool
    detail: str = ""


@contextmanager
def _planted(module, name: str, replacement: Callable, *,
             reset: Callable[[], None] = lambda: None):
    """Plant a defect of :data:`BREAKAGES` for the length of the block:
    swap ``module.name`` for ``replacement``, which takes the original
    function as its first argument; ``reset`` runs on entry and on
    exit.  Raises ``AttributeError`` if ``module`` has no ``name``, so
    a renamed function cannot leave a defect silently unplanted."""
    original = getattr(module, name)
    reset()
    setattr(module, name, functools.partial(replacement, original))
    try:
        yield
    finally:
        setattr(module, name, original)
        reset()


class _RawRowsConfig(SubsettingConfig):
    """The ``no-normalize`` planted defect: Step C clusters the raw
    feature values instead of their z-scores."""

    def rows(self, features: FeatureMatrix) -> np.ndarray:
        return np.array(features.values, dtype=float)


class _WallClockTracer(Tracer):
    """The ``trace-wall-clock`` planted defect: a tracer that stamps
    every span with a ``time.perf_counter`` value."""

    def _attach(self, span) -> None:
        span.set("wall_s", time.perf_counter())
        super()._attach(span)


def _skewed_lw_update(original, d, size, alive, rows, a, b, dist,
                      method) -> None:
    """The ``slow-path-skew`` planted defect: the Ward update with its
    ``(n_a + n_k)`` coefficient scaled by ``1 + 1e-3``."""
    if method != "ward":
        return original(d, size, alive, rows, a, b, dist, method)
    live = alive.copy()
    live[rows, a] = False
    live[rows, b] = False
    sa, sb, sk = size[rows, a][:, None], size[rows, b][:, None], size
    new = (((sa + sk) * (1.0 + 1e-3)) * d[rows, a] + (sb + sk) * d[rows, b]
           - sk * dist[:, None]) / (sa + sb + sk)
    new = np.where(live, new, np.inf)
    d[rows, a, :] = new
    d[rows, :, a] = new
    d[rows, b, :] = np.inf
    d[rows, :, b] = np.inf


def _shared_first_minima(original, d) -> np.ndarray:
    """The ``stack-shares-argmin`` planted defect: every matrix of a
    linkage stack merges at matrix 0's first minimum."""
    first = original(d)
    return np.full_like(first, first[0])


def _stale_w_curve(original, k_max, order, values, live_from,
                   live_to) -> List[float]:
    """The ``stale-curve-child`` planted defect: W(k) keeps each
    merged-away child, the later in ``order`` of the two clusters one
    merge retires, at every cut down to k = 1."""
    live_from = list(live_from)
    retired = set()
    for c in order:
        if live_from[c] in retired:
            live_from[c] = 1
        elif live_from[c] > 1:
            retired.add(live_from[c])
    return original(k_max, order, values, live_from, live_to)


def _unresolved_as_independent(original, ctx, store, load):
    """The ``vectorize-unresolved`` planted defect: a pair the solver
    cannot resolve is independent, not a recurrence at distance 1."""
    d = original(ctx, store, load)
    if d is not None:
        dep = ctx.dependence_between(store, load)
        if dep.kind == "overlap" or dep.distance[-1] is FREE:
            return None
    return d


def _no_permutation_conflict(original, ctx, chain, perm):
    """The ``interchange-ignores-direction`` planted defect."""
    return None


class _RunBlindMeasurer(Measurer):
    """The ``memo-drops-run-id`` planted defect: a measurement memo
    keyed without ``run_id``."""

    @staticmethod
    def _memo_key(kind, codelet, arch, run_id):
        return (kind, codelet.name, arch.name)


class _LineBlindTable(dict):
    """The ``footprint-drops-line-size`` planted defect: a footprint
    table whose lookup ignores the line size."""

    def get(self, line_bytes, default=None):
        return next(iter(self.values()), default)


@dataclass(frozen=True)
class _LineBlindNest(NestAnalysis):
    """A loop nest whose footprint table is a :class:`_LineBlindTable`."""

    footprints: Dict[int, object] = field(
        default_factory=_LineBlindTable, init=False, compare=False,
        repr=False)


#: A hierarchy with another line size at every level (32/64/128 bytes),
#: so one cache-model run reads a nest's footprint at three line sizes.
MIXED_LINES = replace(NEHALEM, name="mixed-lines", caches=tuple(
    replace(cache, line_bytes=line)
    for cache, line in zip(NEHALEM.caches, (32, 64, 128))))


# ---------------------------------------------------------------------------
# The verification context
# ---------------------------------------------------------------------------


class VerifyContext:
    """One seeded synthetic suite plus everything invariants need.

    ``breakage`` names a deliberate defect, a row of :data:`BREAKAGES`;
    each invariant that owns a defect asks :meth:`broken` whether it is
    the named one and plants it for its own length, so the harness can
    show that exactly the row's invariants catch it.
    """

    def __init__(self, seed: int = 0, n_apps: int = 3,
                 codelets_per_app: int = 4,
                 breakage: Optional[str] = None):
        self.seed = seed
        self.n_apps = n_apps
        self.codelets_per_app = codelets_per_app
        self.breakage = None if breakage is None else _known(breakage)
        self.suite = synthetic_suite(seed, n_apps, codelets_per_app)
        self.codelets = find_suite_codelets(self.suite)
        self.config = (_RawRowsConfig() if self.broken("no-normalize")
                       else SubsettingConfig())
        self.measurer = Measurer()
        #: The reducer of the context suite, measurer and config.
        self.reducer = BenchmarkReducer(self.suite, self.measurer,
                                        self.config)
        self._reduced: Optional[ReducedSuite] = None

    def broken(self, name: str) -> bool:
        """Whether the defect ``name`` of :data:`BREAKAGES` is planted;
        a name the table lacks raises ``ValueError``."""
        return self.breakage == _known(name)

    def planted(self, name: str, *plant, **kwargs):
        """``_planted(*plant, **kwargs)`` if the defect ``name`` is the
        planted one, else a block that changes nothing."""
        return (_planted(*plant, **kwargs) if self.broken(name)
                else nullcontext())

    # -- pipeline runs --------------------------------------------------------

    @property
    def reduced(self) -> ReducedSuite:
        """The canonical elbow-K reduction of the context suite.  Its
        ``normalized_rows`` are the very rows the pipeline clustered,
        not a recomputation of them."""
        if self._reduced is None:
            self._reduced = self.reducer.reduce("elbow")
        return self._reduced

    def fresh_reducer(self, config: Optional[SubsettingConfig] = None,
                      ) -> BenchmarkReducer:
        """An independent reducer (fresh measurer, no shared memo)."""
        return BenchmarkReducer(self.suite, Measurer(),
                                config if config is not None
                                else self.config)


def reduce_codelets(codelets: Sequence[Codelet], measurer: Measurer,
                    config: SubsettingConfig, k="elbow"):
    """Steps B-D over a bare codelet list (no suite wrapper): Step B,
    then the pipeline's own Steps C-D (:func:`cluster_and_select`).

    Invariants use it to re-run the pipeline on transformed codelet
    sets (permutations, well-behaved subsets) without re-wrapping them
    into applications.  Returns ``(report, rows, labels, selection,
    model)``.
    """
    report = profile_codelets(codelets, measurer)
    rows = config.rows(FeatureMatrix.from_profiles(report.profiles,
                                                   config.feature_names))
    labels, selection, model = cluster_and_select(
        report.profiles, rows, k,
        ill_behaved_codelets(report.profiles, measurer))
    return report, rows, labels, selection, model


def _partition(clusters: Sequence[Sequence[str]]) -> frozenset:
    return frozenset(frozenset(members) for members in clusters)


# ---------------------------------------------------------------------------
# Registered invariants
# ---------------------------------------------------------------------------


@invariant(
    "normalized-features",
    "clustering consumes z-scored feature rows; rescaling a feature's "
    "unit never changes the partition")
def check_normalized_features(ctx: VerifyContext) -> None:
    reduced = ctx.reduced
    rows = reduced.normalized_rows
    mean = rows.mean(axis=0)
    std = rows.std(axis=0)
    # Direct: the rows the pipeline clustered on are z-scored (constant
    # features legitimately normalise to all-zero columns).
    bad = [j for j in range(rows.shape[1])
           if abs(mean[j]) > 1e-8
           or (std[j] > 1e-12 and abs(std[j] - 1.0) > 1e-8)]
    if bad:
        j = bad[0]
        raise InvariantViolation(
            "normalized-features: clustering consumed unnormalised "
            f"feature rows — column {j} "
            f"({reduced.features.feature_names[j]!r}) has mean "
            f"{mean[j]:.6g} and std {std[j]:.6g} instead of 0/1 "
            "(was feature normalization skipped?)")
    # Metamorphic: changing one feature's unit (exact power-of-two
    # scaling of the raw column) must not move any codelet between
    # clusters.
    values = np.array(reduced.features.values, dtype=float)
    j = int(np.argmax(values.std(axis=0)))
    scaled = values.copy()
    scaled[:, j] *= 2.0 ** 20
    scaled_matrix = FeatureMatrix(reduced.features.codelet_names,
                                  reduced.features.feature_names, scaled)
    rows_b = ctx.config.rows(scaled_matrix)
    k = len(np.unique(reduced.labels))
    labels_b = ward_linkage(rows_b).cut(k)
    names = reduced.features.codelet_names
    part_a = _partition([[names[i] for i in range(len(names))
                          if reduced.labels[i] == lab]
                         for lab in np.unique(reduced.labels)])
    part_b = _partition([[names[i] for i in range(len(names))
                          if labels_b[i] == lab]
                         for lab in np.unique(labels_b)])
    if part_a != part_b:
        raise InvariantViolation(
            "normalized-features: rescaling feature "
            f"{reduced.features.feature_names[j]!r} by 2**20 changed "
            f"the K={k} cluster partition — clustering is not "
            "unit-invariant (was feature normalization skipped?)")


@invariant(
    "permutation-invariance",
    "reordering the codelet list leaves the cluster partition, the "
    "representative set and every per-codelet prediction unchanged")
def check_permutation_invariance(ctx: VerifyContext) -> None:
    reduced = ctx.reduced
    rng = np.random.default_rng(ctx.seed + 0x5EED)
    order = rng.permutation(len(ctx.codelets))
    permuted = [ctx.codelets[i] for i in order]
    # Cut at the same raw K as the base run; Step D's destruction logic
    # then applies identically on both sides.
    raw_k = len(np.unique(reduced.labels))
    _, _, _, selection, model = reduce_codelets(
        permuted, Measurer(), ctx.config, k=raw_k)

    base = reduced.selection
    if _partition(selection.clusters) != _partition(base.clusters):
        raise InvariantViolation(
            "permutation-invariance: permuting the codelet order "
            "changed the cluster partition "
            f"(base {sorted(map(sorted, base.clusters))} vs permuted "
            f"{sorted(map(sorted, selection.clusters))})")
    if set(selection.representatives) != set(base.representatives):
        raise InvariantViolation(
            "permutation-invariance: permuting the codelet order "
            "changed the representative set "
            f"({sorted(base.representatives)} vs "
            f"{sorted(selection.representatives)})")
    # Predictions: identical per codelet for identical rep times.
    rep_times = {r: 1.0 + i for i, r in
                 enumerate(sorted(base.representatives))}
    pred_a = reduced.model.predict(rep_times)
    pred_b = model.predict(rep_times)
    for name in pred_a:
        if pred_a[name] != pred_b[name]:
            raise InvariantViolation(
                "permutation-invariance: prediction for "
                f"{name!r} changed under codelet reordering "
                f"({pred_a[name]!r} vs {pred_b[name]!r})")


@invariant(
    "exact-when-k-equals-n",
    "with K = N well-behaved codelets the model matrix is the "
    "identity, so extrapolation t_all = M · t_repr is exact")
def check_exact_when_k_equals_n(ctx: VerifyContext) -> None:
    codelets = random_codelets(ctx.seed + 0xE8AC7, count=6, tame=True)
    measurer = Measurer()
    report, _, _, selection, model = reduce_codelets(
        codelets, measurer, ctx.config, k=len(codelets))
    n = len(report.profiles)
    if n < 2:
        raise InvariantViolation(
            "exact-when-k-equals-n: tame codelet generator produced "
            f"only {n} measurable codelets — cannot exercise K = N")
    if selection.k != n:
        raise InvariantViolation(
            "exact-when-k-equals-n: cutting at K = N over well-behaved "
            f"codelets kept only {selection.k} of {n} clusters "
            f"(destroyed {selection.destroyed_clusters})")
    matrix = model.matrix()
    if not np.array_equal(matrix, np.eye(n)):
        raise InvariantViolation(
            "exact-when-k-equals-n: the N×K model matrix is not the "
            f"identity at K = N = {n}")
    rng = np.random.default_rng(ctx.seed + 1)
    times = {rep: float(t) for rep, t in
             zip(selection.representatives,
                 rng.uniform(1e-6, 1e-2, size=n))}
    predicted = model.predict(times)
    for name, t in times.items():
        if predicted[name] != t:
            raise InvariantViolation(
                "exact-when-k-equals-n: extrapolation at K = N is not "
                f"exact — {name!r} predicted {predicted[name]!r} from "
                f"measured {t!r}")


@invariant(
    "variance-monotone",
    "total within-cluster variance is non-increasing as K grows "
    "along the dendrogram cuts")
def check_variance_monotone(ctx: VerifyContext) -> None:
    reduced = ctx.reduced
    rows = reduced.normalized_rows
    w = variance_curve(rows, reduced.dendrogram)
    scale = max(float(w[0]), 1e-12)
    for k in range(1, len(w)):
        if w[k] > w[k - 1] + 1e-9 * scale:
            raise InvariantViolation(
                "variance-monotone: within-cluster variance increased "
                f"from W({k}) = {w[k - 1]:.6g} to W({k + 1}) = "
                f"{w[k]:.6g}")


@invariant(
    "representative-membership",
    "every representative belongs to the cluster it represents and "
    "assignments form a consistent partition of the profiles")
def check_representative_membership(ctx: VerifyContext) -> None:
    selection = ctx.reduced.selection
    for idx, (members, rep) in enumerate(
            zip(selection.clusters, selection.representatives)):
        if rep not in members:
            raise InvariantViolation(
                f"representative-membership: representative {rep!r} of "
                f"cluster {idx} is not one of its members {members}")
        if selection.cluster_of(rep) != idx:
            raise InvariantViolation(
                f"representative-membership: {rep!r} represents "
                f"cluster {idx} but is assigned to cluster "
                f"{selection.cluster_of(rep)}")
    assigned = sorted(selection.assignments)
    profiled = sorted(p.name for p in ctx.reduced.profiles)
    if assigned != profiled:
        raise InvariantViolation(
            "representative-membership: assignments do not cover the "
            f"profiled codelets exactly ({len(assigned)} assigned vs "
            f"{len(profiled)} profiled)")
    for name, idx in selection.assignments.items():
        if name not in selection.clusters[idx]:
            raise InvariantViolation(
                f"representative-membership: {name!r} assigned to "
                f"cluster {idx} but missing from its member list")


@invariant(
    "ill-behaved-never-representative",
    "reselection never picks an ineligible codelet: no representative "
    "fails the Section 3.4 fidelity check")
def check_ill_behaved_never_representative(ctx: VerifyContext) -> None:
    reduced = ctx.reduced
    selection = reduced.selection
    leaked = set(selection.representatives) & set(selection.ill_behaved)
    if leaked:
        raise InvariantViolation(
            "ill-behaved-never-representative: ill-behaved codelets "
            f"selected as representatives: {sorted(leaked)}")
    # Independent fidelity re-check with a fresh measurer.
    probe = Measurer()
    for rep in selection.representatives:
        codelet = reduced.profile(rep).codelet
        deviation = probe.behavior_deviation(codelet, REFERENCE)
        if deviation > ILL_BEHAVED_TOLERANCE:
            raise InvariantViolation(
                "ill-behaved-never-representative: representative "
                f"{rep!r} deviates {deviation:.1%} standalone vs "
                f"in-app (tolerance {ILL_BEHAVED_TOLERANCE:.0%}) yet "
                "was not flagged ill-behaved")


@invariant(
    "cache-determinism",
    "a warm-cache re-run re-profiles nothing and is bit-identical to "
    "the cold run")
def check_cache_determinism(ctx: VerifyContext) -> None:
    with tempfile.TemporaryDirectory(prefix="repro-verify-") as tmp:
        config = replace(ctx.config,
                         runtime=RuntimeConfig(jobs=1, cache_dir=tmp))
        cold = BenchmarkReducer(ctx.suite, Measurer(), config)
        cold_reduced = cold.reduce("elbow")
        warm = BenchmarkReducer(ctx.suite, Measurer(), config)
        warm_reduced = warm.reduce("elbow")
        stats = warm.cache_stats
        if stats.misses or stats.stores:
            raise InvariantViolation(
                "cache-determinism: warm-cache run re-profiled "
                f"{stats.misses} codelets (stored {stats.stores}) "
                "instead of reusing every cached outcome")
        if stats.hits != len(ctx.codelets):
            raise InvariantViolation(
                f"cache-determinism: warm run hit {stats.hits} cached "
                f"outcomes, expected {len(ctx.codelets)}")
        if (warm_reduced.profiles != cold_reduced.profiles
                or not np.array_equal(warm_reduced.labels,
                                      cold_reduced.labels)
                or warm_reduced.representatives
                != cold_reduced.representatives):
            raise InvariantViolation(
                "cache-determinism: warm-cache results differ from the "
                "cold run (profiles, labels or representatives)")


@invariant(
    "measure-once",
    "a measurer that has already answered every (codelet, target, run) "
    "returns exactly what a fresh measurer returns, in-app and "
    "standalone")
def check_measure_once(ctx: VerifyContext) -> None:
    asks = {"inapp": Measurer.measure_inapp,
            "standalone": Measurer.benchmark_standalone}
    keys = [(kind, codelet, arch, run_id)
            for kind in asks for codelet in ctx.codelets
            for arch in TARGETS + (REFERENCE,) for run_id in (0, 1)]
    memo = (_RunBlindMeasurer() if ctx.broken("memo-drops-run-id")
            else Measurer())
    for i in np.random.default_rng(ctx.seed).permutation(len(keys)):
        kind, codelet, arch, run_id = keys[i]
        asks[kind](memo, codelet, arch, run_id)
    for kind, codelet, arch, run_id in keys:
        got = asks[kind](memo, codelet, arch, run_id)
        want = asks[kind](Measurer(), codelet, arch, run_id)
        if got != want:
            raise InvariantViolation(
                f"measure-once: {kind} {codelet.name} on {arch.name} "
                f"run {run_id}: the answered measurer returns {got!r}, "
                f"a fresh one {want!r} — the memo must return exactly "
                "the value its key draws")


@invariant(
    "footprint-once",
    "a cache-model run on loop nests whose footprint tables are already "
    "filled, at several line sizes, returns bit for bit what a run on "
    "freshly analyzed nests returns")
def check_footprint_once(ctx: VerifyContext) -> None:
    # Architectures with the same compiler options share one lowering,
    # so its nests, whose footprint tables every model run on that
    # lowering fills and reads, are queried at every line size those
    # machines use.
    line_blind = ctx.broken("footprint-drops-line-size")
    nests: Dict[Tuple, Tuple[NestAnalysis, ...]] = {}
    queries = []
    for codelet in ctx.codelets:
        for v, kernel in enumerate(codelet.variants):
            for arch in TARGETS + (REFERENCE, MIXED_LINES):
                options = default_options(arch)
                key = (codelet.name, v, options)
                if key not in nests:
                    own = tuple(n.nest for n in
                                compile_kernel(kernel, options).nests)
                    if line_blind:
                        own = tuple(_LineBlindNest(n.loops, n.avg_trips,
                                                   n.accesses) for n in own)
                    nests[key] = own
                queries += [(kernel, nests[key], arch, pressure, warm)
                            for pressure in (0.0, codelet.pressure_bytes)
                            for warm in (True, False)]
    for i in np.random.default_rng(ctx.seed).permutation(len(queries)):
        _kernel, shared, arch, pressure, warm = queries[i]
        analyze_cache(shared, arch, pressure, warm)
    for kernel, shared, arch, pressure, warm in queries:
        got = analyze_cache(shared, arch, pressure, warm)
        want = analyze_cache(analyze_nests(kernel), arch, pressure, warm)
        for (label, a), (_, b) in zip(_cache_floats(got),
                                      _cache_floats(want)):
            if a.hex() != b.hex():
                raise InvariantViolation(
                    f"footprint-once: {kernel.name} on {arch.name} "
                    f"(pressure {pressure!r}, warm={warm}): {label} is "
                    f"{a!r} on nests with filled footprint tables, "
                    f"{b!r} on fresh nests — a table entry must hold "
                    "exactly what its line size computes")


def _cache_floats(profile: CacheProfile) -> List[Tuple[str, float]]:
    """Every float of a cache profile, labelled."""
    out = [("accesses", profile.accesses)]
    for lv in profile.levels:
        out += [(f"{lv.name} {name}", getattr(lv, name))
                for name in ("hits", "misses", "bytes_in")]
    return out + [(name, getattr(profile, name)) for name in
                  ("mem_accesses", "mem_bytes", "writeback_bytes")]


@invariant(
    "lint-determinism",
    "lint output is a pure function of the IR: fresh same-seed suite "
    "builds serialise byte-identically and every canary kernel yields "
    "exactly its expected diagnostic codes")
def check_lint_determinism(ctx: VerifyContext) -> None:
    from ..analysis.lint import check_canaries, make_suite_report

    disabled = ("bounds",) if ctx.broken("drop-oob-check") else ()
    problems = check_canaries(disabled=disabled)
    if problems:
        raise InvariantViolation(
            "lint-determinism: canary kernels produced wrong "
            "diagnostics (a lint pass is missing or weakened): "
            + "; ".join(problems))
    # Two fresh builds of the same seeded suite use different
    # fresh_index counters, so any diagnostic that leaked a loop
    # variable name breaks byte-identity here.
    reports = []
    for _ in range(2):
        suite = synthetic_suite(ctx.seed, ctx.n_apps,
                                ctx.codelets_per_app)
        reports.append(make_suite_report(
            "verify", [suite], disabled=disabled).serialize())
    if reports[0] != reports[1]:
        raise InvariantViolation(
            "lint-determinism: two fresh builds of the seed="
            f"{ctx.seed} synthetic suite produced different lint "
            "reports — diagnostics depend on run-specific state "
            "(loop-variable names? iteration order?)")


@invariant(
    "ga-selection",
    "GA feature selection is deterministic for a fixed seed and the "
    "selected subset never scores worse than the full feature set")
def check_ga_selection(ctx: VerifyContext) -> None:
    from ..core.ga import select_features

    # A small, fast GA; unseeded, it draws OS entropy.
    config = GAConfig(population=16, generations=6,
                      seed=(None if ctx.broken("ga-unseeded")
                            else ctx.seed + 0x6A))
    result_a, problem = select_features(ctx.reducer, config)
    result_b, _ = select_features(ctx.reducer, config)
    if (result_a.best_mask != result_b.best_mask
            or result_a.best_fitness != result_b.best_fitness):
        raise InvariantViolation(
            "ga-selection: two GA runs with the same configuration "
            "disagree — best fitness "
            f"{result_a.best_fitness!r} vs {result_b.best_fitness!r}, "
            f"masks {'equal' if result_a.best_mask == result_b.best_mask else 'differ'} "
            "(is the GA seed unset, drawing OS entropy?)")
    full = np.ones(problem.n_bits, dtype=bool)
    baseline = problem.evaluate_mask(full)
    if result_a.best_fitness > baseline:
        raise InvariantViolation(
            "ga-selection: the selected feature subset scores "
            f"{result_a.best_fitness:.6g} on the training criterion, "
            f"worse than the full feature set at {baseline:.6g} — the "
            "all-features baseline was not preserved")


@invariant(
    "manifest-round-trip",
    "a manifest survives export → JSON → import bit-for-bit: dataclass "
    "equality, byte-identical re-serialisation, identical predictions")
def check_manifest_round_trip(ctx: VerifyContext) -> None:
    from ..core.persist import ReducedSuiteManifest, export_manifest

    manifest = export_manifest(ctx.reduced)
    written = manifest
    if ctx.broken("round-manifest-floats"):
        written = replace(manifest, ref_seconds={
            k: round(v, 5) for k, v in manifest.ref_seconds.items()},
            coverage={k: round(v, 5) for k, v in manifest.coverage.items()})
    text = written.to_json()
    loaded = ReducedSuiteManifest.from_json(text)
    if loaded != manifest:
        fields = [name for name in ("ref_seconds", "coverage",
                                    "clusters", "representatives",
                                    "invocations", "apps")
                  if getattr(loaded, name) != getattr(manifest, name)]
        raise InvariantViolation(
            "manifest-round-trip: the imported manifest differs from "
            f"the exported one in {fields or ['metadata']} — "
            "serialisation is lossy (are floats being rounded?)")
    again = loaded.to_json()
    if again != text:
        raise InvariantViolation(
            "manifest-round-trip: re-serialising the imported manifest "
            "is not byte-identical to the original JSON")
    rep_times = {r: 1.0 + 0.25 * i for i, r in
                 enumerate(sorted(manifest.representatives))}
    pred_direct = manifest.predict(rep_times)
    pred_loaded = loaded.predict(rep_times)
    for name in pred_direct:
        if pred_direct[name] != pred_loaded[name]:
            raise InvariantViolation(
                "manifest-round-trip: prediction for "
                f"{name!r} changed across the round-trip "
                f"({pred_direct[name]!r} vs {pred_loaded[name]!r})")


@invariant(
    "resilience-replay",
    "a failure-free resilient run is bit-identical to the fail-fast "
    "path; replaying a fault plan is byte-identical in health and "
    "results; recovered transient faults leave the reduction untouched")
def check_resilience_replay(ctx: VerifyContext) -> None:
    base_rt = ctx.config.runtime

    def run(runtime: RuntimeConfig):
        reducer = BenchmarkReducer(ctx.suite, Measurer(),
                                   replace(ctx.config, runtime=runtime))
        return reducer, reducer.reduce("elbow")

    # 1. With nothing to recover from, the resilient path must compute
    #    exactly what the historical fail-fast path computes.
    _, resilient = run(replace(base_rt, retries=2, fault_plan=None))
    _, failfast = run(replace(base_rt, retries=0, fault_plan=None))
    if (resilient.profiles != failfast.profiles
            or not np.array_equal(resilient.labels, failfast.labels)
            or resilient.representatives != failfast.representatives):
        raise InvariantViolation(
            "resilience-replay: a failure-free resilient run differs "
            "from the fail-fast path (profiles, labels or "
            "representatives) — the resilient wrapper is not "
            "behaviour-preserving")

    # 2. A permanent fault replayed twice: byte-identical health
    #    reports and identical degraded results.
    victim = failfast.profiles[0].name
    permanent = FaultPlan(seed=ctx.seed, rules=(
        FaultRule(kind="crash", match=victim, stage="profile"),))
    plan_rt = replace(base_rt, retries=1, fault_plan=permanent)
    red_a, deg_a = run(plan_rt)
    red_b, deg_b = run(plan_rt)
    if red_a.health.to_json() != red_b.health.to_json():
        raise InvariantViolation(
            "resilience-replay: replaying the same fault plan produced "
            "different RunHealth reports — health is not a pure "
            "function of (seed, plan)")
    if (deg_a.representatives != deg_b.representatives
            or not np.array_equal(deg_a.labels, deg_b.labels)):
        raise InvariantViolation(
            "resilience-replay: replaying the same fault plan produced "
            "different reductions")
    if victim in {p.name for p in deg_a.profiles}:
        raise InvariantViolation(
            f"resilience-replay: codelet {victim!r} crashes on every "
            "profiling attempt yet still has a profile — quarantine "
            "did not drop it")
    if victim not in deg_a.quarantined or not red_a.health.degraded:
        raise InvariantViolation(
            f"resilience-replay: quarantined codelet {victim!r} is "
            "missing from the degradation record")

    # 3. A transient fault (first attempt only) recovers on retry and
    #    must leave the reduction identical to the permanent-only run.
    survivor = failfast.profiles[1].name
    transient = FaultPlan(seed=ctx.seed, rules=permanent.rules + (
        FaultRule(kind="crash", match=survivor, stage="profile",
                  attempts=(0,)),))
    red_c, deg_c = run(replace(plan_rt, fault_plan=transient))
    if survivor not in {p.name for p in deg_c.profiles}:
        raise InvariantViolation(
            f"resilience-replay: codelet {survivor!r} crashes only on "
            "attempt 0 yet was not recovered by the retry")
    if (deg_c.representatives != deg_a.representatives
            or not np.array_equal(deg_c.labels, deg_a.labels)
            or deg_c.profiles != deg_a.profiles):
        raise InvariantViolation(
            "resilience-replay: a recovered transient fault changed "
            "the reduction — retried work is not bit-identical")
    recovered = {t.task for t in red_c.health.tasks
                 if t.outcome == "recovered"}
    if survivor not in recovered:
        raise InvariantViolation(
            f"resilience-replay: {survivor!r} recovered on retry but "
            "the health report does not say so "
            f"(recovered = {sorted(recovered)})")



@invariant(
    "trace-replay",
    "traces and metrics are wall-clock-free pure functions of the run "
    "inputs: replaying a run (clean or faulted) is byte-identical and "
    "no span carries a wall-clock attribute")
def check_trace_replay(ctx: VerifyContext) -> None:
    def traced_run(runtime: RuntimeConfig):
        obs = Observation()
        if ctx.broken("trace-wall-clock"):
            obs.tracer = _WallClockTracer()
        reducer = BenchmarkReducer(ctx.suite, Measurer(),
                                   replace(ctx.config, runtime=runtime),
                                   obs=obs)
        reduced = reducer.reduce("elbow")
        return reduced, obs.tracer.to_json(), obs.metrics.to_json()

    def replay(label: str, runtime: RuntimeConfig):
        reduced, trace_a, metrics_a = traced_run(runtime)
        _, trace_b, metrics_b = traced_run(runtime)
        if trace_a != trace_b:
            raise InvariantViolation(
                f"trace-replay: two {label} runs of the same suite "
                "serialised different traces — the span tree is not a "
                "pure function of the run inputs (is wall-clock time "
                "leaking into span attributes?)")
        if metrics_a != metrics_b:
            raise InvariantViolation(
                f"trace-replay: two {label} runs of the same suite "
                "serialised different metrics registries")
        # Direct wall-clock-free check: the defect is caught even if
        # two perf_counter readings were improbably equal.
        if '"wall_s"' in trace_a:
            raise InvariantViolation(
                f"trace-replay: the {label} trace contains 'wall_s' "
                "span attributes — wall-clock values make replays "
                "non-reproducible and must never be recorded")
        return reduced, trace_a, metrics_a

    base_rt = ctx.config.runtime
    _, clean_trace, _ = replay(
        "clean", replace(base_rt, retries=2, fault_plan=None))
    if '"stage:profile"' not in clean_trace:
        raise InvariantViolation(
            "trace-replay: the clean trace has no 'stage:profile' span "
            "— pipeline stages are not being traced")

    # Under a transient fault (crash on attempt 0, recovered on retry)
    # the replay must still be byte-identical, with the retry round
    # surfaced as a span and the recovery counted.
    reduced, fault_trace, fault_metrics = replay(
        "fault-plan",
        replace(base_rt, retries=1, fault_plan=FaultPlan(
            seed=ctx.seed,
            rules=(FaultRule(kind="crash", match="*", stage="profile",
                             attempts=(0,)),))))
    if '"retry-round"' not in fault_trace:
        raise InvariantViolation(
            "trace-replay: a run that retried every profiling task "
            "recorded no 'retry-round' span")
    recovered = json.loads(fault_metrics)["counters"].get(
        "resilience.recovered", 0)
    if recovered != len(ctx.codelets):
        raise InvariantViolation(
            "trace-replay: the fault-plan run recovered "
            f"{len(ctx.codelets)} profiling tasks but the "
            f"'resilience.recovered' counter says {recovered}")
    if reduced.quarantined:
        raise InvariantViolation(
            "trace-replay: transient attempt-0 faults quarantined "
            f"{sorted(reduced.quarantined)} despite the retry budget")


def _assert_same_dendrogram(name: str, label: str, got: Dendrogram,
                            want: Dendrogram) -> None:
    """Bitwise equality of a :func:`linkage` dendrogram's linkage
    matrix with the reference's; every cut is a function of it.
    ``name`` is the invariant a difference violates."""
    if got.Z.shape != want.Z.shape:
        raise InvariantViolation(
            f"{name}: {label}: linkage produced {len(got.Z)} merges, "
            f"reference {len(want.Z)}")
    differ = np.flatnonzero((got.Z.view(np.uint64)
                             != want.Z.view(np.uint64)).any(axis=1))
    if differ.size:
        i = int(differ[0])
        raise InvariantViolation(
            f"{name}: {label}: row {i} is {got.Z[i].tolist()} in linkage "
            f"but {want.Z[i].tolist()} in the reference — the "
            "dendrograms must be bit-identical, not merely close")


@invariant(
    "stacked-linkage-equivalence",
    "every dendrogram of a stack of point sets linked side by side, a "
    "stack of one included, is bit-identical to the reference loop on "
    "its own set, on every method and tie structure")
def check_stacked_linkage_equivalence(ctx: VerifyContext) -> None:
    with ctx.planted("slow-path-skew", clustering, "_lw_update_stack",
                     _skewed_lw_update), \
            ctx.planted("stack-shares-argmin", clustering,
                        "_first_minima", _shared_first_minima):
        # Stacks of one, through linkage.
        for variant in FEATURE_MATRIX_VARIANTS:
            for rows in (12, 26):
                points = _feature_matrix(ctx.seed + rows, rows, 4, variant)
                for method in LINKAGE_METHODS:
                    _assert_same_dendrogram(
                        "stacked-linkage-equivalence",
                        f"linkage: {variant} n={rows} method={method}",
                        linkage(points, method=method),
                        linkage_reference(points, method=method))
        for rows in (12, 26):
            for size in (2, 7):
                # Each set its own tie structure and column count.
                kinds = [FEATURE_MATRIX_VARIANTS[
                    j % len(FEATURE_MATRIX_VARIANTS)] for j in range(size)]
                stack = [_feature_matrix(ctx.seed + 100 * rows + j, rows,
                                         1 + j % 5, kind)
                         for j, kind in enumerate(kinds)]
                for method in LINKAGE_METHODS:
                    got = linkage_stack(stack, method)
                    for j, points in enumerate(stack):
                        _assert_same_dendrogram(
                            "stacked-linkage-equivalence",
                            f"set {j} of {size} ({kinds[j]}, "
                            f"{points.shape[1]} columns) n={rows} "
                            f"method={method}", got[j],
                            linkage_reference(points, method=method))


#: Column counts of the ``stacked-elbow-equivalence`` sets: none, one
#: (whose members numpy sums pairwise), a few, and each side of the
#: 8-wide block of numpy's pairwise summation.
ELBOW_STACK_COLUMNS = (0, 1, 2, 7, 8, 9, 17)


def _hex(values) -> List[str]:
    return [float(v).hex() for v in np.ravel(values)]


def _assert_curve(where: str, curve: np.ndarray, points: np.ndarray,
                  dendrogram: Dendrogram, k_max: Optional[int]) -> None:
    """``curve`` is W(1..k_max) of ``dendrogram`` over ``points``, each
    ``within_cluster_variance`` of its cut bit for bit."""
    n = dendrogram.n_leaves
    want = [within_cluster_variance(points, dendrogram.cut(k))
            for k in range(1, min(k_max or n, n) + 1)]
    if len(curve) != len(want):
        raise InvariantViolation(
            f"{where}: the one-pass curve has {len(curve)} points, the "
            f"per-cut curve {len(want)}")
    for k, (got_w, want_w) in enumerate(zip(_hex(curve), _hex(want)),
                                        start=1):
        if got_w != want_w:
            raise InvariantViolation(
                f"{where}: W({k}) is {got_w} in one pass but {want_w} "
                f"from cut({k}) — the curve must be bit-identical, not "
                "merely close")


@invariant(
    "stacked-elbow-equivalence",
    "every elbow of a stack of point sets cut side by side, a stack of "
    "one included, is its own set's reference bit for bit: W(k) is "
    "within_cluster_variance at every cut, and each cluster's centroid "
    "distances at the elbow K are np.linalg.norm on that cluster alone")
def check_stacked_elbow_equivalence(ctx: VerifyContext) -> None:
    from ..suites import build_nr_suite

    stacks = []
    for rows in (12, 28):
        for size in (1, 2, 7):
            stacks.append((f"n={rows}", [_feature_matrix(
                ctx.seed + 100 * rows + 10 * size + j, rows,
                ELBOW_STACK_COLUMNS[(size + j) % len(ELBOW_STACK_COLUMNS)],
                FEATURE_MATRIX_VARIANTS[j % len(FEATURE_MATRIX_VARIANTS)])
                for j in range(size)]))
    # 60 masks drawn like run_ga's initial population, over the
    # normalized NR matrix the GA really cuts.
    nr = profile_codelets(find_suite_codelets(build_nr_suite()),
                          Measurer()).profiles
    full = FeatureMatrix.from_profiles(nr, ALL_FEATURE_NAMES).normalized()
    rng = np.random.default_rng(ctx.seed)
    masks = rng.random((60, full.shape[1])) < INIT_DENSITY
    for mask in masks:
        if not mask.any():
            mask[rng.integers(full.shape[1])] = True
    stacks.append(("NR GA masks", [full[:, mask] for mask in masks]))
    # First a stack of one, through variance_curve: the rows and the
    # dendrogram the context reducer cut.  The reduction runs before
    # the plant, so only the curves under test see it.
    reduced = ctx.reduced

    with ctx.planted("stale-curve-child", clustering, "_w_curve",
                     _stale_w_curve):
        for k_max in (None, ELBOW_K_MAX, 1):
            _assert_curve(
                "stacked-elbow-equivalence: the reducer's rows, "
                f"k_max={k_max}",
                variance_curve(reduced.normalized_rows, reduced.dendrogram,
                               k_max),
                reduced.normalized_rows, reduced.dendrogram, k_max)
        for label, stack in stacks:
            dendrograms = linkage_stack(stack)
            cut_sets = stack
            if ctx.broken("stack-pads-columns"):
                widest = max(points.shape[1] for points in stack)
                cut_sets = [np.pad(points,
                                   ((0, 0), (0, widest - points.shape[1])))
                            for points in stack]
            cuts = elbow_stack(cut_sets, dendrograms, ELBOW_K_MAX)
            for j, (points, dendrogram, cut) in enumerate(
                    zip(stack, dendrograms, cuts)):
                where = (f"stacked-elbow-equivalence: {label}: set {j} "
                         f"of {len(stack)} ({points.shape[1]} columns)")
                _assert_curve(where, cut.curve, points, dendrogram,
                              ELBOW_K_MAX)
                labels = dendrogram.cut(cut.k)
                clusters = np.unique(labels)
                if len(cut.distances) != len(clusters):
                    raise InvariantViolation(
                        f"{where}: {len(cut.distances)} clusters' "
                        f"distances for the {len(clusters)} clusters of "
                        f"cut({cut.k})")
                for lab, got in zip(clusters, cut.distances):
                    pts = points[labels == lab]
                    ref = np.linalg.norm(pts - pts.mean(axis=0), axis=1)
                    if _hex(got) != _hex(ref):
                        raise InvariantViolation(
                            f"{where}: the centroid distances of cluster "
                            f"{int(lab)} of cut({cut.k}) are {_hex(got)} "
                            f"stacked but {_hex(ref)} on the cluster "
                            "alone — they must be bit-identical, not "
                            "merely close")


@invariant(
    "transform-equivalence",
    "every legally-applied loop rewrite is semantics-preserving: "
    "transformed canary kernels interpret bit-identically to their "
    "originals over seeded storage, with every registered rewrite "
    "exercised by at least one legal canary")
def check_transform_equivalence(ctx: VerifyContext) -> None:
    from ..ir.interp import run_kernel
    from ..ir.rewrite import (REWRITE_REGISTRY, TRANSFORM_CANARIES,
                              legality, transform_kernel)

    exercised = set()
    with ctx.planted("interchange-ignores-direction", legality,
                     "_permutation_conflict", _no_permutation_conflict):
        for canary in TRANSFORM_CANARIES:
            kernel = canary.build()
            transformed, records = transform_kernel(kernel, (canary.spec,))
            if not any(r.applied for r in records):
                continue
            exercised.add(canary.spec.name)
            # Rewrites never touch the array declarations, so the same
            # seed allocates bit-identical initial storage on both sides.
            for seed in (ctx.seed + 7, ctx.seed + 8):
                base = run_kernel(kernel, seed=seed)
                got = run_kernel(transformed, seed=seed)
                for name in sorted(base):
                    if base[name].tobytes() != got[name].tobytes():
                        raise InvariantViolation(
                            "transform-equivalence: applying "
                            f"{canary.spec} to canary {canary.name!r} "
                            f"changed array {name!r} (seed {seed}) — a "
                            "rewrite its legality verdict endorsed is "
                            "not semantics-preserving (is the dependence "
                            "direction check being skipped?)")
    missing = sorted(set(REWRITE_REGISTRY) - exercised)
    if missing:
        raise InvariantViolation(
            "transform-equivalence: no canary legally exercises "
            f"rewrite pass(es) {missing} — the equivalence check has "
            "a coverage hole")


@invariant(
    "transform-legality",
    "every rewrite application is justified: canary verdicts match "
    "their pinned expectations (illegal ones naming the blocking "
    "dependence), applied records carry legal verdicts, and forcing "
    "the pinned illegal interchange demonstrably changes results")
def check_transform_legality(ctx: VerifyContext) -> None:
    from ..ir.interp import run_kernel
    from ..ir.rewrite import (FORCED_DIVERGENCE_CANARY,
                              TRANSFORM_CANARIES, legality,
                              transform_kernel)

    by_name = {}
    with ctx.planted("interchange-ignores-direction", legality,
                     "_permutation_conflict", _no_permutation_conflict):
        for canary in TRANSFORM_CANARIES:
            by_name[canary.name] = canary
            kernel = canary.build()
            _, records = transform_kernel(kernel, (canary.spec,))
            if not records:
                raise InvariantViolation(
                    f"transform-legality: canary {canary.name!r} "
                    f"({canary.spec}) produced no decision records")
            verdict = records[0].verdict
            if verdict.status != canary.expected_status:
                raise InvariantViolation(
                    f"transform-legality: canary {canary.name!r} "
                    f"({canary.spec}) got verdict {verdict.status!r}, "
                    f"expected {canary.expected_status!r} — the legality "
                    "analysis diverged from its pinned ground truth (is "
                    "the dependence-direction check being skipped?)")
            if canary.blocking_fragment is not None:
                blocking = verdict.blocking or ""
                if canary.blocking_fragment not in blocking:
                    raise InvariantViolation(
                        f"transform-legality: canary {canary.name!r} was "
                        "refused without naming the blocking dependence "
                        f"(wanted {canary.blocking_fragment!r} in "
                        f"{blocking!r})")
            for record in records:
                if record.status == "applied" and not record.verdict.legal:
                    raise InvariantViolation(
                        f"transform-legality: canary {canary.name!r} "
                        f"applied {record.pass_name} to {record.target} "
                        "without a legal verdict")
                if record.status == "refused" \
                        and not record.verdict.blocking:
                    raise InvariantViolation(
                        f"transform-legality: canary {canary.name!r} "
                        f"refused {record.pass_name} on {record.target} "
                        "without citing a blocking dependence")

    # The refusal must protect something real: force-applying the
    # pinned illegal interchange (direction check honoured, verdict
    # overridden) has to change interpreter output.
    canary = by_name[FORCED_DIVERGENCE_CANARY]
    kernel = canary.build()
    forced, records = transform_kernel(kernel, (canary.spec,),
                                       force=True)
    if not any(r.status == "forced" for r in records):
        raise InvariantViolation(
            f"transform-legality: force-applying {canary.spec} to "
            f"canary {canary.name!r} recorded no 'forced' decision")
    base = run_kernel(kernel, seed=ctx.seed + 11)
    got = run_kernel(forced, seed=ctx.seed + 11)
    if all(base[name].tobytes() == got[name].tobytes()
           for name in base):
        raise InvariantViolation(
            "transform-legality: force-applying the pinned illegal "
            f"interchange ({canary.name!r}) left every array "
            "bit-identical — the refusal protects nothing, so the "
            "legality rule (or the canary) is wrong")


def _may_carry_flow(dep_ctx, edge, inner) -> bool:
    """Whether ``edge`` joins a store and a load of the innermost loop
    ``inner`` and may be a flow dependence carried on it: a ``flow``
    edge with ``<`` on ``inner``, or an unresolved ``*`` there, while
    every outer loop may stand still.  A read of the stored location
    by a statement that stores it too (a reduction's accumulation) is
    exempt; any other read of it, such as ``y[i] = s`` after
    ``s = s + x[i]``, is not."""
    source, sink = edge.source, edge.sink
    if source.is_store == sink.is_store:
        return False
    if not all(s.loops and s.loops[-1] is inner for s in (source, sink)):
        return False
    store, load = (source, sink) if source.is_store else (sink, source)
    owner, _ = dep_ctx.stores[load.store_ordinal]
    if (load.indices == store.indices
            and owner.array.name == store.array.name
            and owner.indices == store.indices):
        return False
    *outer, on_inner = edge.directions
    if any(d not in ("=", "*") for d in outer):
        return False
    return on_inner == "*" or (on_inner == "<" and edge.kind == "flow")


@invariant(
    "compiler-dependence-agreement",
    "no innermost loop the compiler vectorizes holds a store/load "
    "dependence edge that may be a flow carried on that loop "
    "(reduction accumulations excepted)")
def check_compiler_dependence_agreement(ctx: VerifyContext) -> None:
    from ..analysis.lint import CANARIES
    from ..ir.dependence import AnalysisContext, format_directions
    from ..ir.rewrite import TRANSFORM_CANARIES

    options = default_options(REFERENCE)
    kernels = ([k for c in ctx.codelets for k in c.variants]
               + [c.build() for c in CANARIES]
               + [c.build() for c in TRANSFORM_CANARIES])
    # The plant clears the lowering memo on entry and on exit, so no
    # lowering outlives it and none made before it hides it.
    with ctx.planted("vectorize-unresolved", deps, "_inner_flow_distance",
                     _unresolved_as_independent, reset=clear_lowering_memo):
        for kernel in kernels:
            compiled = compile_kernel(kernel, options)
            dep_ctx = AnalysisContext(kernel)
            for nest in compiled.nests:
                if not nest.vectorized:
                    continue
                inner = nest.nest.innermost
                for edge in dep_ctx.dependence_edges:
                    if _may_carry_flow(dep_ctx, edge, inner):
                        raise InvariantViolation(
                            "compiler-dependence-agreement: the compiler "
                            "vectorizes loop "
                            f"{dep_ctx.loop_label(inner)} of kernel "
                            f"{kernel.name!r} at VF {nest.vf}, but "
                            f"dependence {edge.pair_id} on "
                            f"{edge.source.array.name!r}, directions "
                            f"{format_directions(dep_ctx, edge)}, may be "
                            "a flow carried on that loop (does the "
                            "compiler treat unresolved dependences as "
                            "independent?)")


@invariant(
    "median-equivalence",
    "the shared median equals np.median bit for bit on lists and "
    "arrays of odd and even length with ties, on measured samples, row "
    "by row on matrices, and where a NaN is present")
def check_median_equivalence(ctx: VerifyContext) -> None:
    rng = np.random.default_rng(ctx.seed)
    noise = NoiseModel(seed=ctx.seed)
    cases = [(f"measure_many n={n}",
              noise.measure_many(1e-6, f"verify|median|{n}", n), None)
             for n in (10, 1000)]
    matrices = [rng.lognormal(size=(200, 67)), rng.lognormal(size=(60, 28))]
    matrices[1][7, 3] = np.nan
    cases += [(f"{m.shape} along axis 1", m, 1) for m in matrices]
    for n in (1, 2, 27, 28, 67, 68):
        values = rng.normal(size=n)
        values[rng.integers(n, size=n // 2)] = values[n // 2]   # ties
        cases += [(f"array n={n}", values, None),
                  (f"list n={n}", values.tolist(), None)]
    with_nan = rng.normal(size=28)
    with_nan[3] = np.nan
    cases.append(("n=28 with a NaN", with_nan, None))
    for label, values, axis in cases:
        given = values
        if ctx.broken("median-drops-last"):
            given = np.asarray(values)[..., :-1]
        got, want = _hex(median(given, axis)), _hex(np.median(values, axis))
        if got != want:
            raise InvariantViolation(
                f"median-equivalence: {label}: median gives "
                f"{got[:4]} but np.median {want[:4]} — they must be "
                "bit-identical, not merely close")


# ---------------------------------------------------------------------------
# Deliberate defects and registry execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Breakage:
    """One injectable defect: what it plants, and the invariants that
    catch it, in registry order, each with the substrings its failure
    detail must hold."""

    description: str
    caught_by: Dict[str, Tuple[str, ...]]


#: Injectable defects for ``repro verify --break``: each must fail
#: exactly its ``caught_by`` invariants.
BREAKAGES: Dict[str, Breakage] = {
    "no-normalize": Breakage(
        "cluster on raw feature values (skip the z-score normalisation "
        "of Section 3.3)",
        {"normalized-features": ("normal",)}),
    "drop-oob-check": Breakage(
        "silently disable the lint bounds pass (L301 out-of-bounds "
        "detection)",
        {"lint-determinism": ("canary_oob",)}),
    "ga-unseeded": Breakage(
        "run GA feature selection without a pinned seed (OS entropy)",
        {"ga-selection": ("disagree",)}),
    "round-manifest-floats": Breakage(
        "round reference times and coverages to 5 digits when exporting "
        "manifests",
        {"manifest-round-trip": ("lossy",)}),
    "trace-wall-clock": Breakage(
        "stamp every trace span with wall-clock (time.perf_counter) "
        "values, so replayed runs stop serialising byte-identically",
        {"trace-replay": ("not a pure function",)}),
    "slow-path-skew": Breakage(
        "perturb one Lance-Williams update coefficient in the vectorized "
        "linkage by 1e-3, silently diverging it from the reference loop",
        {"stacked-linkage-equivalence": ("bit-identical",)}),
    "stale-curve-child": Breakage(
        "keep each merged-away child's sum of squares in the one-pass "
        "W(k) total, silently inflating the elbow curve below k_max",
        {"stacked-elbow-equivalence": ("bit-identical",)}),
    "stack-shares-argmin": Breakage(
        "merge every matrix of a linkage stack at matrix 0's argmin, "
        "silently giving every set matrix 0's merge order",
        {"stacked-linkage-equivalence": ("set 1 of 2",)}),
    "stack-pads-columns": Breakage(
        "group an elbow stack's clusters by member count alone and "
        "zero-pad every set to the widest, silently moving sums of "
        "squares and centroid distances within rounding",
        {"stacked-elbow-equivalence": ("bit-identical",)}),
    "median-drops-last": Breakage(
        "hand the shared median each input without its last element, as "
        "an off-by-one slice would, silently moving the middle order "
        "statistics",
        {"median-equivalence": ("bit-identical",)}),
    "memo-drops-run-id": Breakage(
        "key the measurement memo without the run id, so a second run "
        "silently replays the first run's noise draw",
        {"measure-once": ("a fresh one",)}),
    "footprint-drops-line-size": Breakage(
        "look a loop nest's footprint up without the line size, so a "
        "level with other lines silently reads another level's working "
        "set",
        {"footprint-once": ("on fresh nests",)}),
    "vectorize-unresolved": Breakage(
        "make the compiler treat a dependence pair the solver cannot "
        "resolve as independent, silently vectorizing the non-uniform "
        "canary a[2i] = a[i] + ...",
        {"compiler-dependence-agreement": ("canary_nonuniform",
                                           "may be a flow")}),
    "interchange-ignores-direction": Breakage(
        "make interchange legality skip the dependence-direction check, "
        "silently applying the pinned illegal skewed-stencil interchange",
        {"transform-equivalence": ("skew-interchange",),
         "transform-legality": ("pinned ground truth",)}),
}


def _known(breakage: str) -> str:
    if breakage not in BREAKAGES:
        raise ValueError(f"unknown breakage {breakage!r}: "
                         f"choose from {sorted(BREAKAGES)}")
    return breakage


def run_registry(ctx: VerifyContext,
                 names: Optional[Sequence[str]] = None
                 ) -> List[InvariantResult]:
    """Execute (a subset of) the registry against ``ctx``.

    Violations and unexpected errors both become failed results; the
    harness never aborts half-way, so one broken invariant cannot mask
    another.
    """
    if names:
        unknown = sorted(set(names) - set(REGISTRY))
        if unknown:
            raise KeyError(f"unknown invariants: {unknown}; "
                           f"registered: {sorted(REGISTRY)}")
        selected = [REGISTRY[name] for name in names]
    else:
        selected = list(REGISTRY.values())

    results: List[InvariantResult] = []
    for inv in selected:
        try:
            inv.check(ctx)
        except InvariantViolation as violation:
            passed, detail = False, str(violation)
        except Exception as exc:   # noqa: BLE001 - report, don't mask
            passed, detail = False, (f"unexpected "
                                     f"{type(exc).__name__}: {exc}")
        else:
            passed, detail = True, ""
        results.append(InvariantResult(
            name=inv.name, description=inv.description, passed=passed,
            detail=detail))
    return results
