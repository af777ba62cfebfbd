"""Tests for GA feature selection, the random-clustering baseline and
per-app vs cross-app subsetting."""

import numpy as np
import pytest

from repro.codelets import Measurer
from repro.core import clustering, ga
from repro.core.features import ALL_FEATURE_NAMES
from repro.core.ga import (INIT_DENSITY, FeatureSelectionProblem, GAConfig,
                           run_ga, select_features)
from repro.core.pipeline import BenchmarkReducer, SubsettingConfig
from repro.core.prediction import percent_error
from repro.core.random_baseline import (RandomClusteringStats,
                                        random_clustering_errors,
                                        random_partition)
from repro.core.subsetting import (cross_application_subsetting,
                                   per_application_subsetting)
from repro.machine import ATOM, CORE2, SANDY_BRIDGE
from repro.runtime import FaultPlan, FaultRule, RuntimeConfig
from repro.suites import build_nr_suite


@pytest.fixture(scope="module")
def nr_reducer():
    return BenchmarkReducer(build_nr_suite())


@pytest.fixture(scope="module")
def nr_profiles(nr_reducer):
    return nr_reducer.measurer, nr_reducer.profiling().profiles


class TestGenericGA:
    def test_minimizes_onemax(self):
        # Fitness = number of set bits; optimum is the empty-ish vector
        # (the GA keeps at least one bit set by construction).
        result = run_ga(30, lambda pop: np.array([float(mask.sum())
                                                  for mask in pop]),
                        GAConfig(population=40, generations=25, seed=1))
        assert result.best_fitness <= 2.0

    def test_finds_target_mask(self):
        target = np.zeros(20, dtype=bool)
        target[[2, 5, 11]] = True

        def fitness(mask):
            return float(np.logical_xor(mask, target).sum())

        result = run_ga(20, lambda pop: np.array([fitness(x)
                                                  for x in pop]),
                        GAConfig(population=60, generations=40, seed=2))
        assert result.best_fitness <= 1.0

    def test_history_is_monotone_with_elitism(self):
        result = run_ga(16, lambda pop: np.array([float(m.sum())
                                                  for m in pop]),
                        GAConfig(population=30, generations=15, seed=3))
        h = np.array(result.history)
        assert (np.diff(h) <= 1e-12).all()

    def test_deterministic_by_seed(self):
        cfg = GAConfig(population=20, generations=8, seed=9)
        r1 = run_ga(12, lambda pop: np.array([float(m.sum())
                                              for m in pop]), cfg)
        r2 = run_ga(12, lambda pop: np.array([float(m.sum())
                                              for m in pop]), cfg)
        assert r1.best_mask == r2.best_mask

    def test_selected_names(self):
        result = run_ga(4, lambda pop: np.array([-float(m.sum())
                                                 for m in pop]),
                        GAConfig(population=10, generations=5, seed=4))
        names = result.selected(("a", "b", "c", "d"))
        assert len(names) == sum(result.best_mask)


class TestFeatureSelection:
    def test_problem_evaluates_paper_set(self, nr_reducer):
        problem = FeatureSelectionProblem(nr_reducer)
        from repro.core.features import TABLE2_FEATURES
        mask = np.array([n in TABLE2_FEATURES
                         for n in ALL_FEATURE_NAMES])
        fitness = problem.evaluate_mask(mask)
        assert np.isfinite(fitness) and fitness > 0

    def test_cache_hit(self, nr_reducer):
        problem = FeatureSelectionProblem(nr_reducer)
        mask = np.zeros(76, dtype=bool)
        mask[0] = True
        f1 = problem.evaluate_mask(mask)
        f2 = problem.evaluate_mask(mask)
        assert f1 == f2

    def test_fidelity_judged_once_per_problem(self):
        """The GA reads the reducer's verdicts: once the reducer has
        judged every profile, building the problem and scoring masks
        judge none again."""
        measurer = Measurer()
        judged = []
        deviation = measurer.behavior_deviation

        def counting(codelet, arch):
            judged.append(codelet.name)
            return deviation(codelet, arch)

        measurer.behavior_deviation = counting
        reducer = BenchmarkReducer(build_nr_suite(), measurer)
        reducer.fidelity()
        profiles = reducer.profiling().profiles
        assert sorted(judged) == sorted(p.name for p in profiles)
        judged.clear()
        problem = FeatureSelectionProblem(reducer)
        rng = np.random.default_rng(0)
        masks = [np.ones(problem.n_bits, dtype=bool)] + [
            rng.random(problem.n_bits) < 0.3 for _ in range(4)]
        for mask in masks:
            problem.evaluate_mask(mask)
        select_features(reducer, GAConfig(population=6, generations=1,
                                          seed=0))
        assert judged == []

    def test_ga_never_picks_a_codelet_the_reducer_bars(self,
                                                       monkeypatch):
        """A codelet whose fidelity probe is quarantined is ineligible
        for the NR reducer, so the GA's evaluations never select it."""
        picked = []
        real = ga.cluster_and_select

        def spying(*args, **kwargs):
            labels, selection, model = real(*args, **kwargs)
            picked.append(selection.representatives)
            return labels, selection, model

        monkeypatch.setattr(ga, "cluster_and_select", spying)
        full = np.ones(len(ALL_FEATURE_NAMES), dtype=bool)
        FeatureSelectionProblem(
            BenchmarkReducer(build_nr_suite())).evaluate_mask(full)
        first = picked.pop()[0]

        config = SubsettingConfig(runtime=RuntimeConfig(
            fault_plan=FaultPlan(rules=(FaultRule(
                "crash", match=first, stage="fidelity"),))))
        reducer = BenchmarkReducer(build_nr_suite(), Measurer(), config)
        assert reducer.fidelity()[1] == (first,)
        problem = FeatureSelectionProblem(reducer)
        assert np.isfinite(problem.evaluate_mask(full))
        assert first not in picked.pop()

    def test_ga_beats_all_features(self, nr_reducer):
        """The paper's point: a selected subset out-predicts using all
        76 features (irrelevant features add noise)."""
        result, problem = select_features(
            nr_reducer, GAConfig(population=30, generations=10, seed=7))
        all_fitness = problem.evaluate_mask(np.ones(76, dtype=bool))
        assert result.best_fitness <= all_fitness

    def test_stacked_generations_match_one_mask_at_a_time(self,
                                                          nr_reducer):
        # select_features links each generation's new masks in one
        # stack; scoring every mask alone must give the same GA run.
        config = GAConfig(population=30, generations=10, seed=7)
        result, problem = select_features(nr_reducer, config)
        fresh = FeatureSelectionProblem(nr_reducer)
        alone = run_ga(fresh.n_bits,
                       lambda pop: np.array([fresh.evaluate_mask(x)
                                             for x in pop]),
                       config,
                       seed_individuals=[np.ones(fresh.n_bits, dtype=bool)])
        assert result == alone
        assert list(problem._cache.items()) == list(fresh._cache.items())

    def test_generation_cut_without_elbow_k(self, nr_reducer,
                                            monkeypatch):
        # A generation's new masks are cut at their elbows in one
        # elbow_stack call, not one elbow_k call per mask, and every
        # score is the one the mask gets alone.
        real = clustering.elbow_k
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in (clustering, ga):
            if getattr(module, "elbow_k", None) is real:
                monkeypatch.setattr(module, "elbow_k", counting)
        problem = FeatureSelectionProblem(nr_reducer)
        rng = np.random.default_rng(11)
        population = rng.random((60, problem.n_bits)) < INIT_DENSITY
        population[~population.any(axis=1), 0] = True
        scores = problem.evaluate_population(population)
        assert len(problem._cache) == 60
        assert calls == []
        monkeypatch.undo()
        fresh = FeatureSelectionProblem(nr_reducer)
        alone = np.array([fresh.evaluate_mask(mask) for mask in population])
        assert scores.tobytes() == alone.tobytes()

    def test_mismatched_cut_raises_instead_of_scoring_inf(self,
                                                          nr_reducer):
        # A cut whose distances do not match the mask's clusters is the
        # caller's mistake: it must fail loudly, not be cached as an
        # infeasible mask.
        problem = FeatureSelectionProblem(nr_reducer)
        mask = np.zeros(problem.n_bits, dtype=bool)
        mask[:6] = True
        rows = problem._normalized_full[:, mask]
        dendrogram = clustering.ward_linkage(rows)
        cut = clustering.elbow_stack([rows], [dendrogram], 24)[0]
        dists = cut.distances
        for bad in (dists[:-1], (dists[0][:-1],) + dists[1:]):
            with pytest.raises(ValueError, match="centroid distances"):
                problem.evaluate_mask(mask, dendrogram,
                                      clustering.ElbowCut(cut.curve, cut.k,
                                                          bad))
        assert problem._cache == {}
        assert np.isfinite(problem.evaluate_mask(mask, dendrogram, cut))

    def test_all_ill_behaved_scores_inf(self, nr_reducer):
        problem = FeatureSelectionProblem(nr_reducer)
        problem.ill_behaved = frozenset(p.name for p in problem.profiles)
        mask = np.ones(problem.n_bits, dtype=bool)
        assert problem.evaluate_mask(mask) == float("inf")
        assert problem._cache == {mask.tobytes(): float("inf")}

    def test_population_fitness_shape_checked(self):
        with pytest.raises(ValueError, match="population of 10"):
            run_ga(4, lambda pop: float(pop.sum()),
                   GAConfig(population=10, generations=1, seed=4))

    def test_selected_subset_nonempty(self, nr_reducer):
        result, _ = select_features(
            nr_reducer, GAConfig(population=20, generations=5, seed=8))
        assert sum(result.best_mask) >= 1


class TestRandomBaseline:
    def test_partition_exactly_k_nonempty(self):
        rng = np.random.default_rng(0)
        for k in (1, 3, 7, 20):
            labels = random_partition(20, k, rng)
            assert len(np.unique(labels)) == k

    def test_partition_bounds(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            random_partition(5, 6, rng)
        with pytest.raises(ValueError):
            random_partition(5, 0, rng)

    def test_stats_ordering(self, nr_profiles):
        m, profiles = nr_profiles
        stats, = random_clustering_errors(profiles, m, (ATOM,), k=6,
                                          samples=40, seed=1)
        assert stats.best <= stats.median <= stats.worst
        assert stats.samples == 40

    def test_no_samples_rejected(self, nr_profiles):
        m, profiles = nr_profiles
        with pytest.raises(ValueError, match="samples"):
            random_clustering_errors(profiles, m, (ATOM,), k=6,
                                     samples=0)

    @pytest.mark.parametrize("seed", [7, 31])
    @pytest.mark.parametrize("k", [1, 2, 8, 24, 28])
    def test_matches_scalar_reference(self, nr_profiles, k, seed):
        m, profiles = nr_profiles
        targets = (ATOM, CORE2, SANDY_BRIDGE)
        got = random_clustering_errors(profiles, m, targets, k, samples=50,
                                       seed=seed)
        assert got == tuple(scalar_random_clustering_errors(
            profiles, m, target, k, samples=50, seed=seed)
            for target in targets)

    @pytest.mark.parametrize("k", [1, 2, 5, 24, 67])
    def test_draws_match_sequential_choice(self, k):
        # random_clustering_errors draws every cluster's representative
        # with one rng.integers(0, counts) call.  That must consume the
        # stream exactly like one rng.choice(members) per cluster, or
        # Figure 7 silently moves with the installed numpy.
        for seed in range(20):
            one = np.random.default_rng(seed)
            other = np.random.default_rng(seed)
            for _ in range(10):
                labels = random_partition(67, k, one)
                random_partition(67, k, other)
                sequential = [int(one.choice(np.flatnonzero(labels == c)))
                              for c in range(k)]
                counts = np.bincount(labels, minlength=k)
                first = np.cumsum(counts) - counts
                batched = np.argsort(labels, kind="stable")[
                    first + other.integers(0, counts)]
                assert batched.tolist() == sequential
            assert one.integers(2 ** 62) == other.integers(2 ** 62)

    def test_guided_beats_random_median(self, nr_profiles):
        """Figure 7's claim on the training suite."""
        from repro.core.clustering import ward_linkage
        from repro.core.features import TABLE2_FEATURES, FeatureMatrix
        from repro.core.prediction import build_cluster_model, percent_error
        from repro.core.representatives import (ill_behaved_codelets,
                                                select_representatives)

        m, profiles = nr_profiles
        fm = FeatureMatrix.from_profiles(profiles, TABLE2_FEATURES)
        rows = fm.normalized()
        dg = ward_linkage(rows)
        sel = select_representatives(profiles, rows, dg.cut(8),
                                     ill_behaved_codelets(profiles, m))
        model = build_cluster_model(profiles, sel)
        rep_times = {r: m.benchmark_standalone(
            next(p.codelet for p in profiles if p.name == r),
            ATOM).per_invocation_s for r in model.representatives}
        predicted = model.predict(rep_times)
        real = {p.name: m.measure_inapp(p.codelet, ATOM)
                for p in profiles}
        guided = float(np.median([percent_error(predicted[n], real[n])
                                  for n in predicted]))
        rand, = random_clustering_errors(profiles, m, (ATOM,), k=8,
                                         samples=60, seed=2)
        assert guided <= rand.median


def scalar_random_clustering_errors(profiles, measurer, target, k,
                                    samples, seed):
    """Figure 7 scored one sample at a time: ``rng.choice`` per cluster,
    ``percent_error`` per codelet, ``np.median`` per sample."""
    rng = np.random.default_rng(seed + 1000 * k)
    real = {p.name: measurer.measure_inapp(p.codelet, target)
            for p in profiles}
    bench = {p.name: measurer.benchmark_standalone(
        p.codelet, target).per_invocation_s for p in profiles}
    results = []
    for _ in range(samples):
        labels = random_partition(len(profiles), k, rng)
        rep_of_cluster = {}
        for cluster in range(k):
            members = np.flatnonzero(labels == cluster)
            rep_of_cluster[cluster] = int(rng.choice(members))
        errors = []
        for i, p in enumerate(profiles):
            rep = profiles[rep_of_cluster[int(labels[i])]]
            predicted = p.ref_seconds * bench[rep.name] / rep.ref_seconds
            errors.append(percent_error(predicted, real[p.name]))
        results.append(float(np.median(errors)))
    arr = np.asarray(results)
    return RandomClusteringStats(k, target.name, float(arr.max()),
                                 float(np.median(arr)), float(arr.min()),
                                 samples)


class TestSubsetting:
    def test_cross_app_basic(self, ctx):
        result = cross_application_subsetting(ctx, CORE2, k=14)
        assert result.total_representatives <= 14
        assert len(result.codelets) == 67

    def test_per_app_excludes_mg(self, ctx):
        result = per_application_subsetting(ctx, CORE2, reps_per_app=2)
        assert "mg" in result.unpredictable
        apps_predicted = {c.app for c in result.codelets}
        assert "mg" not in apps_predicted

    def test_cross_app_beats_per_app(self, ctx):
        """Figure 8's headline at a matched budget."""
        per_app = per_application_subsetting(ctx, ATOM, reps_per_app=2)
        cross = cross_application_subsetting(ctx, ATOM, k=14)
        assert cross.median_error_pct <= per_app.median_error_pct
