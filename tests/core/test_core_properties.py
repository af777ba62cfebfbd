"""Property-based tests of core-method invariants: the prediction
matrix, GA mechanics, random partitions and error metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ga import GAConfig, run_ga
from repro.core.prediction import percent_error
from repro.core.random_baseline import random_partition
from repro.core.representatives import SelectionResult
from repro.core.prediction import ClusterModel


@st.composite
def cluster_models(draw):
    """A random consistent ClusterModel over synthetic codelets."""
    n = draw(st.integers(2, 24))
    k = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 30)))
    labels = random_partition(n, k, rng)
    names = tuple(f"c{i}" for i in range(n))
    clusters = tuple(
        tuple(names[i] for i in np.flatnonzero(labels == c))
        for c in range(k))
    reps = tuple(cluster[int(rng.integers(len(cluster)))]
                 for cluster in clusters)
    assignments = {names[i]: int(labels[i]) for i in range(n)}
    ref_times = {name: float(rng.uniform(1e-4, 1e-1))
                 for name in names}
    selection = SelectionResult(
        clusters=clusters, representatives=reps,
        assignments=assignments, ill_behaved=(), destroyed_clusters=0)
    model = ClusterModel(selection=selection, codelet_names=names,
                         ref_times=ref_times)
    return model, rng


class TestPredictionMatrixProperties:
    @given(cluster_models())
    @settings(max_examples=40, deadline=None)
    def test_matrix_one_entry_per_row(self, case):
        model, _ = case
        mat = model.matrix()
        assert ((mat != 0).sum(axis=1) == 1).all()
        assert (mat >= 0).all()

    @given(cluster_models())
    @settings(max_examples=40, deadline=None)
    def test_representatives_fixed_points(self, case):
        model, rng = case
        rep_times = {r: float(rng.uniform(1e-4, 1e-1))
                     for r in model.representatives}
        predicted = model.predict(rep_times)
        for rep, t in rep_times.items():
            assert predicted[rep] == pytest.approx(t)

    @given(cluster_models())
    @settings(max_examples=40, deadline=None)
    def test_prediction_linear_in_rep_times(self, case):
        model, rng = case
        rep_times = {r: float(rng.uniform(1e-4, 1e-1))
                     for r in model.representatives}
        base = model.predict(rep_times)
        doubled = model.predict({r: 2 * t
                                 for r, t in rep_times.items()})
        for name in base:
            assert doubled[name] == pytest.approx(2 * base[name])

    @given(cluster_models())
    @settings(max_examples=40, deadline=None)
    def test_exact_when_speedups_uniform(self, case):
        """If every codelet really has its cluster's speedup, the model
        is exact — the paper's core assumption as an identity."""
        model, rng = case
        speedups = {k: float(rng.uniform(0.2, 3.0))
                    for k in range(model.k)}
        real = {name: model.ref_times[name]
                / speedups[model.selection.cluster_of(name)]
                for name in model.codelet_names}
        rep_times = {r: real[r] for r in model.representatives}
        predicted = model.predict(rep_times)
        for name in model.codelet_names:
            assert predicted[name] == pytest.approx(real[name],
                                                    rel=1e-9)


class TestRandomPartitionProperties:
    @given(st.integers(1, 40), st.integers(0, 2 ** 20))
    @settings(max_examples=50, deadline=None)
    def test_all_items_assigned(self, n, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, n + 1))
        labels = random_partition(n, k, rng)
        assert len(labels) == n
        assert set(np.unique(labels)) == set(range(k))


class TestGAProperties:
    @given(st.integers(4, 24), st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_never_empty_individual(self, n_bits, seed):
        observed = []

        def fitness(mask):
            observed.append(mask.sum())
            return float(mask.sum())

        run_ga(n_bits, lambda pop: np.array([fitness(x) for x in pop]),
               GAConfig(population=12, generations=4, seed=seed))
        assert min(observed) >= 1

    @given(st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_elitism_never_regresses(self, seed):
        result = run_ga(16, lambda pop: np.array([float(m.sum())
                                                  for m in pop]),
                        GAConfig(population=16, generations=10,
                                 seed=seed))
        h = np.array(result.history)
        assert (np.diff(h) <= 1e-12).all()


class TestErrorMetricProperties:
    @given(st.floats(1e-9, 1e3), st.floats(1e-9, 1e3))
    @settings(max_examples=60, deadline=None)
    def test_percent_error_nonnegative(self, predicted, real):
        assert percent_error(predicted, real) >= 0.0

    @given(st.floats(1e-9, 1e3))
    @settings(max_examples=30, deadline=None)
    def test_percent_error_zero_iff_equal(self, value):
        assert percent_error(value, value) == 0.0

    @given(st.floats(1e-6, 1e3), st.floats(0.01, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_percent_error_scale_invariant(self, real, scale):
        a = percent_error(real * 1.2, real)
        b = percent_error(real * 1.2 * scale, real * scale)
        assert a == pytest.approx(b, rel=1e-9)
