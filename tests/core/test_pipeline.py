"""Tests for the end-to-end pipeline (Steps A-E)."""

import sys

import numpy as np
import pytest

from repro.codelets import Measurer, find_suite_codelets
from repro.core import clustering
from repro.core.pipeline import (BenchmarkReducer, SubsettingConfig,
                                 TargetEvaluation, evaluate_on_target)
from repro.core.prediction import average_error, median_error
from repro.core.reduction import ReductionBreakdown
from repro.machine import ATOM, CORE2, SANDY_BRIDGE, NoiseModel
from repro.suites import build_nas_suite, build_nr_suite
from repro.verify import reduce_codelets


@pytest.fixture(scope="module")
def nas_reducer():
    return BenchmarkReducer(build_nas_suite(), Measurer())


class TestReducer:
    def test_profiling_cached(self, nas_reducer):
        assert nas_reducer.profiling() is nas_reducer.profiling()

    def test_reduce_fixed_k(self, nas_reducer):
        reduced = nas_reducer.reduce(10)
        assert reduced.requested_k == 10
        # Ill-behaved handling may shrink but never grow K.
        assert reduced.k <= 10

    def test_reduce_elbow(self, nas_reducer):
        reduced = nas_reducer.reduce("elbow")
        assert reduced.elbow == nas_reducer.elbow()
        assert 1 <= reduced.k <= reduced.elbow

    def test_elbow_in_paper_ballpark(self, nas_reducer):
        """Paper's elbow on NAS is 18; ours must land in the teens."""
        assert 10 <= nas_reducer.elbow() <= 24

    def test_k_clamped_to_codelet_count(self, nas_reducer):
        reduced = nas_reducer.reduce(1000)
        assert reduced.k <= 67

    def test_labels_align_with_profiles(self, nas_reducer):
        reduced = nas_reducer.reduce(12)
        assert len(reduced.labels) == len(reduced.profiles)

    def test_feature_names_from_config(self):
        config = SubsettingConfig(feature_names=("mflops_rate",
                                                 "mem_bandwidth_mbs"))
        reducer = BenchmarkReducer(build_nr_suite(), Measurer(), config)
        reduced = reducer.reduce(5)
        assert reduced.features.feature_names == (
            "mflops_rate", "mem_bandwidth_mbs")

    def test_profile_lookup(self, nas_reducer):
        reduced = nas_reducer.reduce(8)
        name = reduced.profiles[0].name
        assert reduced.profile(name).name == name
        with pytest.raises(KeyError):
            reduced.profile("missing")


class TestTargetEvaluation:
    @pytest.fixture(scope="class")
    def evaluation(self, nas_reducer):
        reduced = nas_reducer.reduce("elbow")
        return evaluate_on_target(reduced, SANDY_BRIDGE,
                                  nas_reducer.measurer)

    def test_every_codelet_predicted(self, evaluation):
        assert len(evaluation.codelets) == 67

    def test_seven_applications(self, evaluation):
        assert len(evaluation.applications) == 7

    def test_median_error_in_paper_range(self, evaluation):
        # Paper: 3.9-8% across targets; allow a wide but meaningful band.
        assert evaluation.median_error_pct < 10.0

    def test_reduction_factor_large(self, evaluation):
        assert evaluation.reduction.total_factor > 10.0

    def test_reduction_decomposition_consistent(self, evaluation):
        r = evaluation.reduction
        assert r.total_factor == pytest.approx(
            r.invocation_factor * r.clustering_factor)

    def test_predictions_positive(self, evaluation):
        for p in evaluation.codelets:
            assert p.predicted_seconds > 0
            assert p.real_seconds > 0

    def test_application_lookup(self, evaluation):
        assert evaluation.application("cg").app == "cg"
        with pytest.raises(KeyError):
            evaluation.application("nope")


class TestEmptyEvaluation:
    """Regression: aggregating an evaluation that kept zero codelets
    used to emit numpy's 'Mean of empty slice' warning and return NaN
    (or crash on median) with no hint of the cause."""

    @pytest.fixture
    def empty(self):
        return TargetEvaluation(
            arch_name="Atom", codelets=(), applications=(),
            reduction=ReductionBreakdown(
                arch_name="Atom", full_suite_seconds=1.0,
                all_reduced_seconds=1.0, representative_seconds=1.0))

    def test_median_and_average_raise_with_diagnosis(self, empty):
        for prop in ("median_error_pct", "average_error_pct"):
            with pytest.raises(ValueError,
                               match="no codelet predictions"):
                getattr(empty, prop)

    def test_aggregators_reject_empty_input(self):
        with pytest.raises(ValueError, match="zero codelets"):
            median_error(())
        with pytest.raises(ValueError, match="zero codelets"):
            average_error(())


class TestErrorVsK:
    def test_more_clusters_reduce_error(self, nas_reducer):
        """Figure 3's monotone trend, checked loosely end-to-end."""
        errors = {}
        for k in (2, 8, 20):
            reduced = nas_reducer.reduce(k)
            ev = evaluate_on_target(reduced, CORE2,
                                    nas_reducer.measurer)
            errors[k] = ev.median_error_pct
        assert errors[20] <= errors[2]

    def test_more_clusters_reduce_reduction_factor(self, nas_reducer):
        factors = {}
        for k in (2, 20):
            reduced = nas_reducer.reduce(k)
            ev = evaluate_on_target(reduced, CORE2,
                                    nas_reducer.measurer)
            factors[k] = ev.reduction.total_factor
        assert factors[20] < factors[2]


class TestMeasureOnce:
    def test_second_evaluation_draws_no_noise(self, nas_reducer,
                                              monkeypatch):
        # The first evaluation measures every codelet on the target,
        # in-app and standalone (reduction_breakdown benchmarks them
        # all), so a second one at another K finds every value memoized.
        measurer = nas_reducer.measurer
        first = evaluate_on_target(nas_reducer.reduce(6), ATOM, measurer)
        draws = []
        rng = NoiseModel._rng

        def counting_rng(self, key):
            draws.append(key)
            return rng(self, key)

        monkeypatch.setattr(NoiseModel, "_rng", counting_rng)
        second = evaluate_on_target(nas_reducer.reduce(12), ATOM, measurer)
        assert draws == []
        assert [c.real_seconds for c in second.codelets] == \
            [c.real_seconds for c in first.codelets]


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = BenchmarkReducer(build_nas_suite(), Measurer()).reduce(12)
        b = BenchmarkReducer(build_nas_suite(), Measurer()).reduce(12)
        assert a.representatives == b.representatives
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.model.ref_times == b.model.ref_times


class TestOneStepsCDPath:
    """The verify harness's ``reduce_codelets`` and the reducer run the
    same Steps C-D, so the invariants that call it check the pipeline."""

    @pytest.mark.parametrize("k", ["elbow", 1, 8, 28])
    def test_reduce_codelets_agrees_with_reducer(self, nr_suite, k):
        config = SubsettingConfig()
        _, _, labels, selection, model = reduce_codelets(
            find_suite_codelets(nr_suite), Measurer(), config, k)
        reduced = BenchmarkReducer(nr_suite, Measurer(), config).reduce(k)
        assert labels.tolist() == reduced.labels.tolist()
        assert selection == reduced.selection
        rep_times = {r: 1e-6 * (i + 1)
                     for i, r in enumerate(selection.representatives)}
        assert model.predict(rep_times) == reduced.model.predict(rep_times)


def count_elbow_stacks(monkeypatch):
    """Wrap ``elbow_stack`` in every module that holds it; returns the
    list each call appends its point sets to."""
    real = clustering.elbow_stack
    calls = []

    def counting(point_sets, *args, **kwargs):
        calls.append(point_sets)
        return real(point_sets, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.startswith("repro") and module is not None
                and getattr(module, "elbow_stack", None) is real):
            monkeypatch.setattr(module, "elbow_stack", counting)
    return calls


class TestOneElbowPerReducer:
    def test_reduce_and_elbow_compute_it_once(self, nr_suite, monkeypatch):
        calls = count_elbow_stacks(monkeypatch)
        reducer = BenchmarkReducer(nr_suite, Measurer())
        at_elbow = reducer.reduce("elbow")
        at_eight = reducer.reduce(8)
        assert reducer.elbow() == at_elbow.elbow == at_eight.elbow
        assert len(calls) == 1
