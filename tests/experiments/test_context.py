"""Tests for the shared experiment context and measurement run ids."""

import pytest

from repro.codelets import Measurer, find_suite_codelets
from repro.core.pipeline import BenchmarkReducer, SubsettingConfig
from repro.core.representatives import NoRepresentativeError
from repro.experiments import ExperimentContext, run_figure8
from repro.machine import ATOM, NEHALEM
from repro.runtime import RuntimeConfig, crash_plan
from repro.suites import build_nr_suite


class TestContextCaching:
    def test_reducers_are_cached(self):
        ctx = ExperimentContext(scale=0.05)
        assert ctx.nr is ctx.nr
        assert ctx.nas is ctx.nas

    def test_reduced_cached_per_key(self):
        ctx = ExperimentContext(scale=0.05)
        a = ctx.reduced("nr", 5)
        b = ctx.reduced("nr", 5)
        c = ctx.reduced("nr", 6)
        assert a is b
        assert a is not c

    def test_evaluation_cached_per_target(self):
        ctx = ExperimentContext(scale=0.05)
        e1 = ctx.evaluation("nr", 5, ATOM)
        e2 = ctx.evaluation("nr", 5, ATOM)
        assert e1 is e2

    def test_shared_measurer_across_suites(self):
        ctx = ExperimentContext(scale=0.05)
        assert ctx.nr.measurer is ctx.nas.measurer is ctx.measurer

    def test_scale_propagates(self):
        small = ExperimentContext(scale=0.02)
        codelet = small.nr.profiling().profiles[0].codelet
        big = ExperimentContext(scale=1.0)
        codelet_big = big.nr.profiling().profiles[0].codelet
        assert codelet.kernel.footprint_bytes() < \
            codelet_big.kernel.footprint_bytes()


class TestReducersBuiltOnce:
    def test_application_reducer_is_named_and_cached(self):
        ctx = ExperimentContext(scale=0.05)
        bt = ctx.reducer("nas:bt")
        assert bt is ctx.reducer("nas:bt")
        assert bt.suite.name == "NAS:bt"
        assert [app.name for app in bt.suite.applications] == ["bt"]
        assert bt.measurer is ctx.measurer

    def test_figure8_builds_one_reducer_per_suite_and_application(
            self, monkeypatch):
        built = []
        init = BenchmarkReducer.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(BenchmarkReducer, "__init__", counting_init)
        ctx = ExperimentContext(scale=0.3)
        run_figure8(ctx, reps_per_app=(1, 2))
        n_apps = len(ctx.nas.suite.applications)
        assert n_apps == 7
        assert len(built) <= 1 + n_apps

    def test_failed_reduction_runs_once(self, monkeypatch):
        # At full scale every MG codelet is ill-behaved, so Step D keeps
        # no cluster at K = 1.
        calls = []
        reduce = BenchmarkReducer.reduce

        def counting_reduce(self, k="elbow"):
            calls.append((self.suite.name, k))
            return reduce(self, k)

        monkeypatch.setattr(BenchmarkReducer, "reduce", counting_reduce)
        ctx = ExperimentContext()
        for _ in range(2):
            with pytest.raises(NoRepresentativeError):
                ctx.reduced("nas:mg", 1)
        assert calls == [("NAS:mg", 1)]

    def test_health_lists_every_reducer_in_build_order(self):
        ctx = ExperimentContext(scale=0.05)
        ctx.reduced("nr", 4)
        ctx.reduced("nas", 4)
        tasks = ctx.nr.health.tasks + ctx.nas.health.tasks
        assert tasks and ctx.health.tasks == tasks
        assert not ctx.health.degraded


class TestStepEResilience:
    def test_quarantined_representative_is_reselected(self):
        victim = ExperimentContext(scale=0.3).reduced(
            "nr", 8).representatives[0]
        plan = crash_plan(victim, stage="bench", arch=ATOM.name)
        ctx = ExperimentContext(scale=0.3, config=SubsettingConfig(
            runtime=RuntimeConfig(fault_plan=plan)))
        evaluation = ctx.evaluation("nr", 8, ATOM)
        assert evaluation.degraded_representatives == (victim,)
        assert ctx.health.degraded
        assert any("step E" in m and victim in m
                   for m in ctx.health.degradations)


class TestRunIds:
    def test_distinct_run_ids_redraw_noise(self):
        m = Measurer()
        codelet = find_suite_codelets(build_nr_suite())[0]
        a = m.measure_inapp(codelet, NEHALEM, run_id=0)
        b = m.measure_inapp(codelet, NEHALEM, run_id=1)
        assert a != b
        # Both stay near the same truth.
        true = m.true_inapp_seconds(codelet, NEHALEM)
        assert a == pytest.approx(true, rel=0.2)
        assert b == pytest.approx(true, rel=0.2)

    def test_same_run_id_is_stable(self):
        m = Measurer()
        codelet = find_suite_codelets(build_nr_suite())[0]
        assert m.measure_inapp(codelet, NEHALEM, run_id=3) == \
            m.measure_inapp(codelet, NEHALEM, run_id=3)

    def test_standalone_run_ids(self):
        m = Measurer()
        codelet = find_suite_codelets(build_nr_suite())[0]
        t0 = m.benchmark_standalone(codelet, ATOM, run_id=0)
        t1 = m.benchmark_standalone(codelet, ATOM, run_id=1)
        assert t0.per_invocation_s != t1.per_invocation_s
        assert t0.invocations == t1.invocations
