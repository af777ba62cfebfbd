"""Determinism of the traced pipeline: replays, serial vs parallel and
cold vs warm cache must serialise byte-identical span trees, with the
run's accounting surfaced in the metrics registry."""

from __future__ import annotations

import pytest

from repro.codelets import Measurer, find_suite_codelets
from repro.core.pipeline import (BenchmarkReducer, SubsettingConfig,
                                 evaluate_on_target)
from repro.machine import TARGETS
from repro.obs import Observation
from repro.runtime import FaultPlan, FaultRule, RuntimeConfig
from repro.verify.strategies import synthetic_suite

pytestmark = pytest.mark.obs

SEED = 7


@pytest.fixture(scope="module")
def suite():
    return synthetic_suite(SEED, n_apps=3, codelets_per_app=4)


def traced_reduce(suite, runtime: RuntimeConfig):
    obs = Observation()
    reducer = BenchmarkReducer(suite, Measurer(),
                               SubsettingConfig(runtime=runtime),
                               obs=obs)
    reduced = reducer.reduce("elbow")
    return reduced, obs


def exports(obs: Observation):
    return obs.tracer.to_json(), obs.metrics.to_json()


def test_replay_is_byte_identical(suite):
    _, obs_a = traced_reduce(suite, RuntimeConfig())
    _, obs_b = traced_reduce(suite, RuntimeConfig())
    assert exports(obs_a) == exports(obs_b)


def test_serial_vs_parallel_traces_are_byte_identical(suite):
    _, serial = traced_reduce(suite, RuntimeConfig(jobs=1))
    _, parallel = traced_reduce(suite, RuntimeConfig(jobs=2))
    assert exports(serial) == exports(parallel)


def test_cold_vs_warm_cache_traces_are_byte_identical(suite, tmp_path):
    runtime = RuntimeConfig(cache_dir=str(tmp_path / "cache"))
    n = len(find_suite_codelets(suite))
    _, cold = traced_reduce(suite, runtime)
    _, warm = traced_reduce(suite, runtime)
    # The span tree is cache-transparent: whether an outcome came from
    # the cache or a fresh profile is invisible in the trace...
    assert cold.tracer.to_json() == warm.tracer.to_json()
    assert len(cold.tracer.find("cache-lookup:" +
                                find_suite_codelets(suite)[0].name)) == 1
    # ...while the hit/miss split lives in the cache.* metrics.
    m_cold, m_warm = cold.metrics, warm.metrics
    assert m_cold.counter_value("cache.misses") == n
    assert m_cold.counter_value("cache.stores") == n
    assert m_cold.counter_value("cache.hits") == 0
    assert m_warm.counter_value("cache.hits") == n
    assert m_warm.counter_value("cache.misses") == 0
    assert m_warm.counter_value("tasks.profile") == 0
    assert m_cold.counter_value("tasks.profile") == n


def test_stage_spans_and_pipeline_gauges(suite):
    reduced, obs = traced_reduce(suite, RuntimeConfig())
    (root,) = obs.tracer.roots
    assert root.name == "reduce"
    stages = [c.name for c in root.children]
    assert stages == ["stage:profile", "stage:features",
                      "stage:cluster", "stage:fidelity", "stage:select"]
    assert root.attrs["final_k"] == reduced.k
    per_codelet = obs.tracer.find(f"profile:{reduced.profiles[0].name}")
    assert len(per_codelet) == 1 and per_codelet[0].attrs["kept"] is True
    metrics = obs.metrics
    assert metrics.gauge("profiles.kept").value == len(reduced.profiles)
    assert metrics.gauge("cluster.count").value == reduced.k
    assert metrics.gauge("elbow.k").value == reduced.elbow
    assert metrics.histogram("cluster.size").count == reduced.k
    assert metrics.counter_value("model_seconds.profile") > 0


def test_failure_free_resilient_run_adds_no_retry_spans(suite):
    _, resilient = traced_reduce(suite, RuntimeConfig(retries=2))
    assert resilient.tracer.find("retry-round") == []
    assert resilient.metrics.counter_value("resilience.retries") == 0
    assert resilient.metrics.counter_value("resilience.recovered") == 0
    # Per-task profile spans match the fail-fast path exactly; only the
    # resilient-only fidelity pre-flight distinguishes the two trees.
    _, failfast = traced_reduce(suite, RuntimeConfig(retries=0))

    def profile_events(obs):
        return [(s.name, s.attrs) for s in obs.tracer.walk()
                if s.name.startswith("profile:")]

    assert profile_events(resilient) == profile_events(failfast)
    assert failfast.tracer.find("stage:fidelity") == []
    assert len(resilient.tracer.find("stage:fidelity")) == 1


def test_fault_plan_replay_surfaces_retries(suite):
    n = len(find_suite_codelets(suite))
    plan = FaultPlan(seed=SEED, rules=(
        FaultRule(kind="crash", match="*", stage="profile",
                  attempts=(0,)),))
    runtime = RuntimeConfig(retries=1, fault_plan=plan)
    reduced_a, obs_a = traced_reduce(suite, runtime)
    reduced_b, obs_b = traced_reduce(suite, runtime)
    assert exports(obs_a) == exports(obs_b)
    assert not reduced_a.quarantined
    (retry,) = obs_a.tracer.find("retry-round")
    assert retry.attrs["stage"] == "profile"
    assert retry.attrs["attempt"] == 1
    assert retry.attrs["tasks"] == n
    assert obs_a.metrics.counter_value("resilience.recovered") == n
    assert obs_a.metrics.counter_value("resilience.retries") == n
    # The faulted reduction itself matches the clean one (all recovered).
    reduced_clean, _ = traced_reduce(suite, RuntimeConfig())
    assert reduced_a.representatives == reduced_clean.representatives


def test_quarantine_is_traced_and_counted(suite):
    victim = find_suite_codelets(suite)[0].name
    plan = FaultPlan(seed=SEED, rules=(
        FaultRule(kind="crash", match=victim, stage="profile"),))
    reduced, obs = traced_reduce(suite,
                                 RuntimeConfig(retries=1,
                                               fault_plan=plan))
    assert reduced.quarantined == (victim,)
    (span,) = obs.tracer.find(f"profile:{victim}")
    assert span.attrs == {"quarantined": True}
    assert obs.metrics.counter_value("resilience.quarantined") == 1


def test_evaluate_on_target_spans_and_metrics(suite):
    reduced, obs = traced_reduce(suite, RuntimeConfig())
    evaluation = evaluate_on_target(reduced, TARGETS[0], Measurer(),
                                    obs=obs)
    (evaluate,) = obs.tracer.find("evaluate")
    assert evaluate.attrs["target"] == TARGETS[0].name
    assert evaluate.attrs["measured"] == len(reduced.representatives)
    bench = [s for s in obs.tracer.walk()
             if s.name.startswith("bench:")]
    assert len(bench) == len(reduced.representatives)
    metrics = obs.metrics
    assert (metrics.counter_value("tasks.bench")
            == len(reduced.representatives))
    assert metrics.counter_value("model_seconds.bench") > 0
    assert evaluation.median_error_pct >= 0
