"""Graceful degradation through the pipeline, and its CLI surface.

The acceptance scenario: a fault plan that crashes every codelet of one
cluster must not abort ``repro reduce`` — the cluster is destroyed, its
members re-homed to surviving neighbours, and the health report
enumerates every retry and quarantine.  Replaying the same seed and
plan must be byte-identical.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.codelets import Measurer
from repro.core.pipeline import (BenchmarkReducer, SubsettingConfig,
                                 evaluate_on_target)
from repro.core.representatives import select_representatives
from repro.machine import ATOM
from repro.obs import Observation
from repro.runtime import FaultPlan, FaultRule, crash_plan
from repro.runtime.config import RuntimeConfig
from repro.verify.oracle import diff_reduced
from repro.verify.strategies import synthetic_suite

pytestmark = [pytest.mark.runtime, pytest.mark.resilience]


# One shared suite: fresh builds of the same seed mint fresh IR
# loop-variable names, so cross-build dataclass equality would fail
# for reasons unrelated to resilience.
SUITE = synthetic_suite(0, 3, 4)


def _reduce(runtime: RuntimeConfig):
    reducer = BenchmarkReducer(SUITE, Measurer(),
                               SubsettingConfig(runtime=runtime))
    return reducer, reducer.reduce("elbow")


@pytest.fixture(scope="module")
def baseline():
    return _reduce(RuntimeConfig(retries=0))[1]


class TestDegradation:
    def test_default_resilience_matches_fail_fast(self, baseline):
        """retries=2 is the default everywhere, so a failure-free
        resilient run must be bit-identical to the historical path —
        this is what keeps the golden snapshots unchanged."""
        _, resilient = _reduce(RuntimeConfig(retries=2))
        assert resilient.profiles == baseline.profiles
        assert np.array_equal(resilient.labels, baseline.labels)
        assert resilient.representatives == baseline.representatives
        assert resilient.quarantined == ()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_profile_crash_drops_codelet(self, baseline, jobs):
        victim = baseline.profiles[0].name
        plan = crash_plan(victim, stage="profile")
        reducer, reduced = _reduce(RuntimeConfig(jobs=jobs, retries=1,
                                                 fault_plan=plan))
        assert victim not in {p.name for p in reduced.profiles}
        assert victim in reduced.quarantined
        assert reducer.health.degraded
        assert any("step B" in m and victim in m
                   for m in reducer.health.degradations)
        # Two attempts were burned on the victim before quarantine.
        record = next(t for t in reducer.health.tasks
                      if t.task == victim)
        assert record.attempts == 2 and record.outcome == "quarantined"
        # A process pool quarantines exactly what the serial path does.
        serial_reducer, serial = _reduce(RuntimeConfig(retries=1,
                                                       fault_plan=plan))
        assert diff_reduced(serial, reduced) == []
        assert reducer.health.to_json() == serial_reducer.health.to_json()

    def test_cluster_wipeout_rehomes_members(self, baseline):
        """Crash every fidelity probe of one whole cluster: the run
        completes, the cluster is destroyed and its members re-homed."""
        cluster = max(baseline.selection.clusters, key=len)
        plan = FaultPlan(seed=7, rules=tuple(
            FaultRule(kind="crash", match=name, stage="fidelity")
            for name in cluster))
        reducer, reduced = _reduce(RuntimeConfig(retries=1,
                                                 fault_plan=plan))
        assert reduced.k < baseline.k
        # Every member survived profiling and lives in a cluster whose
        # representative is trustworthy (not one of the crashed names).
        for name in cluster:
            idx = reduced.selection.cluster_of(name)
            assert reduced.selection.representatives[idx] not in cluster
        assert any("destroyed" in m
                   for m in reducer.health.degradations)
        assert len(reducer.health.quarantined) == len(cluster)

    def test_replay_is_byte_identical(self):
        plan = FaultPlan(seed=11, rules=(
            FaultRule(kind="crash", match="*", stage="profile",
                      probability=0.2),))
        runtime = RuntimeConfig(retries=1, fault_plan=plan)
        red_a, out_a = _reduce(runtime)
        red_b, out_b = _reduce(runtime)
        assert red_a.health.to_json() == red_b.health.to_json()
        assert out_a.representatives == out_b.representatives
        assert np.array_equal(out_a.labels, out_b.labels)

    def test_recovered_transient_fault_changes_nothing(self, baseline):
        victim = baseline.profiles[2].name
        plan = FaultPlan(rules=(
            FaultRule(kind="crash", match=victim, stage="profile",
                      attempts=(0,)),))
        reducer, reduced = _reduce(RuntimeConfig(retries=2,
                                                 fault_plan=plan))
        assert reduced.profiles == baseline.profiles
        assert reduced.representatives == baseline.representatives
        assert f"profile:{victim}" in reducer.health.recovered

    def test_poisoned_cache_detected_and_recomputed(self, tmp_path,
                                                    baseline):
        victim = baseline.profiles[0].name
        plan = FaultPlan(rules=(
            FaultRule(kind="cache-poison", match=victim),))
        runtime = RuntimeConfig(retries=1, fault_plan=plan,
                                cache_dir=str(tmp_path / "c"))
        _reduce(runtime)                       # cold: stores poisoned
        warm_reducer, warm = _reduce(runtime)  # warm: must detect it
        assert warm_reducer.health.cache_checksum_failures == 1
        assert warm.profiles == baseline.profiles
        assert warm.representatives == baseline.representatives

    def test_total_profile_wipeout_diagnosed_clearly(self):
        """Regression: a fault plan that quarantines *every* codelet
        used to surface as a cryptic 'feature matrix shape mismatch';
        the pipeline now names what happened and why."""
        plan = FaultPlan(seed=3, rules=(
            FaultRule(kind="crash", match="*", stage="profile"),))
        reducer = BenchmarkReducer(SUITE, Measurer(), SubsettingConfig(
            runtime=RuntimeConfig(retries=1, fault_plan=plan)))
        with pytest.raises(ValueError,
                           match="no measurable codelets left to "
                                 "cluster.*quarantined"):
            reducer.reduce("elbow")

    def test_target_representative_quarantine_reselects(self, baseline):
        victim = baseline.representatives[0]
        health_runtime = RuntimeConfig(
            retries=1, fault_plan=crash_plan(victim, stage="bench"))
        resilience = health_runtime.make_resilience()
        evaluation = evaluate_on_target(baseline, ATOM, Measurer(),
                                        resilience=resilience)
        assert evaluation.degraded_representatives == (victim,)
        assert len(evaluation.codelets) == len(baseline.profiles)
        assert any("step E" in m
                   for m in resilience.health.degradations)

    def test_target_reselection_keeps_fidelity_quarantine(self, baseline):
        """Y's target benchmark is quarantined, and X, the codelet Step E
        would pick in Y's place, had its Step D fidelity probe
        quarantined: the reselection must not pick X either."""
        measurer = Measurer()
        for y in baseline.representatives:
            fallback = select_representatives(
                baseline.profiles, baseline.normalized_rows,
                baseline.labels, measurer, ineligible={y})
            fresh = (set(fallback.representatives)
                     - set(baseline.representatives))
            if fresh:
                [x] = fresh
                break
        else:
            pytest.fail("no representative has an eligible stand-in")
        plan = FaultPlan(rules=(
            FaultRule(kind="crash", match=x, stage="fidelity"),
            FaultRule(kind="crash", match=y, stage="bench")))
        reducer, reduced = _reduce(RuntimeConfig(retries=1,
                                                 fault_plan=plan))
        assert reduced.representatives == baseline.representatives
        obs = Observation()
        evaluation = evaluate_on_target(reduced, ATOM, Measurer(),
                                        resilience=reducer.resilience,
                                        obs=obs)
        assert evaluation.degraded_representatives == (y,)
        assert obs.tracer.find(f"bench:{x}") == []
        assert reduced.ineligible == (x,)


class TestResilienceCLI:
    def _plan_file(self, tmp_path, plan: FaultPlan) -> str:
        path = str(tmp_path / "plan.json")
        plan.save(path)
        return path

    def _victim(self) -> str:
        """A codelet name that survives Step B of the CLI's NR run."""
        from repro.suites import build_nr_suite

        reducer = BenchmarkReducer(build_nr_suite(0.05), Measurer(),
                                   SubsettingConfig())
        return reducer.profiling().profiles[0].name

    def test_strict_clean_run_exits_zero(self, capsys):
        assert main(["--scale", "0.05", "--strict", "reduce",
                     "--suite", "nr", "--k", "6"]) == 0
        assert "no degradation" in capsys.readouterr().out

    def test_fault_plan_degrades_gracefully(self, capsys, tmp_path):
        plan = crash_plan(self._victim(), stage="fidelity")
        health_out = str(tmp_path / "health.json")
        code = main(["--scale", "0.05", "--fault-plan",
                     self._plan_file(tmp_path, plan),
                     "reduce", "--suite", "nr", "--k", "6",
                     "--health-out", health_out])
        assert code == 0
        out = capsys.readouterr().out
        assert "run health" in out
        data = json.loads(open(health_out).read())
        assert data["degraded"] is True
        assert data["quarantined"]

    def test_strict_escalates_degradation(self, capsys, tmp_path):
        plan = crash_plan(self._victim(), stage="fidelity")
        code = main(["--scale", "0.05", "--strict", "--fault-plan",
                     self._plan_file(tmp_path, plan),
                     "reduce", "--suite", "nr", "--k", "6"])
        assert code == 3

    def test_strict_escalates_export_degradation(self, capsys, tmp_path):
        plan = crash_plan(self._victim(), stage="profile")
        code = main(["--scale", "0.05", "--strict", "--fault-plan",
                     self._plan_file(tmp_path, plan),
                     "export", "--suite", "nr", "--k", "6",
                     "-o", str(tmp_path / "m.json")])
        assert code == 3
        assert "run health" in capsys.readouterr().out

    def test_missing_plan_file_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["--fault-plan", str(tmp_path / "absent.json"),
                  "reduce", "--suite", "nr"])

    def test_invalid_plan_file_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit, match="not valid JSON"):
            main(["--fault-plan", str(bad), "reduce", "--suite", "nr"])

    def test_negative_retries_rejected(self):
        with pytest.raises(SystemExit):
            main(["--retries", "-1", "suites"])

    def test_retries_zero_reproduces_default_output(self, capsys):
        argv = ["--scale", "0.05", "reduce", "--suite", "nr",
                "--k", "6"]
        assert main(["--retries", "0"] + argv[:1] + argv[1:]) == 0
        fail_fast = capsys.readouterr().out
        assert main(argv) == 0
        resilient = capsys.readouterr().out
        # The resilient default prints an extra health footer; the
        # reduction itself is identical.
        assert fail_fast.strip() in resilient
