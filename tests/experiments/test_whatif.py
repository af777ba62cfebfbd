"""Tests for the Haswell what-if generalisation experiment."""

import json

import pytest

from repro.cli import main
from repro.core.pipeline import SubsettingConfig, cluster_and_select
from repro.experiments import ExperimentContext, run_whatif, whatif
from repro.machine import HASWELL, NEHALEM, run_kernel_model
from repro.runtime import RuntimeConfig, crash_plan
from repro.suites import patterns as P


class TestHaswellModel:
    def test_avx_doubles_vector_width(self):
        k = P.saxpy("s", 8192)
        run = run_kernel_model(k, HASWELL)
        assert run.compiled.nests[0].vf == 4       # 256-bit DP

    def test_haswell_fastest_on_compute(self):
        k = P.polynomial_eval("p", 4096, 4)
        ref = run_kernel_model(k, NEHALEM).seconds_per_invocation
        hsw = run_kernel_model(k, HASWELL).seconds_per_invocation
        assert ref / hsw > 2.0

    def test_haswell_in_registry(self):
        from repro.machine import architecture_by_name
        assert architecture_by_name("Haswell") is HASWELL

    def test_not_in_paper_tables(self):
        from repro.machine import ALL_ARCHITECTURES, TARGETS
        assert HASWELL not in ALL_ARCHITECTURES
        assert HASWELL not in TARGETS


class TestWhatIfExperiment:
    @pytest.fixture(scope="class")
    def result(self, ctx):
        return run_whatif(ctx)

    def test_two_feature_sets(self, result):
        assert len(result.rows) == 2
        assert result.target_name == "Haswell"

    def test_both_usable_on_unseen_isa(self, result):
        """Section 5's generalisation claim: the method keeps working on
        a machine whose vector ISA was never seen during training."""
        for row in result.rows:
            assert row.median_error_pct < 10.0

    def test_arch_independent_competitive(self, result):
        ref = result.row("reference-trained (Table 2)")
        ai = result.row("architecture-independent")
        assert ai.median_error_pct < 3.0 * ref.median_error_pct + 2.0

    def test_format(self, result):
        text = result.format()
        assert "Haswell" in text and "architecture-independent" in text


class TestFidelityVerdicts:
    def test_a_codelet_the_nas_reducer_bars_never_represents(
            self, ctx, monkeypatch):
        """What-if takes the NAS reducer's Step D verdicts, so a codelet
        whose fidelity probe is quarantined represents no cluster."""
        selections = []

        def spy(*args, **kwargs):
            labels, selection, model = cluster_and_select(*args, **kwargs)
            selections.append(selection)
            return labels, selection, model

        monkeypatch.setattr(whatif, "cluster_and_select", spy)
        run_whatif(ctx)
        victim = selections[0].representatives[0]
        faulty = ExperimentContext(config=SubsettingConfig(
            runtime=RuntimeConfig(
                fault_plan=crash_plan(victim, stage="fidelity"))))
        selections.clear()
        run_whatif(faulty)
        assert victim in faulty.nas.fidelity()[1]
        assert victim not in selections[0].representatives

    def test_standalone_whatif_traces_the_fidelity_stage(self, tmp_path):
        trace = tmp_path / "trace.json"
        assert main(["--scale", "0.05", "--trace-out", str(trace),
                     "whatif"]) == 0
        names = [span["name"] for span in
                 json.loads(trace.read_text())["spans"]]
        assert names == ["stage:profile", "stage:fidelity",
                         "stage:features"]
