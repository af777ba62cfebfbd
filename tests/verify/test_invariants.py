"""The invariant registry: contents, green path and defect isolation."""

import pytest

from repro.ir import DP, KernelBuilder
from repro.ir.dependence import AnalysisContext
from repro.isa import compile_kernel
from repro.machine import REFERENCE
from repro.machine.platform import default_options
from repro.verify import (BREAKAGES, REGISTRY, VerifyContext,
                          run_registry, run_verify)
from repro.verify.invariants import _may_carry_flow

pytestmark = pytest.mark.verify

EXPECTED_INVARIANTS = {
    "normalized-features",
    "permutation-invariance",
    "exact-when-k-equals-n",
    "variance-monotone",
    "representative-membership",
    "ill-behaved-never-representative",
    "cache-determinism",
    "footprint-once",
    "lint-determinism",
    "ga-selection",
    "manifest-round-trip",
    "resilience-replay",
    "trace-replay",
    "clustering-equivalence",
    "variance-curve-equivalence",
    "stacked-elbow-equivalence",
    "transform-equivalence",
    "transform-legality",
    "compiler-dependence-agreement",
    "median-equivalence",
}


class TestRegistry:
    def test_has_at_least_six_invariants(self):
        assert len(REGISTRY) >= 6

    def test_expected_names_registered(self):
        assert EXPECTED_INVARIANTS <= set(REGISTRY)

    def test_every_invariant_documented(self):
        for inv in REGISTRY.values():
            assert inv.description, f"{inv.name} lacks a description"

    def test_unknown_invariant_name_rejected(self):
        ctx = VerifyContext(seed=0)
        with pytest.raises(KeyError, match="unknown invariants"):
            run_registry(ctx, ["not-a-real-invariant"])


class TestGreenPath:
    def test_all_invariants_pass_on_seeded_suite(self):
        results = run_registry(VerifyContext(seed=0))
        failed = [r for r in results if not r.passed]
        assert not failed, "\n".join(
            f"{r.name}: {r.detail}" for r in failed)

    def test_second_seed_also_passes(self):
        results = run_registry(VerifyContext(seed=4))
        assert all(r.passed for r in results)


class TestCompilerDependenceAgreement:
    def test_flow_carried_by_an_outer_loop_is_no_disagreement(self):
        # The compiler vectorizes the inner loop of this wavefront: its
        # only flow edge, (<, <), is carried by the outer loop.
        b = KernelBuilder("wavefront")
        u = b.array("u", (16, 16), DP)
        with b.loop(1, 16) as i:
            with b.loop(1, 16) as j:
                b.assign(u[i, j], u[i - 1, j - 1] * 0.5)
        kernel = b.build()
        nest, = compile_kernel(kernel, default_options(REFERENCE)).nests
        assert nest.vectorized
        dep_ctx = AnalysisContext(kernel)
        edges = dep_ctx.dependence_edges
        assert [e.directions for e in edges] == [("<", "<")]
        assert not _may_carry_flow(dep_ctx, edges[0], nest.nest.innermost)

    def test_running_prefix_is_checked_but_its_accumulation_is_not(self):
        b = KernelBuilder("prefix")
        x = b.array("x", (16,), DP)
        y = b.array("y", (16,), DP)
        s = b.scalar("s", DP)
        with b.loop(0, 16) as i:
            b.assign(s.value(), s.value() + x[i])
            b.assign(y[i], s.value())
        kernel = b.build()
        dep_ctx = AnalysisContext(kernel)
        inner = kernel.outer_loops[0]
        assert {e.pair_id for e in dep_ctx.dependence_edges
                if _may_carry_flow(dep_ctx, e, inner)} == {"S0/S1.l0"}

    def test_accumulation_split_over_two_statements_is_exempt(self):
        # Both statements update s: the compiler vectorizes them as two
        # reductions, and no edge between them is a disagreement.
        b = KernelBuilder("two_updates")
        x = b.array("x", (16,), DP)
        s = b.scalar("s", DP)
        with b.loop(0, 16) as i:
            b.assign(s.value(), s.value() + x[i])
            b.assign(s.value(), s.value() * 2.0)
        kernel = b.build()
        nest, = compile_kernel(kernel, default_options(REFERENCE)).nests
        assert nest.vectorized
        dep_ctx = AnalysisContext(kernel)
        assert not any(_may_carry_flow(dep_ctx, e, nest.nest.innermost)
                       for e in dep_ctx.dependence_edges)


class TestDefectInjection:
    def test_breakages_all_name_a_catching_invariant(self):
        for name, description in BREAKAGES.items():
            assert "caught by" in description, name

    def test_unknown_breakage_rejected(self):
        with pytest.raises(ValueError, match="unknown breakage"):
            VerifyContext(seed=0, breakage="desoldered-alu")

    def test_no_normalize_fails_only_the_matching_invariant(self):
        report = run_verify(seed=0, breakage="no-normalize",
                            skip_differential=True)
        assert not report.passed
        assert report.failed_names() == ["normalized-features"]
        failing = next(r for r in report.invariants if not r.passed)
        assert "normal" in failing.detail.lower()

    def test_drop_oob_check_fails_only_the_matching_invariant(self):
        report = run_verify(seed=0, breakage="drop-oob-check",
                            skip_differential=True)
        assert not report.passed
        assert report.failed_names() == ["lint-determinism"]
        failing = next(r for r in report.invariants if not r.passed)
        assert "canary_oob" in failing.detail

    def test_ga_unseeded_fails_only_the_matching_invariant(self):
        report = run_verify(seed=0, breakage="ga-unseeded",
                            skip_differential=True)
        assert not report.passed
        assert report.failed_names() == ["ga-selection"]
        failing = next(r for r in report.invariants if not r.passed)
        assert "disagree" in failing.detail

    def test_round_manifest_floats_fails_only_the_matching_invariant(self):
        report = run_verify(seed=0, breakage="round-manifest-floats",
                            skip_differential=True)
        assert not report.passed
        assert report.failed_names() == ["manifest-round-trip"]
        failing = next(r for r in report.invariants if not r.passed)
        assert "lossy" in failing.detail

    def test_trace_wall_clock_fails_only_the_matching_invariant(self):
        report = run_verify(seed=0, breakage="trace-wall-clock",
                            skip_differential=True)
        assert not report.passed
        assert report.failed_names() == ["trace-replay"]
        failing = next(r for r in report.invariants if not r.passed)
        assert "not a pure function" in failing.detail

    @pytest.mark.transform
    def test_interchange_ignores_direction_fails_only_transform(self):
        report = run_verify(seed=0,
                            breakage="interchange-ignores-direction",
                            skip_differential=True)
        assert not report.passed
        assert report.failed_names() == ["transform-equivalence",
                                         "transform-legality"]
        equiv, legality = (r for r in report.invariants if not r.passed)
        assert "skew-interchange" in equiv.detail
        assert "pinned ground truth" in legality.detail

    def test_slow_path_skew_fails_only_the_matching_invariant(self):
        report = run_verify(seed=0, breakage="slow-path-skew",
                            skip_differential=True)
        assert not report.passed
        assert report.failed_names() == ["clustering-equivalence"]
        failing = next(r for r in report.invariants if not r.passed)
        assert "bit-identical" in failing.detail

    def test_stale_curve_child_fails_only_the_matching_invariant(self):
        report = run_verify(seed=0, breakage="stale-curve-child",
                            skip_differential=True)
        assert not report.passed
        assert report.failed_names() == ["variance-curve-equivalence"]
        failing = next(r for r in report.invariants if not r.passed)
        assert "bit-identical" in failing.detail

    def test_stack_shares_argmin_fails_only_the_matching_invariant(self):
        report = run_verify(seed=0, breakage="stack-shares-argmin",
                            skip_differential=True)
        assert not report.passed
        assert report.failed_names() == ["stacked-linkage-equivalence"]
        failing = next(r for r in report.invariants if not r.passed)
        assert "set 1 of 2" in failing.detail

    def test_stack_pads_columns_fails_only_the_matching_invariant(self):
        report = run_verify(seed=0, breakage="stack-pads-columns",
                            skip_differential=True)
        assert not report.passed
        assert report.failed_names() == ["stacked-elbow-equivalence"]
        failing = next(r for r in report.invariants if not r.passed)
        assert "bit-identical" in failing.detail

    def test_memo_drops_run_id_fails_only_the_matching_invariant(self):
        report = run_verify(seed=0, breakage="memo-drops-run-id",
                            skip_differential=True)
        assert not report.passed
        assert report.failed_names() == ["measure-once"]
        failing = next(r for r in report.invariants if not r.passed)
        assert "a fresh one" in failing.detail

    def test_footprint_drops_line_size_fails_only_the_matching_invariant(
            self):
        report = run_verify(seed=0, breakage="footprint-drops-line-size",
                            skip_differential=True)
        assert not report.passed
        assert report.failed_names() == ["footprint-once"]
        failing = next(r for r in report.invariants if not r.passed)
        assert "on fresh nests" in failing.detail

    def test_median_drops_last_fails_only_the_matching_invariant(self):
        report = run_verify(seed=0, breakage="median-drops-last",
                            skip_differential=True)
        assert not report.passed
        assert report.failed_names() == ["median-equivalence"]
        failing = next(r for r in report.invariants if not r.passed)
        assert "bit-identical" in failing.detail

    def test_vectorize_unresolved_fails_only_the_matching_invariant(self):
        report = run_verify(seed=0, breakage="vectorize-unresolved",
                            skip_differential=True)
        assert not report.passed
        assert report.failed_names() == ["compiler-dependence-agreement"]
        failing = next(r for r in report.invariants if not r.passed)
        assert "canary_nonuniform" in failing.detail
        assert "may be a flow" in failing.detail
