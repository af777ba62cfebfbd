"""The invariant registry: contents, green path and defect isolation."""

import sys

import pytest

from repro.analysis.lint import CANARIES
from repro.core import clustering
from repro.ir import DP, KernelBuilder
from repro.ir.dependence import AnalysisContext
from repro.isa import compile_kernel
from repro.machine import REFERENCE
from repro.machine.platform import default_options
from repro.verify import (BREAKAGES, REGISTRY, VerifyContext,
                          run_registry, run_verify)
from repro.verify.invariants import _may_carry_flow, _planted

pytestmark = pytest.mark.verify

EXPECTED_INVARIANTS = {
    "normalized-features",
    "permutation-invariance",
    "exact-when-k-equals-n",
    "variance-monotone",
    "representative-membership",
    "ill-behaved-never-representative",
    "cache-determinism",
    "measure-once",
    "footprint-once",
    "lint-determinism",
    "ga-selection",
    "manifest-round-trip",
    "resilience-replay",
    "trace-replay",
    "stacked-linkage-equivalence",
    "stacked-elbow-equivalence",
    "transform-equivalence",
    "transform-legality",
    "compiler-dependence-agreement",
    "median-equivalence",
}


class TestRegistry:
    def test_expected_names_registered(self):
        assert EXPECTED_INVARIANTS == set(REGISTRY)

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


def _defect_param(name):
    """A defect that a transform invariant catches runs with the
    ``transform`` test set too."""
    transform = any(inv.startswith("transform-")
                    for inv in BREAKAGES[name].caught_by)
    return pytest.param(name,
                        marks=pytest.mark.transform if transform else ())


class TestDefectInjection:
    def test_every_row_names_registered_invariants_in_order(self):
        for name, row in BREAKAGES.items():
            assert row.caught_by, name
            assert list(row.caught_by) == [
                inv for inv in REGISTRY if inv in row.caught_by], name
            assert all(row.caught_by.values()), name

    def test_unknown_breakage_rejected(self):
        with pytest.raises(ValueError, match="unknown breakage"):
            VerifyContext(seed=0, breakage="desoldered-alu")
        with pytest.raises(ValueError, match="unknown breakage"):
            VerifyContext(seed=0).broken("desoldered-alu")

    @pytest.mark.parametrize("name", [_defect_param(name)
                                      for name in BREAKAGES])
    def test_defect_fails_exactly_its_row(self, name):
        before = _module_callables()
        report = run_verify(seed=0, breakage=name, skip_differential=True)
        failed = {r.name: r.detail for r in report.invariants
                  if not r.passed}
        caught_by = BREAKAGES[name].caught_by
        assert list(failed) == list(caught_by)
        for inv, substrings in caught_by.items():
            for substring in substrings:
                assert substring in failed[inv], (inv, substring)
        # No plant outlives its invariant.
        after = _module_callables()
        assert [key for key, value in before.items()
                if after[key] is not value] == []

    def test_planted_swaps_for_the_block_and_restores_on_error(self):
        original = clustering._first_minima
        with pytest.raises(RuntimeError):
            with _planted(clustering, "_first_minima",
                          lambda orig, d: (orig, d)):
                assert clustering._first_minima("d") == (original, "d")
                raise RuntimeError
        assert clustering._first_minima is original

    def test_planted_rejects_a_name_the_module_lacks(self):
        with pytest.raises(AttributeError, match="no_such_function"):
            with _planted(clustering, "no_such_function",
                          lambda original: None):
                pass

    def test_vectorize_plant_neither_reads_nor_leaves_lowerings(self):
        canary, = (c for c in CANARIES if c.name == "canary_nonuniform")
        kernel, options = canary.build(), default_options(REFERENCE)

        def vectorized():
            return any(n.vectorized
                       for n in compile_kernel(kernel, options).nests)

        assert not vectorized()         # an honest lowering, memoized
        ctx = VerifyContext(seed=0, breakage="vectorize-unresolved")
        result, = run_registry(ctx, ["compiler-dependence-agreement"])
        assert not result.passed and "canary_nonuniform" in result.detail
        assert not vectorized()


def _module_callables():
    """Every callable attribute of every loaded ``repro`` module."""
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if name.startswith("repro") and module is not None
            for attr, value in vars(module).items() if callable(value)}
