"""Dependence-proven loop rewrites: registry, legality verdicts,
pipeline parsing, suite mapping and semantic equivalence."""

import json

import pytest

from repro.ir import DP, KernelBuilder
from repro.ir.dependence import AnalysisContext
from repro.ir.interp import run_kernel
from repro.ir.rewrite import (FORCED_DIVERGENCE_CANARY, REWRITE_REGISTRY,
                              TRANSFORM_CANARIES, PassSpec,
                              TransformReport, constant_trip,
                              describe_passes, fuse_verdict,
                              interchange_verdict, parse_pass_specs,
                              perfect_chain, scoping_ok, tile_verdict,
                              transform_kernel, transform_suite)
from repro.ir.stmt import Loop

pytestmark = pytest.mark.transform

N = 8


def _canary(name):
    return next(c for c in TRANSFORM_CANARIES if c.name == name)


def _bit_identical(a, b, seeds=(7, 8)):
    """Interpret two kernels over identically-seeded storage."""
    for seed in seeds:
        out_a = run_kernel(a, seed=seed)
        out_b = run_kernel(b, seed=seed)
        for name in out_a:
            if out_a[name].tobytes() != out_b[name].tobytes():
                return False
    return True


class TestRegistry:
    def test_five_rewrites_registered(self):
        assert list(REWRITE_REGISTRY) == ["interchange", "stripmine",
                                          "tile", "fuse", "unroll"]

    def test_describe_lists_every_pass(self):
        text = describe_passes()
        for name in REWRITE_REGISTRY:
            assert name in text

    def test_parametric_flags(self):
        assert not REWRITE_REGISTRY["interchange"].parametric
        assert not REWRITE_REGISTRY["fuse"].parametric
        for name in ("stripmine", "tile", "unroll"):
            assert REWRITE_REGISTRY[name].parametric


class TestPassSpecParsing:
    def test_comma_and_repeat_forms_agree(self):
        assert parse_pass_specs(["tile=4,interchange"]) \
            == parse_pass_specs(["tile=4", "interchange"]) \
            == (PassSpec("tile", 4), PassSpec("interchange"))

    def test_unknown_pass_rejected(self):
        with pytest.raises(ValueError, match="unknown rewrite pass"):
            parse_pass_specs(["loopify"])

    def test_missing_parameter_rejected(self):
        with pytest.raises(ValueError, match="needs a parameter"):
            parse_pass_specs(["tile"])

    def test_unexpected_parameter_rejected(self):
        with pytest.raises(ValueError, match="takes no parameter"):
            parse_pass_specs(["fuse=2"])

    def test_non_integer_parameter_rejected(self):
        with pytest.raises(ValueError, match="expected an integer"):
            parse_pass_specs(["tile=four"])

    def test_degenerate_parameter_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            parse_pass_specs(["unroll=1"])

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError, match="empty pass pipeline"):
            parse_pass_specs([" , "])


class TestCanaryVerdicts:
    @pytest.mark.parametrize(
        "canary", TRANSFORM_CANARIES, ids=lambda c: c.name)
    def test_expected_verdict(self, canary):
        _, records = transform_kernel(canary.build(), (canary.spec,))
        assert records, canary.name
        verdict = records[0].verdict
        assert verdict.status == canary.expected_status
        if canary.blocking_fragment is not None:
            assert canary.blocking_fragment in (verdict.blocking or "")

    @pytest.mark.parametrize(
        "canary",
        [c for c in TRANSFORM_CANARIES if c.expected_status == "legal"],
        ids=lambda c: c.name)
    def test_legal_rewrites_are_bit_identical(self, canary):
        kernel = canary.build()
        transformed, records = transform_kernel(kernel, (canary.spec,))
        assert any(r.applied for r in records)
        assert transformed != kernel
        assert _bit_identical(kernel, transformed)

    def test_every_rewrite_has_a_legal_canary(self):
        legal = {c.spec.name for c in TRANSFORM_CANARIES
                 if c.expected_status == "legal"}
        assert legal == set(REWRITE_REGISTRY)

    def test_refused_rewrite_leaves_kernel_untouched(self):
        canary = _canary("skew-interchange")
        kernel = canary.build()
        transformed, records = transform_kernel(kernel, (canary.spec,))
        assert transformed == kernel
        assert records[0].status == "refused"

    def test_forcing_the_illegal_interchange_diverges(self):
        canary = _canary(FORCED_DIVERGENCE_CANARY)
        kernel = canary.build()
        forced, records = transform_kernel(kernel, (canary.spec,),
                                           force=True)
        assert records[0].status == "forced"
        assert not _bit_identical(kernel, forced)

    def test_force_never_overrides_inapplicable(self):
        canary = _canary("triangular-interchange")
        kernel = canary.build()
        transformed, records = transform_kernel(kernel, (canary.spec,),
                                                force=True)
        assert transformed == kernel
        assert records[0].status == "inapplicable"


class TestStructuralEffects:
    def test_interchange_swaps_the_outer_pair(self):
        canary = _canary("matmul-interchange")
        kernel = canary.build()
        before = perfect_chain(kernel.outer_loops[0])
        transformed, _ = transform_kernel(kernel, (canary.spec,))
        after = perfect_chain(transformed.outer_loops[0])
        assert [lp.var for lp in after[:2]] \
            == [before[1].var, before[0].var]
        assert [lp.var for lp in after[2:]] \
            == [lp.var for lp in before[2:]]

    def test_tile_doubles_the_band_depth(self):
        canary = _canary("matmul-tile")
        transformed, _ = transform_kernel(canary.build(),
                                          (canary.spec,))
        chain = perfect_chain(transformed.outer_loops[0])
        assert len(chain) == 6      # 3 tile loops + 3 point loops
        assert [constant_trip(lp) for lp in chain[:3]] == [3, 3, 3]

    def test_fuse_merges_adjacent_loops(self):
        canary = _canary("fusable-fuse")
        transformed, _ = transform_kernel(canary.build(),
                                          (canary.spec,))
        loops = [s for s in transformed.body if isinstance(s, Loop)]
        assert len(loops) == 1
        assert len(loops[0].body.stmts) == 2

    def test_unroll_divides_the_trip(self):
        canary = _canary("matmul-unroll")
        transformed, _ = transform_kernel(canary.build(),
                                          (canary.spec,))
        chain = perfect_chain(transformed.outer_loops[0])
        assert constant_trip(chain[-1]) == 3     # 6 / factor 2
        assert len(chain[-1].body.stmts) == 2    # body replicated

    def test_pipeline_applies_left_to_right(self):
        canary = _canary("matmul-interchange")
        kernel = canary.build()
        both, records = transform_kernel(
            kernel, parse_pass_specs(["interchange,unroll=2"]))
        assert [r.pass_name for r in records] \
            == ["interchange", "unroll"]
        assert _bit_identical(kernel, both)


class TestLegalityHelpers:
    def test_scoping_and_trip_helpers(self):
        b = KernelBuilder("tri")
        m = b.array("m", (N, N), DP)
        with b.loop(0, N) as i:
            with b.loop(0, i + 1) as j:
                b.assign(m[i, j], 1.0)
        chain = perfect_chain(b.build().outer_loops[0])
        assert scoping_ok(chain)
        assert not scoping_ok(chain[::-1])
        assert constant_trip(chain[0]) == N
        assert constant_trip(chain[1]) is None

    def test_verdict_cites_dependence_and_directions(self):
        canary = _canary("skew-interchange")
        kernel = canary.build()
        ctx = AnalysisContext(kernel)
        chain = perfect_chain(kernel.outer_loops[0])
        verdict = interchange_verdict(ctx, chain)
        assert verdict.status == "illegal"
        assert "directions (<, >)" in verdict.blocking
        assert "flow dependence" in verdict.blocking
        tile = tile_verdict(ctx, chain)
        assert tile.status == "illegal"

    def test_matmul_reduction_band_is_tile_legal(self):
        # The k-loop carries the reduction as (=, =, *); normalisation
        # must not let its (=, =, >) concretisation block tiling.
        kernel = _canary("matmul-tile").build()
        ctx = AnalysisContext(kernel)
        chain = perfect_chain(kernel.outer_loops[0])
        assert tile_verdict(ctx, chain).status == "legal"

    def test_fuse_verdict_on_misaligned_bounds(self):
        b = KernelBuilder("bounds")
        x = b.array("x", (N,), DP)
        y = b.array("y", (N,), DP)
        with b.loop(0, N) as i:
            b.assign(x[i], 1.0)
        with b.loop(1, N) as i:
            b.assign(y[i], 2.0)
        kernel = b.build()
        ctx = AnalysisContext(kernel)
        loops = [s for s in kernel.body if isinstance(s, Loop)]
        verdict = fuse_verdict(ctx, loops[0], loops[1])
        assert verdict.status == "inapplicable"
        assert "bounds differ" in verdict.reason


class TestSuiteAndReport:
    def test_transform_suite_preserves_structure(self, nr_suite):
        specs = parse_pass_specs(["unroll=2"])
        out, records, n_kernels = transform_suite(nr_suite, specs)
        assert out.name == nr_suite.name
        for app_a, app_b in zip(nr_suite.applications,
                                out.applications):
            assert app_a.name == app_b.name
            for (_, reg_a), (_, reg_b) in zip(app_a.regions(),
                                              app_b.regions()):
                assert reg_a.srcloc == reg_b.srcloc
                assert reg_a.invocations == reg_b.invocations
                assert len(reg_a.variants) == len(reg_b.variants)
        assert n_kernels == sum(
            len(r.variants) for a in nr_suite.applications
            for _, r in a.regions())
        assert len(records) >= n_kernels

    def test_report_renders_and_round_trips(self, tmp_path):
        canary = _canary("skew-interchange")
        _, records = transform_kernel(canary.build(), (canary.spec,))
        report = TransformReport(title="suite t",
                                 pipeline=(canary.spec,),
                                 records=records, n_kernels=1)
        text = report.format()
        assert "repro transform — suite t" in text
        assert "refused" in text
        assert report.serialize() == report.serialize()
        txt, js = report.save(str(tmp_path))
        assert txt.endswith("transform_suite_t.txt")
        data = json.loads(open(js).read())
        assert data["counts"]["refused"] == 1
        assert data["records"][0]["verdict"]["blocking"]
