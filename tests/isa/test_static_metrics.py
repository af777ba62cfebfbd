"""Tests for the MAQAO-substitute static analyzer."""

import math

import pytest

from repro.analysis import STATIC_FEATURE_NAMES, analyze_static
from repro.ir import DP, SP
from repro.isa import CompilerOptions, compile_kernel, recompile_scalar
from repro.machine import ATOM, NEHALEM
from repro.suites import patterns as P


def _static(kernel, arch=NEHALEM, **opts):
    options = CompilerOptions(isa=arch.compile_isa, **opts)
    return analyze_static(compile_kernel(kernel, options), arch)


class TestCatalogue:
    def test_58_static_features(self):
        assert len(STATIC_FEATURE_NAMES) == 58

    def test_as_dict_matches_names(self, saxpy_kernel):
        d = _static(saxpy_kernel).as_dict()
        assert set(d) == set(STATIC_FEATURE_NAMES)
        assert all(math.isfinite(v) for v in d.values())

    def test_loopless_kernel_rejected(self):
        from repro.ir import Array, Kernel
        from repro.ir.stmt import Block
        k = Kernel("empty", (Array("x", (4,), DP),), Block(()))
        with pytest.raises(ValueError):
            analyze_static(compile_kernel(k))


class TestInstructionMixMetrics:
    def test_saxpy_counts(self, saxpy_kernel):
        s = _static(saxpy_kernel)
        # MAQAO counts *instructions*: at VF=2 each vector op covers
        # two source iterations, so per source iteration the vectorized
        # saxpy shows 0.5 adds/muls/stores and ~1 load (x and y).
        assert s.n_fp_add == pytest.approx(0.5, abs=0.01)
        assert s.n_fp_mul == pytest.approx(0.5, abs=0.01)
        assert s.n_loads == pytest.approx(1.0, abs=0.05)
        assert s.n_stores == pytest.approx(0.5, abs=0.05)
        assert s.n_flops == pytest.approx(2.0, abs=0.01)  # flops are exact

    def test_div_count(self):
        s = _static(P.vector_divide("d", 2048))
        assert s.n_fp_div == pytest.approx(0.5, abs=0.05)  # vector div
        assert s.vec_ratio_div_sqrt == pytest.approx(100.0)

    def test_flops_instruction_count_relationship(self):
        s = _static(P.saxpy("s", 2048))
        # flops = lanes x instructions for a fully vectorized DP loop.
        assert s.n_flops == pytest.approx(
            2 * (s.n_fp_add + s.n_fp_mul), rel=0.05)

    def test_ratio_add_mul(self):
        s = _static(P.saxpy("s", 2048))
        assert s.ratio_add_mul == pytest.approx(1.0, abs=0.05)

    def test_sd_vs_pd_instructions(self, recurrence_kernel):
        scalar = _static(recurrence_kernel)
        assert scalar.n_sd_instr > 0          # scalar double
        assert scalar.n_vec_pd == 0.0
        vectorized = _static(P.saxpy("s", 2048))
        assert vectorized.n_vec_pd > 0
        assert vectorized.n_sd_instr == pytest.approx(0.0, abs=0.01)

    def test_single_precision_flags(self):
        sp = _static(P.vector_copy("c", 2048, SP))
        assert sp.is_single_precision == 0.0  # copy has no FP arith
        sp_sum = _static(P.matrix_sum("m", 64, SP))
        assert sp_sum.is_single_precision == 1.0
        assert sp_sum.is_double_precision == 0.0

    def test_mixed_precision_flag(self):
        s = _static(P.matvec("mv", 64, DP, SP))
        assert s.is_mixed_precision == 1.0


class TestVectorizationRatios:
    def test_fully_vectorized_loop(self):
        s = _static(P.saxpy("s", 4096))
        assert s.vec_ratio_add == pytest.approx(100.0)
        assert s.vec_ratio_mul == pytest.approx(100.0)
        assert s.vectorized_fraction == pytest.approx(1.0)

    def test_scalar_loop_zero_ratio(self, recurrence_kernel):
        s = _static(recurrence_kernel)
        assert s.vec_ratio_all == 0.0
        assert s.vectorized_fraction == 0.0

    def test_force_scalar_drops_ratio(self, saxpy_kernel):
        vec = analyze_static(compile_kernel(saxpy_kernel))
        scal = analyze_static(recompile_scalar(
            compile_kernel(saxpy_kernel)))
        assert vec.vec_ratio_all > 50.0
        assert scal.vec_ratio_all == 0.0

    def test_ratios_bounded(self):
        for maker in (P.saxpy, P.vector_divide, P.stencil5_2d,
                      P.fft_butterfly):
            s = _static(maker("k", 256))
            for name in ("vec_ratio_all", "vec_ratio_add",
                         "vec_ratio_mul", "vec_ratio_load",
                         "vec_ratio_store"):
                v = getattr(s, name)
                assert 0.0 <= v <= 100.0


class TestPerformanceBounds:
    def test_ipc_consistent(self, dot_kernel):
        s = _static(dot_kernel)
        assert s.est_ipc_l1 == pytest.approx(
            s.n_uops / s.est_cycles_l1, rel=1e-6)

    def test_dep_stall_for_recurrence(self, recurrence_kernel):
        s = _static(recurrence_kernel)
        assert s.dep_stall_cycles > 0
        assert s.has_recurrence == 1.0
        assert s.chain_latency > 0

    def test_no_dep_stall_for_stream(self):
        s = _static(P.vector_copy("c", 2048))
        assert s.dep_stall_cycles == 0.0
        assert s.has_recurrence == 0.0

    def test_reduction_flag(self, dot_kernel):
        assert _static(dot_kernel).has_reduction == 1.0

    def test_port_pressure_distribution(self):
        s = _static(P.saxpy("s", 2048))
        # Loads dominate P2; stores split P3/P4; FP on P0/P1.
        assert s.p2_pressure > 0
        assert s.p3_pressure == pytest.approx(s.p4_pressure)
        assert s.max_port_pressure >= max(s.p0_pressure, s.p1_pressure)

    def test_divider_inflates_p0(self):
        div = _static(P.vector_divide("d", 2048))
        mul = _static(P.vector_scale("m", 2048))
        assert div.p0_pressure > 5 * mul.p0_pressure

    def test_bytes_per_cycle_positive_for_streams(self):
        s = _static(P.vector_copy("c", 2048))
        assert s.bytes_loaded_per_cycle_l1 > 0
        assert s.bytes_stored_per_cycle_l1 > 0


class TestAccessPatternSummary:
    def test_stride_fractions_sum_to_one(self):
        kernels = [P.saxpy("a", 128), P.stencil5_2d("b", 128),
                   P.row_scale("c", 128, 1), P.strided_copy("d", 128, 8)]
        for k in kernels:
            s = analyze_static(compile_kernel(k))
            total = (s.frac_stride0 + s.frac_stride_unit
                     + s.frac_stride_small + s.frac_stride_lda)
            assert total == pytest.approx(1.0)

    def test_lda_fraction(self):
        s = _static(P.row_scale("r", 256, 2))
        assert s.frac_stride_lda > 0.5

    def test_footprint_logged(self):
        small = _static(P.vector_copy("s", 256))
        big = _static(P.vector_copy("b", 1 << 20))
        assert big.log_footprint_bytes > small.log_footprint_bytes

    def test_loop_shape_metrics(self, stencil_kernel):
        s = _static(stencil_kernel)
        assert s.loop_depth == pytest.approx(2.0)
        assert s.inner_trip == pytest.approx(46.0)
        assert s.n_arrays == 2.0


class TestReferenceDependence:
    def test_atom_port_model_differs(self, dot_kernel):
        ref = _static(dot_kernel, NEHALEM)
        atom = _static(dot_kernel, ATOM)
        # Atom's split vector uops and slower multiply change the
        # L1-bound estimate.
        assert atom.est_cycles_l1 > ref.est_cycles_l1
