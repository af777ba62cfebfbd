"""Tests for the analytical cache model."""

from dataclasses import replace

import pytest

from repro.ir import DP, SP, KernelBuilder, analyze_nests
from repro.machine import (ATOM, CORE2, NEHALEM, SANDY_BRIDGE,
                           analyze_cache, collect_groups, lines_touched,
                           simulate_cache)
from repro.verify.strategies import stream_kernel


def _stream(n, dtype=DP, name="stream"):
    b = KernelBuilder(name)
    x = b.array("x", (n,), dtype)
    y = b.array("y", (n,), dtype)
    with b.loop(0, n) as i:
        b.assign(y[i], x[i] * 2.0)
    return b.build()


def _repeated_sweep(n, repeats):
    b = KernelBuilder("sweep")
    x = b.array("x", (n,), DP)
    s = b.scalar("s", DP)
    with b.loop(0, repeats) as t:
        with b.loop(0, n) as i:
            b.assign(s.value(), s.value() + x[i])
    return b.build()


class TestLinesTouched:
    def _access(self, kernel, array_name):
        nest, = analyze_nests(kernel)
        return nest, next(a for a in nest.accesses
                          if a.array.name == array_name)

    def test_unit_stride_counts_lines(self):
        nest, acc = self._access(_stream(1024), "x")
        lines = lines_touched(acc, nest.trips_for(1))
        assert lines == pytest.approx(1024 * 8 / 64)

    def test_scalar_access_one_line(self, dot_kernel):
        nest, = analyze_nests(dot_kernel)
        s_acc = next(a for a in nest.accesses if a.array.name == "s")
        assert lines_touched(s_acc, nest.trips_for(1)) == 1.0

    def test_large_stride_one_line_per_access(self):
        b = KernelBuilder("lda")
        m = b.array("m", (256, 256), DP)
        s = b.scalar("s", DP)
        with b.loop(0, 256) as i:
            b.assign(s.value(), s.value() + m[i, 0])
        nest, = analyze_nests(b.build())
        m_acc = next(a for a in nest.accesses if a.array.name == "m")
        assert lines_touched(m_acc, nest.trips_for(1)) == \
            pytest.approx(256.0)

    def test_diagonal_clamped_to_positions(self):
        b = KernelBuilder("diag")
        m = b.array("m", (512, 512), SP)
        with b.loop(0, 512) as i:
            b.assign(m[i, i], m[i, i] + 1.0)
        nest, = analyze_nests(b.build())
        acc = nest.accesses[0]
        assert lines_touched(acc, nest.trips_for(1)) <= 512.0

    def test_2d_row_major_full_matrix(self):
        b = KernelBuilder("full2d")
        m = b.array("m", (64, 64), DP)
        with b.loop(0, 64) as i:
            with b.loop(0, 64) as j:
                b.assign(m[i, j], 0.0)
        nest, = analyze_nests(b.build())
        acc = nest.accesses[0]
        assert lines_touched(acc, nest.trips_for(2)) == \
            pytest.approx(64 * 64 * 8 / 64)


class TestGrouping:
    def test_stencil_offsets_share_group(self, stencil_kernel):
        nest, = analyze_nests(stencil_kernel)
        groups = collect_groups(nest)
        u_groups = [g for g in groups if g.rep.array.name == "u"]
        assert len(u_groups) == 1          # i-1/i/i+1, j-1/j/j+1 merge

    def test_distinct_planes_stay_separate(self):
        from repro.suites.patterns import plane_stencil_3d
        k = plane_stencil_3d("ps", 32, 5)
        nest, = analyze_nests(k)
        groups = collect_groups(nest)
        u_groups = [g for g in groups if g.rep.array.name == "u"]
        assert len(u_groups) == 5          # one stream per plane

    def test_cse_removes_duplicate_loads(self, dot_kernel):
        nest, = analyze_nests(dot_kernel)
        groups = collect_groups(nest)
        s_group = next(g for g in groups if g.rep.array.name == "s")
        # one load (after CSE) + one store, both register-hoisted out of
        # the inner loop: touched once per loop execution each.
        assert s_group.count == pytest.approx(2.0)

    def test_hoisted_count(self, saxpy_kernel):
        nest, = analyze_nests(saxpy_kernel)
        groups = collect_groups(nest)
        a_group = next(g for g in groups if g.rep.array.name == "a")
        assert a_group.count == pytest.approx(1.0)


class TestAnalyzeCache:
    def test_l1_resident_no_misses(self):
        profile = analyze_cache(_stream(256), NEHALEM)   # 4 KB
        assert profile.levels[0].misses == 0.0
        assert profile.mem_accesses == 0.0

    def test_dram_stream_traffic(self):
        n = 4_000_000                                     # 64 MB
        profile = analyze_cache(_stream(n), NEHALEM)
        expected_lines = 2 * n * 8 / 64
        assert profile.mem_accesses == pytest.approx(expected_lines,
                                                     rel=0.05)
        # The store stream writes back dirty lines.
        assert profile.writeback_bytes > 0

    def test_miss_monotonicity_across_levels(self):
        for n in (1024, 100_000, 4_000_000):
            profile = analyze_cache(_stream(n), NEHALEM)
            misses = [lv.misses for lv in profile.levels]
            assert all(m0 >= m1 for m0, m1 in zip(misses, misses[1:]))
            assert profile.mem_accesses <= misses[-1] + 1e-9

    def test_l3_resident_on_reference_only(self):
        n = 400_000                                       # 6.4 MB
        ref = analyze_cache(_stream(n), NEHALEM)
        c2 = analyze_cache(_stream(n), CORE2)
        assert ref.mem_accesses == 0.0                    # fits 12MB L3
        assert c2.mem_accesses > 0.0                      # exceeds 3MB L2

    def test_repeated_sweep_refetches(self):
        # 2 MB vector swept 10 times: does not fit Atom's L2, so every
        # sweep refetches from DRAM.
        profile = analyze_cache(_repeated_sweep(262_144, 10), ATOM)
        lines_per_sweep = 262_144 * 8 / 64
        assert profile.mem_accesses == pytest.approx(
            10 * lines_per_sweep, rel=0.05)

    def test_repeated_sweep_cached_when_fits(self):
        # 64 KB vector swept 10 times fits every L2.
        profile = analyze_cache(_repeated_sweep(8192, 10), NEHALEM)
        assert profile.level("L2").misses == 0.0

    def test_pressure_reduces_effective_llc(self):
        from repro.suites.nas.cg import banded_matvec
        from repro.ir.kernel import SourceLoc
        k = banded_matvec("bm", 20_000, 1_500, 2,
                          SourceLoc("cg.f", 1, 9))
        clean = analyze_cache(k, ATOM, pressure_bytes=0.0)
        squeezed = analyze_cache(k, ATOM, pressure_bytes=1.0e6)
        assert squeezed.mem_accesses > clean.mem_accesses

    def test_pressure_harmless_with_big_llc(self):
        from repro.suites.nas.cg import banded_matvec
        from repro.ir.kernel import SourceLoc
        k = banded_matvec("bm2", 20_000, 1_500, 2,
                          SourceLoc("cg.f", 1, 9))
        clean = analyze_cache(k, NEHALEM, pressure_bytes=0.0)
        squeezed = analyze_cache(k, NEHALEM, pressure_bytes=1.0e6)
        assert squeezed.mem_accesses == pytest.approx(
            clean.mem_accesses)

    def test_cold_start_misses(self):
        n = 8192                                          # 128 KB, fits L2+
        warm = analyze_cache(_stream(n), NEHALEM, warm=True)
        cold = analyze_cache(_stream(n), NEHALEM, warm=False)
        assert warm.level("L2").misses == 0.0
        assert cold.level("L2").misses > 0.0

    def test_accepts_kernel_or_nests(self, saxpy_kernel):
        via_kernel = analyze_cache(saxpy_kernel, NEHALEM)
        via_nests = analyze_cache(analyze_nests(saxpy_kernel), NEHALEM)
        assert via_kernel.accesses == via_nests.accesses

    def test_each_level_uses_its_own_line_size(self):
        # Each level counts misses and bytes in its own lines: on a cold
        # stream a 32/64/128-byte hierarchy fetches half as many lines
        # at each deeper level, as the simulator does.
        arch = replace(NEHALEM, name="mixed-lines", caches=(
            replace(NEHALEM.caches[0], line_bytes=32),
            replace(NEHALEM.caches[1], line_bytes=64),
            replace(NEHALEM.caches[2], line_bytes=128),
        ))
        kernel = stream_kernel("mixed", 8192)
        model = analyze_cache(kernel, arch, warm=False)
        for stats, spec in zip(model.levels, arch.caches):
            assert stats.bytes_in == stats.misses * spec.line_bytes
        assert model.mem_bytes == \
            model.mem_accesses * arch.caches[-1].line_bytes
        trace = simulate_cache(kernel, arch, warmup_invocations=0)
        for got, want in zip(model.levels, trace.levels):
            assert got.misses == pytest.approx(want.misses, rel=0.01)
