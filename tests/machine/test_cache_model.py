"""Tests for the analytical cache model."""

import pytest

from repro.codelets import find_suite_codelets
from repro.ir import DP, SP, KernelBuilder, analyze_nests
from repro.isa import compile_kernel
from repro.machine import (ATOM, CORE2, HASWELL, NEHALEM, SANDY_BRIDGE,
                           analyze_cache, collect_groups, lines_touched,
                           simulate_cache)
from repro.machine import cache_model
from repro.machine.platform import default_options
from repro.verify.invariants import MIXED_LINES
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
    with b.loop(0, repeats):
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
        arch = MIXED_LINES
        assert [c.line_bytes for c in arch.caches] == [32, 64, 128]
        kernel = stream_kernel("mixed", 8192)
        model = analyze_cache(kernel, arch, warm=False)
        for stats, spec in zip(model.levels, arch.caches):
            assert stats.bytes_in == stats.misses * spec.line_bytes
        assert model.mem_bytes == \
            model.mem_accesses * arch.caches[-1].line_bytes
        trace = simulate_cache(kernel, arch, warmup_invocations=0)
        for got, want in zip(model.levels, trace.levels):
            assert got.misses == pytest.approx(want.misses, rel=0.01)


class TestFootprintTable:
    """Each nest's capacity-free footprint is computed once per line
    size and read by every later model run on that nest."""

    def _count(self, monkeypatch, name):
        calls = []
        original = getattr(cache_model, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(cache_model, name, counted)
        return calls

    def test_second_architecture_with_same_lines_reads_the_table(
            self, monkeypatch, stencil_kernel):
        nests = [n.nest for n in compile_kernel(stencil_kernel).nests]
        touched = self._count(monkeypatch, "lines_touched")
        grouped = self._count(monkeypatch, "collect_groups")
        analyze_cache(nests, NEHALEM)
        assert touched and grouped
        touched.clear()
        grouped.clear()
        analyze_cache(nests, SANDY_BRIDGE, pressure_bytes=1.0e6,
                      warm=False)
        assert touched == [] and grouped == []

    def test_table_is_not_part_of_the_nest_value(self, stencil_kernel):
        nest, = analyze_nests(stencil_kernel)
        twin, = analyze_nests(stencil_kernel)
        before = (hash(nest), repr(nest))
        analyze_cache([nest], MIXED_LINES)
        assert sorted(nest.footprints) == [32, 64, 128]
        assert (hash(nest), repr(nest)) == before
        assert nest == twin and not twin.footprints

    def test_table_warm_runs_equal_fresh_runs_on_every_codelet(
            self, nas_suite, nr_suite):
        archs = (NEHALEM, ATOM, CORE2, SANDY_BRIDGE, HASWELL, MIXED_LINES)
        queries = []
        for suite in (nas_suite, nr_suite):
            for codelet in find_suite_codelets(suite):
                for kernel in codelet.variants:
                    for arch in archs:
                        compiled = compile_kernel(kernel,
                                                  default_options(arch))
                        nests = [n.nest for n in compiled.nests]
                        queries += [
                            (kernel, nests, arch, pressure, warm)
                            for pressure in (0.0, codelet.pressure_bytes)
                            for warm in (True, False)]
        for _kernel, nests, arch, pressure, warm in queries:
            analyze_cache(nests, arch, pressure, warm)
        for kernel, nests, arch, pressure, warm in queries:
            table_warm = analyze_cache(nests, arch, pressure, warm)
            fresh = analyze_cache(analyze_nests(kernel), arch, pressure,
                                  warm)
            # A float's repr round-trips, so equal reprs are equal bits.
            assert repr(table_warm) == repr(fresh), (
                kernel.name, arch.name, pressure, warm)
