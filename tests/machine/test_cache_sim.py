"""Tests for the trace-driven cache simulator, and cross-validation of
the analytical model against it (the ablation DESIGN.md calls out)."""

from dataclasses import replace

import pytest

from repro.ir import DP, SP, KernelBuilder
from repro.isa import compile_kernel
from repro.machine import (ATOM, NEHALEM, HierarchySim,
                           SetAssociativeCache, analyze_cache,
                           default_options, estimate_execution,
                           generate_trace, run_kernel_model,
                           simulate_cache)
from repro.suites import patterns as P
from repro.verify.strategies import (recurrence_kernel, reduction_kernel,
                                     stencil_kernel, stream_kernel)


def _stream(n, name="s"):
    b = KernelBuilder(name)
    x = b.array("x", (n,), DP)
    y = b.array("y", (n,), DP)
    with b.loop(0, n) as i:
        b.assign(y[i], x[i] * 2.0)
    return b.build()


def _multi_statement(n):
    """Two sibling loop nests plus a triangular nest."""
    b = KernelBuilder("multi")
    x = b.array("x", (n,), DP)
    y = b.array("y", (n,), DP)
    z = b.array("z", (n, 8), SP)
    with b.loop(0, n) as i:
        b.assign(y[i], x[i] * 2.0)
    with b.loop(0, n) as i:
        b.assign(x[i], y[i] + 1.0)
    with b.loop(0, 8) as i:
        with b.loop(0, i + 1) as j:
            b.assign(z[i, j], x[j] * 0.5)
    return b.build()


class TestSetAssociativeCache:
    def test_cold_miss_then_hit(self):
        c = SetAssociativeCache(1024, 64, 2)
        assert not c.access(5)
        assert c.access(5)
        assert c.hits == 1 and c.misses == 1

    def test_lru_eviction(self):
        c = SetAssociativeCache(2 * 64, 64, 2)      # one set, 2 ways
        c.access(0)
        c.access(1)
        c.access(2)              # evicts 0 (LRU)
        assert not c.access(0)   # miss again
        assert c.access(2)       # still resident

    def test_lru_promotion(self):
        c = SetAssociativeCache(2 * 64, 64, 2)
        c.access(0)
        c.access(1)
        c.access(0)              # promote 0 to MRU
        c.access(2)              # evicts 1, not 0
        assert c.access(0)

    def test_set_indexing_isolates_sets(self):
        c = SetAssociativeCache(4 * 64, 64, 1)      # 4 direct-mapped sets
        c.access(0)
        c.access(1)
        c.access(2)
        c.access(3)
        assert c.access(0) and c.access(1)


class TestTraceGeneration:
    def test_trace_length(self):
        n = 64
        trace = list(generate_trace(_stream(n)))
        assert len(trace) == 2 * n          # one load + one store per i

    def test_store_flags(self):
        trace = list(generate_trace(_stream(16)))
        stores = [t for t in trace if t[2]]
        assert len(stores) == 16

    def test_access_sizes_are_element_sizes(self):
        sizes = {size for _, size, _ in generate_trace(_stream(16))}
        assert sizes == {DP.size}

    def test_addresses_strided(self):
        trace = list(generate_trace(_stream(8)))
        loads = [addr for addr, _, is_store in trace if not is_store]
        deltas = {b - a for a, b in zip(loads, loads[1:])}
        assert deltas == {8}

    def test_max_accesses_cap(self):
        trace = list(generate_trace(_stream(1000), max_accesses=100))
        assert len(trace) == 100

    @pytest.mark.parametrize("kernel", [
        stream_kernel("p_stream", 300),
        reduction_kernel("p_dot", 257),
        recurrence_kernel("p_rec", 129),
        stencil_kernel("p_stencil", 200),
        _multi_statement(64),
    ], ids=lambda k: k.name)
    def test_truncation_is_strict_prefix(self, kernel):
        full = list(generate_trace(kernel))
        for cut in (1, 2, 3, 257, len(full) - 1, len(full), len(full) + 5):
            assert list(generate_trace(kernel, max_accesses=cut)) \
                == full[:cut]

    def test_multi_nest_trace(self):
        # Sibling nests run one after the other, then the triangular
        # nest: 2 * 256 + 2 * 256 + 2 * (1 + 2 + ... + 8) accesses.
        trace = list(generate_trace(_multi_statement(256)))
        assert len(trace) == 1096
        assert sum(1 for _, _, is_store in trace if is_store) == 548

    def test_duplicate_loads_dropped(self, dot_kernel):
        # s (CSE'd self-read), x, y per iteration -> 3 loads + 1 store.
        trace = list(generate_trace(dot_kernel))
        assert len(trace) == 4 * 512

    def test_dedup_is_structural_not_identity(self):
        # x[i] + x[i] builds two distinct Load objects; the dedup key is
        # the load's structure, so they must still collapse to one
        # trace entry (plus the store).
        n = 16
        b = KernelBuilder("dup")
        x = b.array("x", (n,), DP)
        y = b.array("y", (n,), DP)
        with b.loop(0, n) as i:
            b.assign(y[i], x[i] + x[i])
        trace = list(generate_trace(b.build()))
        assert len(trace) == 2 * n


class TestHierarchySim:
    def test_l1_resident_stream_hits_after_warmup(self):
        profile = simulate_cache(_stream(128), NEHALEM,
                                 warmup_invocations=1)
        assert profile.levels[0].misses == 0.0

    def test_oversized_stream_misses(self):
        n = 16384                                  # 256 KB arrays
        profile = simulate_cache(_stream(n), ATOM)
        # x+y = 256 KB: bigger than Atom L1 (24 KB), fits L2 (512 KB).
        assert profile.levels[0].misses > 0
        assert profile.mem_accesses == 0

    def test_profile_accounting(self):
        profile = simulate_cache(_stream(256), NEHALEM)
        l1 = profile.levels[0]
        assert l1.hits + l1.misses == profile.accesses


def _custom_arch(*levels):
    """A NEHALEM clone whose cache levels are replaced outright."""
    caches = tuple(replace(NEHALEM.caches[min(i, 2)], name=f"L{i + 1}",
                           size_bytes=size, line_bytes=line, assoc=assoc)
                   for i, (size, line, assoc) in enumerate(levels))
    return replace(NEHALEM, name="custom", caches=caches)


class TestPerLevelLineSizes:
    """Regression: every level must index and account with its *own*
    line size (the old simulator used L1's everywhere)."""

    def test_straddling_access_probes_both_lines(self):
        # An 8-byte element at offset line-4 touches two 4-byte lines.
        arch = _custom_arch((1024, 4, 2), (8192, 8, 4))
        sim = HierarchySim(arch)
        sim.access(4096 + 4 - 4 + 0, 8, False)
        assert sim.accesses == 2

    def test_aligned_access_is_one_unit(self):
        arch = _custom_arch((1024, 64, 2), (8192, 64, 4))
        sim = HierarchySim(arch)
        sim.access(4096, 8, False)
        assert sim.accesses == 1

    def test_l2_indexes_with_its_own_line_size(self):
        # L1: 64B lines; L2: 128B lines.  Two addresses 64 bytes apart
        # are distinct L1 lines but *one* L2 line: the second access
        # must miss L1 (cold) yet hit L2 only if L2 uses its own lines.
        arch = _custom_arch((128, 64, 1), (4096, 128, 2))
        sim = HierarchySim(arch)
        sim.access(4096, 8, False)       # cold: misses L1 + L2
        sim.access(4096 + 64, 8, False)  # L1 conflict-free set? new line
        l2 = sim.levels[1]
        assert l2.misses == 1 and l2.hits == 1

    def test_bytes_accounted_in_each_levels_lines(self):
        arch = _custom_arch((1024, 32, 2), (8192, 128, 4))
        profile = simulate_cache(_stream(4096), arch,
                                 warmup_invocations=0)
        for stats, spec in zip(profile.levels, arch.caches):
            assert stats.bytes_in == stats.misses * spec.line_bytes
        assert profile.mem_bytes == \
            profile.mem_accesses * arch.caches[-1].line_bytes

    def test_straddle_counted_once_per_touched_line(self):
        arch = _custom_arch((1024, 4, 2), (8192, 8, 4))
        profile = simulate_cache(_stream(64), arch)
        # 8-byte elements over 4-byte units: every access splits in two.
        assert profile.accesses == 2 * 2 * 64


class TestAnalyticalVsTrace:
    """The cross-validation: closed-form model vs exact simulation."""

    CASES = []

    @staticmethod
    def _cases():
        kernels = [_stream(128, "tiny"), _stream(4096, "l2res")]
        b = KernelBuilder("dotv")
        x = b.array("x", (8192,), DP)
        y = b.array("y", (8192,), DP)
        s = b.scalar("s", DP)
        with b.loop(0, 8192) as i:
            b.assign(s.value(), s.value() + x[i] * y[i])
        kernels.append(b.build())
        b = KernelBuilder("stencil")
        u = b.array("u", (64, 64), DP)
        v = b.array("v", (64, 64), DP)
        with b.loop(1, 63) as i:
            with b.loop(1, 63) as j:
                b.assign(v[i, j], u[i - 1, j] + u[i + 1, j]
                         + u[i, j - 1] + u[i, j + 1])
        kernels.append(b.build())
        b = KernelBuilder("strided")
        src = b.array("src", (8 * 4096 + 8,), DP)
        dst = b.array("dst", (4096,), DP)
        with b.loop(0, 4096) as i:
            b.assign(dst[i], src[8 * i])
        kernels.append(b.build())
        return kernels

    @pytest.mark.parametrize("kernel", _cases.__func__(),
                             ids=lambda k: k.name)
    @pytest.mark.parametrize("arch", [NEHALEM, ATOM],
                             ids=lambda a: a.name)
    def test_l1_miss_ratio_close(self, kernel, arch):
        analytical = analyze_cache(kernel, arch)
        trace = simulate_cache(kernel, arch, warmup_invocations=1)
        a = analytical.levels[0].miss_ratio
        t = trace.levels[0].miss_ratio
        # The analytical model should land within a few percentage
        # points of the exact simulation.
        assert a == pytest.approx(t, abs=0.08)

    @pytest.mark.parametrize("kernel", _cases.__func__(),
                             ids=lambda k: k.name)
    def test_dram_traffic_close(self, kernel):
        analytical = analyze_cache(kernel, ATOM)
        trace = simulate_cache(kernel, ATOM, warmup_invocations=1)
        # Both should agree on whether the kernel reaches DRAM at all.
        assert (analytical.mem_accesses > 0) == \
            (trace.mem_accesses > 50)

    def test_backends_agree_on_time_within_factor(self):
        # The execution model must tolerate the cache-model substitution:
        # fed the exact simulated profile instead of the analytical one,
        # it lands within a factor of the pipeline's time.
        k = P.saxpy("s", 16384)
        compiled = compile_kernel(k, default_options(ATOM))
        t_trace = estimate_execution(compiled, ATOM,
                                     simulate_cache(k, ATOM)).seconds
        t_model = run_kernel_model(k, ATOM).seconds_per_invocation
        assert t_model == pytest.approx(t_trace, rel=0.5)
