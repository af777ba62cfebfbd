"""The lowering memo: content-keyed reuse, re-attachment, eviction.

``compile_kernel`` memoizes on ``(kernel_fingerprint, options)``, so
structurally identical kernels — the same loop nest rebuilt per dataset
variant or per K-sweep round — lower once per process while different
options or structure always miss (docs/PERFORMANCE.md).  The
fingerprint itself is rendered once per kernel object.
"""

import dataclasses
import pickle

import pytest

from repro.ir import DP, KernelBuilder
from repro.ir import fingerprint as fingerprint_module
from repro.isa import (CompilerOptions, clear_lowering_memo,
                       compile_kernel, lowering_memo_stats)
from repro.isa.compiler import _LOWERING_MEMO_LIMIT
from repro.suites import patterns as P


@pytest.fixture(autouse=True)
def fresh_memo():
    """Isolate each test from process-lifetime memo state."""
    clear_lowering_memo()
    yield
    clear_lowering_memo()


def _stream(name: str, n: int = 4096):
    b = KernelBuilder(name)
    x = b.array("x", (n,), DP)
    y = b.array("y", (n,), DP)
    a = b.scalar("a", DP, init=2.0)
    with b.loop(0, n) as i:
        b.assign(y[i], y[i] + a.value() * x[i])
    return b.build()


class TestMemoHits:
    def test_same_kernel_twice_hits(self):
        kernel = _stream("s")
        first = compile_kernel(kernel)
        second = compile_kernel(kernel)
        assert second is first
        stats = lowering_memo_stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)

    def test_structural_twin_hits_and_reattaches(self):
        # Same content under a different name/object: one lowering,
        # with the cached result re-attached to the caller's kernel.
        a = _stream("twin")
        b = _stream("twin")
        assert a is not b
        ca = compile_kernel(a)
        cb = compile_kernel(b)
        assert lowering_memo_stats()["misses"] == 1
        assert lowering_memo_stats()["hits"] == 1
        assert ca.kernel is a and cb.kernel is b
        assert ca.nests == cb.nests

    def test_different_structure_misses(self):
        compile_kernel(_stream("a", 4096))
        compile_kernel(_stream("b", 2048))      # different trip count
        compile_kernel(P.strided_copy("c", 4096, 8))
        assert lowering_memo_stats() == {"hits": 0, "misses": 3,
                                         "entries": 3}

    def test_different_options_miss(self):
        kernel = _stream("opts")
        plain = compile_kernel(kernel)
        scalar = compile_kernel(kernel,
                                CompilerOptions(force_scalar=True))
        assert lowering_memo_stats()["misses"] == 2
        assert plain.nests[0].vectorized
        assert not scalar.nests[0].vectorized

    def test_hit_result_equals_fresh_lowering(self):
        # The fingerprint is alpha-invariant, so the memoized nest may
        # carry the twin's gensym loop-variable names; everything the
        # machine model consumes must still be identical.
        a = _stream("eq")
        b = _stream("eq")
        compile_kernel(a)                       # prime the memo
        via_memo = compile_kernel(b)            # served from the memo
        assert lowering_memo_stats()["hits"] == 1
        clear_lowering_memo()
        fresh = compile_kernel(b)
        assert len(via_memo.nests) == len(fresh.nests)
        for nm, nf in zip(via_memo.nests, fresh.nests):
            assert (nm.vectorized, nm.vf) == (nf.vectorized, nf.vf)
            assert nm.body == nf.body
            assert nm.nest.avg_trips == nf.nest.avg_trips
            assert nm.deps == nf.deps


@pytest.fixture
def renders(monkeypatch):
    """Count full fingerprint renders (top-level statement walks)."""
    calls = []
    original = fingerprint_module._stmt

    def counted(stmt, names):
        if not calls or calls[-1] is not names:
            calls.append(names)
        return original(stmt, names)

    monkeypatch.setattr(fingerprint_module, "_stmt", counted)
    return calls


class TestFingerprintOncePerKernel:
    def test_second_options_render_nothing(self, renders):
        kernel = _stream("once")
        compile_kernel(kernel)
        assert len(renders) == 1
        compile_kernel(kernel, CompilerOptions(force_scalar=True))
        assert lowering_memo_stats()["misses"] == 2
        assert len(renders) == 1

    def test_replaced_kernel_gets_its_own_fingerprint(self):
        kernel = _stream("orig", 4096)
        shorter = _stream("orig", 2048)
        rendered = kernel.fingerprint
        rebuilt = dataclasses.replace(kernel, body=shorter.body)
        assert rebuilt.fingerprint != rendered
        assert rebuilt.fingerprint == fingerprint_module.render_fingerprint(
            rebuilt)
        assert kernel.fingerprint == rendered

    def test_read_fingerprint_survives_pickle(self, renders):
        kernel = _stream("pickled")
        rendered = kernel.fingerprint
        shipped = pickle.loads(pickle.dumps(kernel))
        assert len(renders) == 1
        assert shipped.fingerprint == rendered
        assert len(renders) == 1
        assert rendered == fingerprint_module.render_fingerprint(shipped)


class TestMemoLifecycle:
    def test_clear_resets_everything(self):
        compile_kernel(_stream("x"))
        clear_lowering_memo()
        assert lowering_memo_stats() == {"hits": 0, "misses": 0,
                                         "entries": 0}

    def test_lru_eviction_caps_entries(self):
        for i in range(_LOWERING_MEMO_LIMIT + 5):
            compile_kernel(_stream("lru", 64 + i))
        stats = lowering_memo_stats()
        assert stats["entries"] == _LOWERING_MEMO_LIMIT
        # The oldest entry was evicted: recompiling it misses again.
        before = lowering_memo_stats()["misses"]
        compile_kernel(_stream("lru", 64))
        assert lowering_memo_stats()["misses"] == before + 1


@pytest.mark.transform
class TestTransformedVariants:
    """Rewritten kernels are distinct memo citizens: every structurally
    different variant gets its own fingerprint-keyed entry."""

    def test_transformed_kernel_misses_then_hits(self):
        from repro.ir.rewrite import parse_pass_specs, transform_kernel
        kernel = _stream("t")
        unrolled, records = transform_kernel(
            kernel, parse_pass_specs(["unroll=2"]))
        assert any(r.applied for r in records)
        compile_kernel(kernel)
        compile_kernel(unrolled)
        assert lowering_memo_stats() == {"hits": 0, "misses": 2,
                                         "entries": 2}
        compile_kernel(unrolled)
        assert lowering_memo_stats()["hits"] == 1

    def test_memo_keys_distinguish_variants(self):
        from repro.ir.fingerprint import kernel_fingerprint
        from repro.ir.rewrite import parse_pass_specs, transform_kernel
        from repro.isa import lowering_memo_keys
        kernel = _stream("k")
        unrolled, _ = transform_kernel(kernel,
                                       parse_pass_specs(["unroll=2"]))
        compile_kernel(kernel)
        compile_kernel(unrolled)
        fps = [fp for fp, _opts in lowering_memo_keys()]
        assert len(fps) == len(set(fps)) == 2
        assert set(fps) == {kernel_fingerprint(kernel),
                            kernel_fingerprint(unrolled)}
