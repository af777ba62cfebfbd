"""Tests for innermost-loop dependence analysis."""

import pytest

from repro.ir import DP, KernelBuilder, fabs, fmax
from repro.ir.dependence import AnalysisContext
from repro.isa import OpClass, analyze_dependences, compile_kernel
from repro.machine import REFERENCE
from repro.machine.platform import default_options


def _inner(kernel):
    """The dependence context of ``kernel`` and its first innermost
    loop: the arguments of :func:`analyze_dependences`."""
    loop = kernel.outer_loops[0]
    while not loop.is_innermost():
        loop = loop.inner_loops()[0]
    return AnalysisContext(kernel), loop


class TestReductions:
    def test_sum_reduction_detected(self, dot_kernel):
        deps = analyze_dependences(*_inner(dot_kernel))
        assert deps.has_reduction
        assert deps.vectorizable
        assert deps.reductions[0].array_name == "s"
        assert deps.reductions[0].chain_ops[0][0] is OpClass.FP_ADD

    def test_max_reduction_detected(self):
        b = KernelBuilder("maxred")
        x = b.array("x", (64,), DP)
        m = b.scalar("m", DP)
        with b.loop(0, 64) as i:
            b.assign(m.value(), fmax(m.value(), fabs(x[i])))
        deps = analyze_dependences(*_inner(b.build()))
        assert deps.has_reduction
        assert deps.vectorizable

    def test_division_update_is_not_reduction(self):
        b = KernelBuilder("divacc")
        x = b.array("x", (64,), DP)
        s = b.scalar("s", DP)
        with b.loop(0, 64) as i:
            b.assign(s.value(), s.value() / x[i])
        deps = analyze_dependences(*_inner(b.build()))
        assert not deps.has_reduction
        assert not deps.vectorizable

    def test_two_simultaneous_reductions(self):
        b = KernelBuilder("two")
        x = b.array("x", (64,), DP)
        s0 = b.scalar("s0", DP)
        s1 = b.scalar("s1", DP)
        with b.loop(0, 64) as i:
            b.assign(s0.value(), s0.value() + x[i])
            b.assign(s1.value(), s1.value() + x[i] * x[i])
        deps = analyze_dependences(*_inner(b.build()))
        assert len(deps.reductions) == 2
        assert deps.vectorizable


class TestRecurrences:
    def test_first_order_recurrence(self, recurrence_kernel):
        deps = analyze_dependences(*_inner(recurrence_kernel))
        assert not deps.vectorizable
        rec, = deps.recurrences
        assert rec.array_name == "u"
        assert rec.distance == 1

    def test_distance_two(self):
        b = KernelBuilder("dist2")
        x = b.array("x", (64,), DP)
        with b.loop(2, 64) as i:
            b.assign(x[i], x[i - 2] * 0.5)
        deps = analyze_dependences(*_inner(b.build()))
        rec, = deps.recurrences
        assert rec.distance == 2

    def test_forward_offset_is_not_carried(self):
        # x[i] = x[i+1] reads values not yet written: no flow recurrence.
        b = KernelBuilder("fwd")
        x = b.array("x", (64,), DP)
        with b.loop(0, 63) as i:
            b.assign(x[i], x[i + 1])
        deps = analyze_dependences(*_inner(b.build()))
        assert deps.vectorizable

    def test_independent_arrays(self, saxpy_kernel):
        deps = analyze_dependences(*_inner(saxpy_kernel))
        assert deps.vectorizable
        assert not deps.recurrences

    def test_outer_carried_dep_does_not_block_inner(self, stencil_kernel):
        # The 5-point stencil writes v and reads u: no inner-loop dep.
        deps = analyze_dependences(*_inner(stencil_kernel))
        assert deps.vectorizable

    def test_wavefront_is_carried_by_the_outer_loop(self):
        # u[i][j] reads u[i-1][j-1]: distance (1, 1) is carried by i, so
        # within one i iteration the j loop is free to vectorize.
        b = KernelBuilder("wavefront")
        u = b.array("u", (16, 16), DP)
        with b.loop(1, 16) as i:
            with b.loop(1, 16) as j:
                b.assign(u[i, j], u[i - 1, j - 1] * 0.5)
        deps = analyze_dependences(*_inner(b.build()))
        assert deps.vectorizable
        assert not deps.recurrences

    def test_chain_ops_reported(self):
        b = KernelBuilder("chain")
        x = b.array("x", (64,), DP)
        r = b.array("r", (64,), DP)
        d = b.array("d", (64,), DP)
        with b.loop(1, 64) as i:
            b.assign(x[i], (r[i] - x[i - 1]) / d[i])
        deps = analyze_dependences(*_inner(b.build()))
        classes = {oc for oc, _ in deps.chain_ops()}
        assert OpClass.FP_DIV in classes

    def test_deduplication(self):
        b = KernelBuilder("dup")
        x = b.array("x", (64,), DP)
        with b.loop(1, 64) as i:
            b.assign(x[i], x[i - 1] + x[i - 1] * 2.0)
        deps = analyze_dependences(*_inner(b.build()))
        assert len(deps.recurrences) == 1


def _strided_self_read():
    """``a[2i] = a[i] + x[i]*y[i] + z[i]``: iteration ``2i`` reads what
    iteration ``i`` wrote, at a distance that grows with ``i``."""
    b = KernelBuilder("strided_self_read")
    a = b.array("a", (512,), DP)
    x = b.array("x", (256,), DP)
    y = b.array("y", (256,), DP)
    z = b.array("z", (256,), DP)
    with b.loop(1, 256) as i:
        b.assign(a[2 * i], a[i] + x[i] * y[i] + z[i])
    return b.build()


class TestUnresolvedAndFullTrip:
    """Verdicts the shared exact solver settles: a pair it cannot
    resolve is a recurrence, a distance of a full trip or more is
    independence."""

    def test_non_uniform_self_read_is_a_recurrence(self):
        deps = analyze_dependences(*_inner(_strided_self_read()))
        assert not deps.vectorizable
        rec, = deps.recurrences
        assert rec.array_name == "a"
        assert rec.distance == 1

    def test_non_uniform_self_read_stays_scalar(self):
        compiled = compile_kernel(_strided_self_read(),
                                  default_options(REFERENCE))
        nest, = compiled.nests
        assert not nest.vectorized
        assert nest.vf == 1

    def test_treating_unresolved_as_independent_vectorizes_it(self):
        # The planted ``vectorize-unresolved`` defect of repro verify.
        compiled = compile_kernel(_strided_self_read(),
                                  default_options(REFERENCE),
                                  unresolved_independent=True)
        nest, = compiled.nests
        assert nest.vectorized
        assert nest.vf == 2

    def test_reversed_self_read_is_a_recurrence(self):
        b = KernelBuilder("reversed")
        a = b.array("a", (301,), DP)
        with b.loop(0, 256) as i:
            b.assign(a[i], a[300 - i] * 0.5)
        deps = analyze_dependences(*_inner(b.build()))
        assert not deps.vectorizable
        rec, = deps.recurrences
        assert rec.array_name == "a"

    def test_value_carried_in_an_invariant_location_is_a_recurrence(self):
        # y[i] reads the s that iteration i-1 stored: the solver leaves
        # the distance free on i, which counts as distance 1.
        b = KernelBuilder("carry")
        x = b.array("x", (64,), DP)
        y = b.array("y", (64,), DP)
        s = b.scalar("s", DP)
        with b.loop(0, 64) as i:
            b.assign(y[i], s.value() * 2.0)
            b.assign(s.value(), x[i])
        deps = analyze_dependences(*_inner(b.build()))
        assert not deps.vectorizable
        rec, = deps.recurrences
        assert (rec.array_name, rec.distance) == ("s", 1)

    def test_running_prefix_of_a_reduction_is_a_recurrence(self):
        # y[i] needs s after iteration i, so the reduction cannot be
        # split into partial sums even though s = s + x[i] alone could.
        b = KernelBuilder("prefix")
        x = b.array("x", (64,), DP)
        y = b.array("y", (64,), DP)
        s = b.scalar("s", DP)
        with b.loop(0, 64) as i:
            b.assign(s.value(), s.value() + x[i])
            b.assign(y[i], s.value())
        kernel = b.build()
        deps = analyze_dependences(*_inner(kernel))
        assert deps.has_reduction
        assert not deps.vectorizable
        rec, = deps.recurrences
        assert (rec.array_name, rec.distance) == ("s", 1)
        nest, = compile_kernel(kernel, default_options(REFERENCE)).nests
        assert not nest.vectorized
        assert nest.vf == 1

    @pytest.mark.parametrize("offset, distances", [
        (70, ()), (64, ()), (63, (63,))])
    def test_a_full_trip_bounds_the_distance(self, offset, distances):
        # 64 iterations: a distance of 64 or more is never realised.
        b = KernelBuilder("far")
        x = b.array("x", (134,), DP)
        with b.loop(70, 134) as i:
            b.assign(x[i], x[i - offset])
        deps = analyze_dependences(*_inner(b.build()))
        assert tuple(r.distance for r in deps.recurrences) == distances
        assert deps.vectorizable == (not distances)
