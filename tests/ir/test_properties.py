"""Property-based tests of IR invariants (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import DP, AffineIndex, KernelBuilder, as_affine
from repro.ir.interp import run_kernel

_VARS = ("i", "j", "k")


@st.composite
def affine_indices(draw):
    coefs = []
    for name in draw(st.sets(st.sampled_from(_VARS), max_size=3)):
        coefs.append((name, draw(st.integers(-5, 5))))
    coefs = tuple(sorted((n, c) for n, c in coefs if c != 0))
    return AffineIndex(coefs, draw(st.integers(-100, 100)))


@st.composite
def environments(draw):
    return {v: draw(st.integers(-50, 50)) for v in _VARS}


class TestAffineAlgebra:
    @given(affine_indices(), affine_indices(), environments())
    def test_addition_homomorphism(self, a, b, env):
        assert (a + b).evaluate(env) == a.evaluate(env) + b.evaluate(env)

    @given(affine_indices(), affine_indices(), environments())
    def test_subtraction_homomorphism(self, a, b, env):
        assert (a - b).evaluate(env) == a.evaluate(env) - b.evaluate(env)

    @given(affine_indices(), st.integers(-7, 7), environments())
    def test_scaling_homomorphism(self, a, c, env):
        assert (a * c).evaluate(env) == c * a.evaluate(env)

    @given(affine_indices(), affine_indices())
    def test_addition_commutative(self, a, b):
        assert a + b == b + a

    @given(affine_indices())
    def test_self_cancellation(self, a):
        zero = a - a
        assert zero.is_constant() and zero.offset == 0

    @given(st.integers(-100, 100))
    def test_int_coercion_roundtrip(self, n):
        idx = as_affine(n)
        assert idx.evaluate({}) == n

    @given(affine_indices(), environments())
    def test_negation(self, a, env):
        assert (-a).evaluate(env) == -a.evaluate(env)


class TestInterpreterProperties:
    @given(st.integers(4, 64), st.floats(-4.0, 4.0,
                                         allow_nan=False),
           st.integers(0, 2 ** 16))
    @settings(max_examples=25, deadline=None)
    def test_scale_kernel_matches_numpy(self, n, alpha, seed):
        b = KernelBuilder("prop_scale")
        x = b.array("x", (n,), DP)
        y = b.array("y", (n,), DP)
        a = b.scalar("a", DP, init=alpha)
        with b.loop(0, n) as i:
            b.assign(y[i], a.value() * x[i])
        st_ = run_kernel(b.build(), init_values={"a": alpha}, seed=seed)
        np.testing.assert_allclose(st_["y"], alpha * st_["x"],
                                   rtol=1e-12, atol=1e-12)

    @given(st.integers(4, 48), st.integers(0, 2 ** 16))
    @settings(max_examples=25, deadline=None)
    def test_copy_is_identity(self, n, seed):
        b = KernelBuilder("prop_copy")
        x = b.array("x", (n,), DP)
        y = b.array("y", (n,), DP)
        with b.loop(0, n) as i:
            b.assign(y[i], x[i])
        st_ = run_kernel(b.build(), seed=seed)
        np.testing.assert_array_equal(st_["y"], st_["x"])

    @given(st.integers(4, 32), st.integers(0, 2 ** 16))
    @settings(max_examples=20, deadline=None)
    def test_reduction_order_independent_of_direction(self, n, seed):
        """Summing ascending vs descending agrees (associativity holds
        exactly only approximately in floats, hence the tolerance)."""
        results = []
        for descending in (False, True):
            b = KernelBuilder("prop_sum")
            x = b.array("x", (n,), DP)
            s = b.scalar("s", DP, init=0.0)
            with b.loop(0, n) as i:
                idx = (n - 1) - i if descending else i + 0
                b.assign(s.value(), s.value() + x[idx])
            st_ = run_kernel(b.build(), init_values={"s": 0.0},
                             seed=seed)
            results.append(float(st_["s"]))
        assert abs(results[0] - results[1]) < 1e-9 * max(
            1.0, abs(results[0]))
