"""Parametric kernel patterns.

The Numerical Recipes and NAS-like suites are authored from this library
of classic loop-nest shapes: reductions, element-wise maps, recurrences,
stencils, matrix row/column operations, FFT butterflies...  Each builder
returns a fresh :class:`~repro.ir.kernel.Kernel`; names and sizes come
from the suite definitions.

The patterns deliberately span the axes the paper's clustering separates:
precision (SP/DP/mixed), vectorizability (streams vs recurrences vs
strided), stride classes (0 / ±1 / small / LDA / stencil) and operation
mix (add/mul balance, divisions, transcendentals).
"""

from __future__ import annotations

from typing import Optional

from ..ir.builder import KernelBuilder
from ..ir.expr import exp as ir_exp
from ..ir.expr import fabs, sqrt
from ..ir.kernel import Kernel, SourceLoc
from ..ir.types import DP, DType, INT32, SP


def _builder(name: str, srcloc: Optional[SourceLoc]) -> KernelBuilder:
    return KernelBuilder(name, srcloc)


# ---------------------------------------------------------------------------
# Streaming element-wise kernels
# ---------------------------------------------------------------------------


def vector_copy(name: str, n: int, dtype: DType = DP,
                srcloc: Optional[SourceLoc] = None) -> Kernel:
    """``y[i] = x[i]`` — pure bandwidth."""
    b = _builder(name, srcloc)
    x = b.array("x", (n,), dtype)
    y = b.array("y", (n,), dtype)
    with b.loop(0, n) as i:
        b.assign(y[i], x[i])
    return b.build()


def vector_scale(name: str, n: int, dtype: DType = DP,
                 srcloc: Optional[SourceLoc] = None) -> Kernel:
    """``y[i] = a * x[i]`` — unit-stride multiply stream."""
    b = _builder(name, srcloc)
    x = b.array("x", (n,), dtype)
    y = b.array("y", (n,), dtype)
    a = b.scalar("a", dtype, init=1.0001)
    with b.loop(0, n) as i:
        b.assign(y[i], a.value() * x[i])
    return b.build()


def vector_mul_elementwise(name: str, n: int, dtype: DType = DP,
                           descending: bool = False,
                           srcloc: Optional[SourceLoc] = None) -> Kernel:
    """``z[i] = x[i] * y[j]`` with ``j`` ascending or descending —
    Table 3's "vector multiply element wise in asc./desc. order"."""
    b = _builder(name, srcloc)
    x = b.array("x", (n,), dtype)
    y = b.array("y", (n,), dtype)
    z = b.array("z", (n,), dtype)
    with b.loop(0, n) as i:
        if descending:
            j = (n - 1) - i
            b.assign(z[j], x[j] * y[i])
        else:
            b.assign(z[i], x[i] * y[i])
    return b.build()


def vector_sub(name: str, n: int, dtype: DType = DP,
               srcloc: Optional[SourceLoc] = None) -> Kernel:
    """``z[i] = x[i] - y[i]``."""
    b = _builder(name, srcloc)
    x = b.array("x", (n,), dtype)
    y = b.array("y", (n,), dtype)
    z = b.array("z", (n,), dtype)
    with b.loop(0, n) as i:
        b.assign(z[i], x[i] - y[i])
    return b.build()


def saxpy(name: str, n: int, dtype: DType = DP,
          srcloc: Optional[SourceLoc] = None) -> Kernel:
    """``y[i] = y[i] + a * x[i]`` — the canonical (S/D)AXPY."""
    b = _builder(name, srcloc)
    x = b.array("x", (n,), dtype)
    y = b.array("y", (n,), dtype)
    a = b.scalar("a", dtype, init=0.5)
    with b.loop(0, n) as i:
        b.assign(y[i], y[i] + a.value() * x[i])
    return b.build()


def vector_divide(name: str, n: int, dtype: DType = DP,
                  srcloc: Optional[SourceLoc] = None) -> Kernel:
    """``y[i] = x[i] / d`` element-wise — divider bound (cluster 10)."""
    b = _builder(name, srcloc)
    x = b.array("x", (n,), dtype)
    y = b.array("y", (n,), dtype)
    d = b.array("d", (n,), dtype)
    with b.loop(0, n) as i:
        b.assign(y[i], x[i] / d[i])
    return b.build()


def norm_then_divide(name: str, n: int, dtype: DType = DP,
                     srcloc: Optional[SourceLoc] = None) -> Kernel:
    """Norm accumulation plus element-wise divide (svdcmp_13 shape)."""
    b = _builder(name, srcloc)
    x = b.array("x", (n,), dtype)
    y = b.array("y", (n,), dtype)
    nrm = b.scalar("nrm", dtype, init=0.0)
    with b.loop(0, n) as i:
        b.assign(nrm.value(), nrm.value() + x[i] * x[i])
        b.assign(y[i], y[i] / (x[i] + 1.0))
    return b.build()


def set_to_zero(name: str, n: int, dtype: DType = DP,
                srcloc: Optional[SourceLoc] = None) -> Kernel:
    """``y[i] = 0`` — initialization stream (common NAS codelet)."""
    b = _builder(name, srcloc)
    y = b.array("y", (n,), dtype)
    with b.loop(0, n) as i:
        b.assign(y[i], 0.0)
    return b.build()


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def dot_product(name: str, n: int, dtype: DType = DP,
                srcloc: Optional[SourceLoc] = None) -> Kernel:
    """``s += x[i] * y[i]``."""
    b = _builder(name, srcloc)
    x = b.array("x", (n,), dtype)
    y = b.array("y", (n,), dtype)
    s = b.scalar("s", dtype, init=0.0)
    with b.loop(0, n) as i:
        b.assign(s.value(), s.value() + x[i] * y[i])
    return b.build()


def multi_reduction(name: str, n: int, nacc: int, dtype: DType = DP,
                    descending_second: bool = True,
                    srcloc: Optional[SourceLoc] = None) -> Kernel:
    """``nacc`` simultaneous reductions over one sweep (toeplz_1/_3).

    The second accumulator optionally reads the vector in descending
    order, giving the 0 & 1 & -1 stride signature of Table 3.
    """
    b = _builder(name, srcloc)
    x = b.array("x", (n,), dtype)
    y = b.array("y", (n,), dtype)
    accs = [b.scalar(f"s{k}", dtype, init=0.0) for k in range(nacc)]
    with b.loop(0, n) as i:
        for k, acc in enumerate(accs):
            if k == 1 and descending_second:
                b.assign(acc.value(), acc.value() + x[(n - 1) - i] * y[i])
            else:
                b.assign(acc.value(), acc.value() + x[i] * y[i])
    return b.build()


def abs_sum_column(name: str, n: int, col: int, dtype: DType = DP,
                   srcloc: Optional[SourceLoc] = None) -> Kernel:
    """Sum of |m[i][col]| down a column of a row-major matrix (hqr_13).

    Contiguous when the matrix is transposed conceptually; here the
    column lives contiguously (stride 1), matching Table 3's 0 & 1.
    """
    b = _builder(name, srcloc)
    m = b.array("m", (n * n,), dtype)
    s = b.scalar("s", dtype, init=0.0)
    with b.loop(0, n) as i:
        b.assign(s.value(), s.value() + fabs(m[col * n + i]))
    return b.build()


def abs_sum_row_lda(name: str, n: int, row: int, dtype: DType = DP,
                    srcloc: Optional[SourceLoc] = None) -> Kernel:
    """Sum of |m[row][i]| across a column-major matrix: LDA stride
    (svdcmp_6)."""
    b = _builder(name, srcloc)
    m = b.array("m", (n, n), dtype)
    s = b.scalar("s", dtype, init=0.0)
    with b.loop(0, n) as i:
        b.assign(s.value(), s.value() + fabs(m[i, row]))
    return b.build()


def matrix_sum(name: str, n: int, dtype: DType = SP, half: str = "full",
               srcloc: Optional[SourceLoc] = None) -> Kernel:
    """Sum of a square matrix: full, upper or lower half (hqr_12 family)."""
    b = _builder(name, srcloc)
    m = b.array("m", (n, n), dtype)
    s = b.scalar("s", dtype, init=0.0)
    with b.loop(0, n) as i:
        if half == "lower":
            with b.loop(0, i + 1) as j:
                b.assign(s.value(), s.value() + m[i, j])
        elif half == "upper":
            with b.loop(i, n) as j:
                b.assign(s.value(), s.value() + m[i, j])
        else:
            with b.loop(0, n) as j:
                b.assign(s.value(), s.value() + m[i, j])
    return b.build()


def triangular_dot(name: str, n: int, dtype: DType = SP,
                   srcloc: Optional[SourceLoc] = None) -> Kernel:
    """Dot product over the lower half of a square matrix (ludcmp_4):
    row scan (unit stride) against a column scan (LDA stride)."""
    b = _builder(name, srcloc)
    m = b.array("m", (n, n), dtype)
    s = b.scalar("s", dtype, init=0.0)
    with b.loop(1, n) as i:
        with b.loop(0, i) as j:
            b.assign(s.value(), s.value() + m[i, j] * m[j, i])
    return b.build()


# ---------------------------------------------------------------------------
# Matrix-vector and matrix update kernels
# ---------------------------------------------------------------------------


def matvec(name: str, n: int, m_dtype: DType = DP, x_dtype: DType = DP,
           srcloc: Optional[SourceLoc] = None) -> Kernel:
    """Dense matrix × vector product; mixed dtypes give the "MP" rows."""
    b = _builder(name, srcloc)
    a = b.array("a", (n, n), m_dtype)
    x = b.array("x", (n,), x_dtype)
    y = b.array("y", (n,), m_dtype)
    with b.loop(0, n) as i:
        b.assign(y[i], 0.0)
        with b.loop(0, n) as j:
            b.assign(y[i], y[i] + a[i, j] * x[j])
    return b.build()


def row_scale(name: str, n: int, row: int, dtype: DType = DP,
              srcloc: Optional[SourceLoc] = None) -> Kernel:
    """Multiply one row of a column-major matrix by a scalar: LDA stride
    (svdcmp_11)."""
    b = _builder(name, srcloc)
    m = b.array("m", (n, n), dtype)
    g = b.scalar("g", dtype, init=1.125)
    with b.loop(0, n) as i:
        b.assign(m[i, row], m[i, row] * g.value())
    return b.build()


def row_combination(name: str, n: int, dtype: DType = DP,
                    lda_stride: bool = True,
                    srcloc: Optional[SourceLoc] = None) -> Kernel:
    """Linear combination of matrix rows/columns (elmhes_10/_11).

    ``lda_stride=True`` walks rows of a column-major array (large
    constant stride); ``False`` walks columns contiguously.
    """
    b = _builder(name, srcloc)
    m = b.array("m", (n, n), dtype)
    y = b.scalar("y", dtype, init=0.75)
    with b.loop(0, n) as i:
        if lda_stride:
            b.assign(m[i, 1], m[i, 1] - y.value() * m[i, 0])
        else:
            b.assign(m[1, i], m[1, i] - y.value() * m[0, i])
    return b.build()


def matrix_add(name: str, n: int, dtype: DType = DP,
               srcloc: Optional[SourceLoc] = None) -> Kernel:
    """Element-wise sum of two square matrices (matadd_16)."""
    b = _builder(name, srcloc)
    x = b.array("x", (n, n), dtype)
    y = b.array("y", (n, n), dtype)
    z = b.array("z", (n, n), dtype)
    with b.loop(0, n) as i:
        with b.loop(0, n) as j:
            b.assign(z[i, j], x[i, j] + y[i, j])
    return b.build()


def diagonal_add(name: str, n: int, dtype: DType = SP,
                 srcloc: Optional[SourceLoc] = None) -> Kernel:
    """Add a scalar to the diagonal (hqr_15): stride LDA + 1."""
    b = _builder(name, srcloc)
    m = b.array("m", (n, n), dtype)
    t = b.scalar("t", dtype, init=0.01)
    with b.loop(0, n) as i:
        b.assign(m[i, i], m[i, i] - t.value())
    return b.build()


# ---------------------------------------------------------------------------
# Recurrences and FFT steps
# ---------------------------------------------------------------------------


def first_order_recurrence(name: str, n: int, dtype: DType = DP,
                           forward: bool = True,
                           srcloc: Optional[SourceLoc] = None) -> Kernel:
    """``u[i] = r[i] - b * u[i-1]`` (tridag_1/_2) — not vectorizable."""
    b = _builder(name, srcloc)
    u = b.array("u", (n,), dtype)
    r = b.array("r", (n,), dtype)
    bet = b.scalar("bet", dtype, init=0.4)
    if forward:
        with b.loop(1, n) as i:
            b.assign(u[i], r[i] - bet.value() * u[i - 1])
    else:
        with b.loop(1, n) as i:
            j = (n - 1) - i
            b.assign(u[j], r[j] - bet.value() * u[j + 1])
    return b.build()


def fft_butterfly(name: str, n: int, dtype: DType = DP,
                  srcloc: Optional[SourceLoc] = None) -> Kernel:
    """realft-style butterfly: paired ±stride-2 accesses, scalar code."""
    b = _builder(name, srcloc)
    d = b.array("d", (2 * n + 4,), dtype)
    wr = b.scalar("wr", dtype, init=0.8)
    wi = b.scalar("wi", dtype, init=0.6)
    with b.loop(1, n // 2) as i:
        # h1r/h1i from the front, h2r/h2i mirrored from the back.
        b.assign(d[2 * i],
                 wr.value() * (d[2 * i] + d[(2 * n) - 2 * i])
                 + wi.value() * (d[2 * i + 1] - d[(2 * n + 1) - 2 * i]))
        b.assign(d[2 * i + 1],
                 wr.value() * (d[2 * i + 1] - d[(2 * n + 1) - 2 * i])
                 - wi.value() * (d[2 * i] + d[(2 * n) - 2 * i]))
    return b.build()


def fft_first_step(name: str, n: int,
                   srcloc: Optional[SourceLoc] = None) -> Kernel:
    """four1-style radix step: stride-4 mixed-precision access."""
    b = _builder(name, srcloc)
    d = b.array("d", (4 * n + 8,), SP)
    tr = b.scalar("tr", DP, init=0.3)
    with b.loop(0, n) as i:
        b.assign(d[4 * i], d[4 * i] + tr.value() * d[4 * i + 2])
        b.assign(d[4 * i + 2], d[4 * i] - tr.value() * d[4 * i + 2])
    return b.build()


# ---------------------------------------------------------------------------
# Stencils
# ---------------------------------------------------------------------------


def laplacian_1d(name: str, n: int, dtype: DType = DP,
                 srcloc: Optional[SourceLoc] = None) -> Kernel:
    """Constant-coefficient finite-difference Laplacian (lop_13)."""
    b = _builder(name, srcloc)
    u = b.array("u", (n,), dtype)
    out = b.array("out", (n,), dtype)
    h2 = b.scalar("h2", dtype, init=0.25)
    with b.loop(1, n - 1) as i:
        b.assign(out[i], h2.value() * (u[i - 1] - 2.0 * u[i] + u[i + 1]))
    return b.build()


def stencil5_2d(name: str, n: int, dtype: DType = DP,
                srcloc: Optional[SourceLoc] = None) -> Kernel:
    """Five-point 2-D stencil (relax/jacobi shapes)."""
    b = _builder(name, srcloc)
    u = b.array("u", (n, n), dtype)
    v = b.array("v", (n, n), dtype)
    c = b.scalar("c", dtype, init=0.25)
    with b.loop(1, n - 1) as i:
        with b.loop(1, n - 1) as j:
            b.assign(v[i, j],
                     c.value() * (u[i - 1, j] + u[i + 1, j]
                                  + u[i, j - 1] + u[i, j + 1]
                                  - 4.0 * u[i, j]))
    return b.build()


def red_black_sweep(name: str, n: int, dtype: DType = DP,
                    srcloc: Optional[SourceLoc] = None) -> Kernel:
    """Red-black Gauss-Seidel sweep: stride-2 inner access (relax2_26)."""
    b = _builder(name, srcloc)
    u = b.array("u", (n, n), dtype)
    rhs = b.array("rhs", (n, n), dtype)
    c = b.scalar("c", dtype, init=0.25)
    with b.loop(1, n - 1) as i:
        with b.loop(0, (n - 2) // 2) as j:
            b.assign(u[i, 2 * j + 1],
                     c.value() * (u[i - 1, 2 * j + 1] + u[i + 1, 2 * j + 1]
                                  + u[i, 2 * j] + u[i, 2 * j + 2]
                                  - rhs[i, 2 * j + 1]))
    return b.build()


def mg_restrict(name: str, n: int, dtype: DType = DP,
                srcloc: Optional[SourceLoc] = None) -> Kernel:
    """Multigrid fine-to-coarse restriction (rstrct_29): stencil reads at
    stride 2 on the fine grid, unit-stride writes on the coarse grid."""
    b = _builder(name, srcloc)
    fine = b.array("fine", (2 * n + 3, 2 * n + 3), dtype)
    coarse = b.array("coarse", (n + 1, n + 1), dtype)
    with b.loop(1, n) as i:
        with b.loop(1, n) as j:
            b.assign(coarse[i, j],
                     0.5 * fine[2 * i, 2 * j]
                     + 0.125 * (fine[2 * i + 1, 2 * j]
                                + fine[2 * i - 1, 2 * j]
                                + fine[2 * i, 2 * j + 1]
                                + fine[2 * i, 2 * j - 1]))
    return b.build()


def plane_stencil_3d(name: str, n: int, nvars: int = 5, dtype: DType = DP,
                     srcloc: Optional[SourceLoc] = None) -> Kernel:
    """Three-point stencil on ``nvars`` planes (BT/SP rhs shape) —
    memory-bound cluster B of Section 4.4."""
    b = _builder(name, srcloc)
    # Plane-major layout (variable, i, j): the innermost loop walks j
    # contiguously, so the sweep vectorizes and is bandwidth limited —
    # cluster B of Section 4.4.
    u = b.array("u", (nvars, n, n), dtype)
    rhs = b.array("rhs", (nvars, n, n), dtype)
    c = b.scalar("c", dtype, init=0.2)
    d = b.scalar("d", dtype, init=0.35)
    with b.loop(1, n - 1) as i:
        with b.loop(0, n) as j:
            for v in range(nvars):
                diff2 = u[v, i - 1, j] - 2.0 * u[v, i, j] + u[v, i + 1, j]
                b.assign(rhs[v, i, j],
                         rhs[v, i, j] - c.value() * diff2
                         - d.value() * u[v, i, j])
    return b.build()


# ---------------------------------------------------------------------------
# Compute-heavy kernels (division / transcendentals)
# ---------------------------------------------------------------------------


def exp_div_nest(name: str, n: int, dtype: DType = DP,
                 srcloc: Optional[SourceLoc] = None) -> Kernel:
    """Triple-nested loop with division and exponential (LU/erhs,
    FT/appft shape) — compute-bound cluster A of Section 4.4."""
    b = _builder(name, srcloc)
    u = b.array("u", (n, n, n), dtype)
    a = b.scalar("a", dtype, init=0.5)
    with b.loop(0, n) as i:
        with b.loop(0, n) as j:
            with b.loop(0, n) as k:
                b.assign(u[i, j, k],
                         ir_exp(u[i, j, k] * a.value()) / (u[i, j, k] + 2.0))
    return b.build()


def rsqrt_normalize(name: str, n: int, dtype: DType = DP,
                    srcloc: Optional[SourceLoc] = None) -> Kernel:
    """``y[i] = x[i] / sqrt(s[i])`` — divider plus sqrt pressure."""
    b = _builder(name, srcloc)
    x = b.array("x", (n,), dtype)
    s = b.array("s", (n,), dtype)
    y = b.array("y", (n,), dtype)
    with b.loop(0, n) as i:
        b.assign(y[i], x[i] / sqrt(s[i] + 1.0))
    return b.build()


def polynomial_eval(name: str, n: int, degree: int = 3,
                    dtype: DType = DP,
                    srcloc: Optional[SourceLoc] = None) -> Kernel:
    """Horner evaluation of a degree-``degree`` polynomial per element.

    Compute-bound and fully vectorizable — the kind of codelet whose
    standalone recompilation visibly degrades when the vectorizer gives
    up (the fragile-extraction failure mode of Section 3.4).
    """
    b = _builder(name, srcloc)
    x = b.array("x", (n,), dtype)
    y = b.array("y", (n,), dtype)
    coeffs = [0.5 + 0.25 * k for k in range(degree + 1)]
    with b.loop(0, n) as i:
        expr = x[i] * coeffs[0] + coeffs[1]
        for c in coeffs[2:]:
            expr = expr * x[i] + c
        b.assign(y[i], expr)
    return b.build()


def solve_recurrence_div(name: str, n: int, dtype: DType = DP,
                         srcloc: Optional[SourceLoc] = None) -> Kernel:
    """Forward-elimination line solve ``x[i] = (r[i] - c[i]*x[i-1]) / d[i]``.

    The BT/SP/LU sweep solvers are exactly this along grid lines: a
    first-order recurrence whose carried chain contains a *division*,
    catastrophic on in-order cores with slow dividers.
    """
    b = _builder(name, srcloc)
    x = b.array("x", (n,), dtype)
    r = b.array("r", (n,), dtype)
    c = b.array("c", (n,), dtype)
    d = b.array("d", (n,), dtype)
    with b.loop(1, n) as i:
        b.assign(x[i], (r[i] - c[i] * x[i - 1]) / d[i])
    return b.build()


def strided_copy(name: str, n: int, stride: int, dtype: DType = DP,
                 srcloc: Optional[SourceLoc] = None) -> Kernel:
    """Gather a strided row into a contiguous buffer (FT transpose step)."""
    b = _builder(name, srcloc)
    src = b.array("src", (stride * n + stride,), dtype)
    dst = b.array("dst", (n,), dtype)
    with b.loop(0, n) as i:
        b.assign(dst[i], src[stride * i])
    return b.build()


# ---------------------------------------------------------------------------
# Integer / sorting-flavoured kernels (NAS IS)
# ---------------------------------------------------------------------------


def int_histogram_like(name: str, n: int, buckets: int,
                       srcloc: Optional[SourceLoc] = None) -> Kernel:
    """Bucket-count sweep with a large-stride scatter.

    NAS IS ranks keys through indirect accesses; the IR is affine-only,
    so the poor locality of the scatter is modelled with a page-sized
    stride, which the cache sees the same way.  (Documented substitution
    — see DESIGN.md.)
    """
    del buckets  # locality is carried by the stride, not the bucket count
    b = _builder(name, srcloc)
    keys = b.array("keys", (n,), INT32)
    counts = b.array("counts", (16 * n + 16,), INT32)
    with b.loop(0, n) as i:
        b.assign(counts[16 * i], counts[16 * i] + keys[i])
    return b.build()


def int_prefix_sum(name: str, n: int,
                   srcloc: Optional[SourceLoc] = None) -> Kernel:
    """Integer prefix sum — a recurrence over an int array (IS rank)."""
    b = _builder(name, srcloc)
    c = b.array("c", (n,), INT32)
    with b.loop(1, n) as i:
        b.assign(c[i], c[i] + c[i - 1])
    return b.build()


def int_copy_permuted(name: str, n: int, stride: int = 8,
                      srcloc: Optional[SourceLoc] = None) -> Kernel:
    """Strided integer gather into a contiguous output (IS key copy)."""
    b = _builder(name, srcloc)
    src = b.array("src", (stride * n + stride,), INT32)
    dst = b.array("dst", (n,), INT32)
    with b.loop(0, n) as i:
        b.assign(dst[i], src[stride * i])
    return b.build()
