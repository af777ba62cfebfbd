"""The Numerical Recipes training suite — 28 codelets (Section 4.1).

Each NR code is a single computation kernel, so applications and
codelets map one to one and every codelet is well behaved (single
dataset, no fragile compilation, no cache pressure).  The specs mirror
Table 3: computation pattern, precision, stride signature and the
paper's 14-cluster assignment / Atom speedups, which the Table 3
experiment reports side by side with our results.

Sizes are chosen to spread working sets from cache-resident to DRAM,
matching the diversity of behaviours Table 3 exhibits.  ``scale``
shrinks everything proportionally for fast tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from ..codelets.codelet import (Application, BenchmarkSuite, CodeletRegion,
                                Routine)
from ..ir.kernel import Kernel, SourceLoc
from ..ir.types import DP, SP
from . import patterns as P


@dataclass(frozen=True)
class NRSpec:
    """One Numerical Recipes codelet, with its Table 3 metadata."""

    name: str
    build: Callable[[float], Kernel]    # scale -> kernel
    pattern: str                        # Table 3 "Computation Pattern"
    stride: str                         # Table 3 "Stride"
    vec: str                            # Table 3 "Vec." (S / V / V + S)
    paper_cluster: int                  # Table 3 cluster (our reading)
    paper_atom_speedup: float           # Table 3 "s" column
    paper_representative: bool          # angle-bracketed in Table 3
    invocations: int = 50


def _n(base: int, scale: float, floor: int = 64) -> int:
    return max(floor, int(base * scale))


def _loc(file: str, line: int) -> SourceLoc:
    return SourceLoc(file, line, line + 8)


NR_SPECS: Tuple[NRSpec, ...] = (
    NRSpec("toeplz_1",
           lambda s: P.multi_reduction("toeplz_1", _n(1 << 19, s), 2, DP,
                                       srcloc=_loc("toeplz.f", 1)),
           "DP: 2 simultaneous reductions", "0 & 1 & -1", "V + S",
           1, 0.24, True, invocations=100),
    NRSpec("rstrct_29",
           lambda s: P.mg_restrict("rstrct_29", _n(700, s), DP,
                                   srcloc=_loc("rstrct.f", 29)),
           "DP: MG Laplacian fine to coarse mesh transition", "stencil",
           "V + S", 1, 0.25, False),
    NRSpec("mprove_8",
           lambda s: P.matvec("mprove_8", _n(1400, s), DP, SP,
                              srcloc=_loc("mprove.f", 8)),
           "MP: Dense Matrix x vector product", "0 & 1", "V + S",
           1, 0.15, False),
    NRSpec("toeplz_4",
           lambda s: P.vector_mul_elementwise("toeplz_4", _n(1 << 14, s),
                                              DP, descending=True,
                                              srcloc=_loc("toeplz.f", 4)),
           "DP: Vector multiply in asc./desc. order", "0 & 1", "S",
           1, 0.44, False, invocations=2000),
    NRSpec("realft_4",
           lambda s: P.fft_butterfly("realft_4", _n(1 << 14, s), DP,
                                     srcloc=_loc("realft.f", 4)),
           "DP: FFT butterfly computation", "0 & 2 & -2", "S",
           2, 0.42, True, invocations=2000),
    NRSpec("toeplz_3",
           lambda s: P.multi_reduction("toeplz_3", _n(1 << 16, s), 3, DP,
                                       descending_second=False,
                                       srcloc=_loc("toeplz.f", 3)),
           "DP: 3 simultaneous reductions", "0 & 1 & -1", "V",
           2, 0.31, False, invocations=300),
    NRSpec("svbksb_3",
           lambda s: P.matvec("svbksb_3", _n(700, s), SP, SP,
                              srcloc=_loc("svbksb.f", 3)),
           "SP: Dense Matrix x vector product", "0 & 1", "V",
           3, 0.35, True, invocations=100),
    NRSpec("lop_13",
           lambda s: P.stencil5_2d("lop_13", _n(1100, s), DP,
                                   srcloc=_loc("lop.f", 13)),
           "DP: Laplacian finite difference constant coefficients",
           "stencil", "V", 4, 0.20, True),
    NRSpec("toeplz_2",
           lambda s: P.vector_mul_elementwise("toeplz_2", _n(1 << 14, s),
                                              DP, descending=True,
                                              srcloc=_loc("toeplz.f", 2)),
           "DP: Vector multiply element wise in asc./desc. order",
           "1 & -1", "S", 5, 0.36, True, invocations=2000),
    NRSpec("four1_2",
           lambda s: P.fft_first_step("four1_2", _n(1 << 19, s),
                                      srcloc=_loc("four1.f", 2)),
           "MP: First step FFT", "4", "S", 5, 0.22, False),
    NRSpec("tridag_2",
           lambda s: P.first_order_recurrence("tridag_2", _n(1 << 16, s),
                                              DP, forward=False,
                                              srcloc=_loc("tridag.f", 2)),
           "DP: First order recurrence", "-1", "S",
           6, 0.44, False, invocations=500),
    NRSpec("tridag_1",
           lambda s: P.first_order_recurrence("tridag_1", _n(1 << 16, s),
                                              DP, forward=True,
                                              srcloc=_loc("tridag.f", 1)),
           "DP: First order recurrence", "0 & 1", "S",
           6, 0.32, True, invocations=500),
    NRSpec("ludcmp_4",
           lambda s: P.triangular_dot("ludcmp_4", _n(320, s), SP,
                                      srcloc=_loc("ludcmp.f", 4)),
           "SP: Dot product over lower half square matrix", "0 & LDA & 1",
           "V + S", 7, 0.45, True, invocations=500),
    NRSpec("hqr_15",
           lambda s: P.diagonal_add("hqr_15", _n(4000, s), SP,
                                    srcloc=_loc("hqr.f", 15)),
           "SP: Addition on the diagonal elements of a matrix", "LDA + 1",
           "S", 8, 0.39, True, invocations=2000),
    NRSpec("relax2_26",
           lambda s: P.red_black_sweep("relax2_26", _n(1300, s), DP,
                                       srcloc=_loc("relax2.f", 26)),
           "DP: Red Black Sweeps Laplacian operator", "LDA & 0", "S",
           9, 0.12, True),
    NRSpec("svdcmp_14",
           lambda s: P.vector_divide("svdcmp_14", _n(1 << 16, s), DP,
                                     srcloc=_loc("svdcmp.f", 14)),
           "DP: Vector divide element wise", "0 & 1", "V",
           10, 0.28, False, invocations=300),
    NRSpec("svdcmp_13",
           lambda s: P.norm_then_divide("svdcmp_13", _n(1 << 19, s), DP,
                                        srcloc=_loc("svdcmp.f", 13)),
           "DP: Norm + Vector divide", "1", "V", 10, 0.17, True),
    NRSpec("hqr_13",
           lambda s: P.abs_sum_column("hqr_13", _n(16000, s), 3, DP,
                                      srcloc=_loc("hqr.f", 13)),
           "DP: Sum of the absolute values of a matrix column", "0 & 1",
           "V", 11, 0.41, False, invocations=2000),
    NRSpec("hqr_12_sq",
           lambda s: P.matrix_sum("hqr_12_sq", _n(256, s), SP, "full",
                                  srcloc=_loc("hqr.f", 12)),
           "SP: Sum of a square matrix", "0 & 1", "V",
           11, 0.46, True, invocations=1000),
    NRSpec("jacobi_5",
           lambda s: P.matrix_sum("jacobi_5", _n(256, s), SP, "upper",
                                  srcloc=_loc("jacobi.f", 5)),
           "SP: Sum of the upper half of a square matrix", "0 & 1", "V",
           11, 0.34, False, invocations=1000),
    NRSpec("hqr_12",
           lambda s: P.matrix_sum("hqr_12", _n(256, s), SP, "lower",
                                  srcloc=_loc("hqr.f", 12)),
           "SP: Sum of the lower half of a square matrix", "0 & 1", "V",
           11, 0.34, False, invocations=1000),
    NRSpec("svdcmp_11",
           lambda s: P.row_scale("svdcmp_11", _n(4000, s), 2, DP,
                                 srcloc=_loc("svdcmp.f", 11)),
           "DP: Multiplying a matrix row by a scalar", "LDA", "S",
           12, 0.33, True, invocations=1000),
    NRSpec("elmhes_11",
           lambda s: P.row_combination("elmhes_11", _n(4000, s), DP, True,
                                       srcloc=_loc("elmhes.f", 11)),
           "DP: Linear combination of matrix rows", "LDA", "S",
           12, 0.47, False, invocations=1000),
    NRSpec("mprove_9",
           lambda s: P.vector_sub("mprove_9", _n(1 << 14, s), DP,
                                  srcloc=_loc("mprove.f", 9)),
           "DP: Substracting a vector with a vector", "1", "V",
           13, 0.50, False, invocations=2000),
    NRSpec("matadd_16",
           lambda s: P.matrix_add("matadd_16", _n(128, s), DP,
                                  srcloc=_loc("matadd.f", 16)),
           "DP: Sum of two square matrices element wise", "1", "V",
           13, 0.53, False, invocations=2000),
    NRSpec("svdcmp_6",
           lambda s: P.abs_sum_row_lda("svdcmp_6", _n(4000, s), 2, DP,
                                       srcloc=_loc("svdcmp.f", 6)),
           "DP: Sum of the absolute values of a matrix row", "0 & LDA",
           "V + S", 13, 0.30, True, invocations=1000),
    NRSpec("elmhes_10",
           lambda s: P.row_combination("elmhes_10", _n(16000, s), DP, False,
                                       srcloc=_loc("elmhes.f", 10)),
           "DP: Linear combination of matrix columns", "1", "V",
           14, 0.44, False, invocations=1000),
    NRSpec("balanc_3",
           lambda s: P.vector_mul_elementwise("balanc_3", _n(1 << 14, s),
                                              DP, descending=False,
                                              srcloc=_loc("balanc.f", 3)),
           "DP: Vector multiply element wise", "1", "V",
           14, 0.47, True, invocations=2000),
)

NR_SPEC_BY_NAME: Dict[str, NRSpec] = {s.name: s for s in NR_SPECS}


def build_nr_suite(scale: float = 1.0) -> BenchmarkSuite:
    """Materialize the NR suite (one application per recipe)."""
    apps = []
    for spec in NR_SPECS:
        kernel = spec.build(scale)
        region = CodeletRegion(
            variants=(kernel,),
            variant_weights=(1.0,),
            invocations=spec.invocations,
            srcloc=kernel.srcloc,
        )
        apps.append(Application(
            name=spec.name,
            routines=(Routine(kernel.srcloc.file, (region,)),),
            codelet_coverage=1.0,       # NR codes are single kernels
        ))
    return BenchmarkSuite("NR", tuple(apps))
