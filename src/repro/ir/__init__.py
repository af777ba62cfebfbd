"""Kernel IR: the source-language substrate of the reproduction.

The paper operates on C/Fortran loop nests.  This package provides the
equivalent: a small loop-nest IR with typed arrays, affine indexing,
reductions and recurrences, plus a builder DSL, a NumPy interpreter and
the access analyses (strides, trip counts, footprints) that the compiler
(:mod:`repro.isa`) and the machine models (:mod:`repro.machine`) consume.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".builder": ("KernelBuilder", "simple_loop_kernel"),
    ".expr": ("AffineIndex", "Array", "BinOp", "Call", "Const", "Expr",
              "IndexVar", "IRError", "Load", "as_affine", "cos", "exp",
              "fabs", "fmax", "fmin", "log", "powr", "sign", "sin", "sqrt",
              "walk_expr"),
    ".interp": ("Interpreter", "allocate_storage", "run_kernel"),
    ".kernel": ("Kernel", "SourceLoc"),
    ".stmt": ("Block", "Loop", "Stmt", "Store", "fresh_index", "loop_nests",
              "walk_statements"),
    ".traverse": ("Access", "NestAnalysis", "analyze_nests",
                  "average_trip_counts", "kernel_stride_summary"),
    ".types": ("ALL_DTYPES", "DP", "DType", "INT32", "INT64", "SP",
               "promote"),
    ".validate": ("IRValidationError", "is_valid_kernel", "validate_kernel"),
})
