"""Compiler substrate: abstract ISA, dependence analysis and lowering.

Substitutes for ``icc 12.1`` in the paper's toolchain.  The compiled
form (:class:`~repro.isa.compiler.CompiledKernel`) feeds both the static
analyzer (:mod:`repro.analysis`, the MAQAO substitute) and the machine
execution model (:mod:`repro.machine`).
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".compiler": ("AVX", "SCALAR", "SSE2", "SSE42", "CompiledKernel",
                  "CompiledNest", "CompilerOptions", "TargetISA",
                  "clear_lowering_memo", "compile_kernel",
                  "lowering_memo_keys", "lowering_memo_stats",
                  "recompile_scalar"),
    ".deps": ("DepInfo", "Recurrence", "Reduction", "analyze_dependences"),
    ".instructions": ("BINOP_CLASS", "FP_ARITH", "INTRINSIC_EXPANSION",
                      "MEMORY_OPS", "Instr", "OpClass", "merge_instrs",
                      "sse_width", "summarize"),
})
