"""High-level "run this kernel on that machine" API.

Everything upstream (codelet profiling, representative benchmarking,
target measurement) funnels through :func:`run_kernel_model`, which wires
together compiler → cache model → execution model and returns a single
:class:`MeasuredRun` record, whose counters are derived when first read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

from ..ir.kernel import Kernel
from ..isa.compiler import CompiledKernel, CompilerOptions, compile_kernel
from .architecture import Architecture
from .cache_model import CacheProfile, analyze_cache
from .counters import DynamicMetrics, derive_metrics
from .exec_model import ExecutionEstimate, estimate_execution


@dataclass(frozen=True)
class MeasuredRun:
    """Complete model output for one kernel on one architecture.

    The four fields determine the run; equality compares them alone.
    """

    arch: Architecture
    compiled: CompiledKernel
    cache: CacheProfile
    execution: ExecutionEstimate

    @cached_property
    def metrics(self) -> DynamicMetrics:
        """Likwid-style counters, derived on first read: only Step B's
        profiling reads them, so a run that is only timed (Steps D-E)
        never derives any."""
        return derive_metrics(self.compiled, self.arch, self.cache,
                              self.execution)

    @property
    def seconds_per_invocation(self) -> float:
        return self.execution.seconds

    @property
    def cycles_per_invocation(self) -> float:
        return self.execution.cycles


def default_options(arch: Architecture) -> CompilerOptions:
    """Compiler options the paper used on ``arch`` (-O3 [-xsse4.2])."""
    return CompilerOptions(isa=arch.compile_isa)


def run_kernel_model(kernel: Kernel, arch: Architecture, *,
                     pressure_bytes: float = 0.0,
                     compiler_options: Optional[CompilerOptions] = None,
                     force_scalar: bool = False) -> MeasuredRun:
    """Model one invocation of ``kernel`` on ``arch``.

    Parameters
    ----------
    pressure_bytes:
        LLC footprint of the surrounding application (0 for an extracted
        standalone microbenchmark).
    force_scalar:
        Compile without vectorization (extraction perturbation of
        fragile codelets).
    """
    options = compiler_options or default_options(arch)
    if force_scalar and not options.force_scalar:
        options = replace(options, force_scalar=True)
    compiled = compile_kernel(kernel, options)
    profile = analyze_cache([n.nest for n in compiled.nests], arch,
                            pressure_bytes=pressure_bytes)
    est = estimate_execution(compiled, arch, profile)
    return MeasuredRun(arch, compiled, profile, est)
