"""Tests for the high-level platform API."""

import pytest

from repro.isa import CompilerOptions, SSE42
from repro.machine import ATOM, NEHALEM, default_options, run_kernel_model
from repro.suites import patterns as P


class TestRunKernelModel:
    def test_default_options_follow_arch_isa(self):
        assert default_options(NEHALEM).isa.name == "sse4.2"
        assert default_options(ATOM).isa.name == "sse2"

    def test_force_scalar_composes_with_options(self, saxpy_kernel):
        run = run_kernel_model(
            saxpy_kernel, NEHALEM,
            compiler_options=CompilerOptions(isa=SSE42, unroll=2),
            force_scalar=True)
        assert not run.compiled.nests[0].vectorized
        assert run.compiled.options.unroll == 2

    def test_measured_run_accessors(self, saxpy_kernel):
        run = run_kernel_model(saxpy_kernel, NEHALEM)
        assert run.seconds_per_invocation == run.execution.seconds
        assert run.cycles_per_invocation == run.execution.cycles


class TestMeasurementHelpers:
    def test_average_metrics_weighting(self):
        from repro.codelets import average_metrics
        r1 = run_kernel_model(P.vector_copy("a", 4096), NEHALEM).metrics
        r2 = run_kernel_model(P.vector_copy("b", 8192), NEHALEM).metrics
        avg = average_metrics([(r1, 3.0), (r2, 1.0)])
        assert avg.flops == pytest.approx(
            (3 * r1.flops + r2.flops) / 4)
        assert avg.arch_name == "Nehalem"

    def test_average_metrics_empty_rejected(self):
        from repro.codelets import average_metrics
        with pytest.raises(ValueError):
            average_metrics([])
