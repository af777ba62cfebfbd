"""Tests for the high-level platform API."""

import pickle
import sys

import pytest

from repro.cli import main
from repro.codelets import Measurer, average_metrics, find_suite_codelets
from repro.isa import CompilerOptions, SSE42
from repro.machine import (ATOM, NEHALEM, REFERENCE, counters,
                           default_options, run_kernel_model)
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


def count_derivations(monkeypatch):
    """Wrap ``derive_metrics`` in every module that holds it; returns
    the list each call appends its arguments to."""
    real = counters.derive_metrics
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if (name.startswith("repro") and module is not None
                and getattr(module, "derive_metrics", None) is real):
            monkeypatch.setattr(module, "derive_metrics", counting)
    return calls


class TestCountersOnDemand:
    """A model run derives its hardware counters when they are first
    read, which only Step B's profiling does."""

    def test_warm_predict_derives_no_counters(self, tmp_path,
                                              monkeypatch, capsys):
        calls = count_derivations(monkeypatch)
        argv = ["--cache-dir", str(tmp_path), "predict", "--suite", "nr"]
        assert main(argv) == 0
        # One per reference in-app run that Step B profiles.
        assert len(calls) == 28
        assert {args[1].name for args in calls} == {REFERENCE.name}
        del calls[:]
        assert main(argv) == 0
        capsys.readouterr()
        assert calls == []

    def test_inapp_metrics_match_eager_derivation(self, nr_suite,
                                                  monkeypatch):
        derive = counters.derive_metrics
        calls = count_derivations(monkeypatch)
        m = Measurer()
        codelets = find_suite_codelets(nr_suite)
        for c in codelets:
            m.true_inapp_seconds(c, REFERENCE)
            m.true_standalone_seconds(c, ATOM)
        assert calls == []
        for c in codelets:
            runs = [m.model_run(c, i, REFERENCE, standalone=False)
                    for i in range(len(c.variants))]
            eager = [derive(r.compiled, r.arch, r.cache, r.execution)
                     for r in runs]
            assert m.inapp_metrics(c, REFERENCE) == average_metrics(
                list(zip(eager, c.variant_weights)))
        assert len(calls) == sum(len(c.variants) for c in codelets)

    def test_equality_and_pickling_ignore_derivation(self, saxpy_kernel):
        run = run_kernel_model(saxpy_kernel, NEHALEM)
        twin = run_kernel_model(saxpy_kernel, NEHALEM)
        unread = pickle.loads(pickle.dumps(run))
        metrics = run.metrics
        assert run.metrics is metrics
        assert run == twin
        assert "metrics" not in vars(unread)
        assert unread.metrics == metrics
        shipped = pickle.loads(pickle.dumps(run))
        assert vars(shipped)["metrics"] == metrics
