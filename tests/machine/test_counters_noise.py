"""Tests for the hardware-counter substitute, the noise model and the
shared median."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.machine import EXACT, NEHALEM, ATOM, NoiseModel, run_kernel_model
from repro.machine.noise import median
from repro.suites import patterns as P


class TestDynamicMetrics:
    def test_mflops_consistent_with_flops_and_time(self):
        run = run_kernel_model(P.dot_product("d", 16_384), NEHALEM)
        m = run.metrics
        assert m.mflops_rate == pytest.approx(
            m.flops / m.time_s / 1e6, rel=1e-9)

    def test_flops_match_compiler(self):
        k = P.saxpy("s", 8192)
        run = run_kernel_model(k, NEHALEM)
        assert run.metrics.flops == pytest.approx(2 * 8192)

    def test_bandwidths_zero_when_l1_resident(self):
        run = run_kernel_model(P.vector_scale("v", 512), NEHALEM)
        assert run.metrics.l2_bandwidth_mbs == 0.0
        assert run.metrics.mem_bandwidth_mbs == 0.0

    def test_dram_bandwidth_reported_for_streams(self):
        run = run_kernel_model(P.vector_copy("c", 8_000_000), NEHALEM)
        assert run.metrics.mem_bandwidth_mbs > 1000.0

    def test_l3_metrics_absent_on_two_level_machines(self):
        run = run_kernel_model(P.vector_copy("c", 8_000_000), ATOM)
        assert run.metrics.l3_bandwidth_mbs == 0.0
        assert run.metrics.l3_miss_ratio == 0.0

    def test_fraction_fields_bounded(self):
        for maker in (P.vector_copy, P.dot_product, P.vector_divide):
            run = run_kernel_model(maker("k", 100_000), NEHALEM)
            assert 0.0 <= run.metrics.compute_fraction <= 1.0
            assert 0.0 <= run.metrics.memory_fraction <= 1.0

    def test_as_dict_roundtrip(self):
        run = run_kernel_model(P.saxpy("s", 4096), NEHALEM)
        d = run.metrics.as_dict()
        assert d["flops"] == run.metrics.flops
        assert "arch_name" not in d


class TestNoiseModel:
    def test_deterministic_per_key(self):
        n = NoiseModel(seed=1)
        assert n.measure(1e-3, "a") == n.measure(1e-3, "a")

    def test_different_keys_differ(self):
        n = NoiseModel(seed=1)
        assert n.measure(1e-3, "a") != n.measure(1e-3, "b")

    def test_seed_changes_draws(self):
        assert NoiseModel(seed=1).measure(1e-3, "a") != \
            NoiseModel(seed=2).measure(1e-3, "a")

    def test_exact_model_adds_nothing(self):
        assert EXACT.measure(1.5e-3, "k") == 1.5e-3

    def test_mean_near_truth(self):
        n = NoiseModel(seed=3)
        samples = n.measure_many(1e-2, "key", 400)
        assert np.mean(samples) == pytest.approx(1e-2, rel=0.01)

    def test_relative_error_grows_for_short_runs(self):
        n = NoiseModel(seed=4)
        short = n.measure_many(2e-6, "s", 200)
        long_ = n.measure_many(2e-2, "l", 200)
        rel_short = np.std(short) / 2e-6 + abs(
            np.mean(short) - 2e-6) / 2e-6
        rel_long = np.std(long_) / 2e-2 + abs(
            np.mean(long_) - 2e-2) / 2e-2
        assert rel_short > rel_long

    def test_never_negative(self):
        n = NoiseModel(seed=5, rel_sigma=0.5)
        samples = n.measure_many(1e-9, "n", 500)
        assert (samples > 0).all()


class TestMedian:
    def test_other_axes_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            median(np.ones((2, 2)), axis=0)

    @pytest.mark.parametrize("argv", [["predict", "--suite", "nr"],
                                      ["figure7"]])
    def test_commands_leave_numpy_ma_unloaded(self, argv):
        def run(code):
            env = dict(os.environ, PYTHONPATH=str(
                Path(repro.__file__).resolve().parents[1]))
            return subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True,
                                  check=True).stdout.split()[-1]

        if run("import sys, numpy; print('numpy.ma' in sys.modules)") \
                == "True":
            pytest.skip("a bare `import numpy` loads numpy.ma here")
        assert run("import sys\n"
                   "from repro.cli import main\n"
                   f"assert main({argv!r}) == 0\n"
                   "print('numpy.ma' in sys.modules)") == "False"
