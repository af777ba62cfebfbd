"""The promoted suite/codelet generators and Hypothesis strategies."""

import pytest

from repro.codelets import Codelet, Measurer
from repro.core.pipeline import BenchmarkReducer
from repro.machine import REFERENCE
from repro.runtime.fingerprint import codelet_fingerprint
from repro.verify import (KERNEL_SHAPES, random_codelets,
                          synthetic_suite)

pytestmark = pytest.mark.verify


class TestSeededGenerators:
    def test_same_seed_reproduces_codelets_exactly(self):
        a = random_codelets(7, 6)
        b = random_codelets(7, 6)
        assert [c.name for c in a] == [c.name for c in b]
        assert ([codelet_fingerprint(c) for c in a]
                == [codelet_fingerprint(c) for c in b])

    def test_different_seeds_differ(self):
        a = random_codelets(7, 6)
        b = random_codelets(8, 6)
        assert ([codelet_fingerprint(c) for c in a]
                != [codelet_fingerprint(c) for c in b])

    def test_tame_codelets_are_well_behaved_and_measurable(self):
        measurer = Measurer()
        for c in random_codelets(3, 8, tame=True):
            assert len(c.variants) == 1
            assert not c.fragile_opt
            assert c.pressure_bytes == 0.0
            assert not measurer.is_ill_behaved(c, REFERENCE)

    def test_suite_shape_and_end_to_end_run(self):
        suite = synthetic_suite(5, n_apps=2, codelets_per_app=3)
        assert suite.name == "SYN-5"
        assert len(suite.applications) == 2
        assert sum(len(a.regions()) for a in suite.applications) == 6
        reduced = BenchmarkReducer(suite, Measurer()).reduce("elbow")
        assert len(reduced.profiles) + len(reduced.discarded) == 6

    def test_wild_generator_exercises_the_measurability_filter(self):
        # Across a handful of seeds some codelets must fall on each
        # side of the 1M-cycle filter, or the "wild" space is not wild.
        suite = synthetic_suite(0, n_apps=3, codelets_per_app=4)
        reduced = BenchmarkReducer(suite, Measurer()).reduce("elbow")
        assert reduced.profiles
        assert reduced.discarded


class TestHypothesisStrategies:
    def test_codelet_lists_strategy_draws_codelets(self):
        hypothesis = pytest.importorskip("hypothesis")
        from tests.strategies import codelet_lists

        @hypothesis.settings(max_examples=10, deadline=None)
        @hypothesis.given(codelet_lists(min_count=2, max_count=4))
        def check(codelets):
            assert 2 <= len(codelets) <= 4
            assert all(isinstance(c, Codelet) for c in codelets)

        check()

    def test_architecture_configs_scale_frequency_exactly(self):
        hypothesis = pytest.importorskip("hypothesis")
        from repro.machine import ALL_ARCHITECTURES
        from tests.strategies import architecture_configs

        base_freqs = {a.name: a.freq_ghz for a in ALL_ARCHITECTURES}

        @hypothesis.settings(max_examples=20, deadline=None)
        @hypothesis.given(architecture_configs())
        def check(arch):
            base_name = arch.name.split(" x")[0]
            ratio = arch.freq_ghz / base_freqs[base_name]
            assert ratio in (0.5, 1.0, 2.0)

        check()

    def test_kernel_shape_catalogue(self):
        assert set(KERNEL_SHAPES) == {"stream", "reduction",
                                      "recurrence", "stencil"}
        for name, (make, depth) in KERNEL_SHAPES.items():
            kernel = make(f"cat_{name}", 128)
            assert kernel.name == f"cat_{name}"
            assert depth in (1, 2)
