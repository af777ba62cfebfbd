"""Acceptance: serial-cold vs parallel-warm pipeline runs are
bit-identical on the seed suite, and a warm-cache re-run re-profiles
nothing (verified by cache-hit counters)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codelets import Measurer, find_suite_codelets
from repro.core.pipeline import (BenchmarkReducer, SubsettingConfig,
                                 evaluate_on_target)
from repro.machine import TARGETS
from repro.runtime import RuntimeConfig, make_executor
from repro.suites import build_nas_suite

pytestmark = pytest.mark.runtime


@pytest.fixture(scope="module")
def suite():
    return build_nas_suite()


@pytest.fixture(scope="module")
def serial_reduced(suite):
    """The reference result: serial, cold, no cache."""
    return BenchmarkReducer(suite, Measurer()).reduce("elbow")


def test_serial_cold_vs_parallel_warm_bit_identical(suite, serial_reduced,
                                                    tmp_path):
    config = SubsettingConfig(runtime=RuntimeConfig(
        jobs=2, cache_dir=str(tmp_path / "cache")))
    n_codelets = len(find_suite_codelets(suite))

    # Cold parallel run populates the cache...
    cold = BenchmarkReducer(suite, Measurer(), config)
    cold_reduced = cold.reduce("elbow")
    assert cold.cache_stats.misses == n_codelets
    assert cold.cache_stats.stores == n_codelets
    assert cold.cache_stats.hits == 0

    # ...and a warm parallel run re-profiles nothing at all.
    warm = BenchmarkReducer(suite, Measurer(), config)
    warm_reduced = warm.reduce("elbow")
    assert warm.cache_stats.hits == n_codelets
    assert warm.cache_stats.misses == 0
    assert warm.cache_stats.stores == 0

    for reduced in (cold_reduced, warm_reduced):
        # Same labels (bit-identical cluster assignment)...
        assert np.array_equal(reduced.labels, serial_reduced.labels)
        # ...same representatives, clusters and elbow...
        assert reduced.representatives == serial_reduced.representatives
        assert (reduced.selection.clusters
                == serial_reduced.selection.clusters)
        assert reduced.elbow == serial_reduced.elbow
        assert reduced.k == serial_reduced.k
        # ...and bit-identical profiles and feature rows.
        assert reduced.profiles == serial_reduced.profiles
        assert np.array_equal(reduced.normalized_rows,
                              serial_reduced.normalized_rows)
        assert reduced.discarded == serial_reduced.discarded


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.name)
def test_parallel_evaluation_bit_identical(serial_reduced, target):
    serial_eval = evaluate_on_target(serial_reduced, target, Measurer())
    with make_executor(2) as executor:
        parallel_eval = evaluate_on_target(serial_reduced, target,
                                           Measurer(), executor=executor)
    assert (parallel_eval.median_error_pct
            == serial_eval.median_error_pct)
    assert (parallel_eval.average_error_pct
            == serial_eval.average_error_pct)
    assert parallel_eval.codelets == serial_eval.codelets
    assert parallel_eval.applications == serial_eval.applications
    assert parallel_eval.reduction == serial_eval.reduction


def test_cache_stats_none_without_cache(suite):
    reducer = BenchmarkReducer(suite, Measurer())
    assert reducer.cache_stats is None

