"""Tests for reduction-factor accounting and dendrogram rendering."""

import numpy as np
import pytest

from repro.codelets import Measurer, find_suite_codelets, profile_codelets
from repro.core.clustering import ward_linkage
from repro.core.reduction import reduction_breakdown
from repro.machine import ATOM, CORE2
from repro.suites import build_nr_suite


@pytest.fixture(scope="module")
def nr_profiles():
    m = Measurer()
    return m, profile_codelets(find_suite_codelets(build_nr_suite()),
                               m).profiles


class TestReductionBreakdown:
    def test_identity_when_all_representatives(self, nr_profiles):
        m, profiles = nr_profiles
        reps = [p.name for p in profiles]
        r = reduction_breakdown(profiles, reps, m, CORE2)
        assert r.clustering_factor == pytest.approx(1.0)
        assert r.total_factor == pytest.approx(r.invocation_factor)

    def test_fewer_reps_larger_clustering_factor(self, nr_profiles):
        m, profiles = nr_profiles
        all_reps = reduction_breakdown(
            profiles, [p.name for p in profiles], m, CORE2)
        few_reps = reduction_breakdown(
            profiles, [profiles[0].name, profiles[5].name], m, CORE2)
        assert few_reps.clustering_factor > all_reps.clustering_factor

    def test_decomposition_identity(self, nr_profiles):
        m, profiles = nr_profiles
        reps = [p.name for p in profiles[:7]]
        r = reduction_breakdown(profiles, reps, m, ATOM)
        assert r.total_factor == pytest.approx(
            r.invocation_factor * r.clustering_factor)

    def test_all_components_positive(self, nr_profiles):
        m, profiles = nr_profiles
        r = reduction_breakdown(profiles, [profiles[3].name], m, ATOM)
        assert r.full_suite_seconds > 0
        assert r.all_reduced_seconds > 0
        assert r.representative_seconds > 0
        assert r.representative_seconds <= r.all_reduced_seconds


class TestDendrogramRender:
    def _dendrogram(self, n=8, seed=0):
        pts = np.random.default_rng(seed).normal(size=(n, 3))
        return ward_linkage(pts)

    def test_one_line_per_leaf(self):
        dg = self._dendrogram(8)
        text = dg.render([f"leaf{i}" for i in range(8)])
        assert len(text.splitlines()) == 8

    def test_labels_present(self):
        dg = self._dendrogram(5)
        labels = [f"codelet_{i}" for i in range(5)]
        text = dg.render(labels)
        for label in labels:
            assert label in text

    def test_leaf_order_groups_tight_pairs(self):
        # Two planted clusters must come out contiguous in the render.
        rng = np.random.default_rng(4)
        a = rng.normal(0, 0.01, size=(3, 2))
        b = rng.normal(10, 0.01, size=(3, 2))
        dg = ward_linkage(np.vstack([a, b]))
        lines = dg.render(["a0", "a1", "a2", "b0", "b1", "b2"]).splitlines()
        order = [line.split()[0][0] for line in lines]
        assert order in (["a"] * 3 + ["b"] * 3, ["b"] * 3 + ["a"] * 3)

    def test_early_merges_get_longer_bars(self):
        rng = np.random.default_rng(5)
        tight = rng.normal(0, 0.001, size=(2, 2))
        far = rng.normal(50, 0.001, size=(1, 2))
        dg = ward_linkage(np.vstack([tight, far]))
        lines = {line.split()[0]: line.count("-")
                 for line in dg.render(["t0", "t1", "far"]).splitlines()}
        assert lines["t0"] > lines["far"]

    def test_label_count_checked(self):
        dg = self._dendrogram(4)
        with pytest.raises(ValueError):
            dg.render(["only", "three", "labels"])

    def test_single_leaf(self):
        dg = ward_linkage(np.zeros((1, 2)))
        assert "solo" in dg.render(["solo"])
