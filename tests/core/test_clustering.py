"""Tests for the from-scratch Ward clustering, cross-checked against
scipy's reference implementation and via structural properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import fcluster, linkage

from repro.core.clustering import (Dendrogram, Merge, elbow_k,
                                   variance_curve, ward_linkage,
                                   within_cluster_variance)


def _random_points(n, d, seed):
    return np.random.default_rng(seed).normal(size=(n, d))


def _labels_equivalent(a, b):
    """Same partition up to label renaming."""
    mapping = {}
    for x, y in zip(a, b):
        if x in mapping and mapping[x] != y:
            return False
        mapping[x] = y
    return len(set(mapping.values())) == len(mapping)


class TestWardAgainstScipy:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("n,d", [(8, 2), (20, 5), (40, 10)])
    def test_merge_heights_match(self, n, d, seed):
        pts = _random_points(n, d, seed)
        ours = ward_linkage(pts)
        ref = linkage(pts, method="ward")
        np.testing.assert_allclose(ours.heights(), ref[:, 2],
                                   rtol=1e-8)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_cuts_match(self, seed, k):
        pts = _random_points(24, 4, seed)
        ours = ward_linkage(pts).cut(k)
        ref = fcluster(linkage(pts, method="ward"), k,
                       criterion="maxclust")
        assert _labels_equivalent(ours, ref)


class TestDendrogram:
    def test_cut_extremes(self):
        pts = _random_points(10, 3, 7)
        dg = ward_linkage(pts)
        assert len(np.unique(dg.cut(1))) == 1
        assert len(np.unique(dg.cut(10))) == 10

    def test_cut_bounds_checked(self):
        dg = ward_linkage(_random_points(5, 2, 0))
        with pytest.raises(ValueError):
            dg.cut(0)
        with pytest.raises(ValueError):
            dg.cut(6)

    def test_single_observation(self):
        dg = ward_linkage(np.zeros((1, 4)))
        assert dg.n_leaves == 1
        np.testing.assert_array_equal(dg.cut(1), [0])

    def test_heights_monotone(self):
        for seed in range(5):
            dg = ward_linkage(_random_points(30, 6, seed))
            h = dg.heights()
            assert (np.diff(h) >= -1e-9).all()

    def test_obvious_clusters_found(self):
        rng = np.random.default_rng(11)
        a = rng.normal(0, 0.05, size=(10, 2))
        b = rng.normal(5, 0.05, size=(10, 2)) + [5, 0]
        pts = np.vstack([a, b])
        labels = ward_linkage(pts).cut(2)
        assert len(set(labels[:10])) == 1
        assert len(set(labels[10:])) == 1
        assert labels[0] != labels[10]

    @given(st.integers(3, 16), st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_cut_produces_exactly_k_clusters(self, n, seed):
        pts = _random_points(n, 3, seed)
        dg = ward_linkage(pts)
        for k in range(1, n + 1):
            assert len(np.unique(dg.cut(k))) == k

    @given(st.integers(4, 14), st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_cuts_are_nested_refinements(self, n, seed):
        """cut(k+1) refines cut(k): no pair split in k is rejoined."""
        pts = _random_points(n, 3, seed)
        dg = ward_linkage(pts)
        for k in range(1, n):
            coarse = dg.cut(k)
            fine = dg.cut(k + 1)
            for x in range(n):
                for y in range(x + 1, n):
                    if fine[x] == fine[y]:
                        assert coarse[x] == coarse[y]


class TestVarianceAndElbow:
    def test_variance_zero_at_full_split(self):
        pts = _random_points(12, 4, 3)
        assert within_cluster_variance(pts, np.arange(12)) == \
            pytest.approx(0.0)

    def test_variance_total_at_one_cluster(self):
        pts = _random_points(12, 4, 3)
        w1 = within_cluster_variance(pts, np.zeros(12, dtype=int))
        total = ((pts - pts.mean(axis=0)) ** 2).sum()
        assert w1 == pytest.approx(total)

    @given(st.integers(5, 20), st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_variance_curve_monotone_decreasing(self, n, seed):
        pts = _random_points(n, 4, seed)
        dg = ward_linkage(pts)
        w = variance_curve(pts, dg)
        assert (np.diff(w) <= 1e-9).all()

    def test_elbow_finds_planted_k(self):
        rng = np.random.default_rng(21)
        centers = np.array([[0, 0], [10, 0], [0, 10], [10, 10]])
        pts = np.vstack([c + rng.normal(0, 0.1, size=(12, 2))
                         for c in centers])
        dg = ward_linkage(pts)
        k = elbow_k(pts, dg, k_max=24)
        assert k == 4

    def test_elbow_identical_points(self):
        pts = np.ones((10, 3))
        dg = ward_linkage(pts)
        assert elbow_k(pts, dg) == 1

    def test_elbow_respects_k_max(self):
        # Two points skip the curve, but not the cap.
        for n, k_max in ((30, 5), (2, 1)):
            pts = _random_points(n, 3, 9)
            dg = ward_linkage(pts)
            assert elbow_k(pts, dg, k_max=k_max) <= k_max

    def test_threshold_controls_k(self):
        pts = _random_points(40, 5, 10)
        dg = ward_linkage(pts)
        loose = elbow_k(pts, dg, threshold=0.05)
        tight = elbow_k(pts, dg, threshold=0.001)
        assert tight >= loose


class TestCutChainRegression:
    """``cut`` on a degenerate chain dendrogram (every merge absorbs one
    more leaf).  With naive union-find linking this shape degenerates to
    quadratic find chains; union by rank + path compression keeps it
    near-linear.  1k leaves is large enough that a regression here is
    obvious in CI wall time while the healthy path stays instant."""

    @staticmethod
    def _chain(n: int) -> Dendrogram:
        merges = [Merge(a=0, b=1, height=1.0, size=2)]
        for i in range(1, n - 1):
            # Merge i joins the growing chain (cluster id n + i - 1)
            # with leaf i + 1.
            merges.append(Merge(a=n + i - 1, b=i + 1,
                                height=float(i + 1), size=i + 2))
        return Dendrogram(n_leaves=n, merges=tuple(merges))

    def test_chain_cut_labels(self):
        n = 1000
        dg = self._chain(n)
        assert list(dg.cut(1)) == [0] * n
        assert list(dg.cut(n)) == list(range(n))
        # Cutting to k clusters leaves the first n - k + 1 leaves fused
        # and the remaining k - 1 leaves singleton, in first-appearance
        # label order.
        for k in (2, 17, 500, 999):
            labels = list(dg.cut(k))
            fused = n - k + 1
            assert labels == [0] * fused + list(range(1, k))

    def test_chain_cut_is_fast(self):
        import time
        dg = self._chain(1000)
        start = time.perf_counter()
        for k in range(1, 1001, 50):
            dg.cut(k)
        assert time.perf_counter() - start < 2.0
