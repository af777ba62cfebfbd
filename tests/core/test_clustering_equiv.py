"""Property suite: the vectorized greedy linkage is *bit-compatible*
with the O(n³) reference loop, alone and stacked, the one-pass W(k)
curve with re-cutting the dendrogram at every k, and the stacked
elbow's sums of squares and centroid distances with each cluster
computed alone.

These are the equivalence guarantees the clustering layer rests on (see
docs/PERFORMANCE.md): the same linkage matrix bit for bit, the same
W(k) bits — including on exact distance ties, which the
``duplicates`` / ``quantized`` / ``lattice`` matrix variants
manufacture on purpose, and on the normalized feature matrices the
pipeline really clusters.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clustering import (ELBOW_K_MAX, LINKAGE_METHODS,
                                   cluster_spreads, elbow_k, elbow_stack,
                                   linkage, linkage_reference,
                                   linkage_stack, variance_curve,
                                   ward_linkage, within_cluster_variance)
from repro.core.features import (ALL_FEATURE_NAMES, TABLE2_FEATURES,
                                 FeatureMatrix)
from repro.core.ga import INIT_DENSITY
from repro.verify.strategies import FEATURE_MATRIX_VARIANTS, _feature_matrix
from tests.strategies import feature_matrices

METHODS = sorted(LINKAGE_METHODS)

#: The normalized matrices `repro report` clusters: the pipeline's 14
#: features and all 76 (the widest matrix the GA evaluates).
PIPELINE_MATRICES = pytest.mark.parametrize("suite, features, shape", [
    ("nr", TABLE2_FEATURES, (28, 14)),
    ("nr", ALL_FEATURE_NAMES, (28, 76)),
    ("nas", TABLE2_FEATURES, (67, 14)),
    ("nas", ALL_FEATURE_NAMES, (67, 76)),
], ids=["nr-pipeline", "nr-all", "nas-pipeline", "nas-all"])


def pipeline_rows(ctx, suite, features, shape):
    profiles = getattr(ctx, suite).profiling().profiles
    rows = FeatureMatrix.from_profiles(profiles, features).normalized()
    assert rows.shape == shape
    return rows


def assert_same_dendrogram(fast, slow):
    """Bitwise equality of the linkage matrices; every cut is a
    function of the matrix."""
    assert fast.Z.shape == slow.Z.shape
    # The contract is bitwise, but assert with a tolerance first so a
    # near-miss shrinks to a readable report.
    np.testing.assert_allclose(fast.Z, slow.Z, rtol=0, atol=1e-9)
    assert fast.Z.tobytes() == slow.Z.tobytes(), \
        "linkage matrices must be bit-identical"


class TestLinkageEquivalence:
    @given(points=feature_matrices(), method=st.sampled_from(METHODS))
    @settings(max_examples=60, deadline=None)
    def test_fast_matches_reference(self, points, method):
        fast = linkage(points, method=method)
        slow = linkage_reference(points, method=method)
        assert_same_dendrogram(fast, slow)

    @PIPELINE_MATRICES
    def test_pipeline_matrices_match_reference(self, ctx, suite, features,
                                               shape):
        rows = pipeline_rows(ctx, suite, features, shape)
        assert_same_dendrogram(linkage(rows, method="ward"),
                               linkage_reference(rows, method="ward"))


#: Column counts of the stacked sets: one feature, a few, the
#: pipeline's 14 and all 76 (the GA's widest mask).
STACK_COLUMNS = (1, 4, 14, 76)


class TestStackedLinkage:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("variant", FEATURE_MATRIX_VARIANTS)
    @pytest.mark.parametrize("size", (1, 2, 60))
    def test_each_matrix_matches_reference(self, size, variant, method):
        # Widths cycle through STACK_COLUMNS within a stack, and the
        # smaller stacks start at every offset that covers them all.
        for start in range(0, len(STACK_COLUMNS), size):
            stack = [_feature_matrix(
                100 * start + j, 28,
                STACK_COLUMNS[(start + j) % len(STACK_COLUMNS)], variant)
                for j in range(size)]
            got = linkage_stack(stack, method)
            assert len(got) == size
            for points, dendrogram in zip(stack, got):
                assert_same_dendrogram(
                    dendrogram, linkage_reference(points, method=method))

    def test_ga_population_of_nr_masks(self, ctx):
        # 60 masks drawn like run_ga's initial population, over the
        # normalized NR matrix the GA really links.
        rows = pipeline_rows(ctx, "nr", ALL_FEATURE_NAMES, (28, 76))
        rng = np.random.default_rng(5)
        masks = rng.random((60, rows.shape[1])) < INIT_DENSITY
        for mask in masks:
            if not mask.any():
                mask[rng.integers(rows.shape[1])] = True
        stack = [rows[:, mask] for mask in masks]
        for points, dendrogram in zip(stack, linkage_stack(stack)):
            assert_same_dendrogram(dendrogram, linkage_reference(points))

    def test_empty_stack(self):
        assert linkage_stack([]) == []

    def test_mismatched_row_counts_rejected(self):
        stack = [_feature_matrix(1, 12, 3, "plain"),
                 _feature_matrix(2, 11, 3, "plain")]
        with pytest.raises(ValueError, match="same number of rows"):
            linkage_stack(stack)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_set_rejected(self, bad):
        points = _feature_matrix(3, 12, 3, "plain")
        broken = points.copy()
        broken[4, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            linkage_stack([points, broken])


def per_cut_curve(points, dendrogram, k_max=None):
    """W(1..k_max) the direct way: cut the dendrogram at every k and
    re-mean every cluster."""
    n = dendrogram.n_leaves
    return np.array([within_cluster_variance(points, dendrogram.cut(k))
                     for k in range(1, min(k_max or n, n) + 1)])


class TestVarianceCurveEquivalence:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("variant", FEATURE_MATRIX_VARIANTS)
    def test_matches_per_cut_reference(self, variant, method):
        # n from one leaf to just above the NAS suite's 67; integer
        # variants make tied distances and duplicate rows.
        for seed, n in enumerate((1, 2, 3, 5, 13, 28, 46, 69)):
            points = _feature_matrix(seed, n, 1 + seed % 6, variant)
            dendrogram = linkage(points, method=method)
            for k_max in (None, 1, 2, 24, n):
                got = variance_curve(points, dendrogram, k_max)
                want = per_cut_curve(points, dendrogram, k_max)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (n, k_max)

    @PIPELINE_MATRICES
    def test_pipeline_matrices_match_per_cut(self, ctx, suite, features,
                                             shape):
        rows = pipeline_rows(ctx, suite, features, shape)
        dendrogram = ward_linkage(rows)
        assert variance_curve(rows, dendrogram, 24).tobytes() \
            == per_cut_curve(rows, dendrogram, 24).tobytes()

    def test_row_count_mismatch_rejected(self):
        points = _feature_matrix(3, 10, 4, "plain")
        dendrogram = ward_linkage(points)
        for rows in (points[:-1], np.vstack([points, points[:1]])):
            with pytest.raises(ValueError, match="rows"):
                variance_curve(rows, dendrogram)


#: Column counts of the elbow stacks: none (an all-false mask), one
#: (whose members numpy sums pairwise), a few, each side of the 8-wide
#: block of numpy's pairwise summation, and all 76.
SPREAD_COLUMNS = (0, 1, 2, 7, 8, 9, 17, 76)


def spread_alone(points, members):
    """A cluster's sum of squares and centroid distances computed on
    that cluster alone, the way the per-cluster code does."""
    pts = points[members]
    sse = within_cluster_variance(pts, np.zeros(len(members), dtype=int))
    return sse, np.linalg.norm(pts - pts.mean(axis=0), axis=1)


def spread_stack(size, rows=28):
    return [_feature_matrix(
        100 * size + j, rows, SPREAD_COLUMNS[j % len(SPREAD_COLUMNS)],
        FEATURE_MATRIX_VARIANTS[j % len(FEATURE_MATRIX_VARIANTS)])
        for j in range(size)]


def assert_elbows_match_alone(stack, cuts, dendrograms, k_max):
    """Each set's curve is the per-cut reference and its distances at
    K are each cluster's own norm, bit for bit."""
    assert len(cuts) == len(stack)
    for points, dendrogram, cut in zip(stack, dendrograms, cuts):
        assert cut.curve.tobytes() == per_cut_curve(
            points, dendrogram, k_max).tobytes()
        labels = dendrogram.cut(cut.k)
        clusters = np.unique(labels)
        assert len(cut.distances) == len(clusters)
        for lab, got in zip(clusters, cut.distances):
            members = np.flatnonzero(labels == lab)
            assert got.tobytes() == spread_alone(points,
                                                 members)[1].tobytes()


class TestClusterSpreads:
    @pytest.mark.parametrize("size", (1, 2, 60))
    def test_stack_matches_each_cluster_alone(self, size):
        # Member counts from one to all 28 rows: one-column clusters of
        # 8 or more sum pairwise, and m·f reaches past 128, where the
        # pairwise summation splits into blocks.
        stack = spread_stack(size)
        rng = np.random.default_rng(size)
        clusters = [(p, sorted(rng.choice(28, m, replace=False).tolist()))
                    for p in range(size)
                    for m in (1, 2, 3, 7, 8, 9, 15, 16, 17, 28)]
        sse, distances = cluster_spreads(stack, clusters)
        assert sse.shape == (len(clusters),)
        for (p, members), got_sse, got in zip(clusters, sse, distances):
            want_sse, want = spread_alone(stack[p], members)
            assert float(got_sse).hex() == want_sse.hex(), (p, members)
            assert got.tobytes() == want.tobytes(), (p, members)

    @PIPELINE_MATRICES
    def test_pipeline_matrices_match_each_cluster_alone(
            self, ctx, suite, features, shape):
        rows = pipeline_rows(ctx, suite, features, shape)
        dendrogram = ward_linkage(rows)
        clusters = [(0, np.flatnonzero(labels == lab).tolist())
                    for labels in (dendrogram.cut(k) for k in (1, 2, 5, 14))
                    for lab in np.unique(labels)]
        sse, distances = cluster_spreads([rows], clusters)
        for (_, members), got_sse, got in zip(clusters, sse, distances):
            want_sse, want = spread_alone(rows, members)
            assert float(got_sse).hex() == want_sse.hex()
            assert got.tobytes() == want.tobytes()


class TestElbowStack:
    @pytest.mark.parametrize("size", (1, 2, 60))
    @pytest.mark.parametrize("rows", (2, 12, 28))
    def test_each_set_matches_per_cut_reference(self, rows, size):
        stack = spread_stack(size, rows)
        dendrograms = linkage_stack(stack)
        for k_max in (None, 1, ELBOW_K_MAX):
            cuts = elbow_stack(stack, dendrograms, k_max)
            assert_elbows_match_alone(stack, cuts, dendrograms, k_max)
            # Each K is the one the set gets in a stack of its own.
            assert [cut.k for cut in cuts] == [
                elbow_stack([points], [dendrogram], k_max)[0].k
                for points, dendrogram in zip(stack, dendrograms)]

    def test_ga_population_of_nr_masks(self, ctx):
        # 60 masks drawn like run_ga's initial population, plus an
        # all-false one, over the normalized NR matrix the GA cuts.
        rows = pipeline_rows(ctx, "nr", ALL_FEATURE_NAMES, (28, 76))
        rng = np.random.default_rng(7)
        masks = rng.random((60, rows.shape[1])) < INIT_DENSITY
        masks[0] = False
        stack = [rows[:, mask] for mask in masks]
        dendrograms = linkage_stack(stack)
        cuts = elbow_stack(stack, dendrograms, ELBOW_K_MAX)
        assert_elbows_match_alone(stack, cuts, dendrograms, ELBOW_K_MAX)
        assert [cut.k for cut in cuts] == [
            elbow_k(points, dendrogram, ELBOW_K_MAX)
            for points, dendrogram in zip(stack, dendrograms)]

    @PIPELINE_MATRICES
    def test_pipeline_matrices_match_per_cut(self, ctx, suite, features,
                                             shape):
        rows = pipeline_rows(ctx, suite, features, shape)
        dendrogram = ward_linkage(rows)
        cuts = elbow_stack([rows], [dendrogram], ELBOW_K_MAX)
        assert_elbows_match_alone([rows], cuts, [dendrogram], ELBOW_K_MAX)

    def test_empty_stack(self):
        assert elbow_stack([], []) == []

    def test_mismatched_stack_rejected(self):
        points = [_feature_matrix(1, 12, 3, "plain"),
                  _feature_matrix(2, 11, 3, "plain")]
        dendrograms = [ward_linkage(p) for p in points]
        with pytest.raises(ValueError, match="same number of rows"):
            elbow_stack(points, dendrograms)
        with pytest.raises(ValueError, match="dendrograms"):
            elbow_stack(points, dendrograms[:1])


class TestValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    def test_within_cluster_variance_rejects_non_finite(self, bad):
        # Unchecked, a one-row cluster at inf scored nan (and the
        # singleton shortcut would have scored it 0.0).
        with pytest.raises(ValueError, match="non-finite"):
            within_cluster_variance([[bad]], [0])
        with pytest.raises(ValueError, match="non-finite"):
            within_cluster_variance([[0.0, 1.0], [bad, 2.0]], [0, 1])

    @pytest.mark.parametrize("points, match", [
        (np.zeros((0, 3)), "zero observations"),
        (np.arange(5.0), "2-D"),
        (np.zeros((2, 2, 2)), "2-D"),
    ], ids=["empty", "1-d", "3-d"])
    def test_within_cluster_variance_rejects_malformed(self, points,
                                                       match):
        with pytest.raises(ValueError, match=match):
            within_cluster_variance(points, np.zeros(len(points), int))

    @staticmethod
    def _broken_copy(bad):
        points = _feature_matrix(7, 28, 5, "plain")
        broken = points.copy()
        broken[6, 2] = bad
        return points, broken

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    def test_variance_curve_rejects_non_finite(self, bad):
        points, broken = self._broken_copy(bad)
        dendrogram = ward_linkage(points)
        with pytest.raises(ValueError, match="non-finite"):
            variance_curve(broken, dendrogram, 24)
        with pytest.raises(ValueError, match="2-D"):
            variance_curve(points[:, 0], dendrogram, 24)

    @pytest.mark.parametrize("k_max", [0, -1, -24])
    def test_k_max_below_one_rejected(self, k_max):
        # 0 used to mean "no cap" and a negative value failed inside
        # numpy with "negative dimensions are not allowed".
        points = _feature_matrix(7, 28, 5, "plain")
        dendrogram = ward_linkage(points)
        for call in (elbow_k, variance_curve):
            with pytest.raises(ValueError, match="k_max"):
                call(points, dendrogram, k_max)
        with pytest.raises(ValueError, match="k_max"):
            elbow_stack([points], [dendrogram], k_max)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    def test_elbow_k_rejects_non_finite(self, bad):
        # Unchecked, an inf entry made the elbow 24 (21 on the finite
        # points), with only a RuntimeWarning.
        points, broken = self._broken_copy(bad)
        dendrogram = ward_linkage(points)
        with pytest.raises(ValueError, match="non-finite"):
            elbow_k(broken, dendrogram, 24)
        # Two leaves skip the curve but not the check.
        with pytest.raises(ValueError, match="non-finite"):
            elbow_k(broken[5:7], ward_linkage(points[5:7]))

    @pytest.mark.parametrize("impl", [linkage, linkage_reference],
                             ids=["linkage", "reference"])
    @pytest.mark.parametrize("points, match", [
        (np.zeros((0, 3)), "zero observations"),
        (np.arange(5.0), "2-D"),
        (np.zeros((2, 2, 2)), "2-D"),
        ([[0.0, 1.0], [np.nan, 2.0], [3.0, 1.0]], "non-finite"),
        ([[0.0, 1.0], [np.inf, 2.0], [3.0, 1.0]], "non-finite"),
        ([[0.0, 1.0], [-np.inf, 2.0], [3.0, 1.0]], "non-finite"),
    ], ids=["empty", "1-d", "3-d", "nan", "inf", "-inf"])
    def test_malformed_input_rejected(self, impl, points, match):
        # Both linkages share one check: unchecked, a NaN row yields NaN
        # heights and the reference merges a cluster with itself.
        with pytest.raises(ValueError, match=match):
            impl(points)
