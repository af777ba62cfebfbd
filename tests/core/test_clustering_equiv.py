"""Property suite: the vectorized greedy linkage is *bit-compatible*
with the O(n³) reference loop.

This is the equivalence guarantee the clustering layer rests on (see
docs/PERFORMANCE.md): same merges, same heights, same ``cut()`` labels
— including on exact distance ties, which the ``duplicates`` /
``quantized`` / ``lattice`` matrix variants manufacture on purpose,
and on the normalized feature matrices the pipeline really clusters.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clustering import (LINKAGE_METHODS, linkage,
                                   linkage_reference)
from repro.core.features import (ALL_FEATURE_NAMES, TABLE2_FEATURES,
                                 FeatureMatrix)
from repro.verify.strategies import feature_matrices

METHODS = sorted(LINKAGE_METHODS)


def assert_same_dendrogram(fast, slow):
    """Bitwise merge/height equality plus identical cuts at every k."""
    assert len(fast.merges) == len(slow.merges)
    for mf, ms in zip(fast.merges, slow.merges):
        assert (mf.a, mf.b, mf.size) == (ms.a, ms.b, ms.size)
        # The contract is bitwise, but assert with a tolerance message
        # first so a near-miss shrinks to a readable report.
        assert mf.height == pytest.approx(ms.height, abs=1e-9)
        assert mf.height == ms.height, "heights must be bit-identical"
    for k in range(1, fast.n_leaves + 1):
        assert list(fast.cut(k)) == list(slow.cut(k))


class TestLinkageEquivalence:
    @given(points=feature_matrices(), method=st.sampled_from(METHODS))
    @settings(max_examples=60, deadline=None)
    def test_fast_matches_reference(self, points, method):
        fast = linkage(points, method=method)
        slow = linkage_reference(points, method=method)
        assert_same_dendrogram(fast, slow)

    @pytest.mark.parametrize("suite, features, shape", [
        ("nr", TABLE2_FEATURES, (28, 14)),
        ("nr", ALL_FEATURE_NAMES, (28, 76)),
        ("nas", TABLE2_FEATURES, (67, 14)),
        ("nas", ALL_FEATURE_NAMES, (67, 76)),
    ], ids=["nr-pipeline", "nr-all", "nas-pipeline", "nas-all"])
    def test_pipeline_matrices_match_reference(self, ctx, suite, features,
                                               shape):
        # The sizes `repro report` clusters: the pipeline's 14 features
        # and all 76 (the widest matrix the GA evaluates).
        profiles = getattr(ctx, suite).profiling().profiles
        rows = FeatureMatrix.from_profiles(profiles, features).normalized()
        assert rows.shape == shape
        assert_same_dendrogram(linkage(rows, method="ward"),
                               linkage_reference(rows, method="ward"))


class TestValidation:
    def test_skew_requires_ward(self):
        with pytest.raises(ValueError, match="ward"):
            linkage(np.zeros((3, 2)), method="single",
                    ward_coeff_skew=1e-3)

    def test_skew_changes_the_dendrogram(self):
        # The planted slow-path-skew defect must actually be observable.
        rng = np.random.default_rng(11)
        points = rng.normal(size=(24, 4))
        plain = linkage(points)
        skewed = linkage(points, ward_coeff_skew=1e-3)
        assert any(a.height != b.height
                   for a, b in zip(plain.merges, skewed.merges))

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
