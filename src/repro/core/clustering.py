"""Hierarchical clustering with Ward's criterion (Section 3.3).

Implemented from scratch: agglomerative merging under the Lance-Williams
update for Ward's minimum-variance criterion, a dendrogram that can be
cut at any K, total within-cluster variance, and the Elbow method for
automatic K selection (Thorndike 1953, as the paper cites).

:func:`linkage_stack` is the one vectorized greedy loop.  It links a
stack of P point sets with the same row count side by side (the GA
links a generation's masks in one call), and :func:`linkage` is its
stack of one.  Every step merges, in each matrix, the pair at its
row-major first minimum and updates the merged cluster's whole row at
once.  Row-major first occurrence is the lexicographically smallest
minimal pair, and the row update mirrors the scalar Lance-Williams
formula term for term, element by element, so each dendrogram is
merge-for-merge and bit-for-bit that of :func:`linkage_reference` on
its own set, the scalar O(n^3) loop kept as the oracle of the verify
harness and the property tests.  The pipeline clusters at most 67
codelets, where the n argmins cost a few milliseconds (see
docs/PERFORMANCE.md).

:func:`variance_curve` computes the elbow's W(1..k_max) in one pass
over the merge sequence, re-meaning only the clusters that are live at
``k_max`` or created after it.  It repeats the floating-point work of
re-cutting the dendrogram at every k and calling
:func:`within_cluster_variance`, so each W(k) is the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Merge:
    """One agglomeration step: clusters ``a`` and ``b`` join at
    ``height`` (the Ward distance), forming a cluster of ``size``."""

    a: int
    b: int
    height: float
    size: int


@dataclass(frozen=True)
class Dendrogram:
    """The full merge history of ``n_leaves`` observations.

    Cluster ids follow the scipy convention: leaves are ``0..n-1``,
    merge ``i`` creates cluster ``n + i``.
    """

    n_leaves: int
    merges: Tuple[Merge, ...]

    def __post_init__(self):
        if len(self.merges) != self.n_leaves - 1:
            raise ValueError("a dendrogram has n-1 merges")

    def cut(self, k: int) -> np.ndarray:
        """Labels (0..k-1) for a cut producing ``k`` clusters.

        Cutting applies the first ``n - k`` merges — equivalently, cuts
        the tree just below the height of merge ``n - k``.  The
        union-find uses union by rank with full path compression, so a
        cut stays near-linear even on chain-shaped dendrograms where
        naive linking degenerates quadratically.
        """
        if not 1 <= k <= self.n_leaves:
            raise ValueError(f"k must be in [1, {self.n_leaves}]")
        n = self.n_leaves
        parent = list(range(n + len(self.merges)))
        rank = [0] * len(parent)

        def find(x: int) -> int:
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        for i, merge in enumerate(self.merges[:n - k]):
            ra, rb = find(merge.a), find(merge.b)
            if rank[ra] < rank[rb]:
                ra, rb = rb, ra
            parent[rb] = ra
            if rank[ra] == rank[rb]:
                rank[ra] += 1
            # Later merges may name this merge's cluster id directly.
            parent[n + i] = ra

        label_of: Dict[int, int] = {}
        labels = np.empty(n, dtype=int)
        for leaf in range(n):
            labels[leaf] = label_of.setdefault(find(leaf), len(label_of))
        return labels

    def heights(self) -> np.ndarray:
        return np.array([m.height for m in self.merges])

    def render(self, labels: Optional[Sequence[str]] = None,
               width: int = 40) -> str:
        """ASCII dendrogram, leaves ordered as in the tree (the left
        panel of the paper's Table 3).

        Each leaf line shows its label and a bar whose indentation
        encodes the height at which the leaf's subtree last merged —
        adjacent leaves joining early share long bars.
        """
        labels = list(labels) if labels is not None else [
            str(i) for i in range(self.n_leaves)]
        if len(labels) != self.n_leaves:
            raise ValueError("one label per leaf required")
        if self.n_leaves == 1:
            return f"{labels[0]} |"

        # Leaf order: in-order walk of the merge tree.
        children = {self.n_leaves + i: (m.a, m.b)
                    for i, m in enumerate(self.merges)}

        def leaves_of(node: int) -> List[int]:
            if node < self.n_leaves:
                return [node]
            a, b = children[node]
            return leaves_of(a) + leaves_of(b)

        order = leaves_of(self.n_leaves + len(self.merges) - 1)

        # Height at which each leaf first merges with its neighbour in
        # the rendered order.
        first_merge = {}
        for merge in self.merges:
            for leaf in leaves_of(merge.a) + leaves_of(merge.b):
                first_merge.setdefault(leaf, merge.height)
        max_h = max(self.heights().max(), 1e-12)
        label_w = max(len(lbl) for lbl in labels)
        lines = []
        for leaf in order:
            frac = min(1.0, first_merge.get(leaf, max_h) / max_h)
            bar = "-" * max(1, int(round((1.0 - frac) * width)) + 1)
            lines.append(f"{labels[leaf]:<{label_w}} |{bar}+")
        return "\n".join(lines)


#: Agglomeration criteria supported by :func:`linkage`.  The paper uses
#: Ward; the others exist for the linkage ablation study.
LINKAGE_METHODS = ("ward", "single", "complete", "average")


def _lance_williams(method: str, na: int, nb: int, nk: int,
                    dak: float, dbk: float, dab: float) -> float:
    """One Lance-Williams distance update.

    Works on squared distances for Ward (the classical formulation) and
    on plain distances for the other methods.
    """
    if method == "ward":
        return ((na + nk) * dak + (nb + nk) * dbk - nk * dab) \
            / (na + nb + nk)
    if method == "single":
        return min(dak, dbk)
    if method == "complete":
        return max(dak, dbk)
    if method == "average":
        return (na * dak + nb * dbk) / (na + nb)
    raise ValueError(f"unknown linkage method {method!r}")


def _initial_distances(points: np.ndarray, method: str) -> np.ndarray:
    """Pairwise distances with an ``inf`` diagonal: squared Euclidean
    for Ward (the classical Lance-Williams formulation), plain Euclidean
    for the other methods."""
    diffs = points[:, None, :] - points[None, :, :]
    d = np.einsum("ijk,ijk->ij", diffs, diffs)
    if method != "ward":
        d = np.sqrt(d)                      # plain Euclidean distances
    np.fill_diagonal(d, np.inf)
    return d


def _check_method(method: str) -> None:
    if method not in LINKAGE_METHODS:
        raise ValueError(f"unknown linkage method {method!r}; "
                         f"choose from {LINKAGE_METHODS}")


def _check_points(points) -> np.ndarray:
    """``points`` as a float matrix; raises ``ValueError`` on input no
    dendrogram can describe: empty, not 2-D, or non-finite."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("need a 2-D feature matrix (observations x "
                         f"features), got {points.ndim}-D input")
    if points.shape[0] == 0:
        raise ValueError("cannot cluster zero observations")
    if not np.isfinite(points).all():
        raise ValueError("cannot cluster non-finite (NaN or inf) "
                         "feature values")
    return points


def linkage_reference(points: np.ndarray,
                      method: str = "ward") -> Dendrogram:
    """The original O(n^3) greedy agglomeration — the oracle.

    At every step, scan all active pairs in row order and merge the
    first pair attaining the minimum distance (so ties break toward the
    lexicographically smallest row pair), then apply scalar
    Lance-Williams updates.  :func:`linkage` is required to reproduce
    this output bit for bit; keep this loop boring.
    """
    _check_method(method)
    points = _check_points(points)
    n = points.shape[0]
    d = _initial_distances(points, method)

    active = list(range(n))                 # current cluster ids
    sizes = {i: 1 for i in range(n)}
    index_of = {i: i for i in range(n)}     # cluster id -> matrix row
    merges: List[Merge] = []
    next_id = n

    for _ in range(n - 1):
        best = (np.inf, -1, -1)
        for ai in range(len(active)):
            ia = index_of[active[ai]]
            for bi in range(ai + 1, len(active)):
                ib = index_of[active[bi]]
                if d[ia, ib] < best[0]:
                    best = (d[ia, ib], ai, bi)
        dist, ai, bi = best
        ca, cb = active[ai], active[bi]
        ia, ib = index_of[ca], index_of[cb]
        na, nb = sizes[ca], sizes[cb]

        for other in active:
            if other in (ca, cb):
                continue
            io = index_of[other]
            new_d = _lance_williams(method, na, nb, sizes[other],
                                    d[ia, io], d[ib, io], dist)
            d[ia, io] = new_d
            d[io, ia] = new_d

        # Reuse row ia for the merged cluster, retire row ib.
        d[ib, :] = np.inf
        d[:, ib] = np.inf

        height = float(np.sqrt(max(dist, 0.0))) if method == "ward" \
            else float(dist)
        merges.append(Merge(ca, cb, height, na + nb))
        new_cluster = next_id
        next_id += 1
        sizes[new_cluster] = na + nb
        index_of[new_cluster] = ia
        active.pop(bi)
        active[ai] = new_cluster

    return Dendrogram(n, tuple(merges))


def _lw_update_stack(d: np.ndarray, size: np.ndarray, alive: np.ndarray,
                     rows: np.ndarray, a: np.ndarray, b: np.ndarray,
                     dist: np.ndarray, method: str, skew: float) -> None:
    """Vectorized Lance-Williams update of a (P, n, n) stack: in every
    matrix ``p``, merge row ``b[p]`` into row ``a[p]``.

    The Ward expression mirrors :func:`_lance_williams` term for term —
    same operations, same association — and is applied element for
    element, so each live element is bit-identical to the scalar
    reference update whatever the stack's size.  The other columns
    (``a``, ``b`` and dead rows) read an ``inf`` operand; their results
    are discarded for ``inf``, which the reference holds there too.
    ``skew`` perturbs the ``(n_a + n_k)`` coefficient; it exists solely
    for the verify harness's ``slow-path-skew`` planted defect and is
    0.0 otherwise.
    """
    live = alive.copy()
    live[rows, a] = False
    live[rows, b] = False
    dak = d[rows, a]
    dbk = d[rows, b]
    if method == "ward":
        sa, sb = size[rows, a][:, None], size[rows, b][:, None]
        sk, dist = size, dist[:, None]
        if skew:
            new = (((sa + sk) * (1.0 + skew)) * dak
                   + (sb + sk) * dbk - sk * dist) / (sa + sb + sk)
        else:
            new = ((sa + sk) * dak + (sb + sk) * dbk - sk * dist) \
                / (sa + sb + sk)
    elif method == "single":
        new = np.minimum(dak, dbk)
    elif method == "complete":
        new = np.maximum(dak, dbk)
    else:                                   # average
        sa, sb = size[rows, a][:, None], size[rows, b][:, None]
        new = (sa * dak + sb * dbk) / (sa + sb)
    new = np.where(live, new, np.inf)
    d[rows, a, :] = new
    d[rows, :, a] = new
    d[rows, b, :] = np.inf
    d[rows, :, b] = np.inf


def linkage_stack(point_sets: Sequence[np.ndarray], method: str = "ward",
                  ward_coeff_skew: float = 0.0, *,
                  argmin_from_first: bool = False) -> List[Dendrogram]:
    """One dendrogram per point set, agglomerated side by side.

    The point sets must have the same number of rows; their column
    counts may differ.  Each set's distance matrix is built on its own
    (:func:`_initial_distances`, no padding, so every einsum sums in
    the same order as for the set alone), and the matrices are stacked
    into one (P, n, n) array.  Every step then merges, per matrix, the
    row-major first minimum over its flattened n·n axis — the
    reference's lexicographically smallest minimal row pair, always in
    the upper triangle — and applies :func:`_lw_update_stack`, which
    repeats the reference's arithmetic.  Each matrix thus sees the
    argmin and the arithmetic it would see alone, so every dendrogram
    is the one :func:`linkage_reference` builds for its set, bit for
    bit, by construction.

    ``argmin_from_first`` makes every matrix merge the pair of matrix
    0 — the verify harness's ``stack-shares-argmin`` planted defect,
    which only the ``stacked-linkage-equivalence`` invariant sets; it
    changes nothing for a stack of one.
    """
    _check_method(method)
    if ward_coeff_skew and method != "ward":
        raise ValueError("ward_coeff_skew only applies to Ward linkage")
    sets = [_check_points(points) for points in point_sets]
    if not sets:
        return []
    n = sets[0].shape[0]
    if any(points.shape[0] != n for points in sets):
        raise ValueError("every point set of a linkage stack needs the "
                         "same number of rows (observations)")
    d = np.stack([_initial_distances(points, method) for points in sets])
    n_sets = len(sets)
    rows = np.arange(n_sets)
    size = np.ones((n_sets, n), dtype=np.int64)
    alive = np.ones((n_sets, n), dtype=bool)
    cluster_id = np.tile(np.arange(n, dtype=np.int64), (n_sets, 1))
    # Step i's merge per matrix; Merge objects are built once at the end.
    ids_a = np.empty((n - 1, n_sets), dtype=np.int64)
    ids_b = np.empty((n - 1, n_sets), dtype=np.int64)
    merged = np.empty((n - 1, n_sets), dtype=np.int64)
    dists = np.empty((n - 1, n_sets))
    for i in range(n - 1):
        first = d.reshape(n_sets, n * n).argmin(axis=1)
        if argmin_from_first:
            first[:] = first[0]
        a, b = np.divmod(first, n)
        dist = d[rows, a, b]
        ids_a[i], ids_b[i] = cluster_id[rows, a], cluster_id[rows, b]
        merged[i] = size[rows, a] + size[rows, b]
        dists[i] = dist
        _lw_update_stack(d, size, alive, rows, a, b, dist, method,
                         ward_coeff_skew)
        size[rows, a] = merged[i]
        alive[rows, b] = False
        cluster_id[rows, a] = n + i
    # The reference's height: sqrt(max(dist, 0.0)) for Ward, where
    # max() keeps ``dist`` unless 0.0 is strictly greater.
    heights = np.sqrt(np.where(0.0 > dists, 0.0, dists)) \
        if method == "ward" else dists
    return [Dendrogram(n, tuple(
        Merge(*step) for step in zip(ids_a[:, p].tolist(),
                                     ids_b[:, p].tolist(),
                                     heights[:, p].tolist(),
                                     merged[:, p].tolist())))
        for p in range(n_sets)]


def linkage(points: np.ndarray, method: str = "ward",
            ward_coeff_skew: float = 0.0) -> Dendrogram:
    """Agglomerative clustering under a Lance-Williams criterion.

    ``ward`` (the paper's choice) merges the pair minimising the growth
    of total within-cluster variance; ``single``/``complete``/``average``
    are provided for the ablation benchmarks.  Heights are Euclidean
    (Ward heights match scipy's convention: the square root of the Ward
    distance).

    This is :func:`linkage_stack` on a stack of one, so the result is
    bit-identical to :func:`linkage_reference` by construction.
    ``ward_coeff_skew`` perturbs one Lance-Williams coefficient — the
    verify harness's ``slow-path-skew`` planted defect; the reference
    has no such knob, so the oracle stays unskewable.
    """
    return linkage_stack([points], method, ward_coeff_skew)[0]


def ward_linkage(points: np.ndarray) -> Dendrogram:
    """Agglomerative clustering under Ward's minimum-variance criterion
    (Section 3.3) — the method the whole pipeline uses."""
    return linkage(points, "ward")


# ---------------------------------------------------------------------------
# Cut quality and K selection
# ---------------------------------------------------------------------------


def _cluster_sse(members: np.ndarray) -> float:
    """Sum of squared deviations of ``members`` (one row each) from
    their centroid.

    A single row is its own centroid, so the arithmetic below would
    give exactly ``0.0`` for it (``x - x`` is ``+0.0`` for every finite
    ``x``, and every caller rejects non-finite points); the shortcut
    returns that value without computing it.
    """
    if len(members) == 1:
        return 0.0
    centroid = members.mean(axis=0)
    return float(((members - centroid) ** 2).sum())


def within_cluster_variance(points: np.ndarray,
                            labels: Sequence[int]) -> float:
    """Total within-cluster sum of squared deviations from centroids.

    Raises ``ValueError`` on empty, non-2-D or non-finite ``points``,
    like :func:`linkage`.
    """
    points = _check_points(points)
    labels = np.asarray(labels)
    total = 0.0
    for lab in np.unique(labels):
        total += _cluster_sse(points[labels == lab])
    return total


def variance_curve(points: np.ndarray, dendrogram: Dendrogram,
                   k_max: Optional[int] = None, *,
                   keep_absorbed_sse: bool = False) -> np.ndarray:
    """W(k) for k = 1..k_max (within-cluster variance after each cut).

    One pass over the merge sequence: the first ``n - k_max`` merges
    only join member lists, then each of the ``k_max`` live clusters,
    and each cluster a later merge creates, has its sum of squares
    computed once.  W(k) is the sum, from ``0.0``, of the live
    clusters' values in ascending order of each cluster's smallest
    leaf.

    That repeats ``within_cluster_variance(points, dendrogram.cut(k))``
    bit for bit.  ``cut(k)`` numbers clusters in order of their
    smallest leaf and ``np.unique`` visits the labels in that order;
    ``points[labels == lab]`` is the same ascending-row array as
    ``points[leaves]``.  So every per-cluster value and every addition
    is the same floating-point operation on the same operands.

    ``keep_absorbed_sse`` leaves a merged-away child's value in the
    total — the verify harness's ``stale-curve-child`` planted defect,
    which only the ``variance-curve-equivalence`` invariant sets.

    Raises ``ValueError`` on empty, non-2-D or non-finite ``points``,
    like :func:`linkage`, and on a row count other than the
    dendrogram's.
    """
    points = _check_points(points)
    n = dendrogram.n_leaves
    if points.shape[0] != n:
        raise ValueError(f"points has {points.shape[0]} rows but the "
                         f"dendrogram has {n} leaves")
    k_max = min(k_max or n, n)
    merges = dendrogram.merges
    leaves: Dict[int, List[int]] = {leaf: [leaf] for leaf in range(n)}
    for i, merge in enumerate(merges[:n - k_max]):
        leaves[n + i] = sorted(leaves.pop(merge.a) + leaves.pop(merge.b))
    # Live clusters' sums of squares, keyed by their smallest leaf.
    sse = {idx[0]: _cluster_sse(points[idx]) for idx in leaves.values()}

    def total() -> float:
        # One add at a time, like within_cluster_variance: sum()
        # compensates rounding on Python >= 3.12.
        w = 0.0
        for first in sorted(sse):
            w += sse[first]
        return w

    curve = np.empty(k_max)
    curve[k_max - 1] = total()
    for i in range(n - k_max, n - 1):
        a, b = leaves.pop(merges[i].a), leaves.pop(merges[i].b)
        idx = sorted(a + b)
        leaves[n + i] = idx
        if not keep_absorbed_sse:
            del sse[max(a[0], b[0])]
        sse[idx[0]] = _cluster_sse(points[idx])
        curve[n - i - 2] = total()
    return curve


#: A cut stops improving "significantly" when one more cluster removes
#: less than this fraction of the total within-cluster variance.
ELBOW_THRESHOLD = 0.01

#: The paper sweeps the elbow over K = 1..24.
ELBOW_K_MAX = 24


def elbow_k(points: np.ndarray, dendrogram: Dendrogram,
            k_max: Optional[int] = None,
            threshold: float = ELBOW_THRESHOLD) -> int:
    """Elbow-method cut: the K where within-cluster variance stops
    improving significantly (Section 3.3, Thorndike's criterion).

    Returns the smallest K whose *next* refinement would reduce the
    total within-cluster variance by less than ``threshold`` of W(1).
    Raises ``ValueError`` on empty, non-2-D or non-finite ``points``,
    like :func:`linkage`.
    """
    points = _check_points(points)
    n = dendrogram.n_leaves
    if n <= 2:
        return n
    k_max = min(k_max or n, n)
    w = variance_curve(points, dendrogram, k_max)
    if w[0] <= 1e-12:                   # all observations identical
        return 1
    improvements = w[:-1] - w[1:]       # improvement of k -> k+1
    for k in range(1, len(w) + 1):
        if k == len(w) or improvements[k - 1] < threshold * w[0]:
            return k
    return k_max                        # pragma: no cover - unreachable
