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

:func:`elbow_stack` is, in the same way, the one elbow pass: it cuts a
stack of point sets at their elbows side by side (the GA cuts a
generation's masks in one call), and :func:`variance_curve` and
:func:`elbow_k` are its stack of one.  Each merge sequence is walked
once, re-meaning only the clusters that are live at ``k_max`` or
created after it, and :func:`cluster_spreads` computes every such
cluster's sum of squares and centroid distances in one chain of numpy
calls per (member count, column count) group.  It repeats the
floating-point work of re-cutting each dendrogram at every k and
calling :func:`within_cluster_variance`, so each W(k) is the same bits.
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
                     dist: np.ndarray, method: str) -> None:
    """Vectorized Lance-Williams update of a (P, n, n) stack: in every
    matrix ``p``, merge row ``b[p]`` into row ``a[p]``.

    The Ward expression mirrors :func:`_lance_williams` term for term —
    same operations, same association — and is applied element for
    element, so each live element is bit-identical to the scalar
    reference update whatever the stack's size.  The other columns
    (``a``, ``b`` and dead rows) read an ``inf`` operand; their results
    are discarded for ``inf``, which the reference holds there too.
    """
    live = alive.copy()
    live[rows, a] = False
    live[rows, b] = False
    dak = d[rows, a]
    dbk = d[rows, b]
    if method == "ward":
        sa, sb = size[rows, a][:, None], size[rows, b][:, None]
        sk, dist = size, dist[:, None]
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


def _first_minima(d: np.ndarray) -> np.ndarray:
    """Each matrix of a (P, n, n) stack's row-major first minimum, as
    an index into its flattened n·n axis."""
    return d.reshape(d.shape[0], -1).argmin(axis=1)


def linkage_stack(point_sets: Sequence[np.ndarray],
                  method: str = "ward") -> List[Dendrogram]:
    """One dendrogram per point set, agglomerated side by side.

    The point sets must have the same number of rows; their column
    counts may differ.  Each set's distance matrix is built on its own
    (:func:`_initial_distances`, no padding, so every einsum sums in
    the same order as for the set alone), and the matrices are stacked
    into one (P, n, n) array.  Every step then merges, per matrix, the
    row-major first minimum over its flattened n·n axis
    (:func:`_first_minima`) — the reference's lexicographically
    smallest minimal row pair, always in the upper triangle — and
    applies :func:`_lw_update_stack`, which repeats the reference's
    arithmetic.  Each matrix thus sees the argmin and the arithmetic it
    would see alone, so every dendrogram is the one
    :func:`linkage_reference` builds for its set, bit for bit, by
    construction.
    """
    _check_method(method)
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
        a, b = np.divmod(_first_minima(d), n)
        dist = d[rows, a, b]
        ids_a[i], ids_b[i] = cluster_id[rows, a], cluster_id[rows, b]
        merged[i] = size[rows, a] + size[rows, b]
        dists[i] = dist
        _lw_update_stack(d, size, alive, rows, a, b, dist, method)
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


def linkage(points: np.ndarray, method: str = "ward") -> Dendrogram:
    """Agglomerative clustering under a Lance-Williams criterion.

    ``ward`` (the paper's choice) merges the pair minimising the growth
    of total within-cluster variance; ``single``/``complete``/``average``
    are provided for the ablation benchmarks.  Heights are Euclidean
    (Ward heights match scipy's convention: the square root of the Ward
    distance).

    This is :func:`linkage_stack` on a stack of one, so the result is
    bit-identical to :func:`linkage_reference` by construction.
    """
    return linkage_stack([points], method)[0]


def ward_linkage(points: np.ndarray) -> Dendrogram:
    """Agglomerative clustering under Ward's minimum-variance criterion
    (Section 3.3) — the method the whole pipeline uses."""
    return linkage(points, "ward")


# ---------------------------------------------------------------------------
# Cut quality and K selection
# ---------------------------------------------------------------------------


def _cluster_sse(members: np.ndarray) -> float:
    """Sum of squared deviations of ``members`` (one row each) from
    their centroid — the per-cluster reference that
    :func:`within_cluster_variance` sums and :func:`cluster_spreads`
    repeats for whole groups of clusters.

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


#: A one-member cluster's distances to its centroid (itself).
_LONE_DISTANCE = np.zeros(1)
_LONE_DISTANCE.setflags(write=False)


def cluster_spreads(point_sets: Sequence[np.ndarray],
                    clusters: Sequence[Tuple[int, Sequence[int]]]
                    ) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Each cluster's sum of squared deviations from its centroid, and
    each member's Euclidean distance to that centroid.

    A cluster is ``(set index, ascending member rows)`` into
    ``point_sets``, float matrices with the same row count.  Clusters
    with the same member count m and column count f form one group of
    C, handled by one chain of numpy calls on a (C, m, f) gather: the
    members' column sums divided by m (the reduction and division
    ``mean(axis=0)`` performs), the squared deviations, their sum over
    each cluster's contiguous m·f block (the reduction ``.sum()`` runs
    on one cluster) and the square root of their sum over each
    member's f columns (``np.linalg.norm(..., axis=1)``'s expression
    for real input).  numpy reduces each contiguous run of a stacked
    array with the inner loop it uses for that run alone, so every
    value is the one :func:`_cluster_sse` and a per-cluster norm give,
    bit for bit.  The width belongs to the key because the reduction
    order depends on it: a one-column cluster sums its members
    pairwise, a wider one row after row.

    A one-member cluster is its own centroid: its sum of squares and
    its distance are ``0.0``, what the arithmetic would give.
    """
    widths = [points.shape[1] for points in point_sets]
    distances: List[np.ndarray] = [_LONE_DISTANCE] * len(clusters)
    groups: Dict[Tuple[int, int], List[int]] = {}
    for c, (p, members) in enumerate(clusters):
        if len(members) > 1:
            groups.setdefault((len(members), widths[p]), []).append(c)
    # Per width: each set's slot in the stack of that width's sets.
    stacks: Dict[int, Tuple[Dict[int, int], np.ndarray]] = {}
    sums: List[np.ndarray] = []
    for (m, f), group in groups.items():
        if f not in stacks:
            sets = [p for p, width in enumerate(widths) if width == f]
            stacks[f] = ({p: slot for slot, p in enumerate(sets)},
                         np.stack([point_sets[p] for p in sets]))
        slot, stacked = stacks[f]
        slots = np.array([slot[clusters[c][0]] for c in group])
        rows = np.array([clusters[c][1] for c in group])
        x = stacked[slots[:, None], rows]                   # (C, m, f)
        centroid = np.add.reduce(x, axis=1) / m
        dev = x - centroid[:, None]
        sq = dev * dev
        sums.append(np.add.reduce(sq.reshape(len(group), m * f), axis=1))
        for c, dist in zip(group, np.sqrt(np.add.reduce(sq, axis=2))):
            distances[c] = dist
    sse = np.zeros(len(clusters))
    if sums:
        sse[[c for group in groups.values() for c in group]] = \
            np.concatenate(sums)
    return sse, distances


#: A cut stops improving "significantly" when one more cluster removes
#: less than this fraction of the total within-cluster variance.
ELBOW_THRESHOLD = 0.01

#: The paper sweeps the elbow over K = 1..24.
ELBOW_K_MAX = 24


@dataclass(frozen=True, eq=False)
class ElbowCut:
    """One point set's elbow: W(k) for k = 1..k_max, the elbow ``k``,
    and ``distances[i]``, the distances of the members of label ``i``
    of ``dendrogram.cut(k)`` to their centroid, in ascending row order
    (what :func:`~repro.core.representatives.select_representatives`
    takes)."""

    curve: np.ndarray
    k: int
    distances: Tuple[np.ndarray, ...]


def elbow_stack(point_sets: Sequence[np.ndarray],
                dendrograms: Sequence[Dendrogram],
                k_max: Optional[int] = None,
                threshold: float = ELBOW_THRESHOLD) -> List[ElbowCut]:
    """The elbow of every point set of a stack, in one pass.

    The point sets must have the same number of rows, as in
    :func:`linkage_stack`, and ``dendrograms[i]`` must describe
    ``point_sets[i]``.  Each merge sequence is walked once: its first
    ``n - k_max`` merges only join member lists, then the clusters
    live at ``k_max`` and each cluster a later merge creates are
    collected, from every set, into one :func:`cluster_spreads` call.

    W(k) adds the values of the clusters live at cut k from ``0.0``,
    one at a time, in ascending order of each cluster's smallest leaf
    (:func:`_w_curve`).
    That repeats ``within_cluster_variance(points, dendrogram.cut(k))``
    bit for bit: ``cut(k)`` numbers clusters in order of their smallest
    leaf, ``np.unique`` visits the labels in that order, and
    ``points[labels == lab]`` is the same ascending-row array the
    cluster's value came from.  The additions are on Python floats,
    which add as float64 does.

    K is then chosen by the rule :func:`elbow_k` documents, and the
    result holds each cluster of ``cut(K)`` with its members'
    distances to its centroid.

    Raises ``ValueError`` on a ``k_max`` below 1, on empty, non-2-D or
    non-finite points, like :func:`linkage`, and on a row count other
    than a dendrogram's or the stack's.
    """
    if k_max is not None and k_max < 1:
        raise ValueError("k_max must be at least 1 (or None for no "
                         f"cap), got {k_max}")
    sets = [_check_points(points) for points in point_sets]
    if len(sets) != len(dendrograms):
        raise ValueError(f"{len(sets)} point sets but "
                         f"{len(dendrograms)} dendrograms")
    for points, dendrogram in zip(sets, dendrograms):
        if points.shape[0] != dendrogram.n_leaves:
            raise ValueError(f"points has {points.shape[0]} rows but the "
                             f"dendrogram has {dendrogram.n_leaves} "
                             "leaves")
    if not sets:
        return []
    n = sets[0].shape[0]
    if any(points.shape[0] != n for points in sets):
        raise ValueError("every point set of an elbow stack needs the "
                         "same number of rows (observations)")
    k_max = n if k_max is None else min(k_max, n)

    # Every cluster live at some cut k <= k_max, from every set: its set
    # and ascending members, and the cuts [live_from, live_to] it is
    # live at.  Merge i joins its clusters at every cut k <= n - 1 - i.
    # Set p's clusters are clusters[starts[p]:starts[p + 1]].
    clusters: List[Tuple[int, List[int]]] = []
    live_to: List[int] = []
    live_from: List[int] = []
    starts: List[int] = []
    for p, dendrogram in enumerate(dendrograms):
        starts.append(len(clusters))
        merges = dendrogram.merges
        leaves: Dict[int, List[int]] = {leaf: [leaf] for leaf in range(n)}
        for i, merge in enumerate(merges[:n - k_max]):
            leaves[n + i] = sorted(leaves.pop(merge.a)
                                   + leaves.pop(merge.b))
        position: Dict[int, int] = {}   # cluster id -> index in clusters
        for cluster_id, members in leaves.items():
            position[cluster_id] = len(clusters)
            clusters.append((p, members))
            live_to.append(k_max)
            live_from.append(1)
        for i in range(n - k_max, n - 1):
            a = position.pop(merges[i].a)
            b = position.pop(merges[i].b)
            live_from[a] = live_from[b] = n - i
            position[n + i] = len(clusters)
            clusters.append((p, sorted(clusters[a][1] + clusters[b][1])))
            live_to.append(n - 1 - i)
            live_from.append(1)
    starts.append(len(clusters))

    sse, distances = cluster_spreads(sets, clusters)
    values = sse.tolist()
    cuts: List[ElbowCut] = []
    for p in range(len(sets)):
        order = sorted(range(starts[p], starts[p + 1]),
                       key=lambda c: clusters[c][1][0])
        curve = _w_curve(k_max, order, values, live_from, live_to)
        k = k_max if n <= 2 else _elbow_of(curve, threshold)
        cuts.append(ElbowCut(np.array(curve), k, tuple(
            distances[c] for c in order
            if live_from[c] <= k <= live_to[c])))
    return cuts


def _w_curve(k_max: int, order: Sequence[int], values: Sequence[float],
             live_from: Sequence[int], live_to: Sequence[int]
             ) -> List[float]:
    """W(k) for k = 1..k_max: the value of each cluster ``c`` of
    ``order``, in that order, added from ``0.0`` to every cut k from
    ``live_from[c]`` to ``live_to[c]``."""
    curve = [0.0] * k_max
    for c in order:
        for k in range(live_from[c], live_to[c] + 1):
            curve[k - 1] += values[c]
    return curve


def _elbow_of(curve: List[float], threshold: float) -> int:
    """The first k whose next refinement removes less than
    ``threshold`` of W(1) = ``curve[0]``, or ``len(curve)`` if none
    does; 1 when every observation is the same."""
    if curve[0] <= 1e-12:
        return 1
    for k in range(1, len(curve)):
        if curve[k - 1] - curve[k] < threshold * curve[0]:
            return k
    return len(curve)


def variance_curve(points: np.ndarray, dendrogram: Dendrogram,
                   k_max: Optional[int] = None) -> np.ndarray:
    """W(k) for k = 1..k_max (within-cluster variance after each cut):
    :func:`elbow_stack`'s curve for a stack of one, so each W(k) is
    ``within_cluster_variance(points, dendrogram.cut(k))`` bit for bit.

    Raises ``ValueError`` on a ``k_max`` below 1, on empty, non-2-D or
    non-finite ``points``, like :func:`linkage`, and on a row count
    other than the dendrogram's.
    """
    return elbow_stack([points], [dendrogram], k_max)[0].curve


def elbow_k(points: np.ndarray, dendrogram: Dendrogram,
            k_max: Optional[int] = None,
            threshold: float = ELBOW_THRESHOLD) -> int:
    """Elbow-method cut: the K where within-cluster variance stops
    improving significantly (Section 3.3, Thorndike's criterion).

    Returns the smallest K whose *next* refinement would reduce the
    total within-cluster variance by less than ``threshold`` of W(1),
    and ``k_max`` if none does; 1 when every observation is the same;
    and ``min(n, k_max)`` for n <= 2 observations.  This is
    :func:`elbow_stack`'s K for a stack of one.  Raises ``ValueError``
    on a ``k_max`` below 1 and on empty, non-2-D or non-finite
    ``points``, like :func:`linkage`.
    """
    return elbow_stack([points], [dendrogram], k_max, threshold)[0].k
