"""Representative selection with ill-behaved handling (Section 3.4).

Per cluster the codelet closest to the centroid (in the normalised
feature space used for clustering) is extracted and its standalone
execution compared to the in-app original on the *reference* machine.
A deviation over 10% marks it ill-behaved and ineligible; selection
retries with the next-closest codelet.  A cluster whose members are all
ineligible is destroyed: each member is re-homed to the cluster of its
nearest well-behaved neighbour, so the final K can drop below the
elbow K but every representative is guaranteed faithful.  The verdicts
do not depend on K, so they are judged once per profile set
(:func:`ill_behaved_codelets`) and selection only reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (AbstractSet, Dict, FrozenSet, List, Optional, Sequence,
                    Tuple)

import numpy as np

from ..codelets.measurement import Measurer
from ..codelets.profiling import CodeletProfile
from ..machine.architecture import REFERENCE
from .clustering import cluster_spreads

#: Relative tolerance under which two centroid/neighbour distances are
#: considered tied.  Ties happen structurally — feature-identical
#: codelets, or the two members of a two-member cluster, which are both
#: exactly equidistant from their midpoint up to floating-point noise —
#: and are broken by codelet name so that selection is invariant under
#: reordering of the input codelet list (checked by ``repro verify``).
_TIE_RTOL = 1e-9


def _tie_ranked(dists: np.ndarray, keys: List[str]) -> List[int]:
    """Indices sorted by distance, near-ties ordered by ``keys``."""
    order = sorted(range(len(keys)), key=lambda i: dists[i])
    ranked: List[int] = []
    i = 0
    while i < len(order):
        j = i + 1
        while (j < len(order)
               and dists[order[j]] - dists[order[j - 1]]
               <= _TIE_RTOL * (1.0 + dists[order[i]])):
            j += 1
        ranked.extend(sorted(order[i:j], key=lambda t: keys[t]))
        i = j
    return ranked


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of representative selection.

    ``assignments`` maps each codelet name to the index of its final
    cluster in ``clusters``; ``representatives[i]`` is the well-behaved
    representative of ``clusters[i]``.  ``destroyed_clusters`` counts
    clusters removed because every member was ill-behaved, and
    ``ill_behaved`` lists every codelet that failed the fidelity check.
    """

    clusters: Tuple[Tuple[str, ...], ...]
    representatives: Tuple[str, ...]
    assignments: Dict[str, int]
    ill_behaved: Tuple[str, ...]
    destroyed_clusters: int

    @property
    def k(self) -> int:
        return len(self.clusters)

    def cluster_of(self, codelet_name: str) -> int:
        return self.assignments[codelet_name]


class NoRepresentativeError(ValueError):
    """Step D destroyed every cluster: each codelet is ill-behaved or
    ineligible, so none can represent the suite."""


def _centroid_order(members: List[int], dists: np.ndarray,
                    names: Sequence[str]) -> List[int]:
    """Member indices ordered by ``dists``, their distances to the
    cluster centroid, near-ties broken by codelet name (see
    :data:`_TIE_RTOL`).  A one-member cluster's order is that member."""
    if len(dists) != len(members):
        raise ValueError(f"{len(dists)} centroid distances for a "
                         f"cluster of {len(members)}")
    if len(members) == 1:
        return members
    # Python floats compare and subtract as the float64 values do,
    # without a numpy scalar per lookup.
    ranked = _tie_ranked(dists.tolist(), [names[m] for m in members])
    return [members[i] for i in ranked]


def ill_behaved_codelets(profiles: Sequence[CodeletProfile],
                         measurer: Measurer) -> FrozenSet[str]:
    """Names of the codelets failing the Section 3.4 fidelity check."""
    return frozenset(p.name for p in profiles
                     if measurer.is_ill_behaved(p.codelet, REFERENCE))


def select_representatives(profiles: Sequence[CodeletProfile],
                           normalized_rows: np.ndarray,
                           labels: Sequence[int],
                           ill_behaved: AbstractSet[str],
                           ineligible: AbstractSet[str] = frozenset(),
                           centroid_distances: Optional[
                               Sequence[np.ndarray]] = None
                           ) -> SelectionResult:
    """Run the Step D selection loop.

    ``normalized_rows`` must be the same matrix the clustering used
    (rows aligned with ``profiles``); ``labels`` the chosen cut.
    ``ill_behaved`` names the codelets that failed the fidelity check
    (:func:`ill_behaved_codelets`); ``ineligible`` those barred for other
    reasons, chiefly a quarantined fidelity probe, which flow through the
    same destruction/re-homing but are not reported ill-behaved.

    ``centroid_distances[i]`` holds the distances of the members of the
    i-th smallest label to their centroid, in ascending row order, when
    the caller has them (the GA's
    :func:`~repro.core.clustering.elbow_stack` computes them for
    ``dendrogram.cut(k)``); otherwise they are computed here, with the
    same :func:`~repro.core.clustering.cluster_spreads`.

    Raises :class:`NoRepresentativeError` when every cluster is
    destroyed, and ``ValueError`` when ``centroid_distances`` does not
    match the clusters of ``labels``.
    """
    labels = np.asarray(labels).tolist()
    names = [p.name for p in profiles]
    barred = ill_behaved | ineligible

    # Not np.unique: its first call imports numpy.ma, ~20 ms a command.
    cluster_ids = sorted(set(labels))
    members_of: Dict[int, List[int]] = {cid: [] for cid in cluster_ids}
    for i, cid in enumerate(labels):
        members_of[cid].append(i)

    if centroid_distances is None:
        _, centroid_distances = cluster_spreads(
            [np.asarray(normalized_rows, dtype=float)],
            [(0, members_of[cid]) for cid in cluster_ids])
    elif len(centroid_distances) != len(cluster_ids):
        raise ValueError(f"{len(centroid_distances)} clusters' centroid "
                         f"distances for {len(cluster_ids)} labels")

    kept: List[Tuple[int, str]] = []        # (original cluster id, rep)
    orphans: List[int] = []                 # members of destroyed clusters
    destroyed = 0
    for cid, dists in zip(cluster_ids, centroid_distances):
        order = _centroid_order(members_of[cid], dists, names)
        rep = next((names[i] for i in order if names[i] not in barred),
                   None)
        if rep is None:
            destroyed += 1
            orphans.extend(members_of[cid])
        else:
            kept.append((cid, rep))

    if not kept:
        raise NoRepresentativeError(
            "representative selection failed: every codelet is "
            "ill-behaved or quarantined, no cluster can be kept")

    # Final clusters and assignments for the surviving clusters.
    assignments: Dict[str, int] = {}
    final_members: List[List[str]] = []
    for new_idx, (cid, _) in enumerate(kept):
        final_members.append([names[i] for i in members_of[cid]])
        for i in members_of[cid]:
            assignments[names[i]] = new_idx

    # Re-home orphans to the cluster of their nearest surviving codelet
    # (Section 3.4: "moved to the cluster containing its closest
    # neighbour").
    surviving_idx = [i for i, name in enumerate(names)
                     if name in assignments]
    for i in orphans:
        deltas = normalized_rows[surviving_idx] - normalized_rows[i]
        dists = np.linalg.norm(deltas, axis=1)
        ranked = _tie_ranked(dists, [names[s] for s in surviving_idx])
        nearest = surviving_idx[ranked[0]]
        target = assignments[names[nearest]]
        assignments[names[i]] = target
        final_members[target].append(names[i])

    return SelectionResult(
        clusters=tuple(tuple(m) for m in final_members),
        representatives=tuple(rep for _, rep in kept),
        assignments=assignments,
        ill_behaved=tuple(n for n in names if n in ill_behaved),
        destroyed_clusters=destroyed,
    )
