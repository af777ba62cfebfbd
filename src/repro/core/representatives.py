"""Representative selection with ill-behaved handling (Section 3.4).

Per cluster the codelet closest to the centroid (in the normalised
feature space used for clustering) is extracted and its standalone
execution compared to the in-app original on the *reference* machine.
A deviation over 10% marks it ill-behaved and ineligible; selection
retries with the next-closest codelet.  A cluster whose members are all
ineligible is destroyed: each member is re-homed to the cluster of its
nearest well-behaved neighbour, so the final K can drop below the
elbow K but every representative is guaranteed faithful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (AbstractSet, Dict, List, Optional, Sequence,
                    Tuple)

import numpy as np

from ..codelets.measurement import ILL_BEHAVED_TOLERANCE, Measurer
from ..codelets.profiling import CodeletProfile
from ..machine.architecture import Architecture, REFERENCE

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


def _centroid_order(rows: np.ndarray, members: List[int],
                    names: Sequence[str]) -> List[int]:
    """Member indices ordered by distance to the cluster centroid,
    near-ties broken by codelet name (see :data:`_TIE_RTOL`)."""
    pts = rows[members]
    centroid = pts.mean(axis=0)
    dists = np.linalg.norm(pts - centroid, axis=1)
    ranked = _tie_ranked(dists, [names[m] for m in members])
    return [members[i] for i in ranked]


def select_representatives(profiles: Sequence[CodeletProfile],
                           normalized_rows: np.ndarray,
                           labels: Sequence[int],
                           measurer: Measurer,
                           reference: Architecture = REFERENCE,
                           tolerance: float = ILL_BEHAVED_TOLERANCE,
                           ineligible: Optional[AbstractSet[str]] = None
                           ) -> SelectionResult:
    """Run the Step D selection loop.

    ``normalized_rows`` must be the same matrix the clustering used
    (rows aligned with ``profiles``); ``labels`` the chosen cut.
    ``ineligible`` names codelets barred from representing a cluster
    for reasons beyond fidelity — chiefly quarantine by the resilient
    runtime (its measurements cannot be trusted) — which flow through
    the same destruction/re-homing machinery as ill-behaved codelets.
    """
    labels = np.asarray(labels)
    names = [p.name for p in profiles]
    barred = ineligible if ineligible is not None else frozenset()

    # Fidelity of every codelet on the reference machine (memoized runs
    # keep this cheap across repeated selections).  Quarantined codelets
    # are ineligible but *not* reported ill-behaved — their fidelity is
    # unknown, not known-bad.
    faithful: Dict[str, bool] = {}
    well_behaved: Dict[str, bool] = {}
    for p in profiles:
        faithful[p.name] = not measurer.is_ill_behaved(
            p.codelet, reference, tolerance)
        well_behaved[p.name] = (p.name not in barred
                                and faithful[p.name])

    cluster_ids = list(np.unique(labels))
    members_of: Dict[int, List[int]] = {cid: [] for cid in cluster_ids}
    for i, cid in enumerate(labels.tolist()):
        members_of[cid].append(i)

    kept: List[Tuple[int, str]] = []        # (original cluster id, rep)
    orphans: List[int] = []                 # members of destroyed clusters
    destroyed = 0
    for cid in cluster_ids:
        rep: Optional[str] = None
        for idx in _centroid_order(normalized_rows, members_of[cid],
                                   names):
            if well_behaved[names[idx]]:
                rep = names[idx]
                break
        if rep is None:
            destroyed += 1
            orphans.extend(members_of[cid])
        else:
            kept.append((cid, rep))

    if not kept:
        raise ValueError(
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
        ill_behaved=tuple(n for n, ok in faithful.items() if not ok),
        destroyed_clusters=destroyed,
    )
