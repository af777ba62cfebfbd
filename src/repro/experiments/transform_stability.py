"""Transform-stability experiment (beyond the paper).

The paper argues a reduced benchmark transfers across *machines*; this
driver asks whether it also survives semantics-preserving restructuring
of the *code*.  Every codelet variant of a suite is rewritten by a
dependence-proven transformation pipeline (:mod:`repro.ir.rewrite`),
the full subsetting pipeline is re-run on the transformed suite, and
the two reductions are compared:

* **representative stability** — how much of the representative set
  survives the rewrite;
* **partition agreement** — Rand index between the two clusterings
  over the codelets measured in both runs;
* **moved codelets** — members whose representative changed.

The driver also audits the fingerprint-keyed lowering memo
(:mod:`repro.isa.compiler`): every variant of both suites is lowered,
and structurally distinct kernels must occupy distinct memo entries
(no collisions), while a rewrite that actually applied must change the
kernel's content fingerprint (no silent aliasing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..codelets.measurement import Measurer
from ..core.pipeline import BenchmarkReducer, SubsettingConfig
from ..ir.fingerprint import kernel_fingerprint
from ..ir.rewrite import PassSpec, transform_suite
from ..isa import compile_kernel, lowering_memo_keys
from ..runtime.resilience import RunHealth


def _variants(suite):
    """Every kernel variant of ``suite``, region order preserved."""
    out = []
    for app in suite.applications:
        for routine in app.routines:
            for region in routine.regions:
                out.extend(region.variants)
    return out


def _membership(reduced) -> Dict[str, str]:
    """codelet name -> representative name for one reduction."""
    out: Dict[str, str] = {}
    for idx, members in enumerate(reduced.selection.clusters):
        rep = reduced.representatives[idx]
        for member in members:
            out[member] = rep
    return out


def _rand_index(a: Dict[str, str], b: Dict[str, str],
                names: Sequence[str]) -> float:
    """Pairwise partition agreement over ``names`` (1.0 = identical)."""
    agree = total = 0
    names = sorted(names)
    for i, x in enumerate(names):
        for y in names[i + 1:]:
            total += 1
            together_a = a[x] == a[y]
            together_b = b[x] == b[y]
            agree += together_a == together_b
    return agree / total if total else 1.0


@dataclass(frozen=True)
class TransformStabilityResult:
    """Reduction comparison: original suite vs transformed suite."""

    suite: str
    pipeline: Tuple[str, ...]
    k_original: int
    k_transformed: int
    n_common: int
    representatives_original: Tuple[str, ...]
    representatives_transformed: Tuple[str, ...]
    rand_index: float
    moved: Tuple[str, ...]
    n_variants: int
    n_changed_variants: int
    #: Rewrites that reported "applied" but left the fingerprint alone.
    n_fingerprint_aliases: int
    #: Distinct fingerprints across both suites vs memo entries touched.
    n_distinct_fingerprints: int
    n_memo_entries: int
    #: Both reducers' run health, the original suite's first.
    health: RunHealth = field(default_factory=RunHealth, compare=False)

    @property
    def representative_overlap(self) -> int:
        return len(set(self.representatives_original)
                   & set(self.representatives_transformed))

    @property
    def representative_stability(self) -> float:
        base = max(len(self.representatives_original), 1)
        return self.representative_overlap / base

    @property
    def memo_collision_free(self) -> bool:
        """Every structurally distinct variant owns its own memo entry."""
        return (self.n_memo_entries == self.n_distinct_fingerprints
                and self.n_fingerprint_aliases == 0)

    def format(self) -> str:
        spec = ",".join(self.pipeline)
        lines = [
            f"transform stability — suite {self.suite} through [{spec}]",
            f"kernels: {self.n_variants} variants, "
            f"{self.n_changed_variants} rewritten "
            f"({self.n_variants - self.n_changed_variants} unchanged)",
            f"clusters: K={self.k_original} original, "
            f"K={self.k_transformed} transformed",
            f"representatives: "
            f"{len(self.representatives_original)} -> "
            f"{len(self.representatives_transformed)}, overlap "
            f"{self.representative_overlap} "
            f"(stability {self.representative_stability:.0%})",
            f"partition agreement (Rand index over {self.n_common} "
            f"common codelets): {self.rand_index:.3f}",
        ]
        if self.moved:
            lines.append(f"moved codelets ({len(self.moved)}): "
                         + ", ".join(self.moved))
        else:
            lines.append("moved codelets: none")
        lines.append(
            f"lowering memo: {self.n_distinct_fingerprints} distinct "
            f"fingerprints -> {self.n_memo_entries} entries, "
            f"{self.n_fingerprint_aliases} aliases — "
            + ("collision-free" if self.memo_collision_free
               else "COLLISION DETECTED"))
        return "\n".join(lines)


def run_transform_stability(
        suite, specs: Sequence[PassSpec], *,
        config: Optional[SubsettingConfig] = None,
        k="elbow", force: bool = False) -> TransformStabilityResult:
    """Reduce ``suite`` and its transformed twin; compare the results."""
    config = config or SubsettingConfig()
    transformed, _records, _n = transform_suite(suite, specs, force=force)

    originals = _variants(suite)
    rewritten = _variants(transformed)
    fps_orig = [kernel_fingerprint(kern) for kern in originals]
    fps_new = [kernel_fingerprint(kern) for kern in rewritten]
    n_changed = sum(a != b for a, b in zip(fps_orig, fps_new))
    # An applied rewrite always restructures the nest, so a variant
    # that changed must change its content fingerprint too; an alias
    # here would poison the memo with stale lowerings.
    aliases = sum(
        1 for ko, kn, a, b in zip(originals, rewritten, fps_orig,
                                  fps_new)
        if ko != kn and a == b)

    # Lower every variant of both suites and audit the memo: distinct
    # fingerprints must land on distinct entries.
    for kern in originals + rewritten:
        compile_kernel(kern)
    ours = set(fps_orig) | set(fps_new)
    touched = {fp for fp, _opts in lowering_memo_keys() if fp in ours}
    missing = ours - touched
    # Entries may have been LRU-evicted under tiny memo limits; count
    # them as present rather than as collisions.
    n_memo = len(touched) + len(missing)

    # Each suite needs its own Measurer: the measurer memo keys on
    # codelet names, which rewrites keep.
    reducers = [BenchmarkReducer(s, Measurer(), config)
                for s in (suite, transformed)]
    reduced_a, reduced_b = (reducer.reduce(k) for reducer in reducers)
    mem_a, mem_b = _membership(reduced_a), _membership(reduced_b)
    common = sorted(set(mem_a) & set(mem_b))
    moved = tuple(n for n in common if mem_a[n] != mem_b[n])

    return TransformStabilityResult(
        suite=suite.name,
        pipeline=tuple(str(s) for s in specs),
        k_original=reduced_a.k,
        k_transformed=reduced_b.k,
        n_common=len(common),
        representatives_original=tuple(reduced_a.representatives),
        representatives_transformed=tuple(reduced_b.representatives),
        rand_index=_rand_index(mem_a, mem_b, common),
        moved=moved,
        n_variants=len(originals),
        n_changed_variants=n_changed,
        n_fingerprint_aliases=aliases,
        n_distinct_fingerprints=len(ours),
        n_memo_entries=n_memo,
        health=RunHealth.combined(r.health for r in reducers),
    )
