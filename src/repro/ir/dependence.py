"""The dependence engine: access sites, the exact affine solver and
direction-vector edges, shared by every consumer of the IR.

:class:`AnalysisContext` walks a kernel once and caches what dependence
questions need: every memory-access site with its enclosing loop stack,
conservative integer ranges for each loop variable (interval evaluation
of the affine bounds, exact for rectangular and triangular nests), and
canonical loop labels.  Three layers ask it the same question:

* :mod:`repro.isa.deps` — vectorization legality of innermost loops,
  through pairwise :meth:`AnalysisContext.dependence_between` queries;
* :mod:`repro.analysis.lint` — the ``deps``, ``overlap`` and
  ``transform`` passes;
* :mod:`repro.ir.rewrite` — legality verdicts of loop rewrites, from
  the direction-vector matrices of the context's edge graph
  (:attr:`AnalysisContext.dependence_edges`).

The IR restricts subscripts to affine functions of loop variables, so
classic dependence analysis applies exactly:

* **Uniformly generated pairs** (equal coefficient maps per dimension)
  reduce to a small integer linear system ``sum(c_v * delta_v) =
  offset_a - offset_b`` per dimension, solved for the iteration
  *distance vector* ``delta`` over the common enclosing loops.  A
  non-integer or contradictory solution, or a distance at least one
  full trip long, proves independence; loop variables left
  unconstrained are *free* (the dependence holds at any distance — the
  signature of reductions and repeated overwrites).
* **Non-uniform pairs** fall back to per-dimension interval
  intersection: provably disjoint index ranges prove independence,
  anything else is a conservative *may-overlap* with unknown distance.

Distances are reported positive when the *second* access's iteration
follows the first's (``delta = I_b - I_a``).

On top of the raw distance test this module derives **direction
vectors** (``<``/``=``/``>``/``*`` per common loop) and folds every
pairwise result into oriented :class:`DependenceEdge` records.

Loop labels deserve a note: loop variables are created by a global
counter (``fresh_index``), so their *names* differ between two builds
of the same suite.  Diagnostics must be byte-identical across builds
(the ``lint-determinism`` invariant), so consumers never mention
variable names — they use the canonical walk-order labels ``L0``,
``L1``, ... provided here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from .expr import AffineIndex, Array
from .kernel import Kernel
from .stmt import Loop, Store, walk_statements

#: Distance entry for a loop the solution does not constrain.
FREE = None


@dataclass(frozen=True)
class AccessSite:
    """One static memory access with its position in the kernel.

    ``site_id`` is canonical and deterministic: stores are numbered in
    statement walk order (``S0``, ``S1``...), loads by their position in
    the owning store's right-hand side (``S0.l1``).
    """

    site_id: str
    array: Array
    indices: Tuple[AffineIndex, ...]
    is_store: bool
    store_ordinal: int
    loops: Tuple[Loop, ...]


@dataclass(frozen=True)
class Dependence:
    """Outcome of a dependence test between two access sites.

    ``loops`` are the common enclosing loops (outer first).  For
    ``kind == "uniform"`` the ``distance`` tuple has one entry per
    common loop: an exact integer or :data:`FREE`.  For
    ``kind == "overlap"`` no distance could be computed — the accesses
    may touch the same elements at unknown iteration distance.
    """

    kind: str                                  # "uniform" | "overlap"
    loops: Tuple[Loop, ...]
    distance: Tuple[Optional[int], ...] = ()

    @property
    def carried(self) -> bool:
        """True if the dependence crosses loop iterations."""
        if self.kind == "overlap":
            return True
        return any(d is FREE or d != 0 for d in self.distance)

    @property
    def loop_independent(self) -> bool:
        return (self.kind == "uniform"
                and all(d == 0 for d in self.distance))

    def carried_loops(self) -> Tuple[Loop, ...]:
        """The common loops the dependence is carried on."""
        if self.kind == "overlap":
            return self.loops
        return tuple(lp for lp, d in zip(self.loops, self.distance)
                     if d is FREE or d != 0)


class AnalysisContext:
    """Cached IR facts for one kernel; one instance per lint run,
    lowering or rewrite."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel

    # -- loops ---------------------------------------------------------------

    @cached_property
    def loops(self) -> Tuple[Loop, ...]:
        return tuple(s for s, _ in walk_statements(self.kernel.body)
                     if isinstance(s, Loop))

    @cached_property
    def _loop_labels(self) -> Dict[int, str]:
        return {id(lp): f"L{k}" for k, lp in enumerate(self.loops)}

    def loop_label(self, loop: Loop) -> str:
        return self._loop_labels[id(loop)]

    # -- value ranges --------------------------------------------------------

    @cached_property
    def var_ranges(self) -> Dict[str, Tuple[int, int]]:
        """Inclusive value range of each loop variable, by interval
        evaluation of the affine bounds under enclosing ranges."""
        ranges: Dict[str, Tuple[int, int]] = {}
        for lp in self.loops:
            lo, _ = self._interval(lp.lower, ranges)
            _, hi = self._interval(lp.upper, ranges)
            # The loop runs [lower, upper); an empty range collapses to
            # the lower bound so nested intervals stay well-formed.
            ranges[lp.var.name] = (lo, max(lo, hi - 1))
        return ranges

    @cached_property
    def trip_max(self) -> Dict[str, int]:
        """Upper bound on each loop's trip count (0 = provably empty)."""
        trips: Dict[str, int] = {}
        ranges: Dict[str, Tuple[int, int]] = {}
        for lp in self.loops:
            lo, _ = self._interval(lp.lower, ranges)
            _, hi = self._interval(lp.upper, ranges)
            trips[lp.var.name] = max(0, hi - lo)
            ranges[lp.var.name] = (lo, max(lo, hi - 1))
        return trips

    @staticmethod
    def _interval(idx: AffineIndex,
                  ranges: Dict[str, Tuple[int, int]]) -> Tuple[int, int]:
        lo = hi = idx.offset
        for var, coef in idx.coefs:
            vlo, vhi = ranges[var]
            a, b = coef * vlo, coef * vhi
            lo += min(a, b)
            hi += max(a, b)
        return lo, hi

    def index_interval(self, idx: AffineIndex) -> Tuple[int, int]:
        """Inclusive [min, max] an affine index can reach."""
        return self._interval(idx, self.var_ranges)

    # -- access sites --------------------------------------------------------

    @cached_property
    def stores(self) -> Tuple[Tuple[Store, Tuple[Loop, ...]], ...]:
        return tuple((s, stack)
                     for s, stack in walk_statements(self.kernel.body)
                     if isinstance(s, Store))

    @cached_property
    def sites(self) -> Tuple[AccessSite, ...]:
        out: List[AccessSite] = []
        for ordinal, (store, stack) in enumerate(self.stores):
            for j, ld in enumerate(store.loads()):
                out.append(AccessSite(f"S{ordinal}.l{j}", ld.array,
                                      ld.indices, False, ordinal, stack))
            out.append(AccessSite(f"S{ordinal}", store.array,
                                  store.indices, True, ordinal, stack))
        return tuple(out)

    @cached_property
    def store_sites(self) -> Tuple[AccessSite, ...]:
        return tuple(s for s in self.sites if s.is_store)

    @cached_property
    def load_sites(self) -> Tuple[AccessSite, ...]:
        return tuple(s for s in self.sites if not s.is_store)

    @cached_property
    def stored_arrays(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for site in self.store_sites:
            if site.array.name not in seen:
                seen.append(site.array.name)
        return tuple(seen)

    @cached_property
    def loaded_arrays(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for site in self.load_sites:
            if site.array.name not in seen:
                seen.append(site.array.name)
        return tuple(seen)

    # -- dependences ---------------------------------------------------------

    @cached_property
    def _dep_cache(self) -> Dict[Tuple[str, str], Optional[Dependence]]:
        return {}

    def dependence_between(self, a: AccessSite,
                           b: AccessSite) -> Optional[Dependence]:
        """Memoised :func:`test_dependence` on ``(a, b)``.

        Oriented: the distance vector is ``I_b - I_a``.  Every consumer
        of the context's own sites (the compiler, the lint passes, the
        edge graph) goes through this cache so the solver runs once per
        site pair.
        """
        key = (a.site_id, b.site_id)
        if key not in self._dep_cache:
            self._dep_cache[key] = test_dependence(self, a, b)
        return self._dep_cache[key]

    @cached_property
    def dependence_edges(self) -> Tuple["DependenceEdge", ...]:
        """All oriented :class:`DependenceEdge` records."""
        return compute_dependence_edges(self)

    def direction_matrix(self, loops: Tuple[Loop, ...]):
        """Direction-vector matrix of a loop band: one row per edge whose
        endpoints both live inside the band, columns aligned with
        ``loops`` (outer first)."""
        rows = []
        for edge in self.dependence_edges:
            by_loop = {id(lp): d
                       for lp, d in zip(edge.dep.loops, edge.directions)}
            if all(id(lp) in by_loop for lp in loops):
                rows.append((edge, tuple(by_loop[id(lp)] for lp in loops)))
        return tuple(rows)

    # -- helpers -------------------------------------------------------------

    def is_reduction_store(self, store: Store) -> bool:
        """``a[I] = f(a[I], ...)`` — the RHS reads the stored location."""
        return any(ld.array.name == store.array.name
                   and ld.indices == store.indices
                   for ld in store.loads())

    @property
    def srcloc(self) -> Optional[str]:
        return str(self.kernel.srcloc) if self.kernel.srcloc else None

    def unreachable(self, site: AccessSite) -> bool:
        """True when an enclosing loop is provably empty."""
        return any(self.trip_max[lp.var.name] == 0 for lp in site.loops)


# -- the solver ---------------------------------------------------------------


def common_loops(a: AccessSite, b: AccessSite) -> Tuple[Loop, ...]:
    """Longest common prefix of the two enclosing loop stacks."""
    out: List[Loop] = []
    for la, lb in zip(a.loops, b.loops):
        if la is not lb:
            break
        out.append(la)
    return tuple(out)


def _uniform(a: AccessSite, b: AccessSite) -> bool:
    """Equal per-dimension coefficient maps (over every variable)."""
    return all(ia.coef_map == ib.coef_map
               for ia, ib in zip(a.indices, b.indices))


def _solve_uniform(ctx: AnalysisContext, a: AccessSite, b: AccessSite,
                   loops: Tuple[Loop, ...]) -> Optional[Dependence]:
    """Solve ``idx_a(I) = idx_b(I + delta)`` for the distance vector."""
    variables = [lp.var.name for lp in loops]
    delta: Dict[str, Optional[int]] = dict.fromkeys(variables, FREE)
    # Per-dimension equations sum(c_v * delta_v) = off_a - off_b, kept
    # for re-checking once single-variable dimensions pin values.
    equations: List[Tuple[Dict[str, int], int]] = []
    for ia, ib in zip(a.indices, b.indices):
        coefs = {v: c for v, c in ia.coefs if v in delta}
        diff = ia.offset - ib.offset
        if not coefs:
            if diff != 0:
                return None                     # constant dims disagree
            continue
        equations.append((coefs, diff))

    # Propagate until fixpoint: any equation with one unknown pins it.
    changed = True
    while changed:
        changed = False
        for coefs, diff in equations:
            unknown = [v for v in coefs if delta[v] is FREE]
            residual = diff - sum(c * delta[v] for v, c in coefs.items()
                                  if delta[v] is not FREE)
            if not unknown:
                if residual != 0:
                    return None                 # contradiction: no dep
                continue
            if len(unknown) == 1:
                v = unknown[0]
                c = coefs[v]
                if residual % c != 0:
                    return None                 # non-integer distance
                delta[v] = residual // c
                changed = True

    # A solved distance at least one full trip long cannot be realised.
    for v, d in delta.items():
        if d is not FREE and d != 0 and abs(d) >= max(
                ctx.trip_max.get(v, 1), 1):
            return None
    # Free variables over single-trip loops cannot carry anything.
    for v in variables:
        if delta[v] is FREE and ctx.trip_max.get(v, 1) <= 1:
            delta[v] = 0
    return Dependence("uniform", loops,
                      tuple(delta[v] for v in variables))


def _ranges_disjoint(ctx: AnalysisContext, a: AccessSite,
                     b: AccessSite) -> bool:
    for ia, ib in zip(a.indices, b.indices):
        alo, ahi = ctx.index_interval(ia)
        blo, bhi = ctx.index_interval(ib)
        if ahi < blo or bhi < alo:
            return True
    return False


def test_dependence(ctx: AnalysisContext, a: AccessSite,
                    b: AccessSite) -> Optional[Dependence]:
    """Full dependence test; ``None`` means proven independent.

    Both sites must reference the same array (the IR has no aliasing
    between distinct declared arrays).  Sites the context holds are
    better queried through :meth:`AnalysisContext.dependence_between`,
    which memoises this function.
    """
    if a.array.name != b.array.name:
        return None
    if ctx.unreachable(a) or ctx.unreachable(b):
        return None
    loops = common_loops(a, b)
    if _uniform(a, b):
        # The linear system is only meaningful when every subscript
        # variable belongs to a *common* loop (sibling loops may reuse
        # a variable name without shadowing).
        common_vars = {lp.var.name for lp in loops}
        used = {v for idx in a.indices for v in idx.variables}
        if used <= common_vars:
            return _solve_uniform(ctx, a, b, loops)
    if _ranges_disjoint(ctx, a, b):
        return None
    return Dependence("overlap", loops)


def format_distance(ctx: AnalysisContext, dep: Dependence) -> str:
    """Render ``(1, *) over L0, L1`` with canonical loop labels."""
    if dep.kind == "overlap":
        labels = ", ".join(ctx.loop_label(lp) for lp in dep.loops)
        return f"unknown distance over {labels or 'no common loops'}"
    parts = ["*" if d is FREE else str(d) for d in dep.distance]
    labels = ", ".join(ctx.loop_label(lp) for lp in dep.loops)
    return f"({', '.join(parts)}) over {labels}"


# -- direction vectors --------------------------------------------------------

#: Per-loop direction entries: ``<`` source-before-sink, ``=`` same
#: iteration, ``>`` sink-before-source, ``*`` unknown (any of the three).
DIRECTIONS = ("<", "=", ">", "*")


def negate_dependence(dep: Dependence) -> Dependence:
    """The same dependence seen from the opposite orientation."""
    if dep.kind != "uniform":
        return dep
    return Dependence(dep.kind, dep.loops,
                      tuple(FREE if d is FREE else -d
                            for d in dep.distance))


def direction_vector(dep: Dependence) -> Tuple[str, ...]:
    """Distance vector abstracted to ``<``/``=``/``>``/``*`` per loop."""
    if dep.kind == "overlap":
        return tuple("*" for _ in dep.loops)
    out = []
    for d in dep.distance:
        if d is FREE:
            out.append("*")
        elif d > 0:
            out.append("<")
        elif d < 0:
            out.append(">")
        else:
            out.append("=")
    return tuple(out)


def lex_state(distance: Tuple[Optional[int], ...]) -> str:
    """Lexicographic sign of an exact/partial distance vector.

    ``"positive"``/``"negative"``/``"zero"`` when the leading non-zero
    entry decides it, ``"ambiguous"`` when a :data:`FREE` entry is hit
    first (instances of both orientations may exist).
    """
    for d in distance:
        if d is FREE:
            return "ambiguous"
        if d > 0:
            return "positive"
        if d < 0:
            return "negative"
    return "zero"


def expand_directions(directions: Tuple[str, ...]):
    """All concrete ``<``/``=``/``>`` vectors a direction vector admits."""
    vectors = [()]
    for d in directions:
        choices = ("<", "=", ">") if d == "*" else (d,)
        vectors = [v + (c,) for v in vectors for c in choices]
    return tuple(vectors)


def concrete_lex_sign(vector: Tuple[str, ...]) -> int:
    """+1 / 0 / -1 for a concrete (``*``-free) direction vector."""
    for d in vector:
        if d == "<":
            return 1
        if d == ">":
            return -1
    return 0


@dataclass(frozen=True)
class DependenceEdge:
    """One dependence between two access sites, oriented source->sink.

    ``dep.distance`` (and ``directions``) are expressed over the common
    enclosing loops, outer first, from the source's iteration to the
    sink's.  Exact lexicographically-negative distances are normalised
    away by swapping endpoints, so a concrete edge always runs forward;
    edges with ``*`` entries keep statement order and may admit
    instances of either orientation (legality checks expand them).
    """

    source: AccessSite
    sink: AccessSite
    kind: str                                  # "flow"|"anti"|"output"
    dep: Dependence
    directions: Tuple[str, ...]

    @property
    def pair_id(self) -> str:
        """Canonical ``S0/S0.l1`` site pair, source first."""
        return f"{self.source.site_id}/{self.sink.site_id}"

    def concrete_vectors(self):
        """Concrete direction vectors of every dependence *instance*,
        normalised to lexicographically non-negative form (an instance
        whose expansion is lex-negative is the reverse-orientation
        dependence; it is returned sign-flipped)."""
        flip = {"<": ">", ">": "<", "=": "=", "*": "*"}
        out = []
        for vec in expand_directions(self.directions):
            if concrete_lex_sign(vec) < 0:
                vec = tuple(flip[d] for d in vec)
            if vec not in out:
                out.append(vec)
        return tuple(out)


def _edge_kind(source: AccessSite, sink: AccessSite) -> str:
    if source.is_store and sink.is_store:
        return "output"
    return "flow" if source.is_store else "anti"


def compute_dependence_edges(
        ctx: AnalysisContext) -> Tuple[DependenceEdge, ...]:
    """Every pairwise dependence in the kernel, as oriented edges.

    Pairs where neither access writes are skipped (input dependences
    never constrain transformations); a store is also tested against
    itself, kept only when the output self-dependence is carried.
    """
    edges: List[DependenceEdge] = []
    sites = ctx.sites
    for i, a in enumerate(sites):
        for b in sites[i:]:
            if not (a.is_store or b.is_store):
                continue
            dep = ctx.dependence_between(a, b)
            if dep is None:
                continue
            if a is b and not dep.carried:
                continue
            source, sink = a, b
            if (dep.kind == "uniform"
                    and lex_state(dep.distance) == "negative"):
                source, sink, dep = b, a, negate_dependence(dep)
            edges.append(DependenceEdge(
                source, sink, _edge_kind(source, sink), dep,
                direction_vector(dep)))
    return tuple(edges)


def format_directions(ctx: AnalysisContext,
                      edge: DependenceEdge) -> str:
    """Render ``(<, >) over L0, L1`` with canonical loop labels."""
    labels = ", ".join(ctx.loop_label(lp) for lp in edge.dep.loops)
    body = ", ".join(edge.directions)
    if not edge.dep.loops:
        return "loop-independent (no common loops)"
    return f"({body}) over {labels}"
