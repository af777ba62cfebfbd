"""Analytical cache model.

The Likwid substitute needs, per codelet and architecture, the hit/miss
distribution across the cache hierarchy and the resulting inter-level
traffic.  A trace-driven simulator (:mod:`repro.machine.cache_sim`)
exists for validation, but the experiment sweeps profile ~100 codelets
on 4 machines many times, so the pipeline's only cache model is this
closed-form model based on loop footprints:

* per access group (accesses to one array with the same index pattern),
  compute the *lines touched* while the ``d`` innermost loops iterate;
* per cache level, find the deepest loop window whose total working set
  fits the (pressure-reduced) capacity, counting lines of that level's
  own ``line_bytes``;
* accesses are misses once per execution of the loops outside that
  window — the classical capacity-miss model for affine loop nests.

``pressure_bytes`` models the cache footprint of the *rest of the
application* competing for the shared last-level cache.  It is what makes
an extracted microbenchmark (pressure 0) run faster than the same codelet
inside its application on a small-LLC machine — the paper's CG-on-Atom
outlier (Section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.kernel import Kernel
from ..ir.traverse import Access, NestAnalysis, analyze_nests
from .architecture import Architecture, CacheLevel

#: Fraction of nominal capacity usable before conflict misses defeat
#: reuse (set-associativity is finite, lines are shared with code/stack).
CAPACITY_UTILIZATION = 0.85

#: The LLC cannot be squeezed below this fraction by outside pressure.
MIN_LLC_FRACTION = 1.0 / 32.0


def lines_touched(access: Access, trips: Dict[str, float],
                  line_bytes: int = 64) -> float:
    """Cache lines touched by one access site while ``trips`` iterate.

    Dimensions whose byte stride exceeds the current contiguous extent
    contribute multiplicatively (each position is its own run of lines);
    denser dimensions extend the contiguous extent.  Exact for unit
    strides, tight for the strided/LDA patterns of Table 3.
    """
    arr = access.array
    elsize = arr.dtype.size
    dim_strides = arr.strides_elems()
    sparse_lines = 1.0
    contiguous = float(elsize)
    for d in range(arr.rank - 1, -1, -1):
        span = 1.0
        for var, coef in access.indices[d].coefs:
            if var in trips:
                span += abs(coef) * max(0.0, trips[var] - 1.0)
        span = min(span, float(arr.shape[d]))
        if span <= 1.0:
            continue
        stride_b = dim_strides[d] * elsize
        extent = span * stride_b
        if stride_b <= max(float(line_bytes), contiguous):
            contiguous = max(contiguous, extent)
        else:
            sparse_lines *= span
    lines = sparse_lines * max(1.0, contiguous / line_bytes)
    # Correlated subscripts (the same loop variable in several dims, e.g.
    # a diagonal walk m[i, i]) touch one position per iteration, not the
    # whole bounding box: clamp by the iteration count of moving loops.
    positions = 1.0
    moving_vars = {v for idx in access.indices for v in idx.variables
                   if v in trips}
    for var in moving_vars:
        positions *= max(1.0, trips[var])
    return min(lines, max(1.0, positions))


@dataclass(frozen=True)
class AccessGroup:
    """Access sites sharing an array and index pattern (they hit each
    other's lines, so they miss as one stream)."""

    rep: Access
    count: float            # dynamic element accesses per invocation
    store_count: float      # dynamic stores within the group

    @property
    def load_count(self) -> float:
        return self.count - self.store_count


def collect_groups(nest: NestAnalysis) -> List[AccessGroup]:
    """Group the nest's accesses; duplicate loads are CSE'd first."""
    inner_var = nest.inner_var
    seen_loads = set()
    sites: List[Access] = []
    for acc in nest.accesses:
        if not acc.is_store:
            key = (acc.array.name, acc.indices)
            if key in seen_loads:
                continue
            seen_loads.add(key)
        sites.append(acc)

    def site_count(acc: Access) -> float:
        moving = any(idx.coefficient(inner_var) != 0 for idx in acc.indices)
        if moving:
            return nest.body_iterations
        # Register-hoisted out of the innermost loop.
        return nest.outer_iterations

    grouped: Dict[Tuple, List[Access]] = {}
    order: List[Tuple] = []
    for acc in sites:
        # Same array + same index pattern share lines.  Offsets only
        # merge along *moving* dimensions (a stencil's i-1/i/i+1 overlap
        # almost entirely); in constant dimensions distinct offsets are
        # distinct planes and must stay separate streams.
        key = (acc.array.name,
               tuple((idx.coefs, None if idx.coefs else idx.offset)
                     for idx in acc.indices))
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(acc)

    groups: List[AccessGroup] = []
    for key in order:
        members = grouped[key]
        count = sum(site_count(a) for a in members)
        store_count = sum(site_count(a) for a in members if a.is_store)
        groups.append(AccessGroup(members[0], count, store_count))
    return groups


@dataclass(frozen=True)
class LevelStats:
    """Traffic at one cache level, per kernel invocation."""

    name: str
    hits: float         # accesses served at this level
    misses: float       # accesses forwarded to the next level
    bytes_in: float     # line traffic fetched into this level

    @property
    def accesses(self) -> float:
        return self.hits + self.misses

    @property
    def miss_ratio(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total > 0 else 0.0


@dataclass(frozen=True)
class CacheProfile:
    """Hierarchy-wide cache behaviour of one kernel invocation."""

    accesses: float                 # L1 references (element granularity)
    levels: Tuple[LevelStats, ...]  # one entry per cache level
    mem_accesses: float             # misses past the LLC
    mem_bytes: float                # read traffic from DRAM
    writeback_bytes: float          # dirty evictions to DRAM

    def level(self, name: str) -> LevelStats:
        for lv in self.levels:
            if lv.name == name:
                return lv
        raise KeyError(name)

    @property
    def total_dram_bytes(self) -> float:
        return self.mem_bytes + self.writeback_bytes


def _effective_capacity(cache: CacheLevel, is_llc: bool,
                        pressure_bytes: float) -> float:
    capacity = cache.size_bytes * CAPACITY_UTILIZATION
    if is_llc and pressure_bytes > 0.0:
        capacity = max(cache.size_bytes * MIN_LLC_FRACTION,
                       capacity - pressure_bytes)
    return capacity


def _spatial_clamp(group: AccessGroup, nest: NestAnalysis,
                   line_bytes: int) -> float:
    """Upper bound on misses from never-lost within-line spatial reuse.

    Consecutive accesses along the innermost loop that moves an access
    stay within the current (just fetched, hence MRU) line for
    ``line/stride`` steps, so even with zero effective capacity at most
    ``count * stride/line`` accesses can miss.
    """
    stride_b = None
    for loop in reversed(nest.loops):
        s = group.rep.stride_bytes(loop.var.name)
        if s != 0:
            stride_b = abs(s)
            break
    if stride_b is None:
        return 1.0      # fully invariant access: one cold line at most
    return group.count * min(1.0, stride_b / line_bytes)


def _moves_with(access, var: str) -> bool:
    """Whether a loop variable changes the location an access touches."""
    return any(idx.coefficient(var) != 0 for idx in access.indices)


def _nest_group_misses(nest: NestAnalysis, groups: Sequence[AccessGroup],
                       capacity: float, warm: bool,
                       line_bytes: int) -> List[float]:
    """Misses per group for one capacity, per kernel invocation.

    Reuse model: let ``fit`` be the deepest loop window whose working
    set fits the capacity.  Reuse carried by the loop *one level outside*
    that window still survives (the reuse distance of data touched every
    window is exactly the window's working set), so each group fetches
    its distinct lines once per execution of the loops outside level
    ``fit + 1`` and streams ``lines(fit + 1 window)`` within.  Loops that
    do not move a group are skipped when counting its own reuse depth —
    an accumulator touched every iteration never leaves the MRU position.
    """
    depth = nest.depth
    # Working-set lines when the d innermost loops iterate, d = 0..depth.
    ws_lines = []
    for d in range(depth + 1):
        trips = nest.trips_for(d)
        ws_lines.append(sum(lines_touched(g.rep, trips, line_bytes)
                            for g in groups))
    fit = 0
    for d in range(depth + 1):
        if ws_lines[d] * line_bytes <= capacity:
            fit = d
        else:
            break

    # Loop variables, innermost first, for invariance counting.
    inner_vars = [lp.var.name for lp in reversed(nest.loops)]

    misses: List[float] = []
    full_trips = nest.trips_for(depth)
    for g in groups:
        clamp = _spatial_clamp(g, nest, line_bytes)
        if fit == depth:
            cold = 0.0 if warm else lines_touched(g.rep, full_trips,
                                                  line_bytes)
            misses.append(min(cold, clamp, g.count))
            continue
        inv_d = 0
        for var in inner_vars:
            if _moves_with(g.rep, var):
                break
            inv_d += 1
        if inv_d == depth:
            misses.append(min(1.0, g.count))     # hot invariant line
            continue
        window = min(max(fit, inv_d) + 1, depth)
        refetch = 1.0
        for t in nest.avg_trips[:depth - window]:
            refetch *= t
        window_lines = lines_touched(g.rep, nest.trips_for(window),
                                     line_bytes)
        misses.append(min(refetch * window_lines, clamp, g.count))
    return misses


def analyze_cache(kernel_or_nests, arch: Architecture,
                  pressure_bytes: float = 0.0,
                  warm: bool = True) -> CacheProfile:
    """Analytical cache profile of one kernel invocation on ``arch``.

    ``kernel_or_nests`` is a :class:`~repro.ir.kernel.Kernel` or a
    pre-computed sequence of :class:`NestAnalysis`.
    """
    if isinstance(kernel_or_nests, Kernel):
        nests = analyze_nests(kernel_or_nests)
    else:
        nests = list(kernel_or_nests)

    nlevels = len(arch.caches)
    total_accesses = 0.0
    # misses_at[l] = accesses that miss level l (forwarded deeper)
    misses_at = [0.0] * nlevels
    store_misses_llc = 0.0

    for nest in nests:
        groups = collect_groups(nest)
        total_accesses += sum(g.count for g in groups)
        prev = [g.count for g in groups]
        for li, cache in enumerate(arch.caches):
            capacity = _effective_capacity(cache, li == nlevels - 1,
                                           pressure_bytes)
            level_misses = _nest_group_misses(nest, groups, capacity,
                                              warm, cache.line_bytes)
            # An access cannot miss deeper without missing shallower.
            level_misses = [min(m, p) for m, p in zip(level_misses, prev)]
            misses_at[li] += sum(level_misses)
            if li == nlevels - 1:
                for g, m in zip(groups, level_misses):
                    if g.count > 0:
                        store_misses_llc += m * (g.store_count / g.count)
            prev = level_misses

    levels: List[LevelStats] = []
    upstream = total_accesses
    for li, cache in enumerate(arch.caches):
        m = min(misses_at[li], upstream)
        levels.append(LevelStats(
            name=cache.name,
            hits=upstream - m,
            misses=m,
            bytes_in=m * cache.line_bytes,
        ))
        upstream = m

    # DRAM traffic moves in last-level lines.
    llc_line = arch.caches[-1].line_bytes
    mem_accesses = upstream
    return CacheProfile(
        accesses=total_accesses,
        levels=tuple(levels),
        mem_accesses=mem_accesses,
        mem_bytes=mem_accesses * llc_line,
        writeback_bytes=store_misses_llc * llc_line,
    )
