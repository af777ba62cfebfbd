"""Innermost-loop dependence analysis.

The vectorizer needs to know, per innermost loop, whether there are
loop-carried flow dependences and of what kind:

* **reductions** — a loop-invariant location updated through an
  associative operator (``s = s + x[i]``).  Vectorizable with partial
  sums (icc does this at ``-O3``), but the combining op forms a latency
  chain that in-order cores cannot hide;
* **recurrences** — a location written at iteration ``i`` and read at
  iteration ``i + d`` (``x[i] = a * x[i-1] + b``, Table 3's "first order
  recurrence" rows).  Not vectorizable.

Reductions and non-associative self-updates are recognised here, from
the shape of the store; a read of the accumulator outside its update
statements (a running prefix ``s = s + x[i]; y[i] = s``) is still a
recurrence.  Every other flow dependence comes from the exact solver
of :mod:`repro.ir.dependence`, the one lint and the loop rewrites use.
A pair it cannot resolve (non-uniform subscripts with overlapping
ranges, or a distance left free on the innermost loop) is a recurrence
at distance 1; a distance of at least one full trip is independence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..ir.dependence import FREE, AccessSite, AnalysisContext
from ..ir.expr import BinOp, Call, Expr, Load, walk_expr
from ..ir.stmt import Loop, Store
from ..ir.types import DType
from .instructions import BINOP_CLASS, OpClass

#: Operators through which a self-update can be reassociated into
#: partial accumulators.  ``sub`` qualifies when the accumulator is the
#: left operand (a running difference is a negated sum).
_ASSOCIATIVE = ("add", "sub", "mul", "min", "max")


@dataclass(frozen=True)
class Reduction:
    """A vectorizable self-accumulation."""

    array_name: str
    chain_ops: Tuple[Tuple[OpClass, DType], ...]   # latency chain per update


@dataclass(frozen=True)
class Recurrence:
    """A loop-carried flow dependence that forbids vectorization."""

    array_name: str
    distance: int
    chain_ops: Tuple[Tuple[OpClass, DType], ...]   # ops on the dep cycle


@dataclass(frozen=True)
class DepInfo:
    """Dependence summary of one innermost loop."""

    reductions: Tuple[Reduction, ...]
    recurrences: Tuple[Recurrence, ...]

    @property
    def vectorizable(self) -> bool:
        return not self.recurrences

    @property
    def has_reduction(self) -> bool:
        return bool(self.reductions)

    def chain_ops(self) -> Tuple[Tuple[OpClass, DType], ...]:
        """The longest (by op count) loop-carried latency chain."""
        chains = [r.chain_ops for r in self.recurrences]
        chains += [r.chain_ops for r in self.reductions]
        if not chains:
            return ()
        return max(chains, key=len)


def _self_update(store: Store) -> Optional[
        Tuple[Tuple[Tuple[OpClass, DType], ...], bool]]:
    """If ``store`` reads its own target location, return the operator
    path from the expression root down to that self-load and whether
    every operator on it reassociates; else None."""

    def search(expr: Expr, acc: List[Tuple[OpClass, DType, str]]):
        if (isinstance(expr, Load) and expr.array.name == store.array.name
                and expr.indices == store.indices):
            return acc
        if isinstance(expr, BinOp):
            children = (expr.left, expr.right)
            step = (BINOP_CLASS[expr.op], expr.dtype, expr.op)
        elif isinstance(expr, Call):
            # A self-value passing through an intrinsic is not a simple
            # accumulation: approximate the chain with a multiply, and
            # never reassociate it.
            children = expr.args
            step = (OpClass.FP_MUL, expr.dtype, "call")
        else:
            return None
        for child in children:
            found = search(child, acc + [step])
            if found is not None:
                return found
        return None

    path = search(store.value, [])
    if path is None:
        return None
    return (tuple((oc, dt) for oc, dt, _ in path),
            all(op in _ASSOCIATIVE for _, _, op in path))


def _expr_op_chain(expr: Expr) -> Tuple[Tuple[OpClass, DType], ...]:
    """All arithmetic ops of an expression (conservative cycle estimate)."""
    chain: List[Tuple[OpClass, DType]] = []
    for node in walk_expr(expr):
        if isinstance(node, BinOp):
            chain.append((BINOP_CLASS[node.op], node.dtype))
        elif isinstance(node, Call):
            chain.append((OpClass.FP_MUL, node.dtype))
    return tuple(chain)


def _inner_flow_distance(ctx: AnalysisContext, store: AccessSite,
                         load: AccessSite,
                         unresolved_independent: bool) -> Optional[int]:
    """Distance ``d > 0`` at which ``load`` reads, on the innermost
    loop, what ``store`` wrote; None if no such flow dependence exists.

    An unresolved pair counts as distance 1 unless
    ``unresolved_independent`` (the planted ``vectorize-unresolved``
    defect of ``repro verify``) treats it as independent.
    """
    if load.array.name != store.array.name:
        return None
    dep = ctx.dependence_between(store, load)
    if dep is None:
        return None
    if dep.kind == "overlap":
        return None if unresolved_independent else 1
    *outer, d = dep.distance
    if any(o is not FREE and o != 0 for o in outer):
        return None                       # carried by an outer loop only
    if d is FREE:
        return None if unresolved_independent else 1
    return d if d > 0 else None


def _stores_location(ctx: AnalysisContext, load: AccessSite,
                     store: Store) -> bool:
    """Whether the statement holding ``load`` stores the location
    ``store`` writes."""
    owner, _ = ctx.stores[load.store_ordinal]
    return (owner.array.name == store.array.name
            and owner.indices == store.indices)


def analyze_dependences(ctx: AnalysisContext, inner: Loop, *,
                        unresolved_independent: bool = False) -> DepInfo:
    """Analyse loop-carried dependences of ``inner``, an innermost loop
    of ``ctx.kernel``."""
    inner_var = inner.var.name
    sites = [s for s in ctx.sites if s.loops and s.loops[-1] is inner]
    loads = [s for s in sites if not s.is_store]
    reductions: List[Reduction] = []
    recurrences: List[Recurrence] = []

    for site in (s for s in sites if s.is_store):
        store, _ = ctx.stores[site.store_ordinal]
        target_invariant = all(
            idx.coefficient(inner_var) == 0 for idx in store.indices)
        update = _self_update(store)
        checked = loads
        if target_invariant and update is not None:
            path, associative = update
            if associative:
                reductions.append(Reduction(store.array.name, path))
            else:
                recurrences.append(
                    Recurrence(store.array.name, 1, path))
            # Statements updating the accumulator are the update chain
            # itself; any other read of it (``y[i] = s`` after
            # ``s = s + x[i]``) needs the running value.
            checked = [load for load in loads
                       if not _stores_location(ctx, load, store)]
        # Cross-iteration flow dependences against the loads in the body.
        for load in checked:
            d = _inner_flow_distance(ctx, site, load,
                                     unresolved_independent)
            if d is not None:
                owner, _ = ctx.stores[load.store_ordinal]
                recurrences.append(Recurrence(
                    store.array.name, d, _expr_op_chain(owner.value)))

    # Deduplicate recurrences by (array, distance).
    seen = set()
    unique: List[Recurrence] = []
    for rec in recurrences:
        key = (rec.array_name, rec.distance)
        if key not in seen:
            seen.add(key)
            unique.append(rec)
    return DepInfo(tuple(reductions), tuple(unique))
