"""Execution-time model.

Combines the compiled instruction stream (:mod:`repro.isa`) with the
cache profile (:mod:`repro.machine.cache_model`) into cycles per kernel
invocation on one architecture, using a bounded-resource (roofline-like)
model:

* **compute**: per innermost loop, the slowest of — issue width, load /
  store ports, FP add and multiply pipes, shuffle and integer units, the
  unpipelined divider, and the loop-carried dependency chain;
* **memory**: the slower of hierarchy bandwidth (per-level line traffic
  over per-level fill bandwidth) and exposed miss latency (per-level hit
  latencies divided by the core's memory-level parallelism);
* **combination**: out-of-order cores overlap the two almost fully, the
  in-order Atom barely at all (``Architecture.overlap_penalty``).

This is the part of the substitution that makes architecture change
*mean something*: division-heavy codelets collapse on Atom's divider,
memory-bound codelets lose on Core 2's small LLC but win on its clock,
vectorized codelets track SIMD throughput — the behaviours Section 4.4
of the paper builds its clusters on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..isa.compiler import CompiledKernel, CompiledNest
from ..isa.instructions import OpClass
from .architecture import Architecture
from .cache_model import CacheProfile


@dataclass(frozen=True)
class NestCycles:
    """Compute-side cycle breakdown of one innermost loop."""

    per_vector_iteration: float
    bottleneck: str                  # which unit bounds the loop
    unit_cycles: Tuple[Tuple[str, float], ...]
    chain_cycles: float
    total: float                     # per invocation


@dataclass(frozen=True)
class ExecutionEstimate:
    """Cycles and seconds for one kernel invocation."""

    arch_name: str
    compute_cycles: float
    memory_cycles: float
    bw_cycles: float
    lat_cycles: float
    cycles: float
    seconds: float
    nest_breakdown: Tuple[NestCycles, ...]

    @property
    def memory_bound(self) -> bool:
        return self.memory_cycles > self.compute_cycles


def _unit_cycles(nest: CompiledNest, arch: Architecture) -> Dict[str, float]:
    """Occupancy of each execution resource per vector iteration."""
    units = {
        "issue": 0.0, "load": 0.0, "store": 0.0, "fp_add": 0.0,
        "fp_mul": 0.0, "fp_move": 0.0, "int": 0.0, "branch": 0.0,
        "divider": 0.0,
    }
    for instr in nest.body:
        uops = arch.uop_count(instr)
        units["issue"] += uops
        oc = instr.opclass
        if oc is OpClass.LOAD:
            units["load"] += uops * arch.recip_tput[oc] / arch.load_ports
        elif oc is OpClass.STORE:
            units["store"] += uops * arch.recip_tput[oc] / arch.store_ports
        elif oc is OpClass.FP_ADD:
            units["fp_add"] += uops * arch.recip_tput[oc]
        elif oc is OpClass.FP_MUL:
            units["fp_mul"] += uops * arch.recip_tput[oc]
        elif oc is OpClass.FP_MOVE:
            units["fp_move"] += uops * arch.recip_tput[oc]
        elif oc is OpClass.INT_ALU:
            units["int"] += uops * arch.recip_tput[oc]
        elif oc is OpClass.BRANCH:
            units["branch"] += uops * arch.recip_tput[oc]
        elif oc is OpClass.FP_DIV:
            units["divider"] += instr.count * arch.div_cycles(
                instr.dtype, instr.width)
        elif oc is OpClass.FP_SQRT:
            units["divider"] += instr.count * arch.sqrt_cycles(
                instr.dtype, instr.width)
    units["issue"] /= arch.issue_width
    return units


def _chain_cycles(nest: CompiledNest, arch: Architecture) -> float:
    """Loop-carried dependency chain cycles per vector iteration.

    On in-order cores the operand loads feeding each chain update cannot
    be hoisted ahead by the scheduler, so their L1 load-to-use latency is
    exposed on the chain as well.
    """
    if not nest.chain_ops:
        return 0.0
    lat = sum(arch.op_latency(oc, dt) for oc, dt in nest.chain_ops)
    if arch.in_order:
        lat += arch.latency[OpClass.LOAD]
    updates = 1.0 if nest.chain_per_vector_iter else float(nest.vf)
    return lat * updates


def compute_cycles(compiled: CompiledKernel,
                   arch: Architecture) -> List[NestCycles]:
    """Compute-side cycles of every innermost loop, per invocation."""
    out: List[NestCycles] = []
    for nest in compiled.nests:
        units = _unit_cycles(nest, arch)
        chain = _chain_cycles(nest, arch)
        candidates = dict(units)
        candidates["chain"] = chain
        bottleneck = max(candidates, key=lambda k: candidates[k])
        per_iter = candidates[bottleneck]
        out.append(NestCycles(
            per_vector_iteration=per_iter,
            bottleneck=bottleneck,
            unit_cycles=tuple(sorted(units.items())),
            chain_cycles=chain,
            total=per_iter * nest.vector_iterations,
        ))
    return out


def memory_cycles(profile: CacheProfile,
                  arch: Architecture) -> Tuple[float, float]:
    """(bandwidth cycles, latency cycles) per invocation."""
    bw_terms: List[float] = []
    lat = 0.0
    for li, cache in enumerate(arch.caches):
        if li == 0:
            continue  # L1 delivery is folded into the load-port model
        incoming = profile.levels[li - 1].bytes_in
        bw_terms.append(incoming / cache.bw_bytes_per_cycle)
        lat += profile.levels[li].hits * cache.latency_cycles / arch.mlp
    dram_bytes = profile.total_dram_bytes
    bw_terms.append(dram_bytes / arch.mem_bw_bytes_per_cycle())
    lat += profile.mem_accesses * arch.mem_latency_cycles / arch.mlp
    return (max(bw_terms) if bw_terms else 0.0, lat)


def estimate_execution(compiled: CompiledKernel, arch: Architecture,
                       profile: CacheProfile) -> ExecutionEstimate:
    """Cycles and wall time of one invocation of ``compiled`` on ``arch``."""
    nest_cycles = compute_cycles(compiled, arch)
    compute = sum(n.total for n in nest_cycles)
    bw, lat = memory_cycles(profile, arch)
    memory = max(bw, lat)
    total = max(compute, memory) + arch.overlap_penalty * min(compute, memory)
    return ExecutionEstimate(
        arch_name=arch.name,
        compute_cycles=compute,
        memory_cycles=memory,
        bw_cycles=bw,
        lat_cycles=lat,
        cycles=total,
        seconds=total / (arch.freq_ghz * 1e9),
        nest_breakdown=tuple(nest_cycles),
    )
