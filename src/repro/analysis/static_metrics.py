"""Static loop analysis — the MAQAO substitute.

MAQAO disassembles the binary and, for each innermost loop, reports
instruction mix, SIMD usage, dispatch-port pressure and an L1-resident
performance bound.  This module computes the same catalogue from the
compiled abstract code (:class:`repro.isa.compiler.CompiledKernel`),
using the *reference* architecture's dispatch model — the paper profiles
on Nehalem only (Step B).

Metrics are aggregated over a kernel's innermost loops weighted by their
per-invocation vector iterations, and normalised *per source iteration*
where the paper's metric is a count ("Number of floating point DIV").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, List, Tuple

from ..isa.compiler import CompiledKernel, CompiledNest
from ..isa.instructions import Instr, OpClass
from ..machine.architecture import Architecture, REFERENCE
from ..machine.exec_model import _chain_cycles, _unit_cycles


@dataclass(frozen=True)
class StaticProfile:
    """MAQAO-style static metrics of one compiled kernel.

    All ``n_*`` counts are per source iteration of the innermost loops;
    ``p*_pressure`` are cycles per source iteration on each dispatch
    port; ``vec_ratio_*`` are percentages in [0, 100] as MAQAO reports
    them (Table 3's "Vec. %" column).
    """

    # Loop shape
    loop_size_uops: float
    unrolled_vf: float
    vectorized_fraction: float
    loop_depth: float
    inner_trip: float
    n_access_sites: float
    n_arrays: float
    log_footprint_bytes: float

    # L1-resident performance bound (MAQAO's "assuming all hits L1")
    est_cycles_l1: float            # cycles per source iteration
    est_ipc_l1: float
    bytes_loaded_per_cycle_l1: float
    bytes_stored_per_cycle_l1: float
    dep_stall_cycles: float         # chain cycles exposed beyond ports
    flops_per_cycle_l1: float

    # Instruction mix (per source iteration)
    n_uops: float
    n_loads: float
    n_stores: float
    n_fp_add: float
    n_fp_mul: float
    n_fp_div: float
    n_fp_sqrt: float
    n_fp_move: float
    n_int_alu: float
    n_branch: float
    n_sd_instr: float               # scalar double-precision FP
    n_ss_instr: float               # scalar single-precision FP
    n_vec_pd: float                 # packed double FP
    n_vec_ps: float                 # packed single FP
    n_flops: float
    ratio_add_mul: float
    load_store_ratio: float
    arith_intensity_l1: float       # flops per byte moved

    # Dispatch-port pressure (reference machine, cycles per source iter)
    p0_pressure: float              # FP multiply + divider
    p1_pressure: float              # FP add
    p2_pressure: float              # loads
    p3_pressure: float              # store address
    p4_pressure: float              # store data
    p5_pressure: float              # branches + shuffles
    max_port_pressure: float

    # Vectorization ratios, percent (MAQAO classes)
    vec_ratio_all: float
    vec_ratio_add: float
    vec_ratio_mul: float
    vec_ratio_div_sqrt: float
    vec_ratio_load: float
    vec_ratio_store: float
    vec_ratio_other_fp_int: float
    vec_ratio_other_int: float

    # Data types and dependences
    is_double_precision: float
    is_single_precision: float
    is_mixed_precision: float
    has_reduction: float
    has_recurrence: float
    chain_latency: float            # cycles of the loop-carried chain

    # Access-pattern summary (stride mix over access sites)
    frac_stride0: float
    frac_stride_unit: float
    frac_stride_small: float
    frac_stride_lda: float
    frac_stores: float

    def as_dict(self) -> Dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den > 0 else 0.0


def _port_pressure(nest: CompiledNest, arch: Architecture) -> Dict[str, float]:
    """Cycles per vector iteration on each dispatch port (Nehalem-like
    6-port mapping)."""
    p = {f"p{i}": 0.0 for i in range(6)}
    for instr in nest.body:
        uops = arch.uop_count(instr)
        oc = instr.opclass
        if oc is OpClass.LOAD:
            p["p2"] += uops
        elif oc is OpClass.STORE:
            p["p3"] += uops
            p["p4"] += uops
        elif oc is OpClass.FP_MUL:
            p["p0"] += uops
        elif oc is OpClass.FP_ADD:
            p["p1"] += uops
        elif oc is OpClass.FP_DIV:
            p["p0"] += instr.count * arch.div_cycles(instr.dtype, instr.width)
        elif oc is OpClass.FP_SQRT:
            p["p0"] += instr.count * arch.sqrt_cycles(instr.dtype,
                                                      instr.width)
        elif oc is OpClass.FP_MOVE:
            p["p5"] += uops
        elif oc is OpClass.BRANCH:
            p["p5"] += uops
        elif oc is OpClass.INT_ALU:
            # Integer ALU uops spread across P0/P1/P5.
            p["p0"] += uops / 3.0
            p["p1"] += uops / 3.0
            p["p5"] += uops / 3.0
    return p


def _vec_pct(instrs: List[Instr], *opclasses: OpClass,
             fp_only: bool = False, int_only: bool = False) -> float:
    sel = [i for i in instrs if i.opclass in opclasses]
    if fp_only:
        sel = [i for i in sel if i.dtype.is_float]
    if int_only:
        sel = [i for i in sel if not i.dtype.is_float]
    total = sum(i.count for i in sel)
    vector = sum(i.count for i in sel if i.is_vector)
    return _ratio(vector, total, 100.0)


def analyze_static(compiled: CompiledKernel,
                   arch: Architecture = REFERENCE) -> StaticProfile:
    """Compute the static profile of a compiled kernel."""
    nests = compiled.nests
    if not nests:
        raise ValueError(f"kernel {compiled.kernel.name!r} has no loops")

    # Weights: source iterations per invocation of each innermost loop.
    weights = [n.nest.body_iterations for n in nests]
    total_src_iters = sum(weights)

    # Gather the full per-invocation instruction stream for mix metrics.
    instrs = compiled.instrs_per_invocation()

    def per_iter(opclass: OpClass = None, *, pred=None) -> float:
        sel = instrs
        if opclass is not None:
            sel = [i for i in sel if i.opclass is opclass]
        if pred is not None:
            sel = [i for i in sel if pred(i)]
        return _ratio(sum(i.count for i in sel), total_src_iters)

    n_loads = per_iter(OpClass.LOAD)
    n_stores = per_iter(OpClass.STORE)
    n_fp_add = per_iter(OpClass.FP_ADD)
    n_fp_mul = per_iter(OpClass.FP_MUL)
    n_fp_div = per_iter(OpClass.FP_DIV)
    n_fp_sqrt = per_iter(OpClass.FP_SQRT)
    n_fp_move = per_iter(OpClass.FP_MOVE)
    n_int_alu = per_iter(OpClass.INT_ALU)
    n_branch = per_iter(OpClass.BRANCH)
    n_uops = _ratio(sum(i.count for i in instrs), total_src_iters)
    n_flops = _ratio(sum(i.flops for i in instrs), total_src_iters)

    def fp_pred(vector: bool, dtype_name: str):
        return lambda i: (i.is_fp and i.dtype.name == dtype_name
                          and i.is_vector == vector)

    n_sd = per_iter(pred=fp_pred(False, "f64"))
    n_ss = per_iter(pred=fp_pred(False, "f32"))
    n_pd = per_iter(pred=fp_pred(True, "f64"))
    n_ps = per_iter(pred=fp_pred(True, "f32"))

    bytes_loaded = _ratio(sum(i.bytes_moved for i in instrs
                              if i.opclass is OpClass.LOAD), total_src_iters)
    bytes_stored = _ratio(sum(i.bytes_moved for i in instrs
                              if i.opclass is OpClass.STORE), total_src_iters)

    # L1-resident bound: per nest, max unit occupancy and dep chain.
    est_cycles = 0.0
    dep_stall = 0.0
    chain_latency = 0.0
    port_tot = {f"p{i}": 0.0 for i in range(6)}
    vec_weight = 0.0
    vf_weight = 0.0
    for nest, w in zip(nests, weights):
        units = _unit_cycles(nest, arch)
        ports = max(v for k, v in units.items())
        chain = _chain_cycles(nest, arch)
        cyc = max(ports, chain)
        est_cycles += cyc * (w / nest.vf)
        dep_stall += max(0.0, chain - ports) * (w / nest.vf)
        chain_latency += sum(arch.op_latency(oc, dt)
                             for oc, dt in nest.chain_ops) * w
        pp = _port_pressure(nest, arch)
        for k in port_tot:
            port_tot[k] += pp[k] * (w / nest.vf)
        if nest.vectorized:
            vec_weight += w
        vf_weight += nest.vf * w
    est_cycles = _ratio(est_cycles, total_src_iters)
    dep_stall = _ratio(dep_stall, total_src_iters)
    chain_latency = _ratio(chain_latency, total_src_iters)
    ports = {k: _ratio(v, total_src_iters) for k, v in port_tot.items()}

    # Access-pattern mix over static sites.
    site_classes = {"0": 0, "1": 0, "k": 0, "lda": 0}
    n_sites = 0
    n_store_sites = 0
    for cn in nests:
        for acc in cn.nest.accesses:
            cls = cn.nest.stride_class(acc)
            cls = "1" if cls == "-1" else cls
            site_classes[cls] += 1
            n_sites += 1
            if acc.is_store:
                n_store_sites += 1

    footprint = max(1.0, float(compiled.kernel.footprint_bytes()))
    sp_flops = sum(i.flops for i in instrs if i.dtype.name == "f32")
    dp_flops = sum(i.flops for i in instrs if i.dtype.name == "f64")
    # Mixed precision shows up either in the arithmetic or in the data
    # movement (an SP array feeding DP arithmetic, Table 3's MP rows).
    sp_any = any(i.dtype.name == "f32" for i in instrs)
    dp_any = any(i.dtype.name == "f64" for i in instrs)
    mixed = float(sp_any and dp_any and n_flops > 0)

    return StaticProfile(
        loop_size_uops=_ratio(
            sum(cn.uops_per_vector_iter * (w / cn.vf)
                for cn, w in zip(nests, weights)), total_src_iters),
        unrolled_vf=_ratio(vf_weight, total_src_iters),
        vectorized_fraction=_ratio(vec_weight, total_src_iters),
        loop_depth=_ratio(
            sum(cn.nest.depth * w for cn, w in zip(nests, weights)),
            total_src_iters),
        inner_trip=_ratio(
            sum(cn.nest.inner_trip * w for cn, w in zip(nests, weights)),
            total_src_iters),
        n_access_sites=float(n_sites),
        n_arrays=float(len(compiled.kernel.arrays)),
        log_footprint_bytes=math.log10(footprint),
        est_cycles_l1=est_cycles,
        est_ipc_l1=_ratio(n_uops, est_cycles),
        bytes_loaded_per_cycle_l1=_ratio(bytes_loaded, est_cycles),
        bytes_stored_per_cycle_l1=_ratio(bytes_stored, est_cycles),
        dep_stall_cycles=dep_stall,
        flops_per_cycle_l1=_ratio(n_flops, est_cycles),
        n_uops=n_uops,
        n_loads=n_loads,
        n_stores=n_stores,
        n_fp_add=n_fp_add,
        n_fp_mul=n_fp_mul,
        n_fp_div=n_fp_div,
        n_fp_sqrt=n_fp_sqrt,
        n_fp_move=n_fp_move,
        n_int_alu=n_int_alu,
        n_branch=n_branch,
        n_sd_instr=n_sd,
        n_ss_instr=n_ss,
        n_vec_pd=n_pd,
        n_vec_ps=n_ps,
        n_flops=n_flops,
        ratio_add_mul=min(8.0, _ratio(n_fp_add, max(n_fp_mul, 1e-9))),
        load_store_ratio=min(16.0, _ratio(n_loads, max(n_stores, 1e-9))),
        arith_intensity_l1=_ratio(n_flops,
                                  max(bytes_loaded + bytes_stored, 1e-9)),
        p0_pressure=ports["p0"],
        p1_pressure=ports["p1"],
        p2_pressure=ports["p2"],
        p3_pressure=ports["p3"],
        p4_pressure=ports["p4"],
        p5_pressure=ports["p5"],
        max_port_pressure=max(ports.values()),
        vec_ratio_all=_vec_pct(instrs, *OpClass),
        vec_ratio_add=_vec_pct(instrs, OpClass.FP_ADD, fp_only=True),
        vec_ratio_mul=_vec_pct(instrs, OpClass.FP_MUL, fp_only=True),
        vec_ratio_div_sqrt=_vec_pct(instrs, OpClass.FP_DIV,
                                    OpClass.FP_SQRT, fp_only=True),
        vec_ratio_load=_vec_pct(instrs, OpClass.LOAD),
        vec_ratio_store=_vec_pct(instrs, OpClass.STORE),
        vec_ratio_other_fp_int=_vec_pct(instrs, OpClass.FP_MOVE,
                                        OpClass.INT_ALU),
        vec_ratio_other_int=_vec_pct(instrs, OpClass.INT_ALU,
                                     int_only=True),
        is_double_precision=float(dp_flops > 0 and not sp_any),
        is_single_precision=float(sp_flops > 0 and not dp_any),
        is_mixed_precision=mixed,
        has_reduction=float(any(cn.deps.has_reduction for cn in nests)),
        has_recurrence=float(any(cn.deps.recurrences for cn in nests)),
        chain_latency=chain_latency,
        frac_stride0=_ratio(site_classes["0"], n_sites),
        frac_stride_unit=_ratio(site_classes["1"], n_sites),
        frac_stride_small=_ratio(site_classes["k"], n_sites),
        frac_stride_lda=_ratio(site_classes["lda"], n_sites),
        frac_stores=_ratio(n_store_sites, n_sites),
    )


STATIC_FEATURE_NAMES: Tuple[str, ...] = tuple(
    f.name for f in fields(StaticProfile))
