"""Architecture models for the four machines of Table 1.

The paper's method only needs target machines that stress *different
bottlenecks* — frequency, cache capacity, SIMD throughput, in-order vs
out-of-order execution, memory bandwidth.  Each :class:`Architecture`
bundles exactly those parameters; values follow the real parts
(Nehalem L5609, Atom D510, Core 2 E7500, Sandy Bridge E31240) from
Table 1 plus public microarchitectural data:

* **Nehalem** (reference) — 1.86 GHz, OOO, 32 KB L1d / 256 KB L2 /
  12 MB L3, triple-channel DDR3.
* **Atom**   — 1.66 GHz, dual-issue *in-order*, 24 KB L1d / 512 KB L2,
  no L3, weak SIMD (128-bit ops split into halves), very slow divider.
* **Core 2** — 2.93 GHz, OOO but older (smaller OOO window, FSB memory),
  32 KB L1d / 3 MB L2, no L3.  Fastest clock after SB but the smallest
  effective LLC relative to the reference — the paper's crossover maker.
* **Sandy Bridge** — 3.30 GHz, aggressive OOO, dual load ports,
  32 KB L1d / 256 KB L2 / 8 MB L3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..ir.types import DType
from ..isa.compiler import AVX, SSE2, SSE42, TargetISA
from ..isa.instructions import Instr, OpClass


@dataclass(frozen=True)
class CacheLevel:
    """One level of the data-cache hierarchy."""

    name: str
    size_bytes: int
    line_bytes: int
    assoc: int
    latency_cycles: float          # load-to-use on hit
    bw_bytes_per_cycle: float      # sustained fill bandwidth from this level

    @property
    def sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.assoc)


@dataclass(frozen=True)
class Architecture:
    """A parametric machine model.

    ``recip_tput`` maps op classes to reciprocal throughput in cycles per
    (possibly SIMD) operation; the divider entries are per *scalar* lane
    and unpipelined.  ``latency`` feeds dependency-chain costs.  ``mlp``
    is the sustainable memory-level parallelism (outstanding misses) used
    to convert miss latencies into exposed stall cycles; in-order Atom
    has almost none.
    """

    name: str
    freq_ghz: float
    cores: int
    in_order: bool
    issue_width: float
    load_ports: int
    store_ports: int
    compile_isa: TargetISA
    recip_tput: Dict[OpClass, float]
    div_recip_tput: Dict[str, float]       # dtype name -> cycles/lane
    sqrt_recip_tput: Dict[str, float]
    latency: Dict[OpClass, float]
    div_latency: Dict[str, float]
    vector_uop_factor: float               # µop expansion of 128-bit ops
    mlp: float
    caches: Tuple[CacheLevel, ...]
    mem_latency_cycles: float
    mem_bw_gbps: float
    # Fraction of the shorter of (compute, memory) phases that cannot be
    # overlapped; 0 for an ideal OOO engine, large for in-order cores.
    overlap_penalty: float = 0.0

    @property
    def llc(self) -> CacheLevel:
        return self.caches[-1]

    def mem_bw_bytes_per_cycle(self) -> float:
        return self.mem_bw_gbps / self.freq_ghz

    def div_cycles(self, dtype: DType, width: int) -> float:
        """Divider occupancy of one (SIMD) division."""
        return self.div_recip_tput[dtype.name] * width

    def sqrt_cycles(self, dtype: DType, width: int) -> float:
        return self.sqrt_recip_tput[dtype.name] * width

    def op_latency(self, opclass: OpClass, dtype: DType) -> float:
        if opclass is OpClass.FP_DIV:
            return self.div_latency[dtype.name]
        if opclass is OpClass.FP_SQRT:
            return self.div_latency[dtype.name] * 1.15
        return self.latency.get(opclass, 1.0)

    def uop_count(self, instr: Instr) -> float:
        """Issue-slot µops of an instruction (Atom splits 128-bit ops)."""
        if instr.is_vector:
            return instr.count * self.vector_uop_factor
        return instr.count


_OOO_LATENCY = {OpClass.FP_ADD: 3.0, OpClass.FP_MUL: 5.0,
                OpClass.FP_MOVE: 1.0, OpClass.INT_ALU: 1.0,
                OpClass.LOAD: 4.0, OpClass.STORE: 1.0, OpClass.BRANCH: 1.0}


NEHALEM = Architecture(
    name="Nehalem",
    freq_ghz=1.86,
    cores=4,
    in_order=False,
    issue_width=4.0,
    load_ports=1,
    store_ports=1,
    compile_isa=SSE42,
    recip_tput={OpClass.FP_ADD: 1.0, OpClass.FP_MUL: 1.0,
                OpClass.FP_MOVE: 0.5, OpClass.INT_ALU: 0.34,
                OpClass.LOAD: 1.0, OpClass.STORE: 1.0,
                OpClass.BRANCH: 1.0},
    div_recip_tput={"f32": 7.0, "f64": 11.0},
    sqrt_recip_tput={"f32": 9.0, "f64": 14.0},
    latency=_OOO_LATENCY,
    div_latency={"f32": 14.0, "f64": 22.0},
    vector_uop_factor=1.0,
    mlp=6.0,
    caches=(
        CacheLevel("L1", 32 * 1024, 64, 8, 4.0, 16.0),
        CacheLevel("L2", 256 * 1024, 64, 8, 10.0, 12.0),
        CacheLevel("L3", 12 * 1024 * 1024, 64, 16, 38.0, 8.0),
    ),
    mem_latency_cycles=120.0,
    mem_bw_gbps=18.0,
    overlap_penalty=0.10,
)


ATOM = Architecture(
    name="Atom",
    freq_ghz=1.66,
    cores=2,
    in_order=True,
    issue_width=2.0,
    load_ports=1,
    store_ports=1,
    compile_isa=SSE2,
    recip_tput={OpClass.FP_ADD: 1.0, OpClass.FP_MUL: 2.0,
                OpClass.FP_MOVE: 1.0, OpClass.INT_ALU: 0.5,
                OpClass.LOAD: 1.0, OpClass.STORE: 1.0,
                OpClass.BRANCH: 1.0},
    div_recip_tput={"f32": 30.0, "f64": 60.0},
    sqrt_recip_tput={"f32": 33.0, "f64": 65.0},
    latency={OpClass.FP_ADD: 5.0, OpClass.FP_MUL: 5.0,
             OpClass.FP_MOVE: 1.0, OpClass.INT_ALU: 1.0,
             OpClass.LOAD: 3.0, OpClass.STORE: 1.0, OpClass.BRANCH: 1.0},
    div_latency={"f32": 31.0, "f64": 62.0},
    vector_uop_factor=2.0,
    mlp=1.6,
    caches=(
        CacheLevel("L1", 24 * 1024, 64, 6, 3.0, 8.0),
        CacheLevel("L2", 512 * 1024, 64, 8, 16.0, 4.0),
    ),
    mem_latency_cycles=160.0,
    mem_bw_gbps=3.8,
    overlap_penalty=0.70,
)


CORE2 = Architecture(
    name="Core 2",
    freq_ghz=2.93,
    cores=2,
    in_order=False,
    issue_width=4.0,
    load_ports=1,
    store_ports=1,
    compile_isa=SSE2,
    recip_tput={OpClass.FP_ADD: 1.0, OpClass.FP_MUL: 1.0,
                OpClass.FP_MOVE: 0.5, OpClass.INT_ALU: 0.34,
                OpClass.LOAD: 1.0, OpClass.STORE: 1.0,
                OpClass.BRANCH: 1.0},
    div_recip_tput={"f32": 8.0, "f64": 13.0},
    sqrt_recip_tput={"f32": 10.0, "f64": 16.0},
    latency=_OOO_LATENCY,
    div_latency={"f32": 18.0, "f64": 32.0},
    vector_uop_factor=1.0,
    mlp=6.0,
    caches=(
        CacheLevel("L1", 32 * 1024, 64, 8, 3.0, 16.0),
        CacheLevel("L2", 3 * 1024 * 1024, 64, 12, 15.0, 8.0),
    ),
    mem_latency_cycles=190.0,
    mem_bw_gbps=8.0,
    overlap_penalty=0.15,
)


SANDY_BRIDGE = Architecture(
    name="Sandy Bridge",
    freq_ghz=3.30,
    cores=4,
    in_order=False,
    issue_width=4.0,
    load_ports=2,
    store_ports=1,
    compile_isa=SSE42,
    recip_tput={OpClass.FP_ADD: 1.0, OpClass.FP_MUL: 1.0,
                OpClass.FP_MOVE: 0.34, OpClass.INT_ALU: 0.34,
                OpClass.LOAD: 0.5, OpClass.STORE: 1.0,
                OpClass.BRANCH: 0.5},
    div_recip_tput={"f32": 7.0, "f64": 11.0},
    sqrt_recip_tput={"f32": 9.0, "f64": 14.0},
    latency=_OOO_LATENCY,
    div_latency={"f32": 12.0, "f64": 20.0},
    vector_uop_factor=1.0,
    mlp=10.0,
    caches=(
        CacheLevel("L1", 32 * 1024, 64, 8, 4.0, 32.0),
        CacheLevel("L2", 256 * 1024, 64, 8, 11.0, 16.0),
        CacheLevel("L3", 8 * 1024 * 1024, 64, 16, 30.0, 10.0),
    ),
    mem_latency_cycles=180.0,
    mem_bw_gbps=17.0,
    overlap_penalty=0.08,
)


#: A what-if target beyond the paper's setup: an AVX2-generation part
#: (Haswell-like) with 256-bit SIMD, dual load ports and a large L3.
#: Used by the generalisation experiment (repro.experiments.whatif) to
#: test how the reference-trained features transfer to a machine whose
#: vector ISA differs from everything seen during training.
HASWELL = Architecture(
    name="Haswell",
    freq_ghz=3.40,
    cores=4,
    in_order=False,
    issue_width=4.0,
    load_ports=2,
    store_ports=1,
    compile_isa=AVX,
    recip_tput={OpClass.FP_ADD: 1.0, OpClass.FP_MUL: 0.5,
                OpClass.FP_MOVE: 0.34, OpClass.INT_ALU: 0.25,
                OpClass.LOAD: 0.5, OpClass.STORE: 1.0,
                OpClass.BRANCH: 0.5},
    div_recip_tput={"f32": 5.0, "f64": 8.0},
    sqrt_recip_tput={"f32": 6.0, "f64": 10.0},
    latency=_OOO_LATENCY,
    div_latency={"f32": 11.0, "f64": 18.0},
    vector_uop_factor=1.0,
    mlp=10.0,
    caches=(
        CacheLevel("L1", 32 * 1024, 64, 8, 4.0, 64.0),
        CacheLevel("L2", 256 * 1024, 64, 8, 11.0, 32.0),
        CacheLevel("L3", 20 * 1024 * 1024, 64, 16, 34.0, 16.0),
    ),
    mem_latency_cycles=190.0,
    mem_bw_gbps=24.0,
    overlap_penalty=0.06,
)

#: The paper's reference architecture (Step B profiles here).
REFERENCE = NEHALEM
#: The paper's three target architectures (Step E measures here).
TARGETS = (ATOM, CORE2, SANDY_BRIDGE)
#: The machines of Table 1.
ALL_ARCHITECTURES = (NEHALEM, ATOM, CORE2, SANDY_BRIDGE)
#: Table 1 plus the what-if extension targets.
EXTENDED_ARCHITECTURES = ALL_ARCHITECTURES + (HASWELL,)

_BY_NAME = {a.name: a for a in EXTENDED_ARCHITECTURES}


def architecture_by_name(name: str) -> Architecture:
    """Look up one of the built-in machines by its Table 1 name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown architecture {name!r}; available: "
            f"{sorted(_BY_NAME)}") from None


def table1_rows() -> Tuple[Dict[str, object], ...]:
    """Table 1 of the paper as data (architecture description table)."""
    rows = []
    for arch in ALL_ARCHITECTURES:
        caches = {c.name: c.size_bytes for c in arch.caches}
        rows.append({
            "name": arch.name,
            "role": "reference" if arch is REFERENCE else "target",
            "freq_ghz": arch.freq_ghz,
            "cores": arch.cores,
            "in_order": arch.in_order,
            "l1_kb": caches.get("L1", 0) // 1024,
            "l2_kb": caches.get("L2", 0) // 1024,
            "l3_mb": caches.get("L3", 0) // (1024 * 1024),
            "isa": arch.compile_isa.name,
        })
    return tuple(rows)
