"""Stable content fingerprints for cache keys.

A cache entry must be invalidated exactly when its inputs change, so
fingerprints have to be (a) **stable** across processes and sessions and
(b) **sensitive** to everything that influences measured values.

The canonical kernel-content rendering itself lives in
:mod:`repro.ir.fingerprint` (so the compiler's lowering memo can share
it without importing the runtime layer); :func:`kernel_fingerprint` is
re-exported here for its original callers.

Sensitivity covers the full measurement closure: kernel structure,
array shapes/dtypes, dataset variants and weights, invocation counts,
extraction perturbations (``fragile_opt``, ``pressure_bytes``), every
architecture parameter, and the measurer/noise configuration.
"""

from __future__ import annotations

from ..ir.fingerprint import kernel_fingerprint
from ..machine.architecture import Architecture

# NOTE: this module must not import repro.codelets — the codelet layer
# imports repro.runtime, and keeping the dependency one-way avoids an
# import cycle.  ``codelet`` parameters below are duck-typed.

FINGERPRINT_VERSION = "fp-v1"

__all__ = [
    "FINGERPRINT_VERSION", "kernel_fingerprint", "codelet_fingerprint",
    "architecture_fingerprint", "measurer_fingerprint",
    "profile_cache_key",
]


def codelet_fingerprint(codelet) -> str:
    """Everything about a codelet that profiling can observe."""
    variants = "|".join(kernel_fingerprint(k) for k in codelet.variants)
    weights = ",".join(repr(w) for w in codelet.variant_weights)
    return (f"codelet:{codelet.name}"
            f"|inv={codelet.invocations}"
            f"|fragile={codelet.fragile_opt}"
            f"|pressure={codelet.pressure_bytes!r}"
            f"|weights=[{weights}]"
            f"|variants=[{variants}]")


# ---------------------------------------------------------------------------
# Architecture and measurer configuration
# ---------------------------------------------------------------------------


def _sorted_map(mapping) -> str:
    return ",".join(f"{key}:{value!r}" for key, value in
                    sorted(mapping.items(), key=lambda kv: str(kv[0])))


def architecture_fingerprint(arch: Architecture) -> str:
    """Every model parameter of an architecture, canonically ordered."""
    caches = ",".join(
        f"{c.name}:{c.size_bytes}:{c.line_bytes}:{c.assoc}"
        f":{c.latency_cycles!r}:{c.bw_bytes_per_cycle!r}"
        for c in arch.caches)
    return "|".join([
        f"arch:{arch.name}",
        f"freq={arch.freq_ghz!r}",
        f"cores={arch.cores}",
        f"inorder={arch.in_order}",
        f"issue={arch.issue_width!r}",
        f"ldports={arch.load_ports}",
        f"stports={arch.store_ports}",
        f"isa={arch.compile_isa.name}:{arch.compile_isa.vec_bits}",
        f"tput=[{_sorted_map(arch.recip_tput)}]",
        f"div=[{_sorted_map(arch.div_recip_tput)}]",
        f"sqrt=[{_sorted_map(arch.sqrt_recip_tput)}]",
        f"lat=[{_sorted_map(arch.latency)}]",
        f"divlat=[{_sorted_map(arch.div_latency)}]",
        f"vuop={arch.vector_uop_factor!r}",
        f"mlp={arch.mlp!r}",
        f"caches=[{caches}]",
        f"memlat={arch.mem_latency_cycles!r}",
        f"membw={arch.mem_bw_gbps!r}",
        f"overlap={arch.overlap_penalty!r}",
    ])


def measurer_fingerprint(measurer) -> str:
    """Measurer class and noise model."""
    noise = measurer.noise
    return (f"measurer:{type(measurer).__qualname__}"
            f"|noise={type(noise).__qualname__}:{noise!r}")


def profile_cache_key(codelet, arch: Architecture, measurer,
                      min_total_cycles: float, run_id: int) -> str:
    """Canonical (pre-hash) key material for one profiling outcome."""
    return "|".join([
        FINGERPRINT_VERSION,
        codelet_fingerprint(codelet),
        architecture_fingerprint(arch),
        measurer_fingerprint(measurer),
        f"min_cycles={min_total_cycles!r}",
        f"run={run_id}",
    ])
