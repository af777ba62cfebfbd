"""Dependence-proven loop rewrites over the kernel IR.

A registry of classic loop transformations — interchange, strip-mine,
tile, fuse, unroll — where every application is gated by a legality
verdict derived from the exact affine dependence solver of
:mod:`repro.ir.dependence`, shared with the compiler and the lint
passes:

* :mod:`~repro.ir.rewrite.substitute` — mechanical IR surgery
  (substitution, perfect-nest detection, nest rebuilding);
* :mod:`~repro.ir.rewrite.legality` — direction-vector legality rules
  producing typed :class:`LegalityVerdict` objects that cite the
  blocking dependence;
* :mod:`~repro.ir.rewrite.passes` — the ``@rewrite_pass`` registry;
* :mod:`~repro.ir.rewrite.pipeline` — ``--pass`` spec parsing,
  kernel/suite application, deterministic reports;
* :mod:`~repro.ir.rewrite.canary` — pinned legality expectations the
  verify invariants replay.

Deliberately *not* imported from ``repro.ir`` itself: only the
commands and passes that rewrite kernels need it.  See
``docs/TRANSFORM.md``.
"""

from .canary import (FORCED_DIVERGENCE_CANARY, TRANSFORM_CANARIES,
                     TransformCanary)
from .legality import (ILLEGAL, INAPPLICABLE, LEGAL, LegalityVerdict,
                       fuse_verdict, interchange_verdict, nest_label,
                       tile_verdict)
from .passes import (REWRITE_REGISTRY, RewritePass, TransformRecord,
                     describe_passes, rewrite_pass)
from .pipeline import (PassSpec, TransformReport, parse_pass_specs,
                       transform_kernel, transform_suite)
from .substitute import (constant_trip, perfect_chain, rebuild_chain,
                         scoping_ok, substitute_affine, substitute_expr,
                         substitute_stmt)

__all__ = [
    "LEGAL", "ILLEGAL", "INAPPLICABLE", "LegalityVerdict",
    "interchange_verdict", "tile_verdict", "fuse_verdict", "nest_label",
    "REWRITE_REGISTRY", "RewritePass", "TransformRecord",
    "rewrite_pass", "describe_passes",
    "PassSpec", "TransformReport", "parse_pass_specs",
    "transform_kernel", "transform_suite",
    "TRANSFORM_CANARIES", "TransformCanary", "FORCED_DIVERGENCE_CANARY",
    "substitute_affine", "substitute_expr", "substitute_stmt",
    "perfect_chain", "rebuild_chain", "scoping_ok", "constant_trip",
]
