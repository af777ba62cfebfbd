"""Dataflow/dependence static-analysis (lint) framework over the IR.

The framework is a registry of composable passes sharing one cached
:class:`~repro.ir.dependence.AnalysisContext` per kernel, the
dependence engine the compiler and the loop rewrites use too; each
pass emits structured :class:`Diagnostic` objects with stable codes
(see :mod:`.diagnostics` for the full table).  Entry points:

* :func:`lint_kernel` — run every pass over one kernel;
* :func:`lint_suite` / :func:`make_suite_report` — lint whole built-in
  suites the way ``repro lint`` does;
* :class:`Baseline` — checked-in suppressions for accepted findings;
* :data:`CANARIES` / :func:`check_canaries` — known-good/bad kernels
  replayed by the ``lint-determinism`` verification invariant.
"""

from ..._exports import lazy_exports

# Pass modules self-register on import; this order is the registration
# (and therefore execution) order and must stay fixed — lint output is
# deterministic by construction.
from . import deps as _deps                # noqa: F401  (L101-L104)
from . import overlap as _overlap          # noqa: F401  (L201-L202)
from . import bounds as _bounds            # noqa: F401  (L301)
from . import uninit as _uninit            # noqa: F401  (L401)
from . import deadstore as _deadstore      # noqa: F401  (L501)
from . import transform as _transform      # noqa: F401  (L601-L606)

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".diagnostics": ("Diagnostic", "Severity", "sort_diagnostics"),
    ".registry": ("PASS_REGISTRY", "LintPass", "describe_passes",
                  "lint_kernel", "lint_pass", "make_diagnostic"),
    ".baseline": ("Baseline", "Suppression", "apply_baseline",
                  "prune_baseline", "BASELINE_VERSION"),
    ".canary": ("CANARIES", "Canary", "check_canaries"),
    ".report": ("LintReport",),
    ".runner": ("lint_suite", "make_suite_report"),
})
