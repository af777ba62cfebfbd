"""Metamorphic & differential correctness harness for the pipeline.

The paper's claims rest on invariants no single example states: cluster
assignments must not depend on codelet labels or ordering, feature
normalisation must make clustering unit-invariant, extrapolation must
be exact at K = N, and every runtime knob (process pools, the profile
cache) must change wall-clock time only.  This package makes those
properties *executable*:

* :mod:`~repro.verify.strategies` — seeded synthetic suites, codelets
  and feature matrices (promoted from the runtime test helpers so all
  layers share one generator);
* :mod:`~repro.verify.invariants` — the named invariant registry and
  the :class:`VerifyContext` it runs against, with deliberate-defect
  injection (``BREAKAGES``) to prove each invariant actually bites;
* :mod:`~repro.verify.oracle` — the differential oracle: paired
  configuration runs (serial/pool, cached/uncached, elbow/explicit K)
  structurally diffed field by field;
* :mod:`~repro.verify.report` / :mod:`~repro.verify.runner` — the
  pass/fail report and the ``repro verify`` entry point.

See ``docs/VERIFY.md`` for how to add an invariant.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".invariants": ("BREAKAGES", "REGISTRY", "Invariant", "InvariantResult",
                    "InvariantViolation", "VerifyContext", "invariant",
                    "reduce_codelets", "run_registry"),
    ".oracle": ("DIFFERENTIAL_CASES", "DifferentialCase",
                "DifferentialResult", "Discrepancy", "diff_evaluations",
                "diff_reduced", "run_differential"),
    ".report": ("VerifyReport",),
    ".runner": ("describe_registry", "run_verify"),
    ".strategies": ("FEATURE_MATRIX_VARIANTS", "KERNEL_SHAPES",
                    "random_codelet", "random_codelets", "synthetic_suite"),
})
