"""Benchmark suites authored in the kernel IR: Numerical Recipes
(training) and the NAS-like SER suite (validation)."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".nas": ("NAS_APP_ORDER", "build_nas_suite"),
    ".nr": ("NR_SPEC_BY_NAME", "NR_SPECS", "NRSpec", "build_nr_suite"),
})
