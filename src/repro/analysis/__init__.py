"""Static loop analysis.

* :mod:`repro.analysis.static_metrics` — the MAQAO substitute (binary
  loop metrics on the reference machine's dispatch model);
* :mod:`repro.analysis.arch_independent` — machine-neutral workload
  characterisation, the paper's Section 5 generalisation;
* :mod:`repro.analysis.lint` — the dataflow/dependence lint framework
  behind ``repro lint`` (kept out of this namespace: import the
  subpackage directly).
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".arch_independent": ("ARCH_INDEPENDENT_FEATURE_NAMES",
                          "ArchIndependentProfile",
                          "analyze_arch_independent",
                          "arch_independent_matrix"),
    ".static_metrics": ("STATIC_FEATURE_NAMES", "StaticProfile",
                        "analyze_static"),
})
