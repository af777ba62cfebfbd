"""Experiment drivers: one per table/figure of the paper's evaluation.

Each ``run_*`` function takes a shared :class:`ExperimentContext` and
returns a structured result with a ``format()`` method that regenerates
the table/figure as text, alongside the paper's published values.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".capture_change": ("CaptureChangeResult", "run_capture_change"),
    ".context": ("ExperimentContext",),
    ".figure2": ("Figure2Result", "run_figure2"),
    ".figure3": ("Figure3Result", "run_figure3"),
    ".figure4": ("Figure4Result", "run_figure4"),
    ".figure5": ("Figure5Result", "run_figure5"),
    ".figure6": ("Figure6Result", "run_figure6"),
    ".figure7": ("Figure7Result", "run_figure7"),
    ".figure8": ("Figure8Result", "run_figure8"),
    ".report": ("format_series", "format_table", "paper_vs_measured"),
    ".table1": ("Table1Result", "run_table1"),
    ".table2": ("Table2Result", "run_table2"),
    ".table3": ("Table3Result", "run_table3"),
    ".table4": ("Table4Result", "run_table4"),
    ".table5": ("Table5Result", "run_table5"),
    ".transform_stability": ("TransformStabilityResult",
                             "run_transform_stability"),
    ".whatif": ("WhatIfResult", "run_whatif"),
})
