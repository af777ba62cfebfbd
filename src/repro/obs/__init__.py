"""repro.obs — deterministic tracing and metrics over the pipeline.

The observability subsystem gives every pipeline run a structured,
replayable account of where work went:

* :mod:`~repro.obs.tracer` — a span-based :class:`Tracer` (nested
  spans per pipeline stage and per task) whose JSON export contains no
  wall-clock values, so a replay with the same seed and fault plan is
  byte-identical (enforced by the ``trace-replay`` verify invariant);
* :mod:`~repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges and histograms (cache hits/misses/evictions, retries,
  quarantines, cluster sizes, per-stage task counts and modelled-time
  totals);
* :mod:`~repro.obs.observation` — the per-run :class:`Observation`
  bundle and the CLI-scoped active observation;
* :mod:`~repro.obs.render` — rendering of saved trace files for the
  ``repro trace`` subcommand.

This package deliberately imports nothing from the rest of
:mod:`repro` but its namespace helper: the runtime, codelet, core and
CLI layers all wire it in (see ``docs/OBSERVABILITY.md``).
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".metrics": ("METRICS_FORMAT", "Counter", "Gauge", "Histogram",
                 "MetricsRegistry"),
    ".observation": ("Observation", "active_observation", "observing"),
    ".render": ("load_trace", "render_summary", "render_tree"),
    ".tracer": ("TRACE_FORMAT", "Span", "Tracer"),
})
