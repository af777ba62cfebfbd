"""The per-run observability bundle and the process-wide active one.

An :class:`Observation` pairs one :class:`~repro.obs.tracer.Tracer`
with one :class:`~repro.obs.metrics.MetricsRegistry` for the duration
of a pipeline run.  Components receive it explicitly
(:class:`repro.core.pipeline.BenchmarkReducer` owns one per run, the
runtime layers take an optional reference), while the CLI activates a
single observation for the whole invocation via :func:`observing` so
every reducer an experiment builds internally reports into the same
trace without threading the object through each layer by hand.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional

from .metrics import MetricsRegistry
from .tracer import Span, Tracer


class Observation:
    """One run's tracer + metrics registry, created together."""

    def __init__(self):
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()

    # -- tracer conveniences --------------------------------------------------

    def span(self, name: str, **attrs: Any):
        return self.tracer.span(name, **attrs)

    def event(self, name: str, **attrs: Any) -> Span:
        return self.tracer.event(name, **attrs)


#: The observation CLI invocations (and anything else that opts in via
#: :func:`observing`) share; ``None`` outside such a scope.
_ACTIVE: Optional[Observation] = None


def active_observation() -> Optional[Observation]:
    """The observation activated by the innermost :func:`observing`."""
    return _ACTIVE


@contextmanager
def observing(obs: Optional[Observation] = None
              ) -> Iterator[Observation]:
    """Make ``obs`` (or a fresh one) the active observation within the
    block, restoring the previous one on exit (re-entrant)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = obs if obs is not None else Observation()
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous
