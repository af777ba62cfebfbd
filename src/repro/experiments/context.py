"""Shared experiment state.

:class:`ExperimentContext` is the one place that builds a command's
reducers, reductions and Step E evaluations, so the expensive parts —
suite construction, Step A/B profiling, dendrograms — run once per
process, and :attr:`~ExperimentContext.health` covers every reducer.
``scale`` shrinks suite working sets for fast test runs; the
experiments use 1.0 (the CLASS-B-like configuration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..codelets.codelet import BenchmarkSuite
from ..codelets.measurement import Measurer
from ..core.pipeline import (BenchmarkReducer, ReducedSuite,
                             SubsettingConfig, TargetEvaluation,
                             evaluate_on_target)
from ..core.representatives import NoRepresentativeError
from ..machine.architecture import Architecture
from ..runtime.resilience import RunHealth
from ..suites import build_nas_suite, build_nr_suite

_SUITES = {"nr": build_nr_suite, "nas": build_nas_suite}


@dataclass
class ExperimentContext:
    """Lazily-built shared state for the paper's experiments.

    Reducers are named ``"nr"``, ``"nas"`` or ``"nas:bt"``: one NAS
    application alone, Figure 8's per-application regime.
    """

    scale: float = 1.0
    measurer: Measurer = field(default_factory=Measurer)
    config: SubsettingConfig = field(default_factory=SubsettingConfig)
    _reducers: Dict[str, BenchmarkReducer] = field(default_factory=dict)
    _reduced: Dict = field(default_factory=dict)
    _evaluations: Dict = field(default_factory=dict)

    def reducer(self, name: str) -> BenchmarkReducer:
        """The reducer called ``name``, built once."""
        if name not in self._reducers:
            suite_name, _, app = name.partition(":")
            if app:
                whole = self.reducer(suite_name).suite
                suite = BenchmarkSuite(f"{whole.name}:{app}",
                                       (whole.application(app),))
            else:
                suite = _SUITES[suite_name](self.scale)
            self._reducers[name] = BenchmarkReducer(suite, self.measurer,
                                                    self.config)
        return self._reducers[name]

    @property
    def nr(self) -> BenchmarkReducer:
        return self.reducer("nr")

    @property
    def nas(self) -> BenchmarkReducer:
        return self.reducer("nas")

    def reduced(self, name: str, k) -> ReducedSuite:
        """Cached Steps C-D result for (reducer name, k).  A
        :class:`NoRepresentativeError` is cached too and raised again,
        so Figure 8 reduces an application none of whose codelets can
        represent it once per K, not once per K and target."""
        key = (name, k)
        if key not in self._reduced:
            try:
                self._reduced[key] = self.reducer(name).reduce(k)
            except NoRepresentativeError as exc:
                self._reduced[key] = exc
        reduced = self._reduced[key]
        if isinstance(reduced, NoRepresentativeError):
            raise reduced
        return reduced

    def evaluation(self, name: str, k,
                   target: Architecture) -> TargetEvaluation:
        """Cached Step E evaluation for (reducer name, k, target), run
        under that reducer's resilience."""
        key = (name, k, target.name)
        if key not in self._evaluations:
            reduced = self.reduced(name, k)
            with self.config.runtime.make_executor() as executor:
                self._evaluations[key] = evaluate_on_target(
                    reduced, target, self.measurer, executor=executor,
                    resilience=self.reducer(name).resilience)
        return self._evaluations[key]

    @property
    def health(self) -> RunHealth:
        """Every reducer's run health, in the order they were built."""
        return RunHealth.combined(r.health for r in self._reducers.values())
