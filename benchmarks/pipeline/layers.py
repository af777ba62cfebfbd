"""Per-layer tracing of the ``repro`` pipeline from outside the program.

:data:`LAYER_TABLE` names the public functions that mark each layer's
boundary.  :func:`install` replaces them with wrappers that record
calls and time into a :class:`Tracer`; nothing under ``src/`` knows it
is being traced.

* A module-level function is replaced in every ``repro.*`` module that
  holds the same function object, because the CLI and the pipeline bind
  names with ``from ... import``.  A method is replaced on its class.
* A timed wrapper's *self time* is its duration minus the time covered
  by the timed wrapped calls nested inside it, so each second is
  attributed to exactly one layer.
* Functions called tens of thousands of times per ``repro report`` get
  count-only wrappers (:data:`COUNTED`): timing them cost more than the
  work they do, so their time falls to their timed caller.

Under ``-j 2`` the wrappers see only the parent process: calls made in
pool workers are not counted, and the parent's time blocked on workers
is the executor's self time, ``runtime.executor.wait_s``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

TIMED = "timed"
COUNTED = "counted"

#: The experiments ``repro report`` runs, by module name.
EXPERIMENTS = ("table1", "table2", "table3", "table4", "table5",
               "figure2", "figure3", "figure4", "figure5", "figure6",
               "figure7", "figure8", "capture_change", "whatif")

#: (layer, module, function or ``Class.method``, wrapper kind).
LAYER_TABLE = (
    ("codelets.finder", "repro.codelets.finder", "find_codelets", TIMED),
    ("codelets.finder", "repro.codelets.finder", "find_suite_codelets",
     TIMED),
    ("analysis.lint", "repro.analysis.lint.registry", "lint_kernel", TIMED),
    ("analysis.static_metrics", "repro.analysis.static_metrics",
     "analyze_static", TIMED),
    ("isa.compiler", "repro.isa.compiler", "compile_kernel", TIMED),
    ("machine.cache_model", "repro.machine.cache_model", "analyze_cache",
     TIMED),
    ("machine.exec_model", "repro.machine.exec_model",
     "estimate_execution", TIMED),
    ("machine.platform", "repro.machine.platform", "run_kernel_model",
     TIMED),
    ("codelets.measurement", "repro.codelets.measurement",
     "Measurer.model_run", COUNTED),
    ("codelets.profiling", "repro.codelets.profiling", "profile_codelets",
     TIMED),
    ("codelets.profiling", "repro.codelets.profiling", "profile_outcome",
     TIMED),
    ("runtime.cache", "repro.runtime.cache", "DiskCache.get", TIMED),
    ("runtime.cache", "repro.runtime.cache", "DiskCache.put", TIMED),
    ("runtime.executor", "repro.runtime.executor", "SerialExecutor.map",
     TIMED),
    ("runtime.executor", "repro.runtime.executor", "ProcessExecutor.map",
     TIMED),
    ("runtime.resilience", "repro.runtime.resilience",
     "ResilientExecutor.run", TIMED),
    ("runtime.resilience", "repro.runtime.resilience",
     "ResilientExecutor.map_tasks", TIMED),
    ("core.features", "repro.core.features", "FeatureMatrix.from_profiles",
     TIMED),
    ("core.features", "repro.core.features", "FeatureMatrix.normalized",
     TIMED),
    ("core.ga", "repro.core.ga", "run_ga", TIMED),
    ("core.ga", "repro.core.ga", "FeatureSelectionProblem.evaluate_mask",
     TIMED),
    ("core.clustering", "repro.core.clustering", "linkage", TIMED),
    ("core.clustering", "repro.core.clustering", "elbow_k", TIMED),
    ("core.clustering", "repro.core.clustering", "variance_curve", TIMED),
    ("core.clustering", "repro.core.clustering", "within_cluster_variance",
     COUNTED),
    ("core.clustering", "repro.core.clustering", "Dendrogram.cut",
     COUNTED),
    ("core.representatives", "repro.core.representatives",
     "select_representatives", TIMED),
    ("core.prediction", "repro.core.prediction", "build_cluster_model",
     TIMED),
    ("core.prediction", "repro.core.prediction", "ClusterModel.predict",
     TIMED),
    ("core.prediction", "repro.core.prediction", "aggregate_application",
     TIMED),
    ("core.random_baseline", "repro.core.random_baseline",
     "random_clustering_errors", TIMED),
    ("core.random_baseline", "repro.core.random_baseline",
     "random_partition", COUNTED),
    ("core.subsetting", "repro.core.subsetting",
     "cross_application_subsetting", TIMED),
    ("core.subsetting", "repro.core.subsetting",
     "per_application_subsetting", TIMED),
    ("core.pipeline", "repro.core.pipeline", "BenchmarkReducer.reduce",
     TIMED),
    ("core.pipeline", "repro.core.pipeline", "evaluate_on_target", TIMED),
) + tuple(("experiments", f"repro.experiments.{name}", f"run_{name}", TIMED)
          for name in EXPERIMENTS)


# -- work counters read from a wrapped call's arguments and result -----------

def _cache_get(tracer, args, result, before):
    tracer.counts["cache.hits" if result is not None
                  else "cache.misses"] += 1


def _executor_map(tracer, args, result, before):
    tracer.counts["executor.tasks"] += len(result)


def _health_size(args):
    return len(args[0].health.tasks)


def _resilience_attempts(tracer, args, result, before):
    # map_tasks appends one TaskHealth per item to the executor's
    # RunHealth; the records past ``before`` are this call's.
    for task in args[0].health.tasks[before:]:
        tracer.counts["resilience.attempts"] += task.attempts
        tracer.counts["resilience.retries"] += max(0, task.attempts - 1)


#: qualname -> (before(args) or None, after(tracer, args, result, before)).
PROBES = {
    "DiskCache.get": (None, _cache_get),
    "SerialExecutor.map": (None, _executor_map),
    "ProcessExecutor.map": (None, _executor_map),
    "ResilientExecutor.map_tasks": (_health_size, _resilience_attempts),
}


class Tracer:
    """Calls, self time and inclusive time per wrapped function.

    ``clock`` is injectable so the self-time arithmetic can be tested
    against a fake clock.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.incl_s: Counter = Counter()
        self.counts: Counter = Counter()
        # Time covered by nested timed calls, one slot per open timed
        # call; slot 0 collects the top-level calls.
        self._nested = [0.0]

    def wrap(self, key: str, fn, kind: str = TIMED):
        calls = self.calls
        if kind == COUNTED:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return counted

        clock, nested = self.clock, self._nested
        self_s, incl_s = self.self_s, self.incl_s
        before, after = PROBES.get(key, (None, None))

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            state = before(args) if before is not None else None
            nested.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                inner = nested.pop()
                nested[-1] += duration
                calls[key] += 1
                incl_s[key] += duration
                self_s[key] += duration - inner
            if after is not None:
                after(self, args, result, state)
            return result
        return timed

    def snapshot(self, cmd_s: float, imported_modules: int,
                 lowering) -> dict:
        """JSON-ready record of one traced command."""
        counts = dict(self.counts)
        counts["lowering.hits"] = lowering["hits"]
        counts["lowering.misses"] = lowering["misses"]
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "incl_s": dict(self.incl_s), "counts": counts,
                "main_s": cmd_s, "imported_modules": imported_modules}


def repro_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def resolve(module_name: str, qualname: str):
    """``(owner, attribute, raw object)`` for one table entry; raises if
    the entry no longer names a function, so a rename fails loudly
    instead of reading 0."""
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        raw = owner.__dict__[attr]
    else:
        owner, raw = module, getattr(module, attr)
    fn = raw.__func__ if isinstance(raw, classmethod) else raw
    if not callable(fn):
        raise TypeError(f"{module_name}.{qualname} is not callable")
    return owner, attr, raw


def install(tracer: Tracer):
    """Wrap every :data:`LAYER_TABLE` entry; returns the
    ``(namespace, name, original)`` triples :func:`uninstall` restores."""
    undo = []
    for _layer, module_name, qualname, kind in LAYER_TABLE:
        owner, attr, raw = resolve(module_name, qualname)
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                new = classmethod(tracer.wrap(qualname, raw.__func__, kind))
            else:
                new = tracer.wrap(qualname, raw, kind)
            setattr(owner, attr, new)
            undo.append((owner, attr, raw))
            continue
        wrapped = tracer.wrap(qualname, raw, kind)
        for module in repro_modules():
            for name, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, name, wrapped)
                    undo.append((module, name, raw))
    return undo


def uninstall(undo) -> None:
    for namespace, name, original in reversed(undo):
        setattr(namespace, name, original)


def merge(snapshots) -> dict:
    """Sum the snapshots of one session's commands."""
    total = {group: Counter()
             for group in ("calls", "self_s", "incl_s", "counts")}
    main_s, imported = 0.0, 0
    for snap in snapshots:
        for group, counter in total.items():
            counter.update(snap[group])
        main_s += snap["main_s"]
        imported = max(imported, snap["imported_modules"])
    total["main_s"] = main_s
    total["imported_modules"] = imported
    return total


# -- per-layer metrics --------------------------------------------------------

def _self(t, *qualnames):
    return sum(t["self_s"][q] for q in qualnames)


def _layer(name):
    qualnames = [q for layer, _m, q, kind in LAYER_TABLE
                 if layer == name and kind == TIMED]
    return lambda t: _self(t, *qualnames)


def _calls(qualname):
    return lambda t: t["calls"][qualname]


def _count(name):
    return lambda t: t["counts"][name]


def _ratio(num, den):
    return num / den if den else 0.0


def _unattributed(t):
    return t["main_s"] - sum(t["self_s"].values())


_MAPS = ("SerialExecutor.map", "ProcessExecutor.map")

#: (metric name, unit, value from a :func:`merge` total).
LAYER_METRICS = (
    ("codelets.finder.self_s", "s", _layer("codelets.finder")),
    ("analysis.lint.self_s", "s", _layer("analysis.lint")),
    ("analysis.lint.kernels", "count", _calls("lint_kernel")),
    ("analysis.static_metrics.self_s", "s",
     _layer("analysis.static_metrics")),
    ("analysis.static_metrics.calls", "count", _calls("analyze_static")),
    ("isa.compiler.self_s", "s", _layer("isa.compiler")),
    ("isa.compiler.lowerings", "count", _count("lowering.misses")),
    ("isa.compiler.memo_hit_ratio", "ratio",
     lambda t: _ratio(t["counts"]["lowering.hits"],
                      t["counts"]["lowering.hits"]
                      + t["counts"]["lowering.misses"])),
    ("machine.cache_model.self_s", "s", _layer("machine.cache_model")),
    ("machine.cache_model.calls", "count", _calls("analyze_cache")),
    ("machine.exec_model.self_s", "s", _layer("machine.exec_model")),
    ("machine.platform.self_s", "s", _layer("machine.platform")),
    ("machine.platform.model_runs", "count", _calls("run_kernel_model")),
    ("codelets.measurement.requests", "count",
     _calls("Measurer.model_run")),
    ("codelets.measurement.memo_hit_ratio", "ratio",
     lambda t: _ratio(t["calls"]["Measurer.model_run"]
                      - t["calls"]["run_kernel_model"],
                      t["calls"]["Measurer.model_run"])),
    ("codelets.profiling.self_s", "s", _layer("codelets.profiling")),
    ("codelets.profiling.profiled", "count", _calls("profile_outcome")),
    ("runtime.cache.get_s", "s",
     lambda t: t["incl_s"]["DiskCache.get"]),
    ("runtime.cache.put_s", "s",
     lambda t: t["incl_s"]["DiskCache.put"]),
    ("runtime.cache.hits", "count", _count("cache.hits")),
    ("runtime.cache.misses", "count", _count("cache.misses")),
    ("runtime.cache.writes", "count", _calls("DiskCache.put")),
    ("runtime.executor.map_s", "s",
     lambda t: sum(t["incl_s"][q] for q in _MAPS)),
    ("runtime.executor.wait_s", "s", lambda t: _self(t, *_MAPS)),
    ("runtime.executor.tasks", "count", _count("executor.tasks")),
    ("runtime.resilience.self_s", "s", _layer("runtime.resilience")),
    ("runtime.resilience.attempts", "count",
     _count("resilience.attempts")),
    ("runtime.resilience.retries", "count", _count("resilience.retries")),
    ("core.features.self_s", "s", _layer("core.features")),
    ("core.ga.self_s", "s", _layer("core.ga")),
    ("core.ga.fitness_evals", "count",
     _calls("FeatureSelectionProblem.evaluate_mask")),
    ("core.clustering.linkage_s", "s", lambda t: _self(t, "linkage")),
    ("core.clustering.linkage_calls", "count", _calls("linkage")),
    ("core.clustering.elbow_s", "s",
     lambda t: _self(t, "elbow_k", "variance_curve")),
    ("core.clustering.variance_evals", "count",
     _calls("within_cluster_variance")),
    ("core.clustering.cuts", "count", _calls("Dendrogram.cut")),
    ("core.representatives.self_s", "s", _layer("core.representatives")),
    ("core.representatives.calls", "count",
     _calls("select_representatives")),
    ("core.prediction.self_s", "s", _layer("core.prediction")),
    ("core.random_baseline.self_s", "s", _layer("core.random_baseline")),
    ("core.random_baseline.partitions", "count",
     _calls("random_partition")),
    ("core.subsetting.self_s", "s", _layer("core.subsetting")),
    ("core.pipeline.self_s", "s", _layer("core.pipeline")),
    ("core.pipeline.reductions", "count",
     _calls("BenchmarkReducer.reduce")),
    ("core.pipeline.evaluations", "count", _calls("evaluate_on_target")),
) + tuple(
    (f"experiments.run_{name}_s", "s",
     (lambda q: lambda t: t["incl_s"][q])(f"run_{name}"))
    for name in EXPERIMENTS
) + (
    ("experiments.self_s", "s", _layer("experiments")),
    ("cli.self_s", "s", _unattributed),
    ("cli.imported_modules", "count", lambda t: t["imported_modules"]),
)


def layer_metrics(total) -> dict:
    """``{name: (value, unit)}`` for one session's :func:`merge` total."""
    return {name: (value(total), unit)
            for name, unit, value in LAYER_METRICS}
