"""Ablation benchmarks for the design choices DESIGN.md calls out:
linkage criterion, feature normalization, ill-behaved filtering, timing
statistic, and the analytical cache model against the simulator."""

import numpy as np
import pytest
from conftest import report

from repro.core.clustering import LINKAGE_METHODS, linkage
from repro.core.features import TABLE2_FEATURES, FeatureMatrix
from repro.core.pipeline import cluster_and_select
from repro.experiments.report import format_table
from repro.machine import ATOM, NEHALEM, analyze_cache, simulate_cache
from repro.suites import build_nas_suite


def _median_error(profiles, rows, dendrogram, ill_behaved, measurer,
                  target):
    """Median codelet error on ``target`` with ``dendrogram`` cut at
    K = 16."""
    _, selection, model = cluster_and_select(
        profiles, rows, 16, ill_behaved, dendrogram=dendrogram)
    by_name = {p.name: p for p in profiles}
    rep_times = {r: measurer.benchmark_standalone(
        by_name[r].codelet, target).per_invocation_s
        for r in selection.representatives}
    real = {p.name: measurer.measure_inapp(p.codelet, target)
            for p in profiles}
    return float(np.median(model.errors(rep_times, real)))


def test_ablation_linkage_methods(benchmark, ctx):
    """Ward (the paper's criterion) vs single/complete/average."""
    profiles = ctx.nas.profiling().profiles
    fm = FeatureMatrix.from_profiles(profiles, TABLE2_FEATURES)
    rows = fm.normalized()
    ill_behaved, _ = ctx.nas.fidelity()

    def run():
        out = {}
        for method in LINKAGE_METHODS:
            out[method] = _median_error(profiles, rows,
                                        linkage(rows, method),
                                        ill_behaved, ctx.measurer, ATOM)
        return out

    errors = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(("Linkage", "Atom median error %"),
                       sorted(errors.items()),
                       "Ablation: linkage criterion (K=16)"))
    # Ward must be competitive with the best alternative.
    assert errors["ward"] <= min(errors.values()) * 1.6 + 1.0


def test_ablation_feature_normalization(benchmark, ctx):
    """Z-score normalization vs raw feature values (Section 3.3 insists
    on normalization so every feature weighs equally)."""
    profiles = ctx.nas.profiling().profiles
    fm = FeatureMatrix.from_profiles(profiles, TABLE2_FEATURES)
    ill_behaved, _ = ctx.nas.fidelity()

    def run():
        out = {}
        for label, rows in (("normalized", fm.normalized()),
                            ("raw", fm.values)):
            out[label] = _median_error(profiles, rows,
                                       linkage(rows, "ward"),
                                       ill_behaved, ctx.measurer, ATOM)
        return out

    errors = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(("Features", "Atom median error %"),
                       sorted(errors.items()),
                       "Ablation: feature normalization (K=16)"))
    assert errors["normalized"] <= errors["raw"] * 1.5 + 1.0


def test_ablation_ill_behaved_filter(benchmark, ctx):
    """Representative fidelity checking on vs off: without the Step D
    filter, ill-behaved representatives poison whole clusters."""
    profiles = ctx.nas.profiling().profiles
    fm = FeatureMatrix.from_profiles(profiles, TABLE2_FEATURES)
    rows = fm.normalized()
    dg = linkage(rows, "ward")
    ill_behaved, _ = ctx.nas.fidelity()

    def run():
        return {
            "filter on (10%)": _median_error(
                profiles, rows, dg, ill_behaved, ctx.measurer, NEHALEM),
            "filter off": _median_error(
                profiles, rows, dg, frozenset(), ctx.measurer, NEHALEM),
        }

    errors = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(("Selection", "Reference median error %"),
                       sorted(errors.items()),
                       "Ablation: ill-behaved filtering (K=16)"))
    assert errors["filter on (10%)"] <= errors["filter off"]


def test_ablation_median_vs_mean_timing(benchmark, ctx):
    """Median over invocations (the paper's choice) vs mean, under the
    per-invocation probe-overhead noise."""
    from repro.machine import NoiseModel

    noise = NoiseModel(seed=77)
    true = 2e-5

    def run():
        med_err = []
        mean_err = []
        for i in range(200):
            samples = noise.measure_many(true, f"t{i}", 10)
            med_err.append(abs(np.median(samples) - true) / true)
            mean_err.append(abs(np.mean(samples) - true) / true)
        return {"median": float(np.mean(med_err)),
                "mean": float(np.mean(mean_err))}

    errors = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(
        ("Statistic", "mean relative timing error"),
        sorted(errors.items()),
        "Ablation: invocation timing statistic (10 invocations)"))
    # Both are acceptable under symmetric noise; the median must not be
    # materially worse, and it is robust to outliers by construction.
    assert errors["median"] <= errors["mean"] * 2.0


def test_ablation_cache_model(benchmark):
    """Analytical cache model vs the trace-driven LRU simulator on a
    shrunken NAS suite: the divergence the analytical model costs."""
    from repro.codelets import find_suite_codelets

    suite = build_nas_suite(scale=0.01)
    codelets = [c for c in find_suite_codelets(suite)][:20]

    def run():
        rows = []
        for c in codelets:
            analytical = analyze_cache(c.kernel, ATOM)
            trace = simulate_cache(c.kernel, ATOM,
                                   warmup_invocations=1,
                                   max_accesses_per_invocation=200_000)
            rows.append(abs(analytical.levels[0].miss_ratio
                            - trace.levels[0].miss_ratio))
        return float(np.mean(rows))

    divergence = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nAblation: analytical vs trace L1 miss-ratio divergence "
          f"(mean abs): {divergence:.4f}")
    assert divergence < 0.15
