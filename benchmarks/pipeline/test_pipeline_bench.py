"""Self-tests of the pipeline benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/pipeline -q``; they
take a few seconds and run no workload.
"""

import json
import re
from pathlib import Path

import pytest

import child
import layers
import run as bench

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _holders(obj):
    return [m.__name__ for m in layers.repro_modules()
            if any(value is obj for value in vars(m).values())]


def test_every_layer_entry_is_wrapped_in_every_importer():
    child._import_cli()
    originals = [layers.resolve(module, qualname)
                 for _layer, module, qualname, _kind in layers.LAYER_TABLE]
    undo = layers.install(layers.Tracer())
    try:
        for (owner, attr, raw), entry in zip(originals, layers.LAYER_TABLE):
            if isinstance(owner, type):
                assert owner.__dict__[attr] is not raw, entry
            else:
                assert _holders(raw) == [], entry
                assert getattr(owner, attr) is not raw, entry
    finally:
        layers.uninstall(undo)
    for owner, attr, raw in originals:
        if isinstance(owner, type):
            assert owner.__dict__[attr] is raw
        else:
            assert getattr(owner, attr) is raw


def test_a_renamed_function_fails_loudly():
    child._import_cli()
    with pytest.raises(AttributeError):
        layers.resolve("repro.core.clustering", "no_such_linkage")
    with pytest.raises(KeyError):
        layers.resolve("repro.core.clustering", "Dendrogram.no_such_cut")


def test_self_time_subtracts_nested_timed_calls():
    now = [0.0]
    tracer = layers.Tracer(clock=lambda: now[0])

    def advance(seconds):
        now[0] += seconds

    inner = tracer.wrap("inner", lambda: advance(2.0))
    hot = tracer.wrap("hot", lambda: advance(0.5), layers.COUNTED)

    def body():
        advance(1.0)
        inner()
        hot()
        advance(3.0)

    outer = tracer.wrap("outer", body)
    outer()
    inner()
    # The counted call's 0.5 s is outer's own time.
    assert tracer.incl_s == {"outer": 6.5, "inner": 4.0}
    assert tracer.self_s == {"outer": 4.5, "inner": 4.0}
    assert tracer.calls == {"outer": 1, "inner": 2, "hot": 1}


def test_a_raising_call_keeps_the_nesting_balanced():
    now = [0.0]
    tracer = layers.Tracer(clock=lambda: now[0])

    def fail():
        now[0] += 1.0
        raise ValueError

    failing = tracer.wrap("failing", fail)

    def body():
        with pytest.raises(ValueError):
            failing()
        now[0] += 2.0

    tracer.wrap("outer", body)()
    assert tracer.self_s == {"failing": 1.0, "outer": 2.0}
    assert tracer._nested == [3.0]


def test_layer_times_partition_main():
    # Every timed entry's self time lands in exactly one reported
    # metric, so the partition plus cli.self_s adds up to main().
    self_s = {q: 1.0 for _l, _m, q, kind in layers.LAYER_TABLE
              if kind == layers.TIMED}
    snapshot = {"calls": {}, "self_s": self_s, "incl_s": self_s,
                "counts": {}, "main_s": len(self_s) + 5.0,
                "imported_modules": 0}
    metrics = layers.layer_metrics(layers.merge([snapshot]))
    partition = [name for name in metrics
                 if name.endswith(".self_s") or name in (
                     "runtime.cache.get_s", "runtime.cache.put_s",
                     "runtime.executor.wait_s",
                     "core.clustering.linkage_s",
                     "core.clustering.elbow_s")]
    assert metrics["cli.self_s"][0] == 5.0
    assert sum(metrics[name][0] for name in partition) == len(self_s) + 5.0


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert bench.tail_percentile(list(range(39))) is None
    assert bench.tail_percentile(list(range(40))) == (75, 29.25)
    assert bench.tail_percentile(list(range(100)))[0] == 90
    assert bench.tail_percentile(list(range(1000)))[0] == 99


def test_normalizer_drops_only_run_health_lines():
    text = ("cluster 0:\nrun health: 176 tasks, 176 attempts\n"
            "  run health: indented, kept\nend\n")
    assert child.normalize(text) == ("cluster 0:\n  run health: indented, "
                                     "kept\nend\n")
    assert (child.digest("x\nrun health: 176 tasks\n")
            == child.digest("x\nrun health: 109 tasks\n"))
    assert child.digest("x\n") != child.digest("y\n")


def _synthetic_outcome():
    snapshot = layers.Tracer().snapshot(
        cmd_s=0.5, imported_modules=110,
        lowering={"hits": 1, "misses": 1})

    def session(traced):
        return bench.Session([bench.CommandResult(
            True, wall_s=1.0, cmd_s=0.5, maxrss_kb=2048,
            trace=snapshot if traced else None)], traced)

    return bench.Outcome("report", sessions=[session(False),
                                             session(True)])


def test_benchmark_json_declares_what_the_code_reports():
    outcome = _synthetic_outcome()
    e2e = bench.end_to_end(outcome)
    traced, inconsistent = bench.per_layer(outcome)
    assert inconsistent == []
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == [
        (name, unit) for name, (_v, unit, _n) in e2e.items()]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, unit) for name, (_v, unit, _n) in traced.items()]
    assert ([w["name"] for w in SPEC["workloads"]]
            == [w.name for w in bench.WORKLOADS
                if w.name not in bench.UNDECLARED])


def test_benchmark_json_stays_within_its_limits():
    workloads = [w["name"] for w in SPEC["workloads"]]
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    names = workloads + e2e + per_layer
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(e2e) <= 16 and 1 <= len(per_layer) <= 128
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert SPEC["paths"] == ["benchmarks/pipeline"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_command_has_an_expected_digest():
    digests = json.loads(bench.DIGESTS.read_text())
    keys = {" ".join(c) for w in bench.WORKLOADS for c in w.commands}
    assert keys == set(digests)
