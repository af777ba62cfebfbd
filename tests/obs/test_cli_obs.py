"""The --trace-out/--metrics-out flags and the ``repro trace``
subcommand, driven through ``repro.cli.main``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

pytestmark = pytest.mark.obs

BASE = ["--scale", "0.2"]


def run_reduce(tmp_path, tag, extra=()):
    trace = tmp_path / f"trace_{tag}.json"
    metrics = tmp_path / f"metrics_{tag}.json"
    status = main(BASE + list(extra)
                  + ["--trace-out", str(trace),
                     "--metrics-out", str(metrics),
                     "reduce", "--suite", "nr"])
    assert status == 0
    return trace.read_bytes(), metrics.read_bytes()


def test_exports_are_valid_json_and_replay_byte_identical(tmp_path,
                                                          capsys):
    trace_a, metrics_a = run_reduce(tmp_path, "a")
    out = capsys.readouterr().out
    assert f"trace written to {tmp_path / 'trace_a.json'}" in out
    assert f"metrics written to {tmp_path / 'metrics_a.json'}" in out
    trace_b, metrics_b = run_reduce(tmp_path, "b")
    assert trace_a == trace_b
    assert metrics_a == metrics_b
    trace = json.loads(trace_a)
    assert trace["format"] == "repro-trace-v1"
    assert [s["name"] for s in trace["spans"]] == ["reduce"]
    metrics = json.loads(metrics_a)
    assert metrics["format"] == "repro-metrics-v1"
    assert metrics["counters"]["tasks.profile"] > 0


def test_parallel_run_exports_identical_files(tmp_path, capsys):
    serial = run_reduce(tmp_path, "serial")
    parallel = run_reduce(tmp_path, "parallel", extra=["-j", "2"])
    assert serial == parallel


def test_predict_traces_evaluation(tmp_path, capsys):
    trace = tmp_path / "predict.json"
    status = main(BASE + ["--trace-out", str(trace), "predict",
                          "--suite", "nr", "--target", "Atom"])
    assert status == 0
    data = json.loads(trace.read_text())
    assert [s["name"] for s in data["spans"]] == ["reduce", "evaluate"]
    evaluate = data["spans"][1]
    assert evaluate["attrs"]["target"] == "Atom"
    assert any(c["name"].startswith("bench:")
               for c in evaluate["children"])


def test_trace_subcommand_renders_tree_and_summary(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    run_reduce(tmp_path, "x")
    trace = tmp_path / "trace_x.json"
    capsys.readouterr()
    assert main(["trace", str(trace)]) == 0
    tree = capsys.readouterr().out
    assert tree.startswith("reduce")
    assert "  stage:profile" in tree
    assert main(["trace", str(trace), "--summary", "--top", "3"]) == 0
    summary = capsys.readouterr().out
    assert "trace summary:" in summary
    assert "top 3 spans by modelled time:" in summary


@pytest.mark.parametrize("top", ["-2", "0"])
def test_trace_summary_rejects_a_top_below_one(tmp_path, capsys, top):
    run_reduce(tmp_path, "top")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["trace", str(tmp_path / "trace_top.json"), "--summary",
              "--top", top])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "must be an integer >= 1" in captured.err
    assert captured.out == ""


def test_trace_subcommand_rejects_bad_files(tmp_path, capsys):
    missing = main(["trace", str(tmp_path / "nope.json")])
    assert missing == 2
    assert "cannot read" in capsys.readouterr().err
    foreign = tmp_path / "foreign.json"
    foreign.write_text(json.dumps({"format": "other", "spans": []}))
    assert main(["trace", str(foreign)]) == 2
    assert "not a repro-trace-v1" in capsys.readouterr().err
