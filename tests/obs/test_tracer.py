"""Unit tests for the deterministic span tracer (repro.obs.tracer)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.obs import (Observation, Span, TRACE_FORMAT, Tracer,
                       active_observation, load_trace, observing,
                       render_summary, render_tree)

pytestmark = pytest.mark.obs


def build_sample() -> Tracer:
    tracer = Tracer()
    with tracer.span("reduce", suite="S"):
        with tracer.span("stage:profile", codelets=2):
            tracer.event("profile:a", kept=True, model_s=0.25)
            tracer.event("profile:b", kept=False, total_cycles=10.0)
        tracer.event("stage:cluster")
    return tracer


def test_spans_nest_and_walk_in_recording_order():
    tracer = build_sample()
    assert [s.name for s in tracer.walk()] == [
        "reduce", "stage:profile", "profile:a", "profile:b",
        "stage:cluster"]
    assert len(tracer) == 5
    (root,) = tracer.roots
    assert root.attrs == {"suite": "S"}
    assert [c.name for c in root.children] == ["stage:profile",
                                               "stage:cluster"]


def test_find_and_set():
    tracer = build_sample()
    (span,) = tracer.find("profile:a")
    assert span.attrs["model_s"] == 0.25
    span.set("extra", 3)
    assert span.attrs["extra"] == 3
    assert tracer.find("nonexistent") == []


def test_attrs_are_cleaned_to_json_stable_scalars():
    span = Span("s", np_int=np.int64(7), np_float=np.float64(0.5),
                text="x", flag=True, none=None, exotic=object)
    assert span.attrs["np_int"] == 7
    assert isinstance(span.attrs["np_int"], int)
    assert span.attrs["np_float"] == 0.5
    assert isinstance(span.attrs["np_float"], float)
    assert span.attrs["flag"] is True
    assert span.attrs["none"] is None
    assert isinstance(span.attrs["exotic"], str)
    json.dumps(span.to_json())      # must serialise without a default=


def test_to_json_is_deterministic_and_wall_clock_free():
    a, b = build_sample().to_json(), build_sample().to_json()
    assert a == b
    assert "wall_s" not in a
    data = json.loads(a)
    assert data["format"] == TRACE_FORMAT


def test_exception_inside_span_still_pops_the_stack():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("outer"):
            raise RuntimeError("boom")
    tracer.event("after")
    assert [s.name for s in tracer.roots] == ["outer", "after"]


def test_save_and_load_round_trip(tmp_path):
    tracer = build_sample()
    path = tmp_path / "trace.json"
    tracer.save(str(path))
    data = load_trace(str(path))
    assert [s["name"] for s in data["spans"]] == ["reduce"]


def test_load_trace_rejects_foreign_and_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_trace(str(bad))
    foreign = tmp_path / "foreign.json"
    foreign.write_text(json.dumps({"format": "other", "spans": []}))
    with pytest.raises(ValueError, match="not a repro-trace-v1"):
        load_trace(str(foreign))
    spanless = tmp_path / "spanless.json"
    spanless.write_text(json.dumps({"format": TRACE_FORMAT}))
    with pytest.raises(ValueError, match="no span list"):
        load_trace(str(spanless))


def test_render_tree_and_summary(tmp_path):
    path = tmp_path / "trace.json"
    build_sample().save(str(path))
    data = load_trace(str(path))
    tree = render_tree(data)
    assert "reduce  [suite=S]" in tree
    assert "    profile:a  [kept=True model_s=0.25]" in tree
    summary = render_summary(data, top=1)
    assert "5 spans" in summary
    assert "profile" in summary
    assert "profile:a" in summary          # top span by modelled time
    assert "profile:b" not in summary.split("top 1 spans")[1]
    assert render_tree({"spans": []}) == "(empty trace)"


def test_observing_activates_and_restores():
    assert active_observation() is None
    outer = Observation()
    with observing(outer):
        assert active_observation() is outer
        with observing() as inner:
            assert inner is not outer
            assert active_observation() is inner
        assert active_observation() is outer
    assert active_observation() is None
