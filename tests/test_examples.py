"""Smoke tests over the runnable examples: each example's ``main`` must
run to completion and print its headline output.

These are real end-to-end runs at full suite scale (the machine model is
analytical, so they stay fast); they guard the public API surface the
examples advertise.
"""

import importlib.util
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_quickstart(self, capsys):
        _load("quickstart").main()
        out = capsys.readouterr().out
        assert "elbow method chose" in out
        assert "median codelet error" in out
        assert "per-application prediction" in out

    def test_system_selection(self, capsys):
        _load("system_selection").main()
        out = capsys.readouterr().out
        assert "full-suite decision" in out
        assert "the reduced suite selects the same system" in out

    def test_custom_suite(self, capsys):
        _load("custom_suite").main()
        out = capsys.readouterr().out
        assert "detected 4 codelets" in out
        assert "standalone replay finished" in out

    def test_compiler_tuning(self, capsys):
        _load("compiler_tuning").main()
        out = capsys.readouterr().out
        assert "rankings agree" in out

    def test_portable_benchmarks(self, capsys):
        _load("portable_benchmarks").main()
        out = capsys.readouterr().out
        assert "[publisher] exported" in out
        assert "Haswell" in out

    def test_feature_selection(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["feature_selection.py", "3"])
        _load("feature_selection").main()
        out = capsys.readouterr().out
        assert "fitness comparison" in out
        assert "GA-selected subset" in out

    def test_reproduce_paper_writes_report(self, capsys, monkeypatch,
                                           tmp_path):
        target = tmp_path / "report.txt"
        monkeypatch.setattr(sys, "argv",
                            ["reproduce_paper.py", "-o", str(target)])
        _load("reproduce_paper").main()
        text = target.read_text()
        for anchor in ("Table 1", "Figure 6", "What-if"):
            assert anchor in text or anchor.lower() in text.lower()
