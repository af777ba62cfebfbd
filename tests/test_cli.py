"""Tests for the command-line interface."""

import pytest

from repro import cli
from repro.cli import build_parser, main


class TestParser:
    def test_all_experiment_commands_exist(self):
        parser = build_parser()
        for cmd in ("table1", "table3", "figure5", "capture", "whatif",
                    "reduce", "predict", "suites", "report"):
            args = parser.parse_args([cmd])
            assert args.command == cmd

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scale_flag(self):
        args = build_parser().parse_args(["--scale", "0.1", "suites"])
        assert args.scale == 0.1


class WorkStarted(Exception):
    pass


@pytest.fixture
def no_work(monkeypatch):
    """Make building a suite or the experiment context raise, so a
    test can tell whether a command got past argument checking."""
    def start(*args, **kwargs):
        raise WorkStarted
    for name in ("_build_suite", "ExperimentContext"):
        monkeypatch.setattr(cli, name, start)


class TestRunLengthFlags:
    @pytest.mark.parametrize("argv, flag", [
        (["figure7", "--samples", "0"], "--samples"),
        (["figure7", "--samples", "-3"], "--samples"),
        (["report", "--samples", "0"], "--samples"),
        (["table2", "--population", "0"], "--population"),
        (["report", "--population", "-1"], "--population"),
        (["table2", "--generations", "-1"], "--generations"),
        (["report", "--generations", "-1"], "--generations"),
        (["table2", "--seed", "-1"], "--seed"),
        (["report", "--seed", "-1"], "--seed"),
    ])
    def test_rejected_before_any_experiment(self, no_work, capsys, argv,
                                            flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert (f"argument {flag}: must be an integer >="
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        ["figure7", "--samples", "1"],
        ["table2", "--population", "1"],
        ["table2", "--generations", "0"],
        ["table2", "--seed", "0"],
    ])
    def test_smallest_values_accepted(self, no_work, argv):
        with pytest.raises(WorkStarted):
            main(argv)

    @pytest.mark.parametrize("argv, flag", [
        (["table1", "--samples", "3"], "--samples"),
        (["figure7", "--population", "5"], "--population"),
    ])
    def test_flag_the_experiment_does_not_read_rejected(
            self, no_work, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert (f"unrecognized arguments: {flag}"
                in capsys.readouterr().err)

    def test_each_experiment_takes_only_its_own_flags(self, capsys):
        flags = ("--samples", "--population", "--generations", "--seed",
                 "--k-fixed")
        own = {"table2": {"--population", "--generations", "--seed"},
               "table3": {"--k-fixed"}, "figure7": {"--samples"},
               "report": set(flags)}
        parser = build_parser()
        for command in list(cli._EXPERIMENTS) + ["report"]:
            for flag in flags:
                if flag in own.get(command, ()):
                    parser.parse_args([command, flag, "1"])
                else:
                    with pytest.raises(SystemExit):
                        parser.parse_args([command, flag, "1"])


class TestValueFlags:
    @pytest.mark.parametrize("argv, flag", [
        (["reduce", "--k", "foo"], "--k"),
        (["reduce", "--k", "0"], "--k"),
        (["reduce", "--k", "-4"], "--k"),
        (["predict", "--k", "foo"], "--k"),
        (["export", "--k", "2.5"], "--k"),
        (["transform", "--pass", "fuse", "--stability", "--k", "foo"],
         "--k"),
        (["table3", "--k-fixed", "0"], "--k-fixed"),
        (["report", "--k-fixed", "-1"], "--k-fixed"),
        (["--scale", "0", "reduce"], "--scale"),
        (["--scale", "-1", "reduce"], "--scale"),
        (["--scale", "nan", "predict"], "--scale"),
        (["--scale", "inf", "table4"], "--scale"),
        (["predict", "--target", "Foo"], "--target"),
    ])
    def test_rejected_before_any_work(self, no_work, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["reduce", "--k", "1"],
        ["reduce", "--k", "elbow"],
        ["table3", "--k-fixed", "1"],
        ["--scale", "0.05", "reduce"],
        ["predict", "--target", "Atom"],
    ])
    def test_smallest_values_accepted(self, no_work, argv):
        with pytest.raises(WorkStarted):
            main(argv)

    def test_parsed_values(self):
        from repro.machine import ATOM
        parser = build_parser()
        assert parser.parse_args(["reduce"]).k == "elbow"
        assert parser.parse_args(["reduce", "--k", "3"]).k == 3
        assert parser.parse_args(["table3"]).k_fixed == 14
        args = parser.parse_args(["predict", "--target", "Atom"])
        assert args.target is ATOM


class TestCommands:
    def test_suites(self, capsys):
        assert main(["--scale", "0.05", "suites"]) == 0
        out = capsys.readouterr().out
        assert "NR: 28 applications" in out
        assert "NAS: 7 applications" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "Nehalem" in capsys.readouterr().out

    def test_reduce_small(self, capsys):
        assert main(["--scale", "0.05", "reduce", "--suite", "nr",
                     "--k", "6"]) == 0
        out = capsys.readouterr().out
        assert "final K=6" in out
        assert "representative" in out

    def test_predict_single_target(self, capsys):
        assert main(["--scale", "0.05", "predict", "--suite", "nr",
                     "--k", "6", "--target", "Core 2"]) == 0
        out = capsys.readouterr().out
        assert "Core 2: median codelet error" in out
        assert "reduction x" in out

    def test_predict_unknown_target(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--scale", "0.05", "predict", "--target", "VAX"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown architecture 'VAX'" in err
        for name in ("Atom", "Core 2", "Nehalem", "Sandy Bridge"):
            assert repr(name) in err

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["reduce", "--suite", "spec"])

    def test_export_manifest(self, capsys, tmp_path):
        from repro.core import ReducedSuiteManifest
        out = tmp_path / "m.json"
        assert main(["--scale", "0.05", "export", "--suite", "nr",
                     "--k", "8", "-o", str(out)]) == 0
        manifest = ReducedSuiteManifest.load(str(out))
        manifest.validate()
        assert len(manifest.representatives) == 8

    def test_table5_matches_experiment_driver(self, capsys, ctx):
        from repro.experiments import run_table5
        assert main(["table5"]) == 0
        out = capsys.readouterr().out
        expected = run_table5(ctx).format()
        assert out.strip() == expected.strip()


@pytest.mark.transform
class TestTransformCLI:
    def test_parser_accepts_transform(self):
        args = build_parser().parse_args(
            ["transform", "--pass", "tile=4,interchange", "--pass",
             "fuse", "--force-unsafe", "--stability", "--k", "6"])
        assert args.command == "transform"
        assert args.passes == ["tile=4,interchange", "fuse"]
        assert args.force_unsafe and args.stability

    def test_list_passes(self, capsys):
        assert main(["transform", "--list-passes"]) == 0
        out = capsys.readouterr().out
        for name in ("interchange", "stripmine", "tile", "fuse",
                     "unroll"):
            assert name in out

    def test_no_pass_is_a_usage_error(self, capsys):
        assert main(["transform"]) == 2
        assert "no --pass" in capsys.readouterr().err

    def test_bad_spec_is_a_usage_error(self, capsys):
        assert main(["transform", "--pass", "loopify"]) == 2
        assert "unknown rewrite pass" in capsys.readouterr().err

    def test_text_run_writes_reports(self, capsys, tmp_path):
        rc = main(["--scale", "0.05", "transform", "--suite", "nr",
                   "--pass", "unroll=2", "--report-dir",
                   str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro transform — suite nr" in out
        assert (tmp_path / "transform_suite_nr.txt").exists()
        assert (tmp_path / "transform_suite_nr.json").exists()

    def test_json_run_is_pure_json(self, capsys, tmp_path):
        import json
        rc = main(["--scale", "0.05", "transform", "--suite", "nr",
                   "--pass", "interchange", "--format", "json",
                   "--report-dir", str(tmp_path)])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["counts"]["applied"] >= 1
        assert data["counts"]["refused"] >= 1
        refused = next(r for r in data["records"]
                       if r["status"] == "refused")
        assert refused["verdict"]["blocking"]

    def test_force_unsafe_converts_refusals(self, capsys, tmp_path):
        import json
        rc = main(["--scale", "0.05", "transform", "--suite", "nr",
                   "--pass", "interchange", "--force-unsafe",
                   "--format", "json", "--report-dir", str(tmp_path)])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["counts"]["refused"] == 0
        assert data["counts"]["forced"] >= 1

    def test_stability_reports_and_audits(self, capsys, tmp_path):
        rc = main(["--scale", "0.05", "transform", "--suite", "nr",
                   "--pass", "interchange", "--stability", "--k", "4",
                   "--report-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "transform stability — suite NR" in out
        assert "representatives:" in out
        assert "collision-free" in out
