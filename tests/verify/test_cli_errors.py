"""CLI error paths: bad flags must exit non-zero with a clear message."""

import pytest

from repro.cli import main

pytestmark = pytest.mark.verify


def test_negative_jobs_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-j", "-3", "suites"])
    assert exc.value.code == 2
    assert "-j/--jobs: must be >= 0" in capsys.readouterr().err


def test_cache_dir_must_be_a_directory(capsys, tmp_path):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("plain file")
    with pytest.raises(SystemExit) as exc:
        main(["--cache-dir", str(not_a_dir), "suites"])
    assert exc.value.code == 2
    assert "is not a directory" in capsys.readouterr().err


def test_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--suite", "spec"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_unknown_verify_breakage_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--break", "gamma-rays"])
    assert exc.value.code == 2
    assert "unknown defect 'gamma-rays'" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, expected", [
    ("--seed", "-3", "an integer >= 0"),
    ("--n-apps", "0", "an integer >= 1"),
    ("--n-apps", "-1", "an integer >= 1"),
    ("--codelets-per-app", "0", "an integer >= 1"),
])
def test_bad_verify_flag_rejected_before_any_work(capsys, tmp_path, flag,
                                                  value, expected):
    with pytest.raises(SystemExit) as exc:
        main(["verify", flag, value, "--report-dir", str(tmp_path / "r")])
    assert exc.value.code == 2
    assert f"argument {flag}: must be {expected}" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_verify_on_a_suite_with_nothing_to_measure_is_a_usage_error(
        capsys, tmp_path):
    # The only codelet falls below the profiling cycle filter.
    assert main(["verify", "--n-apps", "1", "--codelets-per-app", "1",
                 "--report-dir", str(tmp_path / "r")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("repro verify: suite 'SYN-0' has no measurable "
                          "codelets left to cluster")
    assert err.count("\n") == 1
    assert not (tmp_path / "r").exists()


def test_zero_jobs_means_all_cores_and_is_accepted(capsys):
    assert main(["--scale", "0.05", "-j", "0", "suites"]) == 0
