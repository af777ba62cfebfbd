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
    assert "unknown defect 'gamma-rays'" in str(exc.value.code)


def test_zero_jobs_means_all_cores_and_is_accepted(capsys):
    assert main(["--scale", "0.05", "-j", "0", "suites"]) == 0
