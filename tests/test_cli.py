"""Tests for the repro-sweep command-line interface."""

import pytest

from repro.experiments import runner
from repro.experiments.cli import main


class TestCli:
    def test_custom_sweep_runs(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_PROFILE", "tiny")
        exit_code = main(
            [
                "--profile",
                "tiny",
                "--algorithms",
                "ecube",
                "--loads",
                "0.2",
                "--quiet",
                "--csv",
                str(tmp_path / "out.csv"),
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Custom sweep" in out
        assert "ecube" in out
        assert (tmp_path / "out.csv").exists()

    def test_figure_mode_reports_checks(self, capsys):
        exit_code = main(
            [
                "--figure",
                "vct",
                "--profile",
                "tiny",
                "--algorithms",
                "ecube,2pn,nbc",
                "--loads",
                "0.6",
                "--quiet",
            ]
        )
        out = capsys.readouterr().out
        assert "Paper figure vct" in out
        assert "PASS" in out or "FAIL" in out
        assert exit_code in (0, 1)

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["--figure", "99"])


class _Boobytrap:
    def __init__(self, *args, **kwargs):
        raise AssertionError("this engine must not be built")


class TestFigureBackends:
    """Which engine a ``--figure`` run builds, and the guards around it."""

    ARGS = [
        "--figure", "vct", "--profile", "tiny", "--algorithms", "ecube",
        "--loads", "0.2", "--quiet",
    ]

    def test_figure_runs_on_the_batch_backend_by_default(
        self, capsys, monkeypatch
    ):
        monkeypatch.setattr(runner, "Engine", _Boobytrap)
        assert main(self.ARGS) in (0, 1)
        assert "Paper figure vct" in capsys.readouterr().out

    def test_figure_backend_object_runs_the_oracle(
        self, capsys, monkeypatch, tmp_path
    ):
        batch_csv = tmp_path / "batch.csv"
        object_csv = tmp_path / "object.csv"
        assert main(self.ARGS + ["--csv", str(batch_csv)]) in (0, 1)
        monkeypatch.setattr(runner, "BatchEngine", _Boobytrap)
        assert main(
            self.ARGS + ["--backend", "object", "--csv", str(object_csv)]
        ) in (0, 1)
        capsys.readouterr()
        assert object_csv.read_bytes() == batch_csv.read_bytes()

    def test_figure_obs_selects_the_object_backend(
        self, capsys, monkeypatch
    ):
        monkeypatch.setattr(runner, "BatchEngine", _Boobytrap)
        assert main(self.ARGS + ["--obs"]) in (0, 1)
        assert "Paper figure vct" in capsys.readouterr().out

    def test_figure_obs_rejects_backend_batch(self, capsys):
        assert main(self.ARGS + ["--obs", "--backend", "batch"]) == 2
        assert "object backend" in capsys.readouterr().err

    def test_figure_rejects_relaxed_identity(self, capsys):
        assert main(self.ARGS + ["--identity", "relaxed"]) == 2
        err = capsys.readouterr().err
        assert "--identity relaxed" in err and "ideal flow control" in err

    def test_figure_without_a_compiler_exits_2(
        self, capsys, monkeypatch, tmp_path
    ):
        from repro.simulator import ckernel

        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(ckernel, "compiler", lambda: ["repro-no-cc"])
        ckernel.load_library.cache_clear()
        try:
            assert main(self.ARGS) == 2
        finally:
            ckernel.load_library.cache_clear()
        err = capsys.readouterr().err
        assert "repro-no-cc" in err and "backend='object'" in err
