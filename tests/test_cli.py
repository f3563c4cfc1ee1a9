"""Tests of the experiment command-line interface."""

import os
import subprocess
import sys

import pytest

from repro.experiments.cli import build_parser, main


def _run_cli_subprocess(*args):
    """Invoke the module-form entry point in a fresh interpreter."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


class TestEntryPointSmoke:
    """The ``python -m`` entry point must not silently rot: exercise --help
    and a tiny table1 run through a real subprocess."""

    def test_help_runs_and_documents_opt_outs(self):
        proc = _run_cli_subprocess("--help")
        assert proc.returncode == 0, proc.stderr
        assert "--suite" in proc.stdout
        # the two rounding-backend opt-outs are surfaced in the epilog
        assert "REPRO_DISABLE_BITKERNELS" in proc.stdout
        assert "use_tables" in proc.stdout

    def test_table1_run(self):
        proc = _run_cli_subprocess("--suite", "table1", "--scale", "0.001")
        assert proc.returncode == 0, proc.stderr
        assert "biological" in proc.stdout


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.suite == "general"
        assert args.widths == [8, 16, 32, 64]
        assert args.matrices == 6

    def test_rejects_unknown_suite(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--suite", "bogus"])

    def test_rejects_unknown_width(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--widths", "12"])

    def test_workers_env_default(self, monkeypatch):
        """$REPRO_WORKERS sets the --workers default; the flag overrides."""
        monkeypatch.setenv("REPRO_WORKERS", "3")
        args = build_parser().parse_args([])
        assert args.workers == 3
        args = build_parser().parse_args(["--workers", "2"])
        assert args.workers == 2
        monkeypatch.delenv("REPRO_WORKERS")
        assert build_parser().parse_args([]).workers == 1

    def test_workers_env_garbage_falls_back(self, monkeypatch):
        """An empty or non-numeric $REPRO_WORKERS must not break the CLI."""
        for bad in ("", "  ", "auto"):
            monkeypatch.setenv("REPRO_WORKERS", bad)
            assert build_parser().parse_args([]).workers == 1


class TestMain:
    def test_table1_mode(self, capsys):
        assert main(["--suite", "table1"]) == 0
        out = capsys.readouterr().out
        assert "biological" in out and "protein" in out

    def test_small_general_run_with_csv(self, tmp_path, capsys):
        output = tmp_path / "records.csv"
        code = main(
            [
                "--suite",
                "general",
                "--widths",
                "32",
                "--matrices",
                "1",
                "--min-size",
                "20",
                "--max-size",
                "24",
                "--restarts",
                "10",
                "--no-plots",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "float32" in out
        text = output.read_text()
        assert "matrix" in text.splitlines()[0]
        assert len(text.splitlines()) >= 2

    def test_crashed_worker_exits_nonzero(self, monkeypatch, capsys, tmp_path):
        """Crashed worker cells keep sibling results but must not read as
        success: the CLI writes all reports, then exits 2."""
        from repro.experiments import store as store_mod

        def boom(test_matrix, formats, cfg):
            raise RuntimeError("cli crash injection")

        monkeypatch.setattr(store_mod, "run_matrix_experiment", boom)
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        code = main(
            [
                "--suite",
                "general",
                "--widths",
                "32",
                "--matrices",
                "1",
                "--min-size",
                "20",
                "--max-size",
                "24",
                "--restarts",
                "8",
                "--no-plots",
            ]
        )
        assert code == 2

    def test_graph_class_run(self, capsys):
        code = main(
            [
                "--suite",
                "infrastructure",
                "--widths",
                "16",
                "--matrices",
                "1",
                "--scale",
                "0.03",
                "--min-size",
                "20",
                "--max-size",
                "26",
                "--restarts",
                "8",
                "--no-plots",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "takum16" in out


class TestStoreSubcommand:
    def test_store_ls_runs(self):
        proc = _run_cli_subprocess("store", "ls")
        assert proc.returncode == 0, proc.stderr
        assert "entries:" in proc.stdout

    def test_store_gc_runs(self):
        proc = _run_cli_subprocess("store", "gc")
        assert proc.returncode == 0, proc.stderr
        assert "removed" in proc.stdout

    def test_store_clear_noninteractive_aborts(self, tmp_path):
        """Without --yes and without a tty, clear must refuse gracefully
        (EOF on stdin reads as 'no'), not crash with EOFError."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
        env["REPRO_STORE"] = str(tmp_path / "store")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments.cli", "store", "clear"],
            capture_output=True,
            text=True,
            env=env,
            stdin=subprocess.DEVNULL,
            timeout=60,
        )
        assert proc.returncode == 1
        assert "aborted" in proc.stderr
