"""The unified `repro.errors` hierarchy and its single exit-code map.

Also: bad run knobs end in a typed `ConfigError`, raised where each
check lives, never in a traceback from deep inside a run (the
`test_smoke_*` cases, and `hypothesis` sweeps over `RunConfig` and the
`rank_schedule` text).
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import run
from repro.config import BACKEND_NAMES, RunConfig, parse_rank_schedule
from repro.errors import (
    ConfigError,
    CorruptionError,
    EmptyParamSpaceError,
    ReproError,
    exit_code_for,
)


class TestHierarchy:
    def test_roots(self):
        assert issubclass(ConfigError, ReproError)
        assert issubclass(CorruptionError, ReproError)
        # Typed errors keep their historical builtin bases, so pre-PR-8
        # `except ValueError` / `except RuntimeError` callers still work.
        assert issubclass(ConfigError, ValueError)
        assert issubclass(CorruptionError, RuntimeError)
        assert issubclass(EmptyParamSpaceError, ConfigError)

    def test_every_subsystem_error_is_a_repro_error(self):
        from repro.io.checkpoint import CheckpointCorruptionError
        from repro.service import (
            AdmissionError,
            DeadlineExceeded,
            JournalCorruptionError,
        )
        from repro.tuning import TuningCacheCorruptionError

        for exc in (CheckpointCorruptionError, JournalCorruptionError,
                    TuningCacheCorruptionError):
            assert issubclass(exc, CorruptionError)
        for exc in (AdmissionError, DeadlineExceeded):
            assert issubclass(exc, ReproError)
            assert issubclass(exc, RuntimeError)
            assert not issubclass(exc, CorruptionError)

    def test_config_validation_raises_config_error(self):
        with pytest.raises(ConfigError, match="unknown tuning_objective"):
            RunConfig(tuning_objective="bogus")
        with pytest.raises(ConfigError, match="unknown tuning_strategy"):
            RunConfig(tuning_strategy="bogus")
        with pytest.raises(ConfigError, match="tune_period_steps"):
            RunConfig(tune_period_steps=0)
        with pytest.raises(ConfigError):
            RunConfig(backend="nonsense")


class TestExitCodes:
    def test_mapping(self):
        from repro.tuning import TuningCacheCorruptionError

        assert exit_code_for(ConfigError("x")) == 2
        assert exit_code_for(EmptyParamSpaceError("x")) == 2
        assert exit_code_for(CorruptionError("x")) == 3
        assert exit_code_for(TuningCacheCorruptionError("x")) == 3
        assert exit_code_for(ReproError("x")) == 1

    def test_cli_maps_config_error_to_2(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["serve", "--journal", str(tmp_path / "j.jsonl"),
                     "--workers", "-1"])
        assert code == 2
        assert "workers must be non-negative" in capsys.readouterr().err

    def test_cli_maps_corruption_to_3_with_hint(self, tmp_path, capsys):
        from repro.cli import main

        journal = tmp_path / "journal.jsonl"
        journal.write_text('{"torn...\n')
        code = main(["serve", "--journal", str(journal), "--strict-journal"])
        assert code == 3
        err = capsys.readouterr().err
        assert "re-run without --strict-journal" in err


class TestTypedConfigErrors:
    """Each bad knob raises `ConfigError` naming its value; the CLI
    prints that one line and exits 2."""

    @pytest.mark.parametrize("every", [0, -1])
    def test_smoke_energy_every_below_one_rejected(self, every):
        with pytest.raises(ConfigError, match=f"energy_every must be >= 1, got {every}"):
            RunConfig(energy_every=every)

    @pytest.mark.parametrize("cfg, message", [
        (RunConfig(zones=0), "need at least one zone per direction, got 0x0"),
        (RunConfig(dim=3, order=1, zones=0),
         "need at least one zone per direction, got 0x0x0"),
        (RunConfig(zones=3, cfl=0.0), "cfl must be in (0, 1], got 0.0"),
        (RunConfig(zones=3, ranks=50), "50 parts for 9 zones: more parts than zones"),
        # A scheduled resize past the zone count fails at the same check.
        (RunConfig(zones=2, ranks=2, rank_schedule="1:5"),
         "5 parts for 4 zones: more parts than zones"),
    ], ids=["zones-0", "zones-0-3d", "cfl-0", "ranks-50", "resize-past-zones"])
    def test_smoke_run_raises_config_error(self, cfg, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            run("sedov", cfg.replace(t_final=1.0, max_steps=3))

    @pytest.mark.parametrize("argv, message", [
        (["--zones", "0"], "need at least one zone per direction, got 0x0"),
        (["--dim", "3", "--order", "1", "--zones", "0"],
         "need at least one zone per direction, got 0x0x0"),
        (["--cfl", "0"], "cfl must be in (0, 1], got 0.0"),
        (["--ranks", "50", "--zones", "3"], "50 parts for 9 zones: more parts than zones"),
    ], ids=["zones-0", "zones-0-3d", "cfl-0", "ranks-50"])
    def test_smoke_cli_exits_2_with_one_line(self, argv, message, capsys):
        from repro.cli import main

        assert main(["run", "sedov", "--t-final", "0.01", *argv]) == 2
        assert capsys.readouterr().err == message + "\n"


# Small ranges around every validated boundary: mesh size, order, CFL,
# energy cadence, rank counts and schedules, backend names (the retired
# `cpu-parallel` included) and the retired `workers`.
_configs = st.builds(
    dict,
    zones=st.integers(0, 3),
    order=st.integers(1, 3),
    cfl=st.none() | st.floats(-0.5, 1.5),
    energy_every=st.integers(-2, 3),
    ranks=st.integers(0, 12),
    rank_schedule=st.none() | st.builds(
        "{}:{}".format, st.integers(1, 3), st.integers(1, 12)),
    backend=st.sampled_from((None, "cpu-parallel") + BACKEND_NAMES),
    workers=st.integers(0, 3),
)


class TestRunConfigProperty:
    # Derandomized: every run draws the same 100 configs, so tier-1
    # cannot fail on a draw that no earlier run made.
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(fields=_configs)
    def test_config_error_or_a_completed_run(self, fields):
        """Every drawn config either raises `ConfigError` (from
        `RunConfig` or from building and running its solver) or
        completes a 2-step run; no other exception escapes."""
        try:
            cfg = RunConfig(**fields)
            report = run("sedov", cfg, max_steps=2)
        except ConfigError:
            return
        assert report.steps >= 1
        assert cfg.workers == 0 and cfg.resolved_backend in BACKEND_NAMES


# Text near the "step:ranks,..." grammar (digits, signs, separators,
# spaces, underscores) or any text at all.
_schedules = (st.none() | st.text(alphabet="0123456789:,-+ _\t", max_size=16)
              | st.text(max_size=12))


class TestRankScheduleProperty:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(text=_schedules, ranks=st.integers(-1, 4))
    def test_schedule_parses_or_raises_config_error(self, text, ranks):
        """Any text parses to a {step >= 1: ranks >= 1} dict or raises
        `ConfigError`, and a `RunConfig` carrying it raises nothing else."""
        try:
            schedule = parse_rank_schedule(text)
        except ConfigError:
            pass
        else:
            assert isinstance(schedule, dict)
            for step, nranks in schedule.items():
                assert type(step) is int and step >= 1
                assert type(nranks) is int and nranks >= 1
        try:
            RunConfig(ranks=ranks, rank_schedule=text)
        except ConfigError:
            pass


class TestHypothesisReports:
    def test_failing_property_prints_its_falsifying_example(self, tmp_path):
        """Under the repository's warning filters a failing `@given`
        test reports its falsifying example, not a pytest INTERNALERROR
        (hypothesis's report path imports libcst, which warns)."""
        import subprocess
        import sys
        from pathlib import Path

        ini = Path(__file__).resolve().parents[1] / "pyproject.toml"
        (tmp_path / "test_fails.py").write_text(
            "from hypothesis import given, settings, strategies as st\n"
            "@settings(derandomize=True, database=None)\n"
            "@given(st.integers())\n"
            "def test_fails(n):\n"
            "    assert n < 10\n"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "-c", str(ini), "--rootdir", str(tmp_path), "test_fails.py"],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        out = proc.stdout + proc.stderr
        assert proc.returncode == 1, out
        assert "Falsifying example" in out
        assert "INTERNALERROR" not in out
