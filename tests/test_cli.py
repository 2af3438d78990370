"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "sedov"])
        assert args.problem == "sedov"
        assert args.order == 2
        assert args.integrator == "rk2avg"

    def test_bad_problem_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "kelvin-helmholtz"])


class TestRun:
    def test_sedov_run(self, capsys):
        rc = main(["run", "sedov", "--zones", "3", "--t-final", "0.02"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sedov" in out
        assert "change" in out

    def test_run_with_outputs(self, tmp_path, capsys):
        vtk = tmp_path / "snap.vtk"
        chk = tmp_path / "state.npz"
        rc = main([
            "run", "sedov", "--zones", "3", "--t-final", "0.01",
            "--vtk", str(vtk), "--checkpoint", str(chk),
        ])
        assert rc == 0
        assert vtk.exists()
        assert chk.exists()

    def test_run_restore(self, tmp_path, capsys):
        chk = tmp_path / "state.npz"
        main(["run", "sedov", "--zones", "3", "--t-final", "0.01",
              "--checkpoint", str(chk)])
        rc = main(["run", "sedov", "--zones", "3", "--t-final", "0.02",
                   "--restore", str(chk)])
        assert rc == 0

    def test_run_prints_phase_split(self, capsys):
        rc = main(["run", "sedov", "--zones", "3", "--t-final", "1.0",
                   "--max-steps", "3"])
        assert rc == 0
        phase = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("phase wall time")]
        assert len(phase) == 1
        assert " force " in phase[0] and " cg " in phase[0] and " other " in phase[0]
        assert "workers" not in phase[0]

    def test_distributed_run(self, capsys):
        rc = main(["run", "sedov", "--zones", "3", "--t-final", "0.01",
                   "--ranks", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "simulated MPI traffic" in out

    def test_euler_integrator(self, capsys):
        rc = main(["run", "taylor-green", "--zones", "2", "--order", "2",
                   "--t-final", "0.01", "--integrator", "euler"])
        assert rc == 0

    def test_all_problems_construct(self, capsys):
        for prob in ("noh", "saltzman", "triple-pt"):
            rc = main(["run", prob, "--zones", "2", "--order", "1",
                       "--t-final", "0.002", "--max-steps", "3"])
            assert rc == 0, prob


class TestInfoModelTune:
    def test_info_devices(self, capsys):
        assert main(["info", "devices"]) == 0
        out = capsys.readouterr().out
        assert "K20" in out and "E5-2670" in out

    def test_info_kernels(self, capsys):
        assert main(["info", "kernels"]) == 0
        out = capsys.readouterr().out
        assert "kernel_CalcAjugate_det" in out
        assert "Az B^T" in out

    def test_model_greenup(self, capsys):
        assert main(["model", "greenup", "--zones", "8"]) == 0
        out = capsys.readouterr().out
        assert "greenup" in out

    def test_model_profile(self, capsys):
        assert main(["model", "profile", "--zones", "8"]) == 0
        assert "Q2-Q1" in capsys.readouterr().out

    def test_model_scaling(self, capsys):
        assert main(["model", "scaling"]) == 0
        out = capsys.readouterr().out
        assert "4096 nodes" in out

    def test_tune_kernel3_finds_32(self, capsys, tmp_path):
        rc = main(["tune", "kernel3", "--zones", "8",
                   "--cache", str(tmp_path / "c.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "best matrices_per_block = 32" in out

    def test_tune_kernel7(self, capsys):
        assert main(["tune", "kernel7", "--zones", "8"]) == 0
        assert "block_cols" in capsys.readouterr().out

    def test_tune_uses_cache_second_time(self, capsys, tmp_path):
        cache = str(tmp_path / "c.json")
        main(["tune", "kernel5", "--zones", "8", "--cache", cache])
        import json, pathlib

        store = json.loads(pathlib.Path(cache).read_text())
        assert len(store) == 1
        assert main(["tune", "kernel5", "--zones", "8", "--cache", cache]) == 0

    def test_smoke_tune_campaign_prints_objective_per_winner(self, capsys, tmp_path):
        """Satellite: every winner row names the objective it was
        scored under, and the report logs the evaluation budget."""
        rc = main(["tune", "campaign", "--dim", "2", "--orders", "2",
                   "--zones", "8", "--objective", "time",
                   "--objective", "energy",
                   "--cache", str(tmp_path / "c.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "objective" in out
        assert "winner scored under objective 'time'" in out
        assert "winner scored under objective 'energy'" in out
        assert "feasible points" in out
        # The table prices only what runs: the three kernel tilings.
        assert "k7 cols" in out and "runtime" not in out

    def test_smoke_tune_campaign_warm_starts_matching_objective_only(
            self, tmp_path, capsys):
        """A campaign cache warm-starts `repro run` for its own
        objective; a different objective re-tunes in band."""
        cache = str(tmp_path / "c.json")
        assert main(["tune", "campaign", "--dim", "2", "--orders", "2",
                     "--zones", "4", "--objective", "energy",
                     "--cache", cache]) == 0
        capsys.readouterr()
        assert main(["run", "sedov", "--zones", "4", "--t-final", "0.01",
                     "--backend", "hybrid", "--tuning-cache", cache,
                     "--tuning-objective", "energy"]) == 0
        assert "warm-started from cache" in capsys.readouterr().out
        assert main(["run", "sedov", "--zones", "4", "--t-final", "0.01",
                     "--backend", "hybrid", "--tuning-cache", cache]) == 0
        assert "warm-started" not in capsys.readouterr().out


class TestErrorPaths:
    """Every misuse exits nonzero with a one-line actionable message —
    never a traceback."""

    def test_unknown_problem_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "rayleigh-taylor"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "Traceback" not in err

    def test_invalid_backend_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "sedov", "--backend", "tpu"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "Traceback" not in err

    def test_corrupt_tuning_cache_lenient_runs(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        cache.write_text("{ not json !!!")
        rc = main(["run", "sedov", "--zones", "3", "--t-final", "0.01",
                   "--backend", "hybrid", "--tuning-cache", str(cache)])
        assert rc == 0

    def test_corrupt_tuning_cache_strict_exits_3(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        cache.write_text("{ not json !!!")
        rc = main(["run", "sedov", "--zones", "3", "--t-final", "0.01",
                   "--backend", "hybrid", "--tuning-cache", str(cache),
                   "--strict-tuning-cache"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "re-run without --strict-tuning-cache" in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err


class TestServeSubmit:
    def test_submit_then_serve(self, tmp_path, capsys):
        journal = str(tmp_path / "journal.jsonl")
        rc = main(["submit", "sedov", "--journal", journal,
                   "--zones", "3", "--t-final", "0.02",
                   "--job-id", "cli-job-1"])
        assert rc == 0
        assert "journaled cli-job-1" in capsys.readouterr().out

        rc = main(["serve", "--journal", journal, "--workers", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "recovered 1 pending jobs" in out
        assert "1/1 jobs completed" in out

    def test_serve_again_reuses_result_store(self, tmp_path, capsys):
        journal = str(tmp_path / "journal.jsonl")
        main(["submit", "sedov", "--journal", journal,
              "--zones", "3", "--t-final", "0.02", "--job-id", "j1"])
        main(["serve", "--journal", journal, "--workers", "0"])
        capsys.readouterr()
        # Re-submitting the same spec under a new id hits the store.
        main(["submit", "sedov", "--journal", journal,
              "--zones", "3", "--t-final", "0.02", "--job-id", "j2"])
        rc = main(["serve", "--journal", journal, "--workers", "0"])
        assert rc == 0
        assert "1 cached" in capsys.readouterr().out

    def test_submit_invalid_spec_exits_2(self, tmp_path, capsys):
        rc = main(["submit", "sedov", "--journal",
                   str(tmp_path / "j.jsonl"), "--deadline", "-1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "deadline_s" in err
        assert "Traceback" not in err

    def test_serve_corrupt_journal_strict_exits_3(self, tmp_path, capsys):
        journal = tmp_path / "journal.jsonl"
        main(["submit", "sedov", "--journal", str(journal),
              "--zones", "3", "--t-final", "0.02", "--job-id", "j1"])
        capsys.readouterr()
        with journal.open("a") as fh:
            fh.write('{"torn record, no hash\n')
        rc = main(["serve", "--journal", str(journal), "--workers", "0",
                   "--strict-journal"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "re-run without --strict-journal" in err
        assert "Traceback" not in err

    def test_serve_non_utf8_journal_strict_exits_3(self, tmp_path, capsys):
        journal = tmp_path / "journal.jsonl"
        main(["submit", "sedov", "--journal", str(journal),
              "--zones", "3", "--t-final", "0.02", "--job-id", "j1"])
        capsys.readouterr()
        with journal.open("ab") as fh:
            fh.write(b'{"job_id": "\xff"}\n')
        rc = main(["serve", "--journal", str(journal), "--workers", "0",
                   "--strict-journal"])
        assert rc == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "line 2 is corrupt" in err
        assert "Traceback" not in err

    def test_serve_corrupt_journal_lenient_runs(self, tmp_path, capsys):
        journal = tmp_path / "journal.jsonl"
        main(["submit", "sedov", "--journal", str(journal),
              "--zones", "3", "--t-final", "0.02", "--job-id", "j1"])
        capsys.readouterr()
        with journal.open("a") as fh:
            fh.write('{"torn record, no hash\n')
        with pytest.warns(UserWarning, match="corrupt"):
            rc = main(["serve", "--journal", str(journal), "--workers", "0"])
        assert rc == 0

    def test_serve_manifest_export(self, tmp_path, capsys):
        import json

        journal = str(tmp_path / "journal.jsonl")
        manifest = tmp_path / "fleet.json"
        main(["submit", "sedov", "--journal", journal,
              "--zones", "3", "--t-final", "0.02", "--job-id", "j1"])
        rc = main(["serve", "--journal", journal, "--workers", "0",
                   "--manifest", str(manifest)])
        assert rc == 0
        data = json.loads(manifest.read_text())
        assert data["jobs"]["completed"] == 1
        assert "throughput_jobs_per_s" in data
        assert "latency_s" in data
