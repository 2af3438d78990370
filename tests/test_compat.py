"""One run configuration: the removed spellings and the direct paths.

`RunConfig` is the solver's only configuration type. The second
spellings that converted to and from it are deleted, so the old ones
fail loudly; the direct-construction paths that remain produce the same
bits as `repro.api.run`.
"""

import warnings

import numpy as np
import pytest

from repro.api import RunConfig, run
from repro.backends import DistributedBackend
from repro.hydro.solver import LagrangianHydroSolver
from repro.problems import SedovProblem


def sedov(zones=3):
    return SedovProblem(dim=2, order=2, zones_per_dim=zones)


class TestShimParity:
    """Each direct path produces the same bits as repro.api.run."""

    def _assert_same_state(self, a, b):
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.e, b.e)
        assert np.array_equal(a.x, b.x)

    def test_resilient_driver_path(self, tmp_path):
        from repro.resilience import ResilientDriver

        solver = LagrangianHydroSolver(sedov(), RunConfig())
        driver = ResilientDriver(solver, checkpoint_every=5)
        direct = driver.run(t_final=0.02)
        facade = run("sedov", RunConfig(zones=3, t_final=0.02,
                                        checkpoint_every=5))
        assert direct.result.steps == facade.steps
        self._assert_same_state(direct.result.state, facade.state)

    def test_distributed_solver_path(self):
        solver = LagrangianHydroSolver(sedov(), RunConfig(ranks=2))
        direct = solver.run(t_final=0.02)
        facade = run("sedov", RunConfig(zones=3, t_final=0.02, ranks=2))
        assert direct.steps == facade.steps
        self._assert_same_state(direct.state, facade.state)

    def test_facade_path_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run("sedov", RunConfig(zones=3, t_final=0.01, ranks=2))


class TestRemovedSpellings:
    def test_engine_field_is_gone(self):
        with pytest.raises(TypeError):
            RunConfig(engine="fused")

    def test_cpu_serial_backend_is_gone(self):
        with pytest.raises(ValueError, match="unknown backend 'cpu-serial'"):
            RunConfig(backend="cpu-serial")

    def test_rank_step_field_is_gone(self):
        with pytest.raises(TypeError):
            RunConfig(ranks=2, rank_step="vectorized")

    def test_distributed_backend_takes_no_rank_step(self):
        with pytest.raises(TypeError):
            DistributedBackend(2, rank_step="loop")

    def test_solver_takes_only_a_run_config(self):
        with pytest.raises(TypeError, match="RunConfig"):
            LagrangianHydroSolver(sedov(), {"cfl": 0.3})

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "sedov", "--zones", "3", "--t-final", "0.005",
              "--engine", "fused", "--json"], "unrecognized arguments"),
            (["run", "sedov", "--zones", "3", "--t-final", "0.005",
              "--backend", "cpu-serial", "--json"], "invalid choice"),
            (["bench", "hotpath", "--quick", "--json", "<tmp>"],
             "invalid choice"),
            (["bench", "scaling", "--quick", "--workers", "2",
              "--json", "<tmp>"], "unrecognized arguments"),
        ],
        ids=["run-engine", "run-backend-cpu-serial", "bench-hotpath",
             "bench-scaling-workers"],
    )
    def test_cli_removed_spellings_rejected(self, argv, message, tmp_path, capsys):
        """Each removed CLI spelling exits 2 with a usage line. A bench
        that ran anyway writes under `tmp_path`, never to a committed
        BENCH_*.json (`run --json` prints the manifest and writes nothing)."""
        from repro.cli import main

        json_path = str(tmp_path / "BENCH.json")
        with pytest.raises(SystemExit) as exc:
            main([json_path if a == "<tmp>" else a for a in argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro")
        assert message in err
