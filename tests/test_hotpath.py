"""Hot-path guarantees: allocation discipline, engine parity, phase metering.

Covers the fused workspace engine, the per-stage geometry cache, the
shared-memory zone-parallel executor and the solver's phase breakdown:

* the engine and the parallel executor agree with the loop reference
  (`corner_force_loops`, `tensor_viscosity`) on a randomized curved mesh
  to the 1e-13 parity budget, and the parallel executor is *bitwise*
  identical to its serially-executed chunking;
* steady-state solver steps allocate no new workspace buffers (buffer
  identities frozen after warmup) and no persistent heap growth under
  tracemalloc;
* cached geometry is read-only — consumers (e.g. the resilience layer's
  fault injector) cannot silently corrupt a stage's shared Jacobians;
* the workload's wall_force_s / wall_cg_s / wall_other_s are populated
  and are the rows of its phase table, whose fractions sum to 1.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.config import RunConfig
from repro.fem.geometry import GeometryEvaluator
from repro.fem.mesh import cartesian_mesh_2d
from repro.fem.quadrature import tensor_quadrature
from repro.fem.spaces import H1Space, L2Space
from repro.hydro.corner_force import ForceEngine, corner_force_loops
from repro.hydro.eos import GammaLawEOS
from repro.hydro.solver import LagrangianHydroSolver
from repro.hydro.state import HydroState
from repro.hydro.viscosity import tensor_viscosity
from repro.hydro.workspace import Workspace
from repro.problems import SodProblem
from repro.runtime.parallel import ZoneParallelExecutor

PARITY = dict(rtol=1e-13, atol=1e-14)


def make_engine(order: int, nz1d: int) -> ForceEngine:
    """A corner-force engine over a 2D Cartesian discretization."""
    mesh = cartesian_mesh_2d(nz1d, nz1d)
    h1 = H1Space(mesh, order)
    l2 = L2Space(mesh, order - 1)
    quad = tensor_quadrature(2, 2 * order)
    geo0 = GeometryEvaluator(h1, quad).evaluate(h1.node_coords)
    rho0 = np.ones((mesh.nzones, quad.nqp))
    return ForceEngine(h1, l2, quad, GammaLawEOS(), rho0, geo0)


def random_state(h1: H1Space, l2: L2Space, rng) -> HydroState:
    """Random velocity/energy on a randomly curved (but untangled) mesh.

    The perturbation must stay small relative to the high-order node
    spacing or random displacements tangle the zones (det J <= 0).
    """
    return HydroState(
        0.1 * rng.standard_normal((h1.ndof, 2)),
        rng.random(l2.ndof) + 0.5,
        h1.node_coords + 5e-4 * rng.standard_normal((h1.ndof, 2)),
        0.0,
    )


class TestEngineParity:
    @pytest.mark.parametrize("order", [2, 3])
    def test_fused_matches_loops_on_curved_mesh(self, order, rng):
        engine = make_engine(order, 6)
        for _ in range(3):  # three independent random states
            state = random_state(engine.kinematic, engine.thermodynamic, rng)
            res = engine.compute(state)
            assert res.valid
            np.testing.assert_allclose(res.Fz, corner_force_loops(engine, state), **PARITY)
            # The cached geometry is the evaluator's, bit for bit.
            geo = engine.point_geometry(state.x)
            ref = engine.geom_eval.evaluate(state.x)
            np.testing.assert_array_equal(geo.jac, ref.jac)
            np.testing.assert_array_equal(geo.det, ref.det)
            np.testing.assert_array_equal(geo.adj, ref.adj)
            # The fused viscosity kernel computes the reference stress.
            pts = res.points
            sigma_visc, mu_max = tensor_viscosity(
                pts.grad_v, geo.jac, pts.rho, pts.sound_speed,
                engine.order, engine.viscosity,
            )
            np.testing.assert_allclose(
                pts.sigma + pts.pressure[..., None, None] * np.eye(2), sigma_visc, **PARITY
            )
            np.testing.assert_allclose(pts.mu_max, mu_max, rtol=1e-13)

    def test_parallel_bitwise_vs_chunked_serial(self, rng):
        fused = make_engine(2, 6)
        state = random_state(fused.kinematic, fused.thermodynamic, rng)
        with ZoneParallelExecutor(fused, workers=2) as ex:
            par = ex.compute(state)
            ref = ex.compute_chunked(state)
            # The multiprocessing layer changes scheduling, never bits.
            np.testing.assert_array_equal(par.Fz, ref.Fz)
            assert par.dt_est == ref.dt_est
            assert par.valid == ref.valid
            # And the chunked evaluation matches the fused/serial engines
            # within the parity budget.
            serial = fused.compute(state)
            np.testing.assert_allclose(par.Fz, serial.Fz, **PARITY)
            assert par.dt_est == pytest.approx(serial.dt_est, rel=1e-13)

    def test_parallel_executor_double_buffering(self, rng):
        fused = make_engine(2, 4)
        s1 = random_state(fused.kinematic, fused.thermodynamic, rng)
        s2 = random_state(fused.kinematic, fused.thermodynamic, rng)
        with ZoneParallelExecutor(fused, workers=2) as ex:
            r1 = ex.compute(s1)
            fz1 = r1.Fz.copy()
            r2 = ex.compute(s2)
            # r1's buffer survives one further evaluation (RK2's pattern).
            np.testing.assert_array_equal(r1.Fz, fz1)
            assert r2.Fz is not r1.Fz

    def test_parallel_solver_run_matches_serial(self):
        problem = SodProblem()
        with LagrangianHydroSolver(problem, RunConfig(workers=2)) as par:
            rp = par.run(max_steps=4)
        serial = LagrangianHydroSolver(problem, RunConfig())
        rs = serial.run(max_steps=4)
        assert rp.steps == rs.steps
        np.testing.assert_allclose(rp.state.v, rs.state.v, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rp.state.e, rs.state.e, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rp.state.x, rs.state.x, rtol=0, atol=1e-12)


class TestAllocationDiscipline:
    def test_workspace_reuses_buffers(self):
        ws = Workspace()
        a = ws.get("a", (4, 4))
        assert ws.get("a", (4, 4)) is a
        assert ws.hits == 1 and ws.misses == 1
        b = ws.get("a", (5, 4))  # shape change is a miss
        assert b is not a and ws.misses == 2
        a2 = ws.get("frozen", (3,))
        a2.setflags(write=False)
        assert ws.get("frozen", (3,)).flags.writeable  # thawed on reuse

    def test_engine_steady_state_buffer_ids_stable(self, rng):
        fused = make_engine(2, 5)
        states = [
            random_state(fused.kinematic, fused.thermodynamic, rng) for _ in range(2)
        ]
        for i in range(4):  # warm up both Fz slots and both geometry slots
            fused.compute(states[i % 2])
        ids = fused.workspace.buffer_ids()
        misses = fused.workspace.misses
        for i in range(6):
            fused.compute(states[i % 2])
        assert fused.workspace.buffer_ids() == ids
        assert fused.workspace.misses == misses

    def test_solver_steps_no_persistent_allocations(self):
        solver = LagrangianHydroSolver(
            SodProblem(), RunConfig(energy_every=10**9, record_dt_history=False)
        )
        dt0 = solver.initialize_dt()
        solver._last_dt_est = dt0 / solver.controller.cfl

        def advance():  # one accepted step under the adaptive controller
            dt = solver.controller.propose(solver._last_dt_est, solver.state.t, 1.0)
            while not solver.step(dt):
                dt = solver.controller.reject()

        for _ in range(3):  # warmup: populate every workspace buffer
            advance()
        ids = solver.engine.workspace.buffer_ids()
        misses = solver.engine.workspace.misses
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(3):
            advance()
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # The step's big arrays (Fz ~ O(100 KB) each, twice per stage)
        # must all be workspace-recycled; what remains is the new state
        # triple plus bookkeeping.
        state_bytes = sum(a.nbytes for a in (solver.state.v, solver.state.e, solver.state.x))
        assert after - before < 4 * state_bytes + 64 * 1024
        assert solver.engine.workspace.buffer_ids() == ids
        assert solver.engine.workspace.misses == misses


class TestSumfactAllocationDiscipline:
    """The sum-factorized hot path keeps the fused engine's discipline:
    after both Fz slots and both geometry-cache slots are warm, steady
    state leases nothing from the arena and allocates nothing persistent
    on the heap."""

    def make_sumfact(self, order: int, nz1d: int):
        from repro.hydro.corner_force import SumfactForceEngine

        mesh = cartesian_mesh_2d(nz1d, nz1d)
        h1 = H1Space(mesh, order)
        l2 = L2Space(mesh, order - 1)
        quad = tensor_quadrature(2, 2 * order)
        geo0 = GeometryEvaluator(h1, quad).evaluate(h1.node_coords)
        rho0 = np.ones((mesh.nzones, quad.nqp))
        return SumfactForceEngine(h1, l2, quad, GammaLawEOS(), rho0, geo0)

    def test_sumfact_steady_state_buffer_ids_stable(self, rng):
        engine = self.make_sumfact(3, 5)
        states = [
            random_state(engine.kinematic, engine.thermodynamic, rng)
            for _ in range(2)
        ]
        for i in range(4):  # warm both T slots and both geometry slots
            engine.compute(states[i % 2])
        ids = engine.workspace.buffer_ids()
        misses = engine.workspace.misses
        arena_allocs = engine.workspace.arena.block_allocations
        for i in range(6):
            engine.compute(states[i % 2])
        assert engine.workspace.buffer_ids() == ids
        assert engine.workspace.misses == misses
        assert engine.workspace.arena.block_allocations == arena_allocs
        assert engine.workspace.arena.live_leases == len(ids)

    def test_sumfact_solver_steps_no_persistent_allocations(self):
        solver = LagrangianHydroSolver(
            SodProblem(),
            RunConfig(backend="cpu-sumfact", energy_every=10**9,
                      record_dt_history=False),
        )
        dt0 = solver.initialize_dt()
        solver._last_dt_est = dt0 / solver.controller.cfl

        def advance():
            dt = solver.controller.propose(solver._last_dt_est, solver.state.t, 1.0)
            while not solver.step(dt):
                dt = solver.controller.reject()

        for _ in range(3):  # warmup: populate every workspace buffer
            advance()
        ids = solver.engine.workspace.buffer_ids()
        misses = solver.engine.workspace.misses
        arena_allocs = solver.arena.block_allocations
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(3):
            advance()
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        state_bytes = sum(
            a.nbytes for a in (solver.state.v, solver.state.e, solver.state.x)
        )
        assert after - before < 4 * state_bytes + 64 * 1024
        assert solver.engine.workspace.buffer_ids() == ids
        assert solver.engine.workspace.misses == misses
        assert solver.arena.block_allocations == arena_allocs


class TestGeometryCacheGuards:
    def test_cached_geometry_is_reused_per_x(self, rng):
        fused = make_engine(2, 4)
        state = random_state(fused.kinematic, fused.thermodynamic, rng)
        geo1 = fused.point_geometry(state.x)
        geo2 = fused.point_geometry(state.x)
        assert geo1 is geo2  # same x array -> same cached evaluation

    def test_cached_geometry_is_read_only(self, rng):
        fused = make_engine(2, 4)
        state = random_state(fused.kinematic, fused.thermodynamic, rng)
        result = fused.compute(state)
        geo = result.geometry
        for arr in (geo.jac, geo.det, geo.adj, geo.inv):
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 0.0

    def test_two_recent_geometries_stay_live(self, rng):
        fused = make_engine(2, 4)
        s1 = random_state(fused.kinematic, fused.thermodynamic, rng)
        s2 = random_state(fused.kinematic, fused.thermodynamic, rng)
        g1 = fused.point_geometry(s1.x)
        det1 = g1.det.copy()
        g2 = fused.point_geometry(s2.x)
        # Both most-recent geometries are intact (double-buffered slots).
        np.testing.assert_array_equal(g1.det, det1)
        assert fused.point_geometry(s1.x) is g1
        assert fused.point_geometry(s2.x) is g2


class TestPhaseMetering:
    def test_wall_other_is_populated_and_sums(self):
        solver = LagrangianHydroSolver(SodProblem(), RunConfig())
        solver.run(max_steps=3)
        w = solver.workload
        assert w.wall_force_s > 0
        assert w.wall_cg_s > 0
        assert w.wall_other_s > 0
        phases = w.phase_table()
        assert list(phases) == ["force", "cg", "other"]
        assert phases["force"]["seconds"] == w.wall_force_s
        assert phases["other"]["seconds"] == w.wall_other_s
        assert sum(p["fraction"] for p in phases.values()) == pytest.approx(1.0)

    def test_scatter_add_out_matches_allocating(self, rng):
        mesh = cartesian_mesh_2d(3, 3)
        h1 = H1Space(mesh, 2)
        zvals = rng.standard_normal((mesh.nzones, h1.ndof_per_zone, 2))
        expect = h1.scatter_add(zvals)
        buf = np.full((h1.ndof, 2), np.nan)
        got = h1.scatter_add(zvals, out=buf)
        assert got is buf
        np.testing.assert_array_equal(got, expect)


class TestCli:
    def test_run_with_workers(self, capsys):
        from repro.cli import main

        rc = main(["run", "sod", "--workers", "2", "--max-steps", "3",
                   "--t-final", "0.01"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "phase wall time" in out and "2 workers" in out

    def test_workers_compose_with_ranks(self, capsys):
        from repro.cli import main

        rc = main(["run", "sod", "--workers", "2", "--ranks", "2",
                   "--max-steps", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "simulated MPI traffic" in out


class TestAppendBenchRecord:
    """The shared BENCH_*.json append helper (atomic temp+rename)."""

    def test_appends_and_timestamps(self, tmp_path):
        import json

        from repro.analysis.record import append_bench_record

        path = tmp_path / "BENCH_x.json"
        append_bench_record({"a": 1}, path)
        append_bench_record({"b": 2}, path)
        records = json.loads(path.read_text())
        assert [("a" in r, "b" in r) for r in records] == [
            (True, False), (False, True)]
        assert all("timestamp" in r for r in records)
        # No leftover temp file from the atomic rename.
        assert list(tmp_path.iterdir()) == [path]

    def test_missing_file_starts_fresh(self, tmp_path):
        import json

        from repro.analysis.record import append_bench_record

        path = tmp_path / "new" / "BENCH_x.json"
        append_bench_record({"a": 1}, path)
        assert len(json.loads(path.read_text())) == 1

    def test_corrupt_history_warns_and_recovers(self, tmp_path):
        import json

        from repro.analysis.record import append_bench_record

        path = tmp_path / "BENCH_x.json"
        path.write_text("{ not json !!!")
        with pytest.warns(UserWarning, match="unreadable"):
            append_bench_record({"a": 1}, path)
        append_bench_record({"b": 2}, path)
        assert len(json.loads(path.read_text())) == 2

    def test_commit_stamp_marks_uncommitted_changes(self, tmp_path):
        import subprocess

        from repro.analysis.record import _git_commit

        def git(*args):
            return subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
                 "-c", "commit.gpgsign=false", *args],
                cwd=tmp_path, check=True, capture_output=True, text=True,
            ).stdout.strip()

        git("init", "-q")
        (tmp_path / "tracked.txt").write_text("1")
        git("add", "tracked.txt")
        git("commit", "-q", "-m", "init")
        head = git("rev-parse", "--short", "HEAD")
        (tmp_path / "untracked.txt").write_text("x")
        _git_commit.cache_clear()
        assert _git_commit(tmp_path) == head  # untracked files do not count
        (tmp_path / "tracked.txt").write_text("2")
        _git_commit.cache_clear()
        assert _git_commit(tmp_path) == f"{head}-dirty"
        _git_commit.cache_clear()

    def test_wraps_legacy_non_list_history(self, tmp_path):
        import json

        from repro.analysis.record import append_bench_record

        path = tmp_path / "BENCH_x.json"
        path.write_text('{"old": "single-record style"}')
        append_bench_record({"new": 1}, path)
        records = json.loads(path.read_text())
        assert records[0] == {"old": "single-record style"}
        assert records[1]["new"] == 1
