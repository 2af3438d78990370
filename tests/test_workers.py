"""Persistent worker pool: lifecycle, dispatch fabric, failure reporting.

The pool is the process substrate under the zone-parallel executor, so
its contracts are tested bare — fork-once lifecycle, the fixed-packet
dispatch/ack round trip, error propagation out of a child evaluation,
a typed error instead of a hang when a worker dies, amortization
stats — plus the steady-state guarantee the executor
builds on it: warm dispatches allocate nothing and recycle the two
shared force buffers forever.
"""

from __future__ import annotations

import contextlib
import os
import signal
import time
import tracemalloc
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro import LagrangianHydroSolver, RunConfig, SedovProblem
from repro.fem.geometry import GeometryEvaluator
from repro.fem.mesh import cartesian_mesh_2d
from repro.fem.quadrature import tensor_quadrature
from repro.fem.spaces import H1Space, L2Space
from repro.hydro.corner_force import ForceEngine
from repro.hydro.eos import GammaLawEOS
from repro.hydro.state import HydroState
from repro.runtime.parallel import ZoneParallelExecutor
from repro.runtime.workers import PersistentWorkerPool, WorkerError


def make_fused_engine(order: int, nz1d: int) -> ForceEngine:
    mesh = cartesian_mesh_2d(nz1d, nz1d)
    h1 = H1Space(mesh, order)
    l2 = L2Space(mesh, order - 1)
    quad = tensor_quadrature(2, 2 * order)
    geo0 = GeometryEvaluator(h1, quad).evaluate(h1.node_coords)
    rho0 = np.ones((mesh.nzones, quad.nqp))
    return ForceEngine(h1, l2, quad, GammaLawEOS(), rho0, geo0)


def random_state(h1: H1Space, l2, rng) -> HydroState:
    return HydroState(
        0.1 * rng.standard_normal((h1.ndof, 2)),
        rng.random(l2.ndof) + 0.5,
        h1.node_coords + 5e-4 * rng.standard_normal((h1.ndof, 2)),
        0.0,
    )


def _noop(wid: int, slot: int, t: float) -> None:
    pass


def _die_on_negative_t(wid: int, slot: int, t: float) -> None:
    if wid == 1 and t < 0:
        os.kill(os.getpid(), signal.SIGKILL)


@contextlib.contextmanager
def _deadline(seconds: float):
    """Turn a hang in the block into a failing `TimeoutError`."""
    def expire(signum, frame):
        raise TimeoutError(f"still blocked after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _assert_reaped(pids) -> None:
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


class TestSmokeLifecycle:
    def test_smoke_start_is_idempotent_and_shutdown_reaps(self):
        pool = PersistentWorkerPool(2, _noop, name="t-life")
        assert not pool.running
        pool.start()
        assert pool.running
        pids = list(pool.pids)
        pool.start()  # second start must not fork again
        assert list(pool.pids) == pids
        pool.shutdown()
        assert not pool.running
        pool.shutdown()  # idempotent
        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)  # reaped and gone

    def test_smoke_context_manager_shuts_down(self):
        with PersistentWorkerPool(1, _noop, name="t-ctx") as pool:
            pool.start()
            assert pool.running
        assert not pool.running

    def test_smoke_stats_account_dispatches(self):
        with PersistentWorkerPool(1, _noop, name="t-stats") as pool:
            pool.start()
            for _ in range(5):
                pool.dispatch(0, 0.0)
                pool.wait()
            s = pool.stats()
        assert s["workers"] == 1
        assert s["dispatches"] == 5
        assert s["dispatch_s"] > 0.0
        assert np.isfinite(s["dispatch_us_mean"])
        assert s["uptime_s"] > 0.0


class TestSmokeDispatch:
    def test_smoke_roundtrip_delivers_command_fields(self):
        seg = shared_memory.SharedMemory(create=True, size=3 * 8 * 2)
        try:
            out = np.ndarray((2, 3), dtype=np.float64, buffer=seg.buf)
            out[:] = -1.0
            name = seg.name

            def record(wid: int, slot: int, t: float) -> None:
                view = shared_memory.SharedMemory(name=name)
                arr = np.ndarray((2, 3), dtype=np.float64, buffer=view.buf)
                arr[wid] = (wid, slot, t)
                view.close()

            with PersistentWorkerPool(2, record, name="t-rt") as pool:
                pool.start()
                pool.dispatch(1, 0.75)
                pool.wait()
                np.testing.assert_array_equal(out[0], [0.0, 1.0, 0.75])
                np.testing.assert_array_equal(out[1], [1.0, 1.0, 0.75])
        finally:
            seg.close()
            seg.unlink()

    def test_smoke_worker_exception_raises_and_pool_survives(self):
        seg = shared_memory.SharedMemory(create=True, size=8)
        try:
            flag = np.ndarray((1,), dtype=np.float64, buffer=seg.buf)
            flag[0] = 0.0
            name = seg.name

            def flaky(wid: int, slot: int, t: float) -> None:
                if t < 0:
                    raise ValueError("synthetic corner-force blowup")
                view = shared_memory.SharedMemory(name=name)
                np.ndarray((1,), dtype=np.float64, buffer=view.buf)[0] = t
                view.close()

            with PersistentWorkerPool(1, flaky, name="t-err") as pool:
                pool.start()
                pool.dispatch(0, -1.0)
                with pytest.raises(WorkerError) as err:
                    pool.wait()
                assert "synthetic corner-force blowup" in str(err.value)
                assert "worker 0" in str(err.value)
                # The child caught the exception and kept its loop: the
                # next dispatch must succeed on the same process.
                pool.dispatch(0, 2.5)
                pool.wait()
                assert flag[0] == 2.5
        finally:
            seg.close()
            seg.unlink()

    def test_smoke_worker_killed_mid_dispatch_raises_not_hangs(self):
        t0 = time.monotonic()
        with PersistentWorkerPool(2, _die_on_negative_t, name="t-dead") as pool:
            pool.start()
            pids = pool.pids
            pool.dispatch(0, -1.0)  # worker 1 SIGKILLs itself
            with _deadline(5.0), pytest.raises(WorkerError) as err:
                pool.wait()
            assert f"worker 1 (pid {pids[1]}) killed by signal SIGKILL" in str(err.value)
            with pytest.raises(WorkerError, match="worker 1"):
                pool.dispatch(0, 1.0)
        assert time.monotonic() - t0 < 10.0
        _assert_reaped(pids)

    def test_smoke_dispatch_to_dead_worker_raises(self):
        with PersistentWorkerPool(2, _noop, name="t-gone") as pool:
            pool.start()
            pids = pool.pids
            os.kill(pids[0], signal.SIGKILL)
            # Block until it is dead, leaving it for the pool to reap.
            os.waitid(os.P_PID, pids[0], os.WEXITED | os.WNOWAIT)
            with _deadline(5.0), pytest.raises(WorkerError) as err:
                pool.dispatch(0, 0.0)
            assert f"worker 0 (pid {pids[0]}) killed by signal SIGKILL" in str(err.value)
        _assert_reaped(pids)

    def test_smoke_solver_worker_killed_raises_worker_error(self):
        # Through the executor and the solver the failure keeps its type
        # and names the dead worker, so callers can tell it apart.
        problem = SedovProblem(dim=2, order=2, zones_per_dim=6)  # 36 zones
        with LagrangianHydroSolver(problem, RunConfig(workers=2)) as solver:
            solver.executor.start()
            pids = solver.executor._pool.pids
            assert len(pids) == 2
            os.kill(pids[1], signal.SIGKILL)
            os.waitid(os.P_PID, pids[1], os.WEXITED | os.WNOWAIT)
            with _deadline(10.0), pytest.raises(WorkerError) as err:
                solver.run(max_steps=1)
            assert f"worker 1 (pid {pids[1]}) killed by signal SIGKILL" in str(err.value)
        _assert_reaped(pids)

    def test_smoke_roundtrip_latency_sane(self):
        # Not a perf gate (perfbench sedov-q2-par2's pool.wait_ms_per_step
        # owns that); this catches the fabric regressing to e.g. a
        # polling sleep.
        with PersistentWorkerPool(1, _noop, name="t-lat") as pool:
            pool.start()
            for _ in range(10):
                pool.dispatch(0, 0.0)
                pool.wait()
            t0 = time.perf_counter()
            for _ in range(100):
                pool.dispatch(0, 0.0)
                pool.wait()
            per = (time.perf_counter() - t0) / 100
        assert per < 0.005  # 5 ms/round trip even on a loaded 1-core host


class TestExecutorSteadyState:
    def test_smoke_executor_zero_steady_state_allocation(self, rng):
        fused = make_fused_engine(2, 6)
        states = [
            random_state(fused.kinematic, fused.thermodynamic, rng)
            for _ in range(2)
        ]
        with ZoneParallelExecutor(fused, workers=1) as ex:
            for i in range(4):  # fork + warm both Fz slots
                ex.compute(states[i % 2])
            # Double-buffered output: every result aliases one of two
            # pre-mapped shared slots, never a fresh array.
            slot_ids = {id(ex.compute(states[i % 2]).Fz.base) for i in range(4)}
            assert len(slot_ids) == 2
            tracemalloc.start()
            before, _ = tracemalloc.get_traced_memory()
            for i in range(6):
                ex.compute(states[i % 2])
            after, _ = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            # Six evaluations on a 36-zone Q2 mesh move ~1 MB of forces
            # through the executor; steady state must keep all of it in
            # the shared slots (the budget covers result handles and
            # tracemalloc's own bookkeeping).
            assert after - before < 32 * 1024
            stats = ex.stats()
        assert stats["dispatches"] == 14
        assert stats["workers"] == 1

    def test_smoke_executor_dispatch_stats_flow_through(self, rng):
        fused = make_fused_engine(2, 6)  # 36 zones -> 2+ granule chunks
        state = random_state(fused.kinematic, fused.thermodynamic, rng)
        with ZoneParallelExecutor(fused, workers=2) as ex:
            ex.compute(state)
            stats = ex.stats()
        assert stats["workers"] == 2
        assert stats["dispatches"] == 1
        assert stats["chunks"] >= 1
        assert stats["nzones"] == fused.kinematic.mesh.nzones
