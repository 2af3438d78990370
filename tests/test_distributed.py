"""Tests for the distributed execution backend (paper Section 3.4).

The MPI layer's correctness contract: rank-local corner forces + group
assembly + global reductions reproduce the serial solver up to
floating-point summation reordering — for *every* node backend the
distributed layer wraps, at every rank count, with or without
communication/computation overlap (which must be a pure pricing knob).

The `test_smoke_*` subset (`pytest -k smoke`) is the fast
composition-matrix check referenced from ROADMAP.md.
"""

import numpy as np
import pytest

from repro import (
    LagrangianHydroSolver,
    SedovProblem,
    SodProblem,
    TriplePointProblem,
)
from repro.api import RunConfig, make_problem, run
from repro.backends import DistributedBackend
from repro.backends.distributed import VectorizedDistributedMomentumSolver
from repro.errors import ConfigError
from repro.runtime.mpi_sim import CommCostModel, SimulatedComm


def make_solver(nranks=4, backend=None, zones=4, **cfg_kw):
    """A `LagrangianHydroSolver` carrying the distributed backend."""
    problem = SedovProblem(dim=2, order=2, zones_per_dim=zones)
    cfg = RunConfig(ranks=nranks, backend=backend, **cfg_kw)
    return LagrangianHydroSolver(problem, cfg)


class TestCompositionMatrix:
    """`ranks` composes with every node backend (the tentpole)."""

    # "cpu-parallel" is the retired pool spelling; `RunConfig` rewrites it
    # to the cpu-fused node, so old callers still compose with ranks.
    @pytest.mark.parametrize(
        "backend", ["cpu-fused", "cpu-sumfact", "cpu-parallel", "hybrid"]
    )
    def test_smoke_every_node_backend_matches_serial(self, backend):
        cfg = dict(zones=5, max_steps=8)
        ref = run("sod", RunConfig(**cfg))
        dist = run("sod", RunConfig(ranks=2, backend=backend, **cfg))
        assert dist.steps == ref.steps
        assert np.allclose(dist.state.v, ref.state.v, atol=1e-9)
        assert np.allclose(dist.state.e, ref.state.e, atol=1e-9)
        assert dist.mpi_traffic is not None and dist.mpi_traffic.messages > 0

    @pytest.mark.parametrize("nranks", [1, 2, 4, 5])
    def test_rank_count_invariance(self, nranks):
        t_final = 0.08
        serial = LagrangianHydroSolver(SedovProblem(dim=2, order=2, zones_per_dim=4))
        res_s = serial.run(t_final=t_final)
        res_d = run(
            "sedov",
            RunConfig(zones=4, ranks=nranks, t_final=t_final),
        ).result
        assert res_s.steps == res_d.steps
        assert np.allclose(res_s.state.v, res_d.state.v, atol=1e-9)
        assert np.allclose(res_s.state.e, res_d.state.e, atol=1e-9)
        assert np.allclose(res_s.state.x, res_d.state.x, atol=1e-9)

    def test_multimaterial_per_zone_gamma(self):
        """Per-zone-material EOS slices correctly across ranks."""
        t_final = 0.05
        serial = LagrangianHydroSolver(TriplePointProblem(order=2, nx=7, ny=3))
        res_s = serial.run(t_final=t_final)
        dist = LagrangianHydroSolver(
            TriplePointProblem(order=2, nx=7, ny=3), RunConfig(ranks=3)
        )
        res_d = dist.run(t_final=t_final)
        assert np.allclose(res_s.state.e, res_d.state.e, atol=1e-9)

    def test_energy_conserved_distributed(self):
        res = run("sedov", RunConfig(zones=4, ranks=4, t_final=0.1)).result
        rel = abs(res.energy_change) / res.energy_history[0].total
        assert rel < 1e-11

    def test_3d_one_step(self):
        serial = LagrangianHydroSolver(SedovProblem(dim=3, order=1, zones_per_dim=2))
        res_s = serial.run(t_final=0.02)
        dist = LagrangianHydroSolver(
            SedovProblem(dim=3, order=1, zones_per_dim=2), RunConfig(ranks=2)
        )
        res_d = dist.run(t_final=0.02)
        assert np.allclose(res_s.state.v, res_d.state.v, atol=1e-10)

    def test_smoke_workers_compose_with_ranks(self):
        """The retired `workers` spelling composes with ranks: the node
        is the cpu-fused backend it now names."""
        cfg = RunConfig(workers=2, ranks=2, zones=4, max_steps=3)
        assert cfg.resolved_backend == "cpu-fused"
        assert cfg.resolved_execution == {"ranks": 2, "backend": "cpu-fused"}
        report = run("sod", cfg)
        assert report.steps == 3
        assert report.solver.backend.node.name == "cpu-fused"

    def test_smoke_ranks_start_no_worker_pool(self, capsys):
        """Under ranks the rank is the parallel unit: the retired
        cpu-parallel spelling runs the cpu-fused node in-process, so no
        pool is built, reported or printed."""
        with make_solver(nranks=2, workers=2) as solver:
            assert solver.config.resolved_backend == "cpu-fused"
            assert solver.executor is None
        report = run("sod", RunConfig(workers=2, ranks=2, zones=4, max_steps=3))
        assert report.solver.executor is None
        assert "worker_pool" not in report.manifest.solver
        from repro.cli import main

        assert main(["run", "sod", "--zones", "4", "--t-final", "1.0",
                     "--max-steps", "3", "--ranks", "2"]) == 0
        phase = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("phase wall time")]
        assert len(phase) == 1 and "workers" not in phase[0]

    def test_smoke_hybrid_fleet_schedules(self):
        """ranks x hybrid runs the in-band scheduler on the one node."""
        report = run("sod", RunConfig(zones=5, ranks=2, backend="hybrid",
                                      max_steps=12, tune_period_steps=3))
        assert report.scheduler is not None
        solver = report.solver
        assert solver.backend.name == "distributed"
        assert solver.backend.node.name == "hybrid"
        # All ranks model the same hardware: the one node is the target.
        assert solver.scheduler.backend is solver.backend.node

    def test_hybrid_node_priced_per_rank(self):
        """A hybrid node prices one rank's zones (the largest rank's), and
        a repartition that changes that count re-prices it and stops the
        in-band scheduler."""
        cfg = RunConfig(zones=6, ranks=4, backend="hybrid", tune_period_steps=100)
        solver = LagrangianHydroSolver(make_problem("sod", cfg), cfg)
        backend = solver.backend
        assert [r.zones.size for r in backend.ranks] == [7, 8, 7, 8]
        assert backend.node.fe_cfg.nzones == 8
        solver.run(t_final=1.0, max_steps=2)
        assert solver.scheduler.report.steps_observed == 2
        backend.resize_ranks(2)
        assert backend.node.fe_cfg.nzones == max(r.zones.size for r in backend.ranks) == 15
        solver.run(t_final=1.0, max_steps=2)
        assert solver.scheduler.report.steps_observed == 2  # stopped
        solver.close()

    def test_smoke_hybrid_node_priced_once(self, monkeypatch):
        """Construction prices a hybrid backend once: a single process
        over its whole mesh, a distributed node over its largest rank."""
        from repro.backends.hybrid import HybridBackend

        priced = []
        price = HybridBackend.price

        def counted(self, fe_cfg):
            priced.append(fe_cfg.nzones)
            price(self, fe_cfg)

        monkeypatch.setattr(HybridBackend, "price", counted)
        cfg = RunConfig(zones=6, backend="hybrid")
        solver = LagrangianHydroSolver(make_problem("triple-pt", cfg), cfg)
        assert priced == [72]
        solver.close()
        priced.clear()
        solver = LagrangianHydroSolver(make_problem("triple-pt", cfg), cfg.replace(ranks=8))
        assert priced == [max(r.zones.size for r in solver.backend.ranks)] == [9]
        solver.close()

    def test_smoke_sticky_gpu_fault_degrades_rank_zero(self):
        """A sticky GPU fault on a hybrid fleet degrades rank 0 to
        cpu-fused and stops the scheduler; physics is unaffected."""
        cfg = dict(zones=5, max_steps=12)
        serial = run("sod", RunConfig(**cfg))
        report = run("sod", RunConfig(ranks=2, backend="hybrid", faults="gpu:2!",
                                      tune_period_steps=3, telemetry=True, **cfg))
        actions = [ev.action for ev in report.recovery.faults if ev.kind == "gpu"]
        assert actions.count("cpu-fallback") == 1
        assert actions.count("backend swap") == 1
        swap = next(ev for ev in report.recovery.faults if ev.action == "backend swap")
        assert swap.detail.startswith("rank 0 hybrid -> cpu-fused")
        instants = [e for e in report.tracer.events if e["name"] == "backend_swap"]
        assert len(instants) == 1
        assert instants[0]["rank"] == 0 and instants[0]["target"] == "cpu-fused"
        assert report.solver.backend.tuning_target() is None
        assert report.scheduler.steps_observed == 1
        assert report.steps == serial.steps
        for k in "vex":
            assert np.allclose(getattr(report.state, k), getattr(serial.state, k),
                               atol=1e-9)


class TestOverlap:
    """overlap=on|off moves modeled pricing only, never physics."""

    def test_smoke_overlap_is_bitwise_pure_pricing(self):
        cfg = dict(zones=5, ranks=2, max_steps=8)
        on = run("sod", RunConfig(overlap=True, **cfg))
        off = run("sod", RunConfig(overlap=False, **cfg))
        assert np.array_equal(on.state.v, off.state.v)
        assert np.array_equal(on.state.e, off.state.e)
        assert np.array_equal(on.state.x, off.state.x)
        assert on.mpi_traffic.bytes == off.mpi_traffic.bytes
        assert on.mpi_traffic.messages == off.mpi_traffic.messages

    def test_overlap_hides_exchange_under_interior_work(self):
        """With a slow network, overlap=on strictly reduces exposed time."""
        ledgers = {}
        for overlap in (True, False):
            backend = DistributedBackend(
                2, overlap=overlap,
                cost_model=CommCostModel(alpha_s=5e-3, beta_s_per_byte=1e-6),
            )
            solver = LagrangianHydroSolver(
                SodProblem(order=2, nx=20, ny=1),
                RunConfig(max_steps=4),
                backend=backend,
            )
            solver.run(max_steps=4)
            ledgers[overlap] = backend.comm.ledger
            solver.close()
        assert ledgers[True].total_s == pytest.approx(ledgers[False].total_s)
        assert ledgers[True].hidden_s > ledgers[False].hidden_s
        assert ledgers[True].exposed_s < ledgers[False].exposed_s

    def test_overlap_off_hides_nothing(self):
        """Without overlap every wait is exposed: the ledger reads no
        host clock, so not a nanosecond is booked as hidden."""
        report = run("sedov", RunConfig(zones=6, ranks=4, max_steps=10, overlap=False))
        ledger = report.solver.backend.comm.ledger
        assert ledger.total_s > 0
        assert ledger.hidden_s == 0.0
        assert ledger.exposed_s == ledger.total_s

    def test_overlap_hidden_matches_closed_form(self):
        """With overlap each force evaluation hides min(exchange cost,
        window) of its interface exchange and nothing else; the window
        is the fewest-interior-zone rank's corner force on one core of
        the paper's CPU."""
        from repro.cpu import get_cpu
        from repro.cpu.core_model import CPUExecutionModel
        from repro.kernels import FEConfig
        from repro.kernels.registry import corner_force_costs

        report = run("sedov", RunConfig(zones=6, ranks=4, max_steps=10))
        solver = report.solver
        backend = solver.backend
        n_min = min(r.interior_zones.size for r in backend.ranks)
        flops = sum(c.flops for c in corner_force_costs(FEConfig(2, 2, n_min)))
        window = CPUExecutionModel(get_cpu("E5-2670"), nprocs=1).corner_force_time(flops).seconds
        assert backend.window_s == window > 0
        exchange = backend.comm.cost_model.allreduce_time(
            backend.nranks, backend._iface_dofs.size * solver.kinematic.dim * 8
        )
        expected = report.result.workload.force_evals * min(exchange, window)
        assert backend.comm.ledger.hidden_s == pytest.approx(expected, rel=1e-12)

    def test_ledger_repeats_exactly(self):
        ledgers = []
        for _ in range(2):
            report = run("sedov", RunConfig(zones=6, ranks=4, max_steps=10))
            ledgers.append(report.solver.backend.comm.ledger)
        assert ledgers[0] == ledgers[1]


class TestCommTelemetry:
    def test_smoke_comm_span_bytes_equal_traffic(self):
        report = run("sod", RunConfig(zones=4, ranks=2, max_steps=4,
                                      telemetry=True))
        comm_spans = [s for s in report.tracer.spans if s.category == "comm"]
        assert comm_spans, "distributed run emitted no comm spans"
        assert sum(s.meta["bytes"] for s in comm_spans) == report.mpi_traffic.bytes
        for s in comm_spans:
            assert s.meta["ranks"] == 2
            assert s.parent >= 0  # nested under a phase/step span, not a root

    def test_per_rank_traffic_sums_to_total(self):
        report = run("sod", RunConfig(zones=4, ranks=3, max_steps=4))
        per_rank = report.mpi_traffic.per_rank_dict()
        assert sum(t["bytes"] for t in per_rank.values()) == report.mpi_traffic.bytes
        assert sum(t["messages"] for t in per_rank.values()) == report.mpi_traffic.messages
        assert report.manifest.solver["mpi_traffic"]["per_rank"] == per_rank


class TestCollectiveValidation:
    """Collectives fail fast on a malformed stack, naming the rank count."""

    def test_shape_mismatch_names_rank(self):
        comm = SimulatedComm(3)
        with pytest.raises(ValueError, match=r"nranks=3, got shape \(2, 4\)"):
            comm.iallreduce_sum_stacked(np.zeros((2, 4)))
        with pytest.raises(ValueError, match=r"nranks=3, got \(3, 2, 2\)"):
            comm.iallreduce_min_batch(np.zeros((3, 2, 2)))

    def test_bad_dtype_names_rank(self):
        comm = SimulatedComm(2)
        with pytest.raises(TypeError, match="allreduce_sum: .*real numeric"):
            comm.iallreduce_sum_stacked(np.array([["a", "b"], ["c", "d"]]))
        with pytest.raises(TypeError, match="complex"):
            comm.iallreduce_sum_stacked(np.zeros((2, 2), dtype=complex))

    def test_scalar_collective_validation(self):
        comm = SimulatedComm(2)
        with pytest.raises(ValueError, match="nranks=2"):
            comm.iallreduce_min_batch(np.float64(1.0))
        assert comm.traffic.reductions == 0  # nothing posted

    def test_contribution_count_checked(self):
        comm = SimulatedComm(3)
        with pytest.raises(ValueError, match="nranks=3"):
            comm.iallreduce_min_batch(np.zeros(2))
        with pytest.raises(ValueError, match="nranks=3"):
            comm.iallreduce_sum_stacked(np.zeros((4, 2)))

    def test_double_wait_rejected(self):
        comm = SimulatedComm(2)
        req = comm.iallreduce_min_batch(np.array([1.0, 2.0]))
        assert comm.wait(req) == 1.0
        with pytest.raises(RuntimeError, match="already completed"):
            comm.wait(req)
        stacked = comm.iallreduce_sum_stacked(np.ones((2, 3)))
        np.testing.assert_array_equal(comm.wait(stacked), [2.0, 2.0, 2.0])
        with pytest.raises(RuntimeError, match="already completed"):
            comm.wait(stacked)


class TestDistributedMechanics:
    def test_rank_masses_sum_to_global(self):
        # The distributed operator (global action, interface rows from
        # the group sum of the ranks' partials), applied to every unit
        # vector, is the global matrix.
        solver = make_solver()
        eye = np.eye(solver.kinematic.ndof)
        total = np.column_stack([solver.momentum.matvec(e) for e in eye])
        assert np.allclose(total, solver.mass_v.to_dense(), atol=1e-13)

    def test_distributed_matvec_matches(self, rng):
        solver = make_solver()
        assert isinstance(solver.momentum, VectorizedDistributedMomentumSolver)
        assert solver.integrator.momentum is solver.momentum
        x = rng.standard_normal(solver.kinematic.ndof)
        assert np.allclose(
            solver.momentum.matvec(x), solver.mass_v.matvec(x), atol=1e-12
        )

    def test_every_zone_owned_once(self):
        solver = make_solver(nranks=3)
        owned = np.concatenate([r.zones for r in solver.backend.ranks])
        assert np.array_equal(np.sort(owned), np.arange(16))
        for r in solver.backend.ranks:
            split = np.sort(np.concatenate([r.interface_zones, r.interior_zones]))
            assert np.array_equal(split, np.sort(r.zones))

    def test_force_eval_posts_two_reductions(self):
        solver = make_solver()
        before = solver.backend.comm.traffic.reductions
        solver.integrator.force_fn(solver.state)
        # One interface-dof sum + one min-dt reduction per evaluation.
        assert solver.backend.comm.traffic.reductions == before + 2

    def test_traffic_accumulates_over_run(self):
        solver = make_solver(nranks=2)
        solver.run(t_final=0.02, max_steps=3)
        assert solver.backend.comm.traffic.messages > 0
        assert solver.backend.comm.traffic.bytes > 0

    def test_custom_partition(self):
        p = SedovProblem(dim=2, order=2, zones_per_dim=4)
        zone_rank = np.zeros(16, dtype=int)
        zone_rank[8:] = 1
        backend = DistributedBackend(2, zone_rank=zone_rank)
        solver = LagrangianHydroSolver(p, backend=backend)
        assert backend.ranks[0].zones.size == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            DistributedBackend(0)
        with pytest.raises(ValueError):
            LagrangianHydroSolver(
                SedovProblem(dim=2, zones_per_dim=2),
                backend=DistributedBackend(2, zone_rank=np.zeros(3, dtype=int)),
            )

    def test_smoke_one_rank_posts_empty_exchange(self):
        """A 1-rank run has no interface zones: it posts an empty
        interface exchange and keeps the engine's own dt."""
        one = make_solver(nranks=1)
        assert one.backend._vec_plan.ifz.size == 0
        dist = one.integrator.force_fn(one.state)
        assert dist.valid
        assert dist.dt_est == one.engine.compute(one.state).dt_est

    def test_smoke_dt_once_per_phase(self, monkeypatch):
        """The evaluation's result carries its per-zone dt minima: one
        CFL pass (`_dt_points`) per evaluation."""
        solver = make_solver(nranks=4)
        engine = solver.engine
        calls = []
        dt_points = engine._dt_points

        def counted(points, geo):
            calls.append(points)
            return dt_points(points, geo)

        monkeypatch.setattr(engine, "_dt_points", counted)
        for _ in range(3):
            solver.backend._compute(solver.state)
        assert len(calls) == 3

    def test_smoke_one_engine_call_per_evaluation(self, monkeypatch):
        """A rank step is one call of the node engine's own `compute`
        and four comm calls (post + wait of the stacked exchange and of
        the dt minimum)."""
        solver = make_solver(nranks=4)
        engine, comm = solver.engine, solver.backend.comm
        calls = {"compute": 0, "comm": 0}

        def counted(fn, key):
            def call(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(engine, "compute", counted(engine.compute, "compute"))
        for name in ("iallreduce_sum_stacked", "iallreduce_min_batch", "wait"):
            monkeypatch.setattr(comm, name, counted(getattr(comm, name), "comm"))
        for _ in range(3):
            solver.integrator.force_fn(solver.state)
        assert calls == {"compute": 3, "comm": 12}

    def test_smoke_rank_step_workspaces_do_not_leak(self):
        """Live arena leases stay flat over run/reset cycles with elastic
        resizes, and `release_workspaces` returns every one of them."""
        solver = make_solver(nranks=4, zones=6, rank_schedule="3:8,6:2")
        live = []
        for cycle in range(3):
            if cycle:
                solver.reset()
            solver.run(t_final=1.0, max_steps=8)
            assert [h["nranks"] for h in solver.backend.rank_history] == [8, 2]
            live.append(solver.arena.stats()["live_leases"])
        assert live == [live[0]] * 3
        solver.release_workspaces()
        assert solver.arena.stats()["live_leases"] == 0

    def test_smoke_rank_step_buffer_ids_stable(self):
        """After warm-up the engine workspace the rank step evaluates in
        is reused: no new buffers, no misses."""
        cfg = RunConfig(zones=6, order=2, ranks=8)
        solver = LagrangianHydroSolver(make_problem("triple-pt", cfg), cfg)
        solver.run(t_final=10.0, max_steps=2)
        ws = solver.engine.workspace
        ids, misses = ws.buffer_ids(), ws.misses
        solver.run(t_final=10.0, max_steps=4)
        assert ws.buffer_ids() == ids
        assert ws.misses == misses

    def test_smoke_rank_step_buffers_steady_state(self):
        """After warm-up the rank step's own arrays are workspace buffers:
        F_z alternates between two fixed arrays and the arena leases
        nothing new."""
        cfg = RunConfig(zones=6, order=2, ranks=8)
        solver = LagrangianHydroSolver(make_problem("triple-pt", cfg), cfg)
        solver.run(t_final=10.0, max_steps=2)
        compute = solver.backend.force_fn
        warm = [compute(solver.state) for _ in range(2)]
        allocations = solver.arena.stats()["block_allocations"]
        for i in range(4):
            res = compute(solver.state)
            assert res.Fz is warm[i % 2].Fz
            assert res.rhs_mom is warm[i % 2].rhs_mom
        assert warm[0].Fz is not warm[1].Fz
        assert solver.arena.stats()["block_allocations"] == allocations

    def test_swap_node_degrades_one_rank(self):
        solver = make_solver(nranks=2, backend="hybrid")
        backend = solver.backend
        assert backend.tuning_target() is backend.node
        # Every rank runs the one dense engine: no flavour change.
        with pytest.raises(ValueError, match="engine flavour"):
            backend.swap_node("cpu-sumfact", rank=0)
        backend.swap_node("cpu-fused", rank=0)
        assert [r.node_name for r in backend.ranks] == ["cpu-fused", "hybrid"]
        assert backend.tuning_target() is None
        # The degraded rank keeps its name through every repartition.
        backend.resize_ranks(3)
        assert [r.node_name for r in backend.ranks] == [
            "cpu-fused", "hybrid", "hybrid"]
        assert backend.tuning_target() is None
        backend.exclude_rank(1)
        assert [r.node_name for r in backend.ranks] == ["cpu-fused", "hybrid"]
        solver.reset()
        assert backend.ranks[0].node_name == "cpu-fused"
        assert solver.scheduler is None

    def test_exclude_rank_continues_physics(self):
        solver = make_solver(nranks=3, zones=4)
        solver.run(t_final=0.01, max_steps=2)
        reductions_before = solver.backend.comm.traffic.reductions
        solver.backend.exclude_rank(1)
        assert solver.backend.nranks == 2
        assert solver.backend.comm.traffic.reductions == reductions_before
        res = solver.run(t_final=0.03, max_steps=3)
        assert res.steps > 0
        owned = np.concatenate([r.zones for r in solver.backend.ranks])
        assert np.array_equal(np.sort(owned), np.arange(16))


class TestVectorizedRankStep:
    """Stacked rank stepping: serial physics, closed-form priced traffic."""

    def test_smoke_traffic_matches_closed_form(self):
        # Per force evaluation: one stacked (n_iface, dim) exchange and
        # one scalar dt minimum; per operator apply: one exchange priced
        # at a full (ndof,) vector per rank. Each reduction is a tree of
        # 2(P-1) messages.
        for nranks in (2, 4, 7):
            solver = make_solver(nranks=nranks, zones=5)
            counts = {"force": 0, "apply": 0}

            def counted(fn, key):
                def call(*args):
                    counts[key] += 1
                    return fn(*args)
                return call

            solver.integrator.force_fn = counted(solver.integrator.force_fn, "force")
            solver.momentum.matvec = counted(solver.momentum.matvec, "apply")
            assert solver.run(t_final=1.0, max_steps=6).steps == 6
            F, S = counts["force"], counts["apply"]
            n_iface = solver.momentum.plan.n_iface
            ndof, dim = solver.kinematic.ndof, solver.kinematic.dim
            traffic = solver.backend.comm.traffic
            assert traffic.reductions == 2 * F + S
            assert traffic.messages == 2 * (nranks - 1) * (2 * F + S)
            assert traffic.bytes == 2 * (nranks - 1) * (
                F * (8 * dim * n_iface + 8) + S * 8 * ndof
            )

    def test_force_phase_matches_serial_engine(self):
        # The rank step runs the serial engine's own `compute`, so F_z is
        # bit for bit the serial one; only the RHS assembly's rank-major
        # accumulation reorders the floating-point sums.
        serial = LagrangianHydroSolver(SedovProblem(dim=2, order=2, zones_per_dim=4))
        rs = serial.integrator.force_fn(serial.state)
        Fz = rs.Fz.copy()
        rhs = serial.kinematic.scatter_add(serial.engine.force_times_one(Fz))
        for nranks in (2, 4):
            dist = make_solver(nranks=nranks)
            rd = dist.integrator.force_fn(dist.state)
            np.testing.assert_array_equal(rd.Fz, Fz)
            np.testing.assert_allclose(rd.rhs_mom, rhs, rtol=1e-13, atol=1e-14)
            assert rd.dt_est == pytest.approx(rs.dt_est, rel=1e-13)

    def test_per_rank_attribution_sums_at_high_rank_count(self):
        report = run("sedov", RunConfig(zones=8, ranks=64, max_steps=2,
                                        pcg_maxiter=8))
        traffic = report.mpi_traffic
        per_rank = traffic.per_rank_dict()
        assert set(per_rank) <= set(range(64))
        assert sum(t["bytes"] for t in per_rank.values()) == traffic.bytes
        assert sum(t["messages"] for t in per_rank.values()) == traffic.messages


class TestStackedCollectives:
    def test_stacked_sum_functional(self, rng):
        comm = SimulatedComm(3)
        stacked = rng.standard_normal((3, 5, 2))
        res = comm.wait(comm.iallreduce_sum_stacked(stacked))
        np.testing.assert_array_equal(res, np.sum(stacked, axis=0))

    def test_stacked_pricing_matches_per_rank_rows(self):
        comm = SimulatedComm(4)
        stacked = np.ones((4, 6))
        comm.wait(comm.iallreduce_sum_stacked(stacked))
        t = comm.traffic
        # One 48-byte allreduce over 4 ranks: tree up+down.
        assert t.reductions == 1
        assert t.messages == 2 * 3
        assert t.bytes == 2 * 48 * 3

    def test_stacked_validation(self):
        comm = SimulatedComm(3)
        with pytest.raises(ValueError, match="leading axis"):
            comm.iallreduce_sum_stacked(np.zeros((2, 4)))
        with pytest.raises(TypeError):
            comm.iallreduce_sum_stacked(
                np.array([["a"] * 2] * 3, dtype=object)
            )

    def test_min_batch_scalar_and_batched(self):
        comm = SimulatedComm(3)
        assert comm.wait(comm.iallreduce_min_batch(np.array([3.0, 1.0, 2.0]))) == 1.0
        assert comm.traffic.reductions == 1
        res = comm.wait(
            comm.iallreduce_min_batch(np.array([[3.0, 5.0], [1.0, 7.0], [2.0, 6.0]]))
        )
        np.testing.assert_array_equal(res, [1.0, 5.0])
        assert comm.traffic.reductions == 3  # k=2 reductions in the batch


class TestElasticRanks:
    """Mid-run grow/shrink: physics invariant, transitions journaled."""

    def test_smoke_grow_matches_fixed_rank_physics(self):
        cfg = dict(zones=4, max_steps=8, t_final=1.0)  # step budget binds
        fixed = run("sedov", RunConfig(ranks=4, **cfg))
        grown = run("sedov", RunConfig(ranks=4, rank_schedule="3:8", **cfg))
        assert grown.steps == fixed.steps
        assert np.abs(grown.state.v - fixed.state.v).max() < 1e-10
        assert np.abs(grown.state.e - fixed.state.e).max() < 1e-10
        assert grown.solver.backend.nranks == 8
        assert grown.solver.backend.rank_history == [
            {"step": 3, "nranks": 8, "reason": "resize"}
        ]
        assert grown.manifest.solver["rank_history"] == grown.solver.backend.rank_history

    def test_smoke_shrink_matches_fixed_rank_physics(self):
        cfg = dict(zones=4, max_steps=8, t_final=1.0)
        fixed = run("sedov", RunConfig(ranks=8, **cfg))
        shrunk = run("sedov", RunConfig(ranks=8, rank_schedule="4:3", **cfg))
        assert shrunk.steps == fixed.steps
        assert np.abs(shrunk.state.v - fixed.state.v).max() < 1e-10
        assert np.abs(shrunk.state.e - fixed.state.e).max() < 1e-10
        assert shrunk.solver.backend.nranks == 3

    def test_elastic_run_is_bit_reproducible(self):
        cfg = RunConfig(ranks=4, rank_schedule="2:8,5:3", zones=4,
                        max_steps=7, t_final=1.0)
        a = run("sedov", cfg)
        b = run("sedov", cfg)
        assert np.array_equal(a.state.v, b.state.v)
        assert np.array_equal(a.state.e, b.state.e)
        assert np.array_equal(a.state.x, b.state.x)
        assert a.solver.backend.rank_history == b.solver.backend.rank_history

    def test_resize_emits_trace_instants(self):
        report = run("sedov", RunConfig(ranks=4, rank_schedule="2:8,5:3",
                                        zones=4, max_steps=7, t_final=1.0,
                                        telemetry=True))
        resizes = [e for e in report.tracer.events if e["name"] == "rank_resize"]
        assert [(e["step"], e["nranks"], e["from"]) for e in resizes] == [
            (2, 8, 4), (5, 3, 8)
        ]
        assert all(e["category"] == "comm" for e in resizes)

    def test_exclusion_during_grown_fleet(self):
        solver = make_solver(nranks=4, zones=4)
        solver.run(t_final=0.01, max_steps=2)
        solver.backend.resize_ranks(8)
        solver.backend.exclude_rank(3)
        assert solver.backend.nranks == 7
        res = solver.run(t_final=0.05, max_steps=3)
        assert res.steps > 0
        assert np.isfinite(solver.state.v).all()
        history = [(h["nranks"], h["reason"]) for h in solver.backend.rank_history]
        assert history == [(8, "resize"), (7, "exclude")]

    def test_reset_restores_initial_fleet(self):
        solver = make_solver(nranks=4, zones=4, rank_schedule="2:8")
        solver.run(t_final=0.05, max_steps=4)
        assert solver.backend.nranks == 8
        solver.reset()
        assert solver.backend.nranks == 4
        assert solver.backend.rank_history == []
        res = solver.run(t_final=0.05, max_steps=4)
        assert solver.backend.nranks == 8  # schedule re-fires after reset
        assert res.steps > 0

    def test_schedule_validation(self):
        with pytest.raises(ValueError, match="rank_schedule requires ranks"):
            RunConfig(rank_schedule="3:8")
        for bad in ("0:4", "3:0", "3:8,3:5", "nonsense", "oops"):
            with pytest.raises(ValueError):
                DistributedBackend(4, rank_schedule=bad)
            # Rejected when the config is built, typed, so the fleet
            # never admits or journals such a job.
            with pytest.raises(ConfigError, match="rank_schedule"):
                RunConfig(ranks=4, rank_schedule=bad)

    def test_resize_validation(self):
        solver = make_solver(nranks=4, zones=4)
        with pytest.raises(ValueError):
            solver.backend.resize_ranks(0)
