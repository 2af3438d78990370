"""Tests for the resilient execution layer.

Covers the fault injector, recovery policy, watchdog, hardened
checkpoints, restart equivalence (bit-for-bit on Sedov and
triple-point), and the `ResilientDriver`'s fallback / rollback-and-
replay machinery. Tests named `test_smoke_*` form the fast recovery-path
smoke target (`pytest -q tests/test_resilience.py -k smoke`).
"""

import numpy as np
import pytest

from repro import LagrangianHydroSolver, SedovProblem, TriplePointProblem
from repro.config import RunConfig
from repro.cpu import get_cpu
from repro.gpu import get_gpu
from repro.io import (
    CheckpointCorruptionError,
    load_checkpoint,
    restore_solver,
    save_checkpoint,
)
from repro.kernels import FEConfig
from repro.resilience import (
    BackoffPolicy,
    CheckpointCostModel,
    FaultInjector,
    FaultSpec,
    GpuOffloadPricer,
    GPUKernelFault,
    InvariantViolation,
    PCIeTransferFault,
    RankFailure,
    RecoveryPolicy,
    ResilienceExhausted,
    ResilientDriver,
    Watchdog,
    WatchdogLimits,
    parse_fault_specs,
)
from repro.runtime.hybrid import HybridExecutor
from repro.runtime.instrumentation import PhaseTimers
from repro.runtime.mpi_sim import SimulatedComm


def sedov():
    return SedovProblem(dim=2, order=2, zones_per_dim=3)


def triple():
    return TriplePointProblem(order=2, nx=4, ny=2)


def distributed(nranks):
    return LagrangianHydroSolver(sedov(), RunConfig(ranks=nranks))


# A horizon no tiny test run reaches: runs are bounded by max_steps.
FAR = 100.0


# ---------------------------------------------------------------------------
# Fault injector


class TestFaultInjector:
    def test_fires_at_exact_occurrence(self):
        inj = FaultInjector([FaultSpec("gpu", 3)])
        inj.check("gpu")
        inj.check("gpu")
        with pytest.raises(GPUKernelFault):
            inj.check("gpu")
        inj.check("gpu")  # one-shot: never fires again
        assert inj.faults_fired == 1

    def test_sticky_keeps_firing(self):
        inj = FaultInjector([FaultSpec("pcie", 2, sticky=True)])
        inj.check("pcie")
        for _ in range(3):
            with pytest.raises(PCIeTransferFault) as exc:
                inj.check("pcie")
            assert exc.value.sticky

    def test_kernel_name_target_filter(self):
        inj = FaultInjector([FaultSpec("gpu", 1, target="kernel7")])
        inj.check("gpu", detail="kernel3_gemm")  # does not match, not counted
        with pytest.raises(GPUKernelFault):
            inj.check("gpu", detail="kernel7_force")

    def test_rank_failure_carries_rank(self):
        inj = FaultInjector([FaultSpec("rank", 1, target=2)])
        with pytest.raises(RankFailure) as exc:
            inj.check("rank")
        assert exc.value.rank == 2

    def test_corrupt_state_nan_and_blowup(self):
        state = LagrangianHydroSolver(sedov()).state
        inj = FaultInjector([FaultSpec("state", 2), FaultSpec("state", 3, target="blowup")])
        assert inj.corrupt_state(state, 1) is None
        assert "NaN" in inj.corrupt_state(state, 2)
        assert not np.isfinite(state.v).all()
        e_before = state.e.copy()
        assert "blown up" in inj.corrupt_state(state, 3)
        assert np.all(np.abs(state.e) >= np.abs(e_before))

    def test_random_rates_are_seeded(self):
        def fired(seed):
            inj = FaultInjector(seed=seed, rates={"gpu": 0.5})
            hits = []
            for i in range(20):
                try:
                    inj.check("gpu")
                    hits.append(False)
                except GPUKernelFault:
                    hits.append(True)
            return hits

        assert fired(7) == fired(7)
        assert any(fired(7))

    def test_parse_specs(self):
        specs = parse_fault_specs("gpu:3,state:12:blowup,rank:2:1,pcie:4!")
        assert specs[0] == FaultSpec("gpu", 3)
        assert specs[1] == FaultSpec("state", 12, target="blowup")
        assert specs[2] == FaultSpec("rank", 2, target=1)
        assert specs[3] == FaultSpec("pcie", 4, sticky=True)

    def test_parse_and_spec_validation(self):
        with pytest.raises(ValueError):
            parse_fault_specs("gpu")
        with pytest.raises(ValueError):
            parse_fault_specs("gpu:x")
        with pytest.raises(ValueError):
            FaultSpec("meteor", 1)
        with pytest.raises(ValueError):
            FaultSpec("gpu", 0)
        with pytest.raises(ValueError):
            FaultSpec("state", 1, target="fire")
        with pytest.raises(ValueError):
            FaultInjector(rates={"gpu": 1.5})


# ---------------------------------------------------------------------------
# Policy


class TestRecoveryPolicy:
    def test_backoff_grows(self):
        b = BackoffPolicy(max_retries=3, base_delay_s=1e-3, multiplier=2.0)
        assert b.delay_s(0) == pytest.approx(1e-3)
        assert b.delay_s(2) == pytest.approx(4e-3)

    def test_retry_then_fallback(self):
        pol = RecoveryPolicy(retry=BackoffPolicy(max_retries=2))
        f = GPUKernelFault("boom")
        assert pol.for_device_fault(f, 0).kind == "retry"
        assert pol.for_device_fault(f, 1).kind == "retry"
        assert pol.for_device_fault(f, 2).kind == "fallback"

    def test_sticky_skips_retries(self):
        pol = RecoveryPolicy()
        f = GPUKernelFault("dead", sticky=True)
        assert pol.for_device_fault(f, 0).kind == "fallback"

    def test_fallback_disabled_exhausts(self):
        pol = RecoveryPolicy(retry=BackoffPolicy(max_retries=0), allow_fallback=False)
        with pytest.raises(ResilienceExhausted):
            pol.for_device_fault(GPUKernelFault("boom"), 0)

    def test_rank_exclusion(self):
        pol = RecoveryPolicy()
        act = pol.for_rank_failure(RankFailure("dead", rank=1), nranks=3)
        assert act.kind == "exclude-rank" and act.rank == 1
        with pytest.raises(ResilienceExhausted):
            pol.for_rank_failure(RankFailure("dead", rank=0), nranks=1)

    def test_rollback_budget(self):
        pol = RecoveryPolicy(max_rollbacks=2)
        assert pol.for_violation(1).kind == "rollback"
        with pytest.raises(ResilienceExhausted):
            pol.for_violation(2)


# ---------------------------------------------------------------------------
# Watchdog


class TestWatchdog:
    def test_detects_nan(self):
        s = LagrangianHydroSolver(sedov())
        w = Watchdog()
        w.arm(s.energies().total, 1e-3)
        w.inspect(s.state, s.energies().total, 1e-3)
        s.state.v[0, 0] = np.nan
        with pytest.raises(InvariantViolation, match="non-finite"):
            w.inspect(s.state, s.energies().total, 1e-3)
        assert len(w.violations) == 1

    def test_detects_energy_drift(self):
        s = LagrangianHydroSolver(sedov())
        w = Watchdog(limits=WatchdogLimits(energy_drift_rel=1e-6))
        e0 = s.energies().total
        w.arm(e0, 1e-3)
        with pytest.raises(InvariantViolation, match="drift"):
            w.inspect(s.state, e0 + 1.0, 1e-3)

    def test_detects_dt_collapse(self):
        s = LagrangianHydroSolver(sedov())
        w = Watchdog()
        w.arm(s.energies().total, 1e-3)
        with pytest.raises(InvariantViolation, match="collapsed"):
            w.inspect(s.state, None, 1e-14)


# ---------------------------------------------------------------------------
# Hardened checkpoints


class TestCheckpointHardening:
    def test_smoke_roundtrip_has_checksum(self, tmp_path):
        s = LagrangianHydroSolver(sedov())
        path = save_checkpoint(tmp_path / "c", s)
        with np.load(path) as data:
            assert "sha256" in data.files
        chk = load_checkpoint(path)
        assert np.array_equal(chk["v"], s.state.v)
        assert not list(tmp_path.glob(".*tmp"))  # atomic write left no debris

    def test_truncated_file_raises_corruption(self, tmp_path):
        s = LagrangianHydroSolver(sedov())
        path = save_checkpoint(tmp_path / "c", s)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointCorruptionError, match="unreadable"):
            load_checkpoint(path)

    def test_tampered_content_fails_checksum(self, tmp_path):
        s = LagrangianHydroSolver(sedov())
        path = save_checkpoint(tmp_path / "c", s)
        data = dict(np.load(path))
        data["t"] = np.asarray(float(data["t"]) + 1e-9)
        np.savez(path, **data)
        with pytest.raises(CheckpointCorruptionError, match="SHA-256"):
            load_checkpoint(path)
        # verify=False skips the integrity check for forensic reads.
        assert load_checkpoint(path, verify=False)["t"] == pytest.approx(float(data["t"]))

    def test_legacy_version1_loads_without_checksum(self, tmp_path):
        s = LagrangianHydroSolver(sedov())
        path = save_checkpoint(tmp_path / "c", s)
        data = dict(np.load(path))
        del data["sha256"]
        data["format_version"] = np.asarray(1)
        np.savez(path, **data)
        chk = load_checkpoint(path)
        assert int(chk["format_version"]) == 1

    def test_missing_checksum_on_v2_raises(self, tmp_path):
        s = LagrangianHydroSolver(sedov())
        path = save_checkpoint(tmp_path / "c", s)
        data = dict(np.load(path))
        del data["sha256"]
        np.savez(path, **data)
        with pytest.raises(CheckpointCorruptionError, match="checksum"):
            load_checkpoint(path)


# ---------------------------------------------------------------------------
# Restart equivalence (satellite: bit-for-bit on Sedov and triple-point)


class TestRestartEquivalence:
    @pytest.mark.parametrize("make,n1,n2", [(sedov, 5, 5), (triple, 3, 3)],
                             ids=["sedov", "triple-point"])
    def test_restart_matches_uninterrupted_bit_for_bit(self, tmp_path, make, n1, n2):
        uninterrupted = LagrangianHydroSolver(make())
        uninterrupted.run(t_final=FAR, max_steps=n1 + n2)

        first = LagrangianHydroSolver(make())
        first.run(t_final=FAR, max_steps=n1)
        path = save_checkpoint(tmp_path / "mid", first)

        resumed = LagrangianHydroSolver(make())
        restore_solver(path, resumed)
        resumed.run(t_final=FAR, max_steps=n2)

        assert resumed.state.t == uninterrupted.state.t
        assert np.array_equal(resumed.state.v, uninterrupted.state.v)
        assert np.array_equal(resumed.state.e, uninterrupted.state.e)
        assert np.array_equal(resumed.state.x, uninterrupted.state.x)


# ---------------------------------------------------------------------------
# Mailbox hygiene + timers (satellites)


class TestMailboxHygiene:
    def test_recv_empty_names_ranks_and_tag(self):
        comm = SimulatedComm(3)
        comm.send(np.ones(2), 0, 2, tag=7)
        with pytest.raises(RuntimeError, match=r"rank 1 to rank 2.*tag 9"):
            comm.recv(1, 2, tag=9)

    def test_recv_validates_ranks(self):
        comm = SimulatedComm(2)
        with pytest.raises(ValueError, match="src rank 5"):
            comm.recv(5, 0)
        with pytest.raises(ValueError, match="dest rank -1"):
            comm.recv(0, -1)

    def test_send_validates_ranks(self):
        comm = SimulatedComm(2)
        with pytest.raises(ValueError, match="out of range"):
            comm.send(np.ones(1), 0, 9)


class TestPhaseTimers:
    def test_to_dict_and_reset(self):
        import time

        t = PhaseTimers()
        with t.measure("a"):
            time.sleep(0.001)
        with t.measure("a"):
            pass
        d = t.to_dict()
        assert d["a"]["calls"] == 2
        assert d["a"]["seconds"] > 0.0
        assert d["a"]["fraction"] == pytest.approx(1.0)
        t.reset()
        assert t.to_dict() == {}


# ---------------------------------------------------------------------------
# Resilient driver


def make_offload(injector, nmpi=1, **policy_kw):
    cfg = FEConfig(dim=2, order=2, nzones=9)
    ex = HybridExecutor(cfg, get_cpu("E5-2670"), get_gpu("K20"), nmpi=nmpi)
    policy = RecoveryPolicy(**policy_kw) if policy_kw else None
    return GpuOffloadPricer(ex, injector=injector, policy=policy)


class TestResilientDriver:
    def test_smoke_fault_free_matches_plain_run(self):
        plain = LagrangianHydroSolver(sedov()).run(t_final=FAR, max_steps=10)
        driver = ResilientDriver(LagrangianHydroSolver(sedov()), checkpoint_every=4)
        res = driver.run(t_final=FAR, max_steps=10)
        assert np.array_equal(res.state.v, plain.state.v)
        assert np.array_equal(res.state.e, plain.state.e)
        assert res.report.rollbacks == 0 and res.report.fallbacks == 0
        assert res.report.checkpoints_written == 2
        assert "step" in res.report.phase_timings

    def test_smoke_gpu_fault_triggers_cpu_fallback(self):
        """Acceptance: a GPU kernel fault mid-run falls back to the CPU
        path and the run completes with physics identical to fault-free."""
        plain = LagrangianHydroSolver(sedov()).run(t_final=FAR, max_steps=8)
        injector = FaultInjector([FaultSpec("gpu", 3, sticky=True)])
        offload = make_offload(injector)
        driver = ResilientDriver(
            LagrangianHydroSolver(sedov()), injector=injector,
            checkpoint_every=4, offload=offload,
        )
        res = driver.run(t_final=FAR, max_steps=8)
        assert res.report.fallbacks >= 1
        assert res.report.degraded_final
        assert res.reached_t_final or res.steps == 8
        assert np.array_equal(res.state.v, plain.state.v)
        assert np.array_equal(res.state.e, plain.state.e)
        # Every step priced on the CPU path (fault fires during step 1,
        # sticky => no retries, so no backoff penalty is added).
        assert res.report.offload_time_s == pytest.approx(8 * offload.cpu_step_s)

    def test_smoke_corruption_rolls_back_and_replays(self):
        """Acceptance: corrupted state triggers watchdog rollback and the
        replayed run still matches the fault-free physics bit-for-bit,
        with the report accounting for the replay."""
        plain = LagrangianHydroSolver(sedov()).run(t_final=FAR, max_steps=12)
        injector = FaultInjector([FaultSpec("state", 7)])
        driver = ResilientDriver(
            LagrangianHydroSolver(sedov()), injector=injector, checkpoint_every=5
        )
        res = driver.run(t_final=FAR, max_steps=12)
        assert res.report.rollbacks == 1
        assert res.report.steps_replayed == 2  # corrupted step 7, checkpoint at 5
        assert any(ev.kind == "watchdog" for ev in res.report.faults)
        assert np.array_equal(res.state.v, plain.state.v)
        assert np.array_equal(res.state.e, plain.state.e)
        assert res.state.t == plain.state.t

    def test_blowup_corruption_detected_by_energy_drift(self):
        plain = LagrangianHydroSolver(sedov()).run(t_final=FAR, max_steps=10)
        injector = FaultInjector([FaultSpec("state", 6, target="blowup")])
        driver = ResilientDriver(
            LagrangianHydroSolver(sedov()), injector=injector, checkpoint_every=4
        )
        res = driver.run(t_final=FAR, max_steps=10)
        assert res.report.rollbacks == 1
        assert np.array_equal(res.state.v, plain.state.v)

    def test_transient_gpu_fault_recovered_by_retry(self):
        injector = FaultInjector([FaultSpec("gpu", 2)])
        offload = make_offload(injector)
        driver = ResilientDriver(
            LagrangianHydroSolver(sedov()), injector=injector,
            checkpoint_every=4, offload=offload,
        )
        res = driver.run(t_final=FAR, max_steps=6)
        assert res.report.retries >= 1
        assert res.report.fallbacks == 0
        assert not res.report.degraded_final

    def test_pcie_fault_is_recoverable_too(self):
        injector = FaultInjector([FaultSpec("pcie", 2, sticky=True)])
        offload = make_offload(injector)
        driver = ResilientDriver(
            LagrangianHydroSolver(sedov()), injector=injector,
            checkpoint_every=4, offload=offload,
        )
        res = driver.run(t_final=FAR, max_steps=6)
        assert res.report.fallbacks >= 1

    def test_rank_failure_excludes_rank_and_continues(self):
        ref = LagrangianHydroSolver(sedov()).run(t_final=FAR, max_steps=6)
        injector = FaultInjector([FaultSpec("rank", 5, target=1)])
        solver = distributed(3)
        driver = ResilientDriver(solver, injector=injector, checkpoint_every=4)
        res = driver.run(t_final=FAR, max_steps=6)
        assert solver.backend.nranks == 2
        assert res.report.rank_exclusions == 1
        # Physics matches the serial reference to fp-reordering accuracy.
        assert np.allclose(res.state.v, ref.state.v, rtol=1e-8, atol=1e-10)
        assert np.allclose(res.state.e, ref.state.e, rtol=1e-8, atol=1e-10)

    def test_disk_checkpoints_written_and_verified(self, tmp_path):
        driver = ResilientDriver(
            LagrangianHydroSolver(sedov()), checkpoint_every=3,
            checkpoint_dir=tmp_path / "ckpts",
        )
        res = driver.run(t_final=FAR, max_steps=7)
        files = sorted((tmp_path / "ckpts").glob("*.npz"))
        assert len(files) == res.report.checkpoints_written == 2
        assert driver.last_disk_checkpoint == files[-1]
        # The newest checkpoint restores into a fresh solver.
        fresh = LagrangianHydroSolver(sedov())
        restore_solver(files[-1], fresh)
        assert fresh.state.t > 0

    def test_checkpoint_keep_prunes_but_never_the_newest(self, tmp_path):
        driver = ResilientDriver(
            LagrangianHydroSolver(sedov()), checkpoint_every=2,
            checkpoint_dir=tmp_path / "ckpts", checkpoint_keep=2,
        )
        res = driver.run(t_final=FAR, max_steps=9)
        files = sorted((tmp_path / "ckpts").glob("ckpt_step*.npz"))
        assert res.report.checkpoints_written == 4  # steps 2, 4, 6, 8
        assert len(files) == 2  # only the newest two survive
        assert driver.last_disk_checkpoint == files[-1]
        # The retained checkpoints are the *latest* ones and restorable.
        assert [f.name for f in files] == ["ckpt_step000006.npz",
                                           "ckpt_step000008.npz"]
        fresh = LagrangianHydroSolver(sedov())
        restore_solver(files[-1], fresh)
        assert fresh.state.t > 0

    def test_checkpoint_keep_zero_keeps_everything(self, tmp_path):
        driver = ResilientDriver(
            LagrangianHydroSolver(sedov()), checkpoint_every=2,
            checkpoint_dir=tmp_path / "ckpts",
        )
        res = driver.run(t_final=FAR, max_steps=7)
        files = list((tmp_path / "ckpts").glob("ckpt_step*.npz"))
        assert len(files) == res.report.checkpoints_written == 3

    def test_checkpoint_keep_via_run_config(self, tmp_path):
        from repro.api import run

        report = run("sedov", RunConfig(
            zones=3, t_final=FAR, max_steps=9, checkpoint_every=2,
            checkpoint_dir=str(tmp_path / "ckpts"), checkpoint_keep=1,
        ))
        files = list((tmp_path / "ckpts").glob("ckpt_step*.npz"))
        assert len(files) == 1
        assert report.recovery.checkpoints_written >= 3

    def test_checkpoint_keep_validated(self):
        with pytest.raises(ValueError):
            ResilientDriver(LagrangianHydroSolver(sedov()),
                            checkpoint_every=2, checkpoint_keep=-1)
        with pytest.raises(ValueError):
            RunConfig(checkpoint_keep=-1)

    def test_sticky_corruption_exhausts_rollbacks(self):
        # A sticky state fault re-corrupts after every replay; the policy
        # must eventually give up rather than loop forever.
        injector = FaultInjector([FaultSpec("state", 4, sticky=True)])
        driver = ResilientDriver(
            LagrangianHydroSolver(sedov()), injector=injector,
            policy=RecoveryPolicy(max_rollbacks=2), checkpoint_every=10,
        )
        with pytest.raises(ResilienceExhausted):
            driver.run(t_final=FAR, max_steps=10)

    def test_checkpoint_cost_model(self):
        m = CheckpointCostModel(bandwidth_gbs=1.0, latency_s=1e-3)
        assert m.write_time_s(1e9) == pytest.approx(1.0 + 1e-3)
        with pytest.raises(ValueError):
            m.write_time_s(-1)

    def test_checkpoint_every_validated(self):
        with pytest.raises(ValueError):
            ResilientDriver(LagrangianHydroSolver(sedov()), checkpoint_every=0)


class TestExcludeRank:
    def test_exclusion_rebuilds_partition(self):
        backend = distributed(3).backend
        before = backend.comm.traffic.reductions
        backend.exclude_rank(1)
        assert backend.nranks == 2
        assert set(np.unique(backend.zone_rank)) <= {0, 1}
        assert len(backend.ranks) == 2
        assert backend.comm.traffic.reductions == before  # accounting carried over

    def test_exclusion_validation(self):
        backend = distributed(2).backend
        with pytest.raises(ValueError):
            backend.exclude_rank(5)
        backend.exclude_rank(0)
        with pytest.raises(ValueError):
            backend.exclude_rank(0)

    def test_physics_unchanged_after_exclusion(self):
        ref = distributed(3).run(t_final=FAR, max_steps=4)
        solver = distributed(3)
        solver.backend.exclude_rank(2)
        res = solver.run(t_final=FAR, max_steps=4)
        assert np.allclose(res.state.v, ref.state.v, rtol=1e-10, atol=1e-12)


class TestResilientCLI:
    def test_smoke_cli_resilient_run(self, capsys, tmp_path):
        from repro.cli import main

        rc = main([
            "run", "sedov", "--zones", "3", "--t-final", "1.0", "--max-steps", "8",
            "--faults", "gpu:2,state:5", "--checkpoint-every", "3",
            "--checkpoint-dir", str(tmp_path), "--offload-device", "K20",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "resilience report" in out
        assert "rollback" in out
        assert list(tmp_path.glob("*.npz"))
