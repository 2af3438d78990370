"""Tests for the execution-backend seam and the in-band scheduler.

Covers the `repro.backends` registry (three policies behind one
`RunConfig.backend` string), the physics contract between them
(cpu-fused / hybrid bitwise identical on tier-1 meshes), the backend
name resolution, the `repro.sched.OnlineScheduler`
(convergence within the paper's 12-14 sampling periods, cache
persistence, warm start skipping the campaign), `TuningCache`
corruption recovery, and the resilient driver's hybrid -> cpu-fused
backend swap on a sticky GPU fault.

Tests named `test_smoke_*` form the fast subset
(`pytest -q tests/test_backends.py -k smoke`).
"""

import gc
import hashlib
import json
import os
import weakref

import numpy as np
import pytest

from repro import LagrangianHydroSolver, SedovProblem
from repro.api import RunConfig, run
from repro.backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    HybridBackend,
    make_backend,
)
from repro.cpu import get_cpu
from repro.gpu import get_gpu
from repro.kernels import FEConfig
from repro.resilience import (
    FaultInjector,
    FaultSpec,
    GpuOffloadPricer,
    ResilientDriver,
)
from repro.runtime.hybrid import HybridExecutor
from repro.sched import OnlineScheduler, hybrid_param_space
from repro.tuning import TuningCache, TuningCacheCorruptionError
from repro.tuning.balance import AutoBalancer


def sedov(zones=4):
    return SedovProblem(dim=2, order=2, zones_per_dim=zones)


# A horizon no tiny test run reaches: runs are bounded by max_steps.
FAR = 100.0


def state_hash(state) -> str:
    """SHA-256 over the raw bytes of the evolved fields (bitwise)."""
    h = hashlib.sha256()
    for arr in (state.x, state.v, state.e):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def run_backend(backend: str, zones=4, steps=2, **cfg_kw):
    """Two-step Sedov under one backend; returns (result, solver)."""
    solver = LagrangianHydroSolver(
        sedov(zones), RunConfig(backend=backend, **cfg_kw)
    )
    try:
        return solver.run(t_final=FAR, max_steps=steps), solver
    finally:
        solver.close()


# ---------------------------------------------------------------------------
# Registry + protocol


class TestBackendRegistry:
    def test_smoke_make_backend_all_names(self):
        for name in BACKEND_NAMES:
            assert make_backend(name).name == name
        # Protocol conformance is checked on an *attached* backend —
        # unattached ones raise from `force_fn` by design.
        solver = LagrangianHydroSolver(sedov())
        try:
            assert isinstance(solver.backend, ExecutionBackend)
        finally:
            solver.close()

    def test_smoke_unknown_backend_raises_with_choices(self):
        for name in ("tpu", "cpu-serial", "cpu-parallel"):
            with pytest.raises(ValueError, match="cpu-fused"):
                make_backend(name)

    def test_describe_before_attach(self):
        for name in BACKEND_NAMES:
            d = make_backend(name).describe()
            assert d["backend"] == name

    def test_force_fn_requires_attach(self):
        with pytest.raises(RuntimeError, match="not attached"):
            make_backend("cpu-fused").force_fn

    def test_double_attach_rejected(self):
        solver = LagrangianHydroSolver(sedov())
        try:
            with pytest.raises(RuntimeError, match="already attached"):
                solver.backend.attach(solver)
        finally:
            solver.close()


# ---------------------------------------------------------------------------
# Physics contract across backends


class TestBackendPhysics:
    def test_smoke_backends_bit_identical(self):
        """Acceptance: the backends agree on a 2-step Sedov run.

        cpu-fused and hybrid share the fused arithmetic and must match
        *bitwise* (the loop reference check lives in test_hotpath and
        test_corner_force).
        """
        hashes = {}
        for name in BACKEND_NAMES:
            res, _ = run_backend(name)
            hashes[name] = state_hash(res.state)
        assert hashes["cpu-fused"] == hashes["hybrid"]

    def test_hybrid_matches_fused_on_larger_mesh(self):
        hf = state_hash(run_backend("cpu-fused", zones=8)[0].state)
        hh = state_hash(run_backend("hybrid", zones=8)[0].state)
        assert hf == hh


# ---------------------------------------------------------------------------
# `backend` (and the retired `workers`) resolve into one backend name


class TestDeprecatedKnobs:
    def test_smoke_legacy_knobs_resolve_to_backends(self):
        assert RunConfig().resolved_backend == "cpu-fused"
        assert RunConfig(workers=2).resolved_backend == "cpu-fused"
        assert RunConfig(backend="cpu-sumfact").resolved_backend == "cpu-sumfact"
        assert RunConfig(backend="hybrid").resolved_backend == "hybrid"

    def test_conflicting_knobs_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            RunConfig(workers=2, backend="cpu-fused")
        with pytest.raises(ValueError, match="backend"):
            RunConfig(backend="openmp")


# ---------------------------------------------------------------------------
# AutoBalancer incremental API


class TestAutoBalancer:
    def test_is_balanced_symmetric_tolerance(self):
        assert AutoBalancer.is_balanced(1.0, 1.0, 0.02)
        assert AutoBalancer.is_balanced(1.0, 1.019, 0.02)
        assert not AutoBalancer.is_balanced(1.0, 1.05, 0.02)
        assert not AutoBalancer.is_balanced(1.05, 1.0, 0.02)

    def test_update_moves_toward_slower_side(self):
        # GPU finishing early => give it more work.
        up = AutoBalancer.update_ratio(0.5, t_gpu=0.5, t_cpu=1.0, damping=0.5)
        assert up > 0.5
        down = AutoBalancer.update_ratio(0.5, t_gpu=1.0, t_cpu=0.5, damping=0.5)
        assert down < 0.5

    def test_converges_within_paper_periods_under_noise(self):
        """Acceptance: with the optimum at a 75% GPU share and 2%
        timer noise averaged over a 40-step period, the damped update
        reaches balance within the paper's 12-14 sampling periods."""
        rng = np.random.default_rng(1234)
        sigma = 0.02 / np.sqrt(40.0)
        ratio, periods = 0.5, 0
        for periods in range(1, 15):
            t_gpu = (ratio / 0.75) * (1.0 + rng.normal(0.0, sigma))
            t_cpu = ((1.0 - ratio) / 0.25) * (1.0 + rng.normal(0.0, sigma))
            if AutoBalancer.is_balanced(t_gpu, t_cpu, 0.02):
                break
            ratio = AutoBalancer.update_ratio(ratio, t_gpu, t_cpu, 0.35)
        else:
            pytest.fail(f"no convergence in 14 periods (ratio={ratio:.4f})")
        assert periods <= 14
        assert ratio == pytest.approx(0.75, abs=0.02)


# ---------------------------------------------------------------------------
# In-band scheduling: tune -> balance -> done, persistence, warm start


class TestInBandScheduler:
    def _config(self, cache_path, **kw):
        return RunConfig(
            backend="hybrid",
            tune_period_steps=1,
            tuning_cache=str(cache_path),
            max_steps=60,
            t_final=FAR,
            **kw,
        )

    def test_smoke_inband_tuning_converges_and_persists(self, tmp_path):
        cache_path = tmp_path / "tuning.json"
        report = run(sedov(), self._config(cache_path)).scheduler
        assert report is not None
        assert not report.warm_started
        assert report.converged
        assert set(report.winners) == {"kernel3", "kernel5", "kernel7"}
        # One candidate per period across the three campaigns, then the
        # paper's 12-14 balance periods (deterministic seeded noise).
        assert report.periods_tune >= 3
        assert 1 <= report.periods_balance <= 14
        assert 0.01 <= report.ratio <= 0.99
        # Winners and the converged split landed in the cache.
        cache = TuningCache(cache_path)
        spec, cfg = get_gpu("K20"), FEConfig(dim=2, order=2, nzones=16)
        for kernel in ("kernel3", "kernel5", "kernel7"):
            assert cache.lookup(spec, cfg, kernel, backend="hybrid") is not None
        balance = cache.lookup(spec, cfg, "balance", backend="hybrid")
        assert balance is not None
        assert balance["ratio"] == pytest.approx(report.ratio)

    def test_smoke_warm_start_skips_campaign(self, tmp_path):
        """Acceptance: a second run on the same device fingerprint and
        FE config adopts the cached winners and runs zero periods."""
        cache_path = tmp_path / "tuning.json"
        first = run(sedov(), self._config(cache_path)).scheduler
        assert first.converged and not first.warm_started
        second = run(sedov(), self._config(cache_path)).scheduler
        assert second.warm_started
        assert second.converged
        assert second.periods == 0
        assert second.ratio == pytest.approx(first.ratio)
        assert second.winners == first.winners

    def test_tuning_periods_become_trace_spans(self, tmp_path):
        cache_path = tmp_path / "tuning.json"
        rep = run(sedov(), self._config(cache_path, telemetry=True))
        spans = [s for s in rep.tracer.spans if s.name == "tuning_period"]
        assert len(spans) == rep.scheduler.periods
        names = [e["name"] for e in rep.tracer.events]
        assert "ratio_change" in names
        # Warm-started run: no periods, just the warm-start instant.
        rep2 = run(sedov(), self._config(cache_path, telemetry=True))
        assert not any(s.name == "tuning_period" for s in rep2.tracer.spans)
        assert any(e["name"] == "tuning_warm_start" for e in rep2.tracer.events)

    def test_partial_cache_does_not_warm_start(self, tmp_path):
        """Kernel winners without a converged ratio => full campaign."""
        cache_path = tmp_path / "tuning.json"
        cache = TuningCache(cache_path)
        spec, cfg = get_gpu("K20"), FEConfig(dim=2, order=2, nzones=16)
        cache.store(spec, cfg, "kernel3", {"matrices_per_block": 16},
                    backend="hybrid")
        report = run(sedov(), self._config(cache_path)).scheduler
        assert not report.warm_started
        assert report.periods_tune >= 3

    def test_different_device_misses_cache(self, tmp_path):
        """Porting to another architecture re-tunes automatically."""
        cache_path = tmp_path / "tuning.json"
        run(sedov(), self._config(cache_path))
        report = run(
            sedov(), self._config(cache_path, hybrid_device="C2050")
        ).scheduler
        assert not report.warm_started

    def test_scheduler_requires_attached_backend(self):
        with pytest.raises(ValueError, match="attached"):
            OnlineScheduler(HybridBackend())

    def test_campaigns_are_feasibility_filtered(self):
        """Every point of the tuning space launches on the device, and
        the restrictions did drop some (Q4 tilings over K20's budget)."""
        from repro.gpu import execute_kernel
        from repro.kernels.registry import TUNING_AXES

        cfg, spec = FEConfig(dim=2, order=4, nzones=16), get_gpu("K20")
        space = hybrid_param_space(cfg, spec)
        assert space.candidates()
        assert space.eliminated_count() > 0
        for cand in space.candidates():
            for axis in TUNING_AXES:
                cost = axis.cost(cfg, cand[axis.name])
                assert execute_kernel(spec, cost).time_s > 0.0

    def test_scheduler_rejects_bad_arguments_before_any_period(self):
        b = HybridBackend.for_pricing(FEConfig(dim=2, order=2, nzones=16))
        with pytest.raises(ValueError, match="steps_per_period"):
            OnlineScheduler(b, steps_per_period=0)
        with pytest.raises(ValueError, match="objective"):
            OnlineScheduler(b, objective="watts")
        with pytest.raises(ValueError, match="strategy"):
            OnlineScheduler(b, strategy="annealing")

    def test_host_priced_by_the_executing_model(self):
        """The host side of the split is the fused engine's corner force
        on the host cores — the model `cpu_only()` uses — before and
        after a full Q3 campaign: no candidate re-prices it."""
        cfg = FEConfig(dim=2, order=3, nzones=16)
        host_s = HybridExecutor(
            cfg, get_cpu("E5-2670"), get_gpu("K20"), nmpi=1
        )._cpu_corner_force_s()
        harness = HybridBackend.for_pricing(cfg)
        assert harness.cpu_time_s(1.0) == host_s
        sched = OnlineScheduler(harness, steps_per_period=1)
        for _ in range(200):
            sched.on_step()
        assert sched.report.converged and sched.report.periods_tune > 0
        assert harness.cpu_time_s(1.0) == host_s

    def test_old_cache_runtime_entry_warm_starts_unread(self, tmp_path):
        """A cache that also holds the retired (fusion, chunk) runtime
        pair still warm-starts from its kernel winners and balance entry;
        the pair is never applied, so the host keeps the fused price."""
        cfg, spec = FEConfig(dim=2, order=3, nzones=16), get_gpu("K20")
        cache = TuningCache(tmp_path / "tuning.json")
        for kernel, params in {
            "kernel3": {"matrices_per_block": 32},
            "kernel5": {"matrices_per_block": 32},
            "kernel7": {"block_cols": 1},
            "balance": {"ratio": 0.3563},
            "runtime": {"fusion": "sumfact", "chunk": 4},
        }.items():
            cache.store(spec, cfg, kernel, params, backend="hybrid")
        harness = HybridBackend.for_pricing(cfg)
        host_s = harness.cpu_time_s(1.0)
        report = OnlineScheduler(harness, cache=cache).report
        assert report.warm_started and report.ratio == 0.3563
        assert harness.selection.block_cols == 1
        assert harness.cpu_time_s(1.0) == host_s
        assert "runtime" not in harness.describe()

    def test_smoke_objective_isolation_in_band(self, tmp_path):
        """Regression: a cache populated under the default time
        objective never warm-starts an energy campaign — each objective
        re-tunes once and then warm-starts itself."""
        cache_path = tmp_path / "tuning.json"
        timed = run(sedov(), self._config(cache_path)).scheduler
        assert timed.converged and not timed.warm_started
        assert timed.objective == "time"

        energy = run(
            sedov(), self._config(cache_path, tuning_objective="energy")
        ).scheduler
        assert not energy.warm_started  # time's winners must not leak
        assert energy.converged
        assert energy.objective == "energy"

        # Both objectives now live side by side in one cache file ...
        rewarm_t = run(sedov(), self._config(cache_path)).scheduler
        rewarm_e = run(
            sedov(), self._config(cache_path, tuning_objective="energy")
        ).scheduler
        assert rewarm_t.warm_started and rewarm_t.objective == "time"
        assert rewarm_e.warm_started and rewarm_e.objective == "energy"

    def test_manifest_reports_campaign_identity(self, tmp_path):
        """Objective / strategy / evaluation count surface end to end."""
        cache_path = tmp_path / "tuning.json"
        report = run(
            sedov(),
            self._config(cache_path, tuning_objective="edp",
                         tuning_strategy="local"),
        )
        tuning = report.manifest.solver["tuning"]
        assert tuning["objective"] == "edp"
        assert tuning["strategy"] == "local"
        assert not tuning["warm_started"]
        assert tuning["converged"]
        assert 0 < tuning["evaluations"] <= tuning["feasible_points"]
        sched = report.scheduler
        assert sched.evaluations == tuning["evaluations"]
        assert sched.feasible_points == tuning["feasible_points"]


# ---------------------------------------------------------------------------
# TuningCache durability


class TestCacheDurability:
    def test_corrupt_json_recovered_leniently(self, tmp_path):
        path = tmp_path / "tuning.json"
        path.write_text("{ not json")
        cache = TuningCache(path)
        assert cache.recovered_from_corruption
        spec, cfg = get_gpu("K20"), FEConfig(dim=2, order=2, nzones=16)
        assert cache.lookup(spec, cfg, "kernel3") is None
        # The cache stays usable: a store round-trips through valid JSON.
        cache.store(spec, cfg, "kernel3", {"matrices_per_block": 8})
        assert json.loads(path.read_text())
        assert TuningCache(path).lookup(spec, cfg, "kernel3") == {
            "matrices_per_block": 8
        }

    def test_corrupt_json_raises_in_strict_mode(self, tmp_path):
        path = tmp_path / "tuning.json"
        path.write_text("{ not json")
        with pytest.raises(TuningCacheCorruptionError):
            TuningCache(path, strict=True)

    def test_non_dict_payload_is_corruption(self, tmp_path):
        path = tmp_path / "tuning.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(TuningCacheCorruptionError):
            TuningCache(path, strict=True)
        assert TuningCache(path).recovered_from_corruption

    def test_store_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "tuning.json"
        cache = TuningCache(path)
        cache.store(get_gpu("K20"), FEConfig(dim=2, order=2, nzones=16),
                    "kernel3", {"matrices_per_block": 8})
        assert [f for f in os.listdir(tmp_path)] == ["tuning.json"]


# ---------------------------------------------------------------------------
# Resilience: sticky GPU fault swaps hybrid -> cpu-fused


class TestBackendSwapOnFault:
    def test_smoke_sticky_gpu_fault_swaps_backend(self):
        """Acceptance: under a sticky GPU fault the resilient driver
        swaps the hybrid backend for cpu-fused, stops the scheduler,
        and the physics still matches the fault-free run bit-for-bit
        (the two backends share the fused arithmetic)."""
        plain, _ = run_backend("cpu-fused", steps=8)
        injector = FaultInjector([FaultSpec("gpu", 3, sticky=True)])
        fe_cfg = FEConfig(dim=2, order=2, nzones=16)
        offload = GpuOffloadPricer(
            HybridExecutor(fe_cfg, get_cpu("E5-2670"), get_gpu("K20"), nmpi=1),
            injector=injector,
        )
        solver = LagrangianHydroSolver(
            sedov(), RunConfig(backend="hybrid")
        )
        driver = ResilientDriver(
            solver, injector=injector, checkpoint_every=4, offload=offload
        )
        res = driver.run(t_final=FAR, max_steps=8)
        assert res.report.fallbacks >= 1
        assert solver.backend.name == "cpu-fused"
        assert any(
            ev.kind == "gpu" and "backend swap" in ev.action
            for ev in res.report.faults
        )
        assert state_hash(res.state) == state_hash(plain.state)

    def test_fault_free_hybrid_run_keeps_backend(self):
        solver = LagrangianHydroSolver(
            sedov(), RunConfig(backend="hybrid")
        )
        driver = ResilientDriver(solver, checkpoint_every=4)
        driver.run(t_final=FAR, max_steps=6)
        assert solver.backend.name == "hybrid"

    def test_solver_swap_backend_repoints_force_fn(self):
        solver = LagrangianHydroSolver(sedov())
        try:
            assert solver.backend.name == "cpu-fused"
            solver.swap_backend("hybrid")
            assert solver.backend.name == "hybrid"
            assert solver.integrator.force_fn == solver.backend.force_fn
            res = solver.run(t_final=FAR, max_steps=2)
            assert res.steps == 2
        finally:
            solver.close()


# ---------------------------------------------------------------------------
# Hybrid backend pricing surface (what the scheduler drives)


class TestHybridBackendModel:
    def test_ratio_scales_gpu_side_linearly(self):
        b = HybridBackend()
        solver = LagrangianHydroSolver(sedov())
        try:
            b.attach(solver)
            full = b.gpu_time_s(1.0)
            assert b.gpu_time_s(0.5) == pytest.approx(full / 2)
            assert b.cpu_time_s(0.0) == 0.0
            assert b.cpu_time_s(1.0) > 0.0
        finally:
            solver.close()

    def test_apply_selection_reprices(self):
        from repro.kernels.registry import KernelSelection

        b = HybridBackend()
        solver = LagrangianHydroSolver(sedov())
        try:
            b.attach(solver)
            before = b.gpu_time_s(1.0)
            b.apply_selection(KernelSelection(gemm_matrices_per_block=1,
                                              batched_matrices_per_block=1,
                                              block_cols=1))
            after = b.gpu_time_s(1.0)
            assert after != before  # degenerate tiling must change the price
        finally:
            solver.close()


class TestSolverRelease:
    """The solver owns its backend, and the backend holds the solver
    weakly: a closed solver that is dropped is freed at once, not when
    the cyclic garbage collector next runs."""

    @pytest.mark.parametrize("backend, ranks", [
        *((name, 0) for name in BACKEND_NAMES), ("cpu-fused", 2),
    ])
    def test_smoke_closed_solver_is_freed_without_gc(self, backend, ranks):
        cfg = RunConfig(backend=backend, ranks=ranks)
        gc.collect()
        gc.disable()
        try:
            solver = LagrangianHydroSolver(sedov(zones=3), cfg)
            solver.close()
            ref = weakref.ref(solver)
            del solver
            assert ref() is None
        finally:
            gc.enable()
