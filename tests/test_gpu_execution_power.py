"""Tests for the GPU roofline execution and power models."""

import pytest

from repro.gpu.execution import KERNEL_LAUNCH_OVERHEAD_S, KernelCost, execute_kernel
from repro.gpu.memory import MemoryHierarchy
from repro.gpu.pcie import PCIeModel
from repro.gpu.power import GPUPowerModel
from repro.gpu.specs import get_gpu


def cost(**kw):
    defaults = dict(name="k", flops=1e9, dram_bytes=1e8, threads_per_block=256,
                    blocks=100, regs_per_thread=32)
    defaults.update(kw)
    return KernelCost(**defaults)


class TestExecution:
    def test_bandwidth_bound_kernel(self):
        k20 = get_gpu("K20")
        c = cost(flops=1e6, dram_bytes=2.08e9, dram_efficiency=1.0)
        t = execute_kernel(k20, c)
        assert t.bound == "dram"
        assert t.time_s == pytest.approx(0.01, rel=0.01)
        assert t.bandwidth_gbs["dram"] == pytest.approx(208.0, rel=0.02)

    def test_compute_bound_kernel(self):
        k20 = get_gpu("K20")
        c = cost(flops=1.17e10, dram_bytes=1e6, compute_efficiency=1.0)
        t = execute_kernel(k20, c)
        assert t.bound == "compute"
        assert t.gflops == pytest.approx(1170.0, rel=0.01)

    def test_dram_efficiency_slows(self):
        k20 = get_gpu("K20")
        fast = execute_kernel(k20, cost(dram_bytes=1e9, dram_efficiency=1.0))
        slow = execute_kernel(k20, cost(dram_bytes=1e9, dram_efficiency=0.25))
        assert slow.time_s > 2 * fast.time_s

    def test_low_occupancy_derates(self):
        k20 = get_gpu("K20")
        good = execute_kernel(k20, cost(flops=1e10, compute_efficiency=1.0))
        bad = execute_kernel(
            k20, cost(flops=1e10, compute_efficiency=1.0, shared_per_block=40 * 1024)
        )
        assert bad.time_s > good.time_s

    def test_launch_overhead_floor(self):
        k20 = get_gpu("K20")
        t = execute_kernel(k20, cost(flops=1.0, dram_bytes=8.0))
        assert t.time_s >= KERNEL_LAUNCH_OVERHEAD_S

    def test_infeasible_config_raises(self):
        k20 = get_gpu("K20")
        with pytest.raises(ValueError):
            execute_kernel(k20, cost(shared_per_block=100 * 1024))

    def test_scaled_cost(self):
        c = cost()
        half = c.scaled(0.5)
        assert half.flops == c.flops / 2
        assert half.dram_bytes == c.dram_bytes / 2

    def test_busy_fractions_bounded(self):
        k20 = get_gpu("K20")
        t = execute_kernel(k20, cost(l2_bytes=5e8, shared_bytes=5e8))
        for v in t.busy.values():
            assert 0.0 <= v <= 1.0
        assert t.busy["dram"] > 0

    def test_achieved_never_exceeds_roof(self):
        """No optimized 3D Q2 corner-force kernel beats the K20 compute
        peak; on-chip-bound kernels may beat the *DRAM* roof."""
        from repro.kernels import FEConfig
        from repro.kernels.registry import corner_force_costs

        k20 = get_gpu("K20")
        cfg = FEConfig(dim=3, order=2, nzones=512)
        for c in corner_force_costs(cfg, "optimized"):
            assert execute_kernel(k20, c).gflops <= k20.peak_dp_gflops * 1.001

    def test_validation(self):
        with pytest.raises(ValueError):
            cost(flops=-1)
        with pytest.raises(ValueError):
            cost(compute_efficiency=0.0)
        with pytest.raises(ValueError):
            cost(latency_bound_factor=0.5)


class TestMemoryHierarchy:
    def test_traffic_energy_monotone(self):
        mem = MemoryHierarchy.of(get_gpu("K20"))
        assert mem.traffic_energy_j(1e9, 0, 0) > mem.traffic_energy_j(0, 1e9, 0)
        assert mem.traffic_energy_j(0, 1e9, 0) > mem.traffic_energy_j(0, 0, 1e9)


class TestPowerModel:
    def test_idle(self):
        pm = GPUPowerModel(get_gpu("K20"))
        assert pm.active_power([]) == 20.0

    def test_active_floor_and_tdp_cap(self):
        k20 = get_gpu("K20")
        pm = GPUPowerModel(k20)
        tiny = execute_kernel(k20, cost(flops=1.0, dram_bytes=8.0))
        p = pm.active_power([tiny])
        assert k20.active_base_w <= p <= k20.tdp_w

    def test_dram_heavy_draws_more_than_light(self):
        k20 = get_gpu("K20")
        pm = GPUPowerModel(k20)
        heavy = execute_kernel(k20, cost(dram_bytes=5e9, dram_efficiency=1.0))
        light = execute_kernel(k20, cost(flops=1e8, dram_bytes=1e6))
        assert pm.active_power([heavy]) > pm.active_power([light])

    def test_hyperq_overhead(self):
        k20 = get_gpu("K20")
        pm = GPUPowerModel(k20)
        t = [execute_kernel(k20, cost())]
        p1 = pm.active_power(t, concurrent_clients=1)
        p8 = pm.active_power(t, concurrent_clients=8)
        assert p8 > p1
        # Overhead saturates at the queue count.
        p64 = pm.active_power(t, concurrent_clients=64)
        p32 = pm.active_power(t, concurrent_clients=32)
        assert p64 == p32

    def test_validation(self):
        pm = GPUPowerModel(get_gpu("K20"))
        t = [execute_kernel(get_gpu("K20"), cost())]
        with pytest.raises(ValueError):
            pm.active_power(t, duty_cycle=0.0)
        with pytest.raises(ValueError):
            pm.active_power(t, concurrent_clients=0)


class TestPCIe:
    def test_transfer_time(self):
        pcie = PCIeModel(get_gpu("K20"), efficiency=1.0)
        t = pcie.transfer_time_s(16e9, ncalls=1)
        assert t == pytest.approx(1.0 + PCIeModel.LATENCY_S, rel=1e-6)

    def test_state_plan_much_smaller_than_full_matrix(self):
        """The Section 3.1.2 design point: shipping F would dwarf the
        state vectors."""
        state = PCIeModel.state_vectors_plan(35937, 32768, 3)
        full = PCIeModel.full_matrix_plan(4096, 27, 8, 3, 35937, 32768)
        assert full.total > 5 * state.total

    def test_validation(self):
        with pytest.raises(ValueError):
            PCIeModel(get_gpu("K20"), efficiency=0.0)
        pcie = PCIeModel(get_gpu("K20"))
        with pytest.raises(ValueError):
            pcie.transfer_time_s(-1.0)
