"""Tests for the simulated GPU device (queues, timeline, energy)."""

import pytest

from repro.gpu.device import SimulatedGPU
from repro.gpu.execution import KernelCost
from repro.gpu.specs import get_gpu


def cost(name="k", flops=1e8, dram=1e7):
    return KernelCost(name=name, flops=flops, dram_bytes=dram,
                      threads_per_block=256, blocks=64, regs_per_thread=32)


class TestSimulatedGPU:
    def test_launch_advances_clock(self):
        gpu = SimulatedGPU(get_gpu("K20"))
        rep = gpu.run_phase([cost()])
        assert gpu.clock_s == pytest.approx(rep.time_s)
        assert rep.time_s > 0

    def test_energy_accumulates(self):
        gpu = SimulatedGPU(get_gpu("K20"))
        gpu.run_phase([cost()])
        e1 = gpu.total_energy_j
        gpu.run_phase([cost()])
        assert gpu.total_energy_j > e1

    def test_idle_energy(self):
        gpu = SimulatedGPU(get_gpu("K20"))
        gpu.idle(10.0)
        assert gpu.total_energy_j == pytest.approx(200.0)  # 10 s x 20 W
        assert gpu.clock_s == 10.0

    def test_phase_report(self):
        gpu = SimulatedGPU(get_gpu("K20"))
        rep = gpu.run_phase([cost("a"), cost("b")])
        assert rep.time_s > 0
        assert rep.power_w >= get_gpu("K20").active_base_w
        assert rep.energy_j == pytest.approx(rep.time_s * rep.power_w)
        assert len(rep.timings) == 2

    def test_hyperq_vs_serialization(self):
        """Same work from 8 clients: free on Kepler (32 queues), pays
        contention on Fermi (1 queue)."""
        work = [cost() for _ in range(8)]
        kepler = SimulatedGPU(get_gpu("K20")).run_phase(work, concurrent_clients=8)
        fermi = SimulatedGPU(get_gpu("C2050")).run_phase(work, concurrent_clients=8)
        k1 = SimulatedGPU(get_gpu("K20")).run_phase(work, concurrent_clients=1)
        assert kepler.time_s == pytest.approx(k1.time_s)
        fermi1 = SimulatedGPU(get_gpu("C2050")).run_phase(work, concurrent_clients=1)
        assert fermi.time_s > fermi1.time_s

    def test_hyperq_power_overhead(self):
        work = [cost()]
        p8 = SimulatedGPU(get_gpu("K20")).run_phase(work, concurrent_clients=8)
        p1 = SimulatedGPU(get_gpu("K20")).run_phase(work, concurrent_clients=1)
        assert p8.power_w > p1.power_w

    def test_breakdown(self):
        gpu = SimulatedGPU(get_gpu("K20"))
        gpu.run_phase([cost("x"), cost("x"), cost("y")])
        bd = gpu.kernel_time_breakdown()
        assert set(bd) == {"x", "y"}
        assert bd["x"] == pytest.approx(2 * bd["y"], rel=0.01)

    def test_validation(self):
        gpu = SimulatedGPU(get_gpu("K20"))
        with pytest.raises(ValueError):
            gpu.run_phase([cost()], concurrent_clients=0)
        with pytest.raises(ValueError):
            gpu.idle(-1.0)
