"""GPU device catalog.

Published specifications of the NVIDIA parts the paper uses or cites.
These numbers are the *inputs* to the simulation — the paper itself
derives its roofline analysis from the same values (e.g. "the bandwidth
of K20 is 208GB/s, which means it is able to get 26G data in double
precision per second", Section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GPUSpec", "GPU_CATALOG", "get_gpu"]


@dataclass(frozen=True)
class GPUSpec:
    """Static hardware description of one GPU board.

    Power figures: `tdp_w` is the board TDP; `idle_w` the long-idle
    power and `active_base_w` the floor observed as soon as any kernel
    runs (the paper reports 20 W and ~50 W for K20, Section 5.2).
    """

    name: str
    architecture: str
    year: int
    compute_capability: float
    sm_count: int
    clock_ghz: float
    peak_dp_gflops: float
    mem_bandwidth_gbs: float
    l2_bandwidth_gbs: float
    shared_bandwidth_gbs: float
    shared_kb_per_sm: int
    registers_per_sm: int
    max_threads_per_sm: int
    max_blocks_per_sm: int
    max_threads_per_block: int
    warp_size: int
    tdp_w: float
    idle_w: float
    active_base_w: float
    hyperq_queues: int
    pcie_gbs: float

    @property
    def peak_dp_per_watt(self) -> float:
        """DP Gflop/s per TDP watt (the paper's Figure 1 metric)."""
        return self.peak_dp_gflops / self.tdp_w


# On-chip bandwidths follow the usual per-SM aggregate estimates for the
# generation (shared memory delivers tens of bytes per clock per SM; L2
# roughly 2-3x device bandwidth).
GPU_CATALOG: dict[str, GPUSpec] = {
    "C1060": GPUSpec(
        name="C1060", architecture="Tesla", year=2008, compute_capability=1.3,
        sm_count=30, clock_ghz=1.30, peak_dp_gflops=78.0, mem_bandwidth_gbs=102.0,
        l2_bandwidth_gbs=0.0, shared_bandwidth_gbs=1248.0, shared_kb_per_sm=16,
        registers_per_sm=16384, max_threads_per_sm=1024, max_blocks_per_sm=8,
        max_threads_per_block=512, warp_size=32, tdp_w=188.0, idle_w=30.0,
        active_base_w=60.0, hyperq_queues=1, pcie_gbs=8.0,
    ),
    "C2050": GPUSpec(
        name="C2050", architecture="Fermi", year=2010, compute_capability=2.0,
        sm_count=14, clock_ghz=1.15, peak_dp_gflops=515.0, mem_bandwidth_gbs=144.0,
        l2_bandwidth_gbs=230.0, shared_bandwidth_gbs=1030.0, shared_kb_per_sm=48,
        registers_per_sm=32768, max_threads_per_sm=1536, max_blocks_per_sm=8,
        max_threads_per_block=1024, warp_size=32, tdp_w=238.0, idle_w=25.0,
        active_base_w=55.0, hyperq_queues=1, pcie_gbs=8.0,
    ),
    "M2090": GPUSpec(
        name="M2090", architecture="Fermi", year=2011, compute_capability=2.0,
        sm_count=16, clock_ghz=1.30, peak_dp_gflops=665.0, mem_bandwidth_gbs=178.0,
        l2_bandwidth_gbs=280.0, shared_bandwidth_gbs=1330.0, shared_kb_per_sm=48,
        registers_per_sm=32768, max_threads_per_sm=1536, max_blocks_per_sm=8,
        max_threads_per_block=1024, warp_size=32, tdp_w=250.0, idle_w=25.0,
        active_base_w=55.0, hyperq_queues=1, pcie_gbs=8.0,
    ),
    "K10": GPUSpec(
        name="K10", architecture="Kepler", year=2012, compute_capability=3.0,
        sm_count=8, clock_ghz=0.745, peak_dp_gflops=190.0, mem_bandwidth_gbs=160.0,
        l2_bandwidth_gbs=320.0, shared_bandwidth_gbs=1900.0, shared_kb_per_sm=48,
        registers_per_sm=65536, max_threads_per_sm=2048, max_blocks_per_sm=16,
        max_threads_per_block=1024, warp_size=32, tdp_w=225.0, idle_w=20.0,
        active_base_w=50.0, hyperq_queues=1, pcie_gbs=16.0,
    ),
    "K20": GPUSpec(
        name="K20", architecture="Kepler", year=2012, compute_capability=3.5,
        sm_count=13, clock_ghz=0.706, peak_dp_gflops=1170.0, mem_bandwidth_gbs=208.0,
        l2_bandwidth_gbs=450.0, shared_bandwidth_gbs=2200.0, shared_kb_per_sm=48,
        registers_per_sm=65536, max_threads_per_sm=2048, max_blocks_per_sm=16,
        max_threads_per_block=1024, warp_size=32, tdp_w=225.0, idle_w=20.0,
        active_base_w=50.0, hyperq_queues=32, pcie_gbs=16.0,
    ),
    "K20m": GPUSpec(
        name="K20m", architecture="Kepler", year=2012, compute_capability=3.5,
        sm_count=13, clock_ghz=0.706, peak_dp_gflops=1170.0, mem_bandwidth_gbs=208.0,
        l2_bandwidth_gbs=450.0, shared_bandwidth_gbs=2200.0, shared_kb_per_sm=48,
        registers_per_sm=65536, max_threads_per_sm=2048, max_blocks_per_sm=16,
        max_threads_per_block=1024, warp_size=32, tdp_w=225.0, idle_w=20.0,
        active_base_w=50.0, hyperq_queues=32, pcie_gbs=16.0,
    ),
}


def get_gpu(name: str) -> GPUSpec:
    """Look up a device by name (case-insensitive)."""
    key = name.upper().replace(" ", "")
    for cat_name, spec in GPU_CATALOG.items():
        if cat_name.upper() == key:
            return spec
    raise KeyError(f"unknown GPU '{name}'; known: {sorted(GPU_CATALOG)}")
