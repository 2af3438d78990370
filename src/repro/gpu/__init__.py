"""Simulated GPU hardware substrate.

The paper evaluates on NVIDIA Fermi (C2050) and Kepler (K10/K20/K20m)
GPUs, measuring kernel time with CUDA events and board power with NVML.
None of that hardware is available here, so this package implements the
substitution described in DESIGN.md: an analytic device model with

* a device catalog holding the published specifications the paper's own
  analysis uses (peak DP Gflop/s, memory bandwidth, TDP, shared memory
  and register file sizes, Hyper-Q queue count),
* a CUDA-style occupancy calculator,
* a roofline execution-time model over the three-level memory hierarchy
  the paper profiles (L1/shared, L2, device memory — Figure 8),
* a component-based power model (device-memory traffic is the dominant
  dynamic term, after Hong & Kim) that prices each phase's board power,
  the reading the paper takes from NVML,
* a simulated device that runs kernel phases on a clock, with Hyper-Q
  work queues, stream overlap and a PCI-E transfer model.

The millisecond RAPL/NVML poller of a live run is
`repro.telemetry.CounterSampler`.
"""

from repro.gpu.specs import GPUSpec, GPU_CATALOG, get_gpu
from repro.gpu.occupancy import OccupancyResult, occupancy
from repro.gpu.memory import MemoryHierarchy
from repro.gpu.execution import KernelCost, KernelTiming, execute_kernel
from repro.gpu.power import GPUPowerModel
from repro.gpu.pcie import PCIeModel
from repro.gpu.device import SimulatedGPU, KernelLaunchRecord
from repro.gpu.streams import StreamedPhase, overlap_phase

__all__ = [
    "GPUSpec",
    "GPU_CATALOG",
    "get_gpu",
    "OccupancyResult",
    "occupancy",
    "MemoryHierarchy",
    "KernelCost",
    "KernelTiming",
    "execute_kernel",
    "GPUPowerModel",
    "PCIeModel",
    "SimulatedGPU",
    "KernelLaunchRecord",
    "StreamedPhase",
    "overlap_phase",
]
