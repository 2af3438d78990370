"""Vendor-library baseline performance models.

The paper compares its custom kernels against CUBLAS:

* `cublasDgemmBatched` on DIM x DIM batches "has exactly the same
  purpose but only achieves 1.3 Gflop/s" (Section 3.2) — tuned for
  large matrices, it cannot keep the device busy on 2x2/3x3 batches;
* batched DGEMV emulated by `cublasDgemv` in one stream per zone, "as
  recommended in the User Guide", reaches 0.2 Gflop/s against the
  custom kernel's 18 (Table 4) — per-call launch latency dominates.

These are *measured-baseline* models: the paper reports the numbers and
we encode the mechanism (launch-bound throughput) that produces them.
"""

from __future__ import annotations

from repro.gpu.execution import KERNEL_LAUNCH_OVERHEAD_S, KernelCost
from repro.gpu.specs import GPUSpec

__all__ = [
    "cublas_dgemm_batched_cost",
    "streamed_cublas_dgemv_time_s",
    "streamed_cublas_dgemv_gflops",
    "CUBLAS_STREAM_OVERHEAD_S",
]

# Per-stream submission + synchronization cost of the streamed
# cublasDgemv pattern (driver work per call dominates tiny GEMVs).
CUBLAS_STREAM_OVERHEAD_S = 1.5e-6


def cublas_dgemm_batched_cost(batches: int, m: int, n: int, k: int) -> KernelCost:
    """Cost descriptor of cublasDgemmBatched on `batches` m x n x k GEMMs.

    Small operands (max dim < 16) pin the routine at its measured
    small-batch throughput by inflating the latency factor; large
    operands run near the library's usual efficiency.
    """
    if min(batches, m, n, k) < 1:
        raise ValueError("all sizes must be positive")
    flops = 2.0 * batches * m * n * k
    bytes_io = 8.0 * batches * (m * k + k * n + m * n)
    if max(m, n, k) < 16 or (m * n * k) <= 4096:
        # Launch-config mismatch: one block per tiny matrix, almost all
        # threads idle. Model as severely latency bound.
        return KernelCost(
            name="cublasDgemmBatched",
            flops=flops,
            dram_bytes=bytes_io,
            threads_per_block=256,
            blocks=batches,
            regs_per_thread=64,
            shared_per_block=16 * 1024,
            compute_efficiency=0.0015,  # ~1.3 Gflop/s on K20-class peaks
            dram_efficiency=0.25,
        )
    if max(m, n, k) < 128:
        # Mid-size operands (e.g. kernel 7's 81 x 8 x 64 zones): the
        # library's large-matrix blocking keeps most threads idle.
        return KernelCost(
            name="cublasDgemmBatched",
            flops=flops,
            dram_bytes=bytes_io,
            threads_per_block=256,
            blocks=batches,
            regs_per_thread=64,
            shared_per_block=24 * 1024,
            compute_efficiency=0.03,
            dram_efficiency=0.5,
        )
    return KernelCost(
        name="cublasDgemmBatched",
        flops=flops,
        dram_bytes=bytes_io,
        threads_per_block=256,
        blocks=batches,
        regs_per_thread=64,
        shared_per_block=24 * 1024,
        compute_efficiency=0.55,
        dram_efficiency=0.8,
    )


def streamed_cublas_dgemv_time_s(spec: GPUSpec, batches: int, m: int, n: int) -> float:
    """Wall time of `batches` cublasDgemv calls in `batches` streams.

    Each call pays the launch + stream submission overhead; the GEMV
    itself is tiny. Concurrency across streams is poor for such small
    grids (one block each), so calls effectively serialize on the
    front-end.
    """
    if min(batches, m, n) < 1:
        raise ValueError("all sizes must be positive")
    per_call_compute = 2.0 * m * n / (spec.peak_dp_gflops * 1e9 * 0.01)
    per_call = KERNEL_LAUNCH_OVERHEAD_S + CUBLAS_STREAM_OVERHEAD_S + per_call_compute
    return batches * per_call


def streamed_cublas_dgemv_gflops(spec: GPUSpec, batches: int, m: int, n: int) -> float:
    """Achieved Gflop/s of the streamed pattern (Table 4's 0.2)."""
    t = streamed_cublas_dgemv_time_s(spec, batches, m, n)
    return 2.0 * batches * m * n / t / 1e9
