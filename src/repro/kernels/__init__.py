"""The redesigned CUDA kernel set (paper Table 2), simulated.

Each kernel module is a **cost descriptor** (`KernelCost`): flops,
bytes per memory level and launch configuration, per optimization
*version* (v1 naive, v2 shared-memory, v3 blocked/tuned; plus the base
register-spilling monolith and the CUBLAS baselines), which the
`gpu.execution` roofline model turns into time/bandwidth/power.

The functional arithmetic lives where the solver runs it, so the
simulated GPU and the CPU produce the same numbers (the paper's Section
4.1 validation): kernels 1-7 are `ForceEngine.point_geometry` and
`ForceEngine._fused_stages` (traced under the kernel 1, 2 and 7 span
labels), kernels 8 and 10 are `force_times_one` and
`force_transpose_times_v`, kernel 9 is the momentum PCG
(`hydro.momentum`), and kernel 11 is `mass_e.solve`.

Kernel numbering follows Table 2:
  1 kernel_CalcAjugate_det   SVD, eigenvalues, adjugate
  2 kernel_loop_grad_v       EoS, stress tensor
  3 kernel_PzVz_Phi_F        batched grad v, Jacobians
  4 kernel_Phi_sigma_hat_z   stress application
  5 kernel_NN_dgemmBatched   auxiliary DIM x DIM GEMM
  6 kernel_NT_dgemmBatched   auxiliary DIM x DIM GEMM
  7 kernel_loop_zones        Fz = Az B^T
  8 kernel_loop_zones_dv_dt  -F . 1
  9 CUDA_PCG                 momentum solve (kernel set)
 10 kernel_dgemvt            F^T . v
 11 SpMV                     energy solve via CSR SpMV
"""

from repro.kernels.config import FEConfig
from repro.kernels.base import KernelSpec, KERNEL_TABLE
from repro.kernels.registry import all_kernels, get_kernel
from repro.kernels import cublas

__all__ = ["FEConfig", "KernelSpec", "KERNEL_TABLE", "all_kernels", "get_kernel", "cublas"]
