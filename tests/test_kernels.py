"""Tests for the kernel cost models and their paper-matching behaviour.

These tests pin the *shape* claims of the paper's Figures 4, 5, 7 and
Tables 2-4: which version wins, by roughly what factor, and where the
tuning optimum sits. Tolerances are deliberately loose — the models are
calibrated once, and these tests guard against regressions that would
silently break the reproduced narrative.
"""

import numpy as np
import pytest

from repro.gpu import execute_kernel, get_gpu
from repro.kernels import FEConfig
from repro.kernels.base import KERNEL_TABLE
from repro.kernels.base_quadloop import base_quadloop_cost
from repro.kernels.cublas import (
    cublas_dgemm_batched_cost,
    streamed_cublas_dgemv_gflops,
)
from repro.kernels.k11_spmv import kernel11_cost
from repro.kernels.k12_pointwise import kernel1_cost, kernel2_cost
from repro.kernels.k34_custom_gemm import (
    feasible_matrices_per_block,
    kernel3_cost,
    kernel4_cost,
)
from repro.kernels.k56_dgemm_batched import (
    batched_dgemm_cost,
    batched_dgemm_roofline_gflops,
    kernel5_cost,
)
from repro.kernels.k7_force import feasible_block_cols, kernel7_cost
from repro.kernels.k810_gemv import (
    batched_dgemv_cost,
    batched_dgemv_roofline_gflops,
    kernel8_cost,
)
from repro.kernels.k9_pcg import pcg_step_costs, spmv_cost
from repro.kernels.registry import all_kernels, corner_force_costs

K20 = get_gpu("K20")
C2050 = get_gpu("C2050")
CFG = FEConfig(dim=3, order=2, nzones=16**3)


class TestFEConfig:
    def test_paper_shapes_q2(self):
        assert CFG.nqp == 64
        assert CFG.ndof_kin_zone == 27
        assert CFG.vector_rows == 81
        assert CFG.ndof_thermo_zone == 8

    def test_paper_shapes_q4(self):
        cfg = FEConfig(dim=3, order=4, nzones=8)
        assert cfg.nqp == 512
        assert cfg.vector_rows == 375

    def test_from_solver(self):
        from repro import SedovProblem, LagrangianHydroSolver

        s = LagrangianHydroSolver(SedovProblem(dim=2, order=2, zones_per_dim=2))
        cfg = FEConfig.from_solver(s)
        assert cfg.dim == 2 and cfg.order == 2 and cfg.nzones == 4
        assert cfg.nqp == s.quad.nqp

    def test_validation(self):
        with pytest.raises(ValueError):
            FEConfig(dim=1, order=2, nzones=4)
        with pytest.raises(ValueError):
            FEConfig(dim=2, order=0, nzones=4)

    def test_mass_nnz_estimate_close_to_actual(self):
        from repro import SedovProblem, LagrangianHydroSolver

        s = LagrangianHydroSolver(SedovProblem(dim=2, order=2, zones_per_dim=8))
        cfg = FEConfig.from_solver(s)
        # The estimate double-counts zone-shared pairs, so it
        # overshoots by a bounded factor.
        assert s.mass_v.nnz <= cfg.mass_nnz_estimate < 1.5 * s.mass_v.nnz


class TestTable2Inventory:
    def test_eleven_kernels(self):
        assert len(KERNEL_TABLE) == 11
        assert {k.number for k in KERNEL_TABLE} == set(range(1, 12))

    def test_names_match_paper(self):
        by_number = {k.number: k for k in KERNEL_TABLE}
        assert by_number[1].name == "kernel_CalcAjugate_det"
        assert by_number[7].purpose == "Az B^T"
        assert by_number[9].name == "CUDA_PCG"

    def test_all_kernels_is_table(self):
        assert all_kernels() == KERNEL_TABLE


class TestFig4RegisterVsLocal:
    @pytest.mark.parametrize("kc", [kernel1_cost, kernel2_cost])
    def test_register_version_faster(self, kc):
        local = execute_kernel(K20, kc(CFG, "local"))
        reg = execute_kernel(K20, kc(CFG, "register"))
        assert reg.time_s < local.time_s

    def test_kernel2_speedup_near_4x(self):
        """'kernel 2 achieved a 4x speedup' on Kepler."""
        local = execute_kernel(K20, kernel2_cost(CFG, "local"))
        reg = execute_kernel(K20, kernel2_cost(CFG, "register"))
        assert 2.5 <= local.time_s / reg.time_s <= 6.0

    def test_local_version_is_memory_bound(self):
        t = execute_kernel(K20, kernel1_cost(CFG, "local"))
        assert t.bound in ("dram", "l2")

    def test_register_version_is_compute_bound(self):
        t = execute_kernel(K20, kernel1_cost(CFG, "register"))
        assert t.bound == "compute"

    def test_unknown_version(self):
        with pytest.raises(ValueError):
            kernel1_cost(CFG, "v9")


class TestFig5Kernel3Tuning:
    def test_curve_peaks_at_32_for_q2(self):
        times = {}
        for m in (1, 2, 4, 8, 16, 32):
            times[m] = execute_kernel(K20, kernel3_cost(CFG, "v3", m)).time_s
        best = min(times, key=lambda m: times[m])
        assert best == 32
        assert times[1] > 2 * times[32]

    def test_overfull_shared_eliminated(self):
        """m=128 at Q2 overfills shared memory — infeasible, as the
        paper's constraint elimination requires."""
        with pytest.raises(ValueError):
            execute_kernel(K20, kernel3_cost(CFG, "v3", 128))

    def test_feasible_m_shrinks_with_order(self):
        q2 = feasible_matrices_per_block(FEConfig(3, 2, 64))
        q4 = feasible_matrices_per_block(FEConfig(3, 4, 64))
        assert q2 == 32
        assert q4 < q2

    def test_high_occupancy_at_optimum(self):
        t = execute_kernel(K20, kernel3_cost(CFG, "v3", 32))
        assert t.occupancy.occupancy > 0.9

    def test_version_ladder(self):
        v1 = execute_kernel(K20, kernel3_cost(CFG, "v1"))
        v2 = execute_kernel(K20, kernel3_cost(CFG, "v2"))
        v3 = execute_kernel(K20, kernel3_cost(CFG, "v3"))
        assert v3.time_s < v2.time_s
        assert v3.time_s < v1.time_s


class TestKernels56:
    def test_tuned_near_60pct_of_roofline(self):
        """'we are able to achieve 60% of the theoretical peak
        performance of batched DGEMM on K20'."""
        roof = batched_dgemm_roofline_gflops(K20, 3)
        t = execute_kernel(K20, kernel5_cost(CFG, "tuned", 32))
        assert 0.45 <= t.gflops / roof <= 0.75

    def test_roofline_paper_values(self):
        """35 / 52 Gflop/s for DIM 2 / 3 on K20."""
        assert batched_dgemm_roofline_gflops(K20, 2) == pytest.approx(34.7, rel=0.02)
        assert batched_dgemm_roofline_gflops(K20, 3) == pytest.approx(52.0, rel=0.02)

    def test_cublas_at_measured_1_3(self):
        t = execute_kernel(K20, batched_dgemm_cost(CFG.npoints, 3, "cublas"))
        assert t.gflops == pytest.approx(1.3, rel=0.35)

    def test_v1_unaligned_much_slower(self):
        v1 = execute_kernel(K20, kernel5_cost(CFG, "v1"))
        tuned = execute_kernel(K20, kernel5_cost(CFG, "tuned", 32))
        assert tuned.gflops > 5 * v1.gflops

    def test_occupancy_98pct_at_32(self):
        t = execute_kernel(K20, kernel5_cost(CFG, "tuned", 32))
        assert t.occupancy.occupancy == pytest.approx(0.983, abs=0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            batched_dgemm_cost(0, 3)
        with pytest.raises(ValueError):
            batched_dgemm_cost(10, 4)
        with pytest.raises(ValueError):
            batched_dgemm_cost(10, 3, "v7")


class TestFig7Kernel7:
    def test_version_ladder(self):
        """v1 < v2 < v3; the library baseline loses to v3."""
        v1 = execute_kernel(K20, kernel7_cost(CFG, "v1"))
        v2 = execute_kernel(K20, kernel7_cost(CFG, "v2"))
        v3 = execute_kernel(K20, kernel7_cost(CFG, "v3"))
        cub = execute_kernel(K20, kernel7_cost(CFG, "cublas"))
        assert v2.time_s < v1.time_s
        assert v3.time_s < v2.time_s
        assert v3.time_s < cub.time_s

    def test_blocking_raises_occupancy(self):
        """v3's raison d'etre: smaller shared tiles, more blocks."""
        v2 = execute_kernel(K20, kernel7_cost(CFG, "v2"))
        v3 = execute_kernel(K20, kernel7_cost(CFG, "v3"))
        assert v3.occupancy.occupancy > v2.occupancy.occupancy

    def test_feasible_block_cols(self):
        assert feasible_block_cols(CFG) == 16
        q4 = FEConfig(3, 4, 64)
        assert feasible_block_cols(q4) < 16

    def test_validation(self):
        with pytest.raises(ValueError):
            kernel7_cost(CFG, "v5")
        with pytest.raises(ValueError):
            kernel7_cost(CFG, "v3", block_cols=0)


class TestTable4BatchedDGEMV:
    def test_custom_kernel_near_18_gflops(self):
        t = execute_kernel(C2050, batched_dgemv_cost(4096, 81, 8))
        assert t.gflops == pytest.approx(18.0, rel=0.2)

    def test_roofline_near_35(self):
        assert batched_dgemv_roofline_gflops(C2050, 81, 8) == pytest.approx(35.5, rel=0.15)

    def test_streamed_cublas_near_0_2(self):
        g = streamed_cublas_dgemv_gflops(C2050, 4096, 81, 8)
        assert g == pytest.approx(0.2, rel=0.35)

    def test_90x_gap(self):
        """'Our custom kernel is 90x faster than that of cublasDgemv'."""
        custom = execute_kernel(C2050, batched_dgemv_cost(4096, 81, 8)).gflops
        cub = streamed_cublas_dgemv_gflops(C2050, 4096, 81, 8)
        assert 40 <= custom / cub <= 180

    def test_kernel8_uses_config_shape(self):
        c = kernel8_cost(CFG)
        assert c.flops == 2.0 * CFG.nzones * 81 * 8

    def test_validation(self):
        with pytest.raises(ValueError):
            batched_dgemv_cost(0, 81, 8)
        with pytest.raises(ValueError):
            batched_dgemv_roofline_gflops(C2050, 0, 8)


class TestPCGAndSpMV:
    def test_pcg_costs_scale_with_iterations(self):
        c10 = pcg_step_costs(CFG, 10.0)
        c20 = pcg_step_costs(CFG, 20.0)
        assert sum(c.flops for c in c20) == pytest.approx(
            2 * sum(c.flops for c in c10)
        )

    def test_zero_iterations_empty(self):
        assert pcg_step_costs(CFG, 0.0) == []

    def test_spmv_memory_bound(self):
        t = execute_kernel(K20, spmv_cost(4.5e6, 3.6e4))
        assert t.bound == "dram"

    def test_kernel11_block_diag_nnz(self):
        c = kernel11_cost(CFG)
        assert c.flops == 2.0 * CFG.nzones * 64  # nnz = Z * P^2


class TestPipelines:
    def test_base_pipeline_content(self):
        costs = corner_force_costs(CFG, "base")
        assert costs[0].name.startswith("kernel_loop_quadrature_point")
        assert len(costs) == 4

    def test_optimized_pipeline_has_kernel5_twice(self):
        """'Other kernels will only be called once, except kernel 5
        twice' (Figure 6 note)."""
        costs = corner_force_costs(CFG, "optimized")
        k5 = [c for c in costs if c.name.startswith("kernel_NN_dgemm")]
        assert len(k5) == 2

    def test_optimized_faster_than_base(self):
        tb = sum(execute_kernel(K20, c).time_s for c in corner_force_costs(CFG, "base"))
        to = sum(execute_kernel(K20, c).time_s for c in corner_force_costs(CFG, "optimized"))
        assert to < 0.35 * tb  # the redesign's headline win

    def test_same_useful_flops_up_to_bookkeeping(self):
        """'both perform the same FLOPs' — the base monolith charges the
        same useful work as kernels 1-6."""
        base = base_quadloop_cost(CFG).flops
        opt = sum(
            c.flops
            for c in corner_force_costs(CFG, "optimized")
            if not c.name.startswith(("kernel_loop_zones", "kernel_dgemvt"))
        )
        assert base == pytest.approx(opt, rel=0.35)

    def test_unknown_implementation(self):
        with pytest.raises(ValueError):
            corner_force_costs(CFG, "fastest")
