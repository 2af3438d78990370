"""Additional property-based suites across the substrates."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fem.mesh import cartesian_mesh_2d
from repro.fem.spaces import H1Space, L2Space
from repro.gpu import execute_kernel, get_gpu
from repro.gpu.execution import KernelCost
from repro.runtime.mpi_sim import CommCostModel, SimulatedComm
from repro.tuning import Autotuner, ParamSpace


class TestCommProperties:
    @given(
        nranks=st.integers(1, 8),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_allreduce_min_is_global_min(self, nranks, seed):
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal(nranks)
        comm = SimulatedComm(nranks)
        assert comm.wait(comm.iallreduce_min_batch(vals)) == min(vals.tolist())

    @given(nranks=st.integers(2, 16), nbytes=st.floats(8, 1e6))
    @settings(max_examples=25, deadline=None)
    def test_allreduce_cost_monotone_in_ranks(self, nranks, nbytes):
        m = CommCostModel()
        assert m.allreduce_time(nranks, nbytes) >= m.allreduce_time(max(nranks // 2, 1), nbytes)

    @given(seed=st.integers(0, 2**31), nranks=st.integers(2, 6))
    @settings(max_examples=20, deadline=None)
    def test_allreduce_sum_order_invariant(self, seed, nranks):
        """The collective result is independent of contribution order
        up to roundoff (commutativity of the reduction)."""
        rng = np.random.default_rng(seed)
        stacked = rng.standard_normal((nranks, 7))
        comm = SimulatedComm(nranks)
        a = comm.wait(comm.iallreduce_sum_stacked(stacked))
        b = comm.wait(comm.iallreduce_sum_stacked(stacked[::-1]))
        assert np.allclose(a, b, atol=1e-12)


class TestExecutionProperties:
    K20 = get_gpu("K20")

    @given(
        flops=st.floats(1e6, 1e11),
        dram=st.floats(1e4, 1e9),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=30, deadline=None)
    def test_time_positive_and_rates_bounded(self, flops, dram, seed):
        c = KernelCost(name="k", flops=flops, dram_bytes=dram,
                       threads_per_block=256, blocks=64)
        t = execute_kernel(self.K20, c)
        assert t.time_s > 0
        assert t.gflops <= self.K20.peak_dp_gflops * 1.001
        assert t.bandwidth_gbs["dram"] <= self.K20.mem_bandwidth_gbs * 1.001

    @given(flops=st.floats(1e7, 1e10), factor=st.floats(1.1, 8.0))
    @settings(max_examples=25, deadline=None)
    def test_more_work_never_faster(self, flops, factor):
        base = KernelCost(name="k", flops=flops, dram_bytes=flops / 4,
                          threads_per_block=256, blocks=64)
        t1 = execute_kernel(self.K20, base)
        t2 = execute_kernel(self.K20, base.scaled(factor))
        assert t2.time_s >= t1.time_s

    @given(flops=st.floats(1e7, 1e10))
    @settings(max_examples=20, deadline=None)
    def test_scaling_work_is_homogeneous(self, flops):
        """Twice the work takes at most twice-plus-overhead the time."""
        base = KernelCost(name="k", flops=flops, dram_bytes=flops / 2,
                          threads_per_block=256, blocks=64)
        t1 = execute_kernel(self.K20, base).time_s
        t2 = execute_kernel(self.K20, base.scaled(2.0)).time_s
        assert t2 <= 2.0 * t1 + 1e-5


class TestAutotunerProperties:
    @given(
        seed=st.integers(0, 2**31),
        n=st.integers(2, 6),
    )
    @settings(max_examples=25, deadline=None)
    def test_noiseless_tuning_finds_true_optimum(self, seed, n):
        rng = np.random.default_rng(seed)
        times = {i: float(t) for i, t in enumerate(rng.uniform(0.5, 2.0, n))}
        tuner = Autotuner(lambda c: times[c["i"]], ParamSpace(i=list(range(n))),
                          steps_per_period=1)
        best = tuner.tune().best["i"]
        assert times[best] == min(times.values())

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_constraints_never_select_infeasible(self, seed):
        rng = np.random.default_rng(seed)
        feasible = set(rng.choice(10, size=5, replace=False).tolist())
        space = ParamSpace(i=list(range(10))).constrain(lambda c: c["i"] in feasible)
        tuner = Autotuner(lambda c: 1.0 + c["i"] * 0.01, space, steps_per_period=1)
        assert tuner.tune().best["i"] in feasible


class TestSpacesProperties:
    @given(
        nx=st.integers(1, 4),
        ny=st.integers(1, 4),
        order=st.integers(1, 3),
    )
    @settings(max_examples=20, deadline=None)
    def test_h1_dof_count_formula(self, nx, ny, order):
        sp = H1Space(cartesian_mesh_2d(nx, ny), order)
        assert sp.ndof == (order * nx + 1) * (order * ny + 1)

    @given(
        nx=st.integers(1, 4),
        ny=st.integers(1, 4),
        order=st.integers(0, 3),
    )
    @settings(max_examples=20, deadline=None)
    def test_l2_dof_count_formula(self, nx, ny, order):
        sp = L2Space(cartesian_mesh_2d(nx, ny), order)
        assert sp.ndof == nx * ny * (order + 1) ** 2

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_gather_scatter_roundtrip_on_partition(self, seed):
        """scatter_add(gather(f)) multiplies each dof by its zone
        multiplicity — gather/scatter bookkeeping is exact."""
        rng = np.random.default_rng(seed)
        sp = H1Space(cartesian_mesh_2d(3, 2), 2)
        f = rng.standard_normal(sp.ndof)
        mult = np.zeros(sp.ndof)
        np.add.at(mult, sp.ldof.reshape(-1), 1.0)
        assert np.allclose(sp.scatter_add(sp.gather(f)), mult * f, atol=1e-12)
