"""Tests for the MPI simulator, DOF groups, energy and hybrid executor."""

import numpy as np
import pytest

from repro.cpu import get_cpu
from repro.fem.mesh import cartesian_mesh_2d
from repro.fem.partition import partition_rcb
from repro.fem.spaces import H1Space
from repro.gpu import get_gpu
from repro.kernels import FEConfig
from repro.runtime.energy import EnergyAccount, GreenupReport, greenup
from repro.runtime.groups import build_dof_groups
from repro.runtime.hybrid import HybridExecutor
from repro.runtime.mpi_sim import CommCostModel, SimulatedComm


class TestSimulatedComm:
    def test_allreduce_min(self):
        comm = SimulatedComm(4)
        req = comm.iallreduce_min_batch(np.array([0.3, 0.1, 0.5, 0.2]))
        assert comm.wait(req) == 0.1
        assert comm.traffic.reductions == 1

    def test_allreduce_sum(self, rng):
        comm = SimulatedComm(3)
        arrs = [rng.standard_normal(5) for _ in range(3)]
        out = comm.wait(comm.iallreduce_sum_stacked(np.stack(arrs)))
        assert np.allclose(out, sum(arrs))

    def test_traffic_accounting(self):
        # One 8-byte min reduction over 4 ranks: a tree of 2 (P-1)
        # messages, each rank but the root sending up and receiving down.
        comm = SimulatedComm(4)
        comm.wait(comm.iallreduce_min_batch(np.zeros(4)))
        assert comm.traffic.messages == 6
        assert comm.traffic.bytes == 48
        assert comm.traffic.per_rank_dict() == {
            r: {"messages": 2, "bytes": 16} for r in (1, 2, 3)
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulatedComm(0)
        comm = SimulatedComm(2)
        with pytest.raises(ValueError):
            comm.iallreduce_min_batch(np.array([1.0]))
        with pytest.raises(ValueError):
            comm.iallreduce_sum_stacked(np.zeros((3, 2)))


class TestCommCostModel:
    def test_allreduce_log_scaling(self):
        m = CommCostModel()
        t8 = m.allreduce_time(8, 8)
        t4096 = m.allreduce_time(4096, 8)
        assert t4096 == pytest.approx(4 * t8)  # log2: 12 vs 3 rounds

    def test_single_rank_free(self):
        assert CommCostModel().allreduce_time(1, 8) == 0.0

    def test_allreduce_rounds_are_ceil_log2(self):
        # alpha = 1 s, beta = 0: the price is 2 seconds per tree round.
        m = CommCostModel(alpha_s=1.0, beta_s_per_byte=0.0)
        for p in range(1, 4097):
            rounds = 0
            while 2**rounds < p:
                rounds += 1
            assert m.allreduce_time(p, 8) == 2.0 * rounds
        assert m.allreduce_time(np.int64(5), 8) == 6.0  # NumPy integers too

    def test_p2p_alpha_beta(self):
        m = CommCostModel(alpha_s=1e-6, beta_s_per_byte=1e-9)
        assert m.p2p_time(1000) == pytest.approx(1e-6 + 1e-6)

    def test_validation(self):
        m = CommCostModel()
        with pytest.raises(ValueError):
            m.p2p_time(-1)
        with pytest.raises(ValueError):
            m.allreduce_time(0, 8)


class TestDofGroups:
    def setup_method(self):
        self.mesh = cartesian_mesh_2d(4, 2)
        self.space = H1Space(self.mesh, 2)
        # RCB cuts the 4x2 mesh across x: two 2x2-zone blocks.
        centroids = self.mesh.zone_vertex_coords().mean(axis=1)
        self.rank = partition_rcb(centroids, 2)

    def test_masters_partition_dofs(self):
        """Master assignment is a non-overlapping decomposition."""
        groups = build_dof_groups(self.space, self.rank)
        owned = [np.flatnonzero(groups.master == r) for r in range(groups.nranks)]
        all_owned = np.concatenate(owned)
        assert np.array_equal(np.sort(all_owned), np.arange(self.space.ndof))

    def test_interface_dofs_shared_by_two(self):
        groups = build_dof_groups(self.space, self.rank)
        g = groups.groups()
        assert (0, 1) in g
        # 2x2-zone blocks sharing one vertical edge: 2*2+1=5 Q2 nodes.
        assert g[(0, 1)].size == 5

    def test_master_is_min_rank(self):
        groups = build_dof_groups(self.space, self.rank)
        for dof, ranks in enumerate(groups.dof_ranks):
            assert groups.master[dof] == min(ranks)

    def test_single_rank_no_shared(self):
        groups = build_dof_groups(self.space, np.zeros(self.mesh.nzones, dtype=int))
        assert groups.shared_dofs[0].size == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            build_dof_groups(self.space, np.zeros(3, dtype=int))


class TestEnergyAccount:
    def test_accumulation(self):
        acc = EnergyAccount("x")
        acc.add("a", 2.0, 100.0)
        acc.add("b", 1.0, 50.0)
        assert acc.time_s == 3.0
        assert acc.energy_j == 250.0
        assert acc.average_power_w == pytest.approx(250.0 / 3.0)

    def test_validation(self):
        acc = EnergyAccount()
        with pytest.raises(ValueError):
            acc.add("a", -1.0, 10.0)


class TestGreenup:
    def test_paper_identity(self):
        """Greenup = Powerup x Speedup, exactly."""
        rep = GreenupReport("Q2-Q1", 10.0, 220.0, 5.0, 330.0)
        assert rep.speedup == pytest.approx(2.0)
        assert rep.powerup == pytest.approx(2 / 3)
        assert rep.greenup == pytest.approx(rep.speedup * rep.powerup)

    def test_energy_saved(self):
        rep = GreenupReport("Q4", 10.0, 220.0, 4.0, 386.0)
        assert rep.energy_saved_fraction == pytest.approx(1 - 1 / rep.greenup)

    def test_from_accounts(self):
        cpu = EnergyAccount("cpu")
        cpu.add("run", 10.0, 220.0)
        hyb = EnergyAccount("hybrid")
        hyb.add("run", 5.0, 330.0)
        rep = greenup(cpu, hyb, "Q2-Q1")
        assert rep.greenup > 1.0

    def test_empty_account_raises(self):
        with pytest.raises(ValueError):
            greenup(EnergyAccount(), EnergyAccount())


class TestHybridExecutor:
    CFG = FEConfig(dim=3, order=2, nzones=8**3)

    def make(self, **kw):
        defaults = dict(nmpi=8, pcg_iterations=25.0)
        defaults.update(kw)
        return HybridExecutor(self.CFG, get_cpu("E5-2670"), get_gpu("K20"), **defaults)

    def test_hybrid_faster_than_cpu(self):
        ex = self.make()
        assert ex.speedup() > 1.0

    def test_greenup_exceeds_one(self):
        """The paper's headline: hybrid is greener despite more power."""
        rep = self.make().greenup_report()
        assert rep.powerup < 1.0
        assert rep.speedup > 1.0
        assert rep.greenup > 1.0

    def test_higher_order_higher_speedup(self):
        """Figure 11's main claim: Q4 gains more than Q2."""
        q2 = HybridExecutor(FEConfig(3, 2, 8**3), get_cpu("E5-2670"), get_gpu("K20"), nmpi=8)
        q4 = HybridExecutor(FEConfig(3, 4, 4**3), get_cpu("E5-2670"), get_gpu("K20"), nmpi=8)
        assert q4.speedup() > q2.speedup()

    def test_corner_force_dominates_cpu_profile(self):
        """Table 1 range: 55-75(+)% corner force on the CPU."""
        f = self.make().cpu_only().step.fractions()
        assert 0.5 <= f["corner_force"] <= 0.85
        assert f["cg"] <= 0.40

    def test_cuda_pcg_only_single_task(self):
        assert not self.make(nmpi=8).use_cuda_pcg
        assert self.make(nmpi=1).use_cuda_pcg

    def test_single_task_pcg_on_gpu(self):
        ex = self.make(nmpi=1)
        rep = ex.hybrid()
        assert rep.step.cg_s > 0
        assert rep.gpu_power_w > get_gpu("K20").active_base_w

    def test_base_implementation_slower_and_hotter(self):
        """Figure 15's base-vs-optimized comparison."""
        opt = self.make(nmpi=1)
        base = self.make(nmpi=1, implementation="base")
        t_opt = opt.hybrid().step.corner_force_s
        t_base = base.hybrid().step.corner_force_s
        assert t_base > 2 * t_opt

    def test_cpu_power_matches_fig14(self):
        rep = self.make().cpu_only()
        # Two packages at 95 + 15 W.
        assert rep.cpu_power_w == pytest.approx(2 * 110.0, rel=0.01)

    def test_hybrid_cpu_power_matches_fig16(self):
        rep = self.make().hybrid()
        # ~75 W package + ~11 W DRAM per package.
        assert rep.cpu_power_w / 2 == pytest.approx(85.0, rel=0.1)

    def test_transfer_time_small_but_positive(self):
        rep = self.make().hybrid()
        assert 0 < rep.step.transfer_s < 0.2 * rep.step.total_s

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(nmpi=0)
        with pytest.raises(ValueError):
            self.make(pcg_iterations=-1)
        with pytest.raises(ValueError):
            HybridExecutor(self.CFG, get_cpu("E5-2670"), None, nmpi=1, use_cuda_pcg=True)
        ex = HybridExecutor(self.CFG, get_cpu("E5-2670"), None, nmpi=8)
        with pytest.raises(ValueError):
            ex.hybrid()
