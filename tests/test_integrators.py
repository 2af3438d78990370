"""Tests for the time integrator family.

The headline: RK2Avg conserves total energy to roundoff (the Table 6
mechanism); forward Euler drifts at O(dt); classic RK4 drifts at
O(dt^4) — demonstrating the conservation is a property of the paired
update, not of the spatial discretization.
"""

import numpy as np
import pytest

from repro import LagrangianHydroSolver, RunConfig, SedovProblem
from repro.hydro.integrator import make_integrator


def run_with(integrator: str, cfl=0.25, t_final=0.05, zones=4):
    p = SedovProblem(dim=2, order=2, zones_per_dim=zones)
    s = LagrangianHydroSolver(p, RunConfig(integrator=integrator, cfl=cfl))
    res = s.run(t_final=t_final)
    rel = abs(res.energy_change) / res.energy_history[0].total
    return s, res, rel


class TestConservationHierarchy:
    def test_rk2avg_machine_precision(self):
        _, res, rel = run_with("rk2avg")
        assert res.reached_t_final
        assert rel < 1e-12

    def test_euler_drifts_first_order(self):
        _, res, rel = run_with("euler")
        assert res.reached_t_final
        assert rel > 1e-6  # visibly non-conservative

    def test_rk4_between(self):
        _, res4, rel4 = run_with("rk4")
        _, _, rel_euler = run_with("euler")
        _, _, rel_rk2 = run_with("rk2avg")
        assert res4.reached_t_final
        assert rel_rk2 < rel4 < rel_euler

    def test_euler_drift_shrinks_with_dt(self):
        """First-order convergence of the Euler energy error."""
        _, _, rel_coarse = run_with("euler", cfl=0.4)
        _, _, rel_fine = run_with("euler", cfl=0.1)
        assert rel_fine < rel_coarse

    def test_all_produce_similar_physics(self):
        """The integrators agree on the flow itself to truncation level."""
        s2, _, _ = run_with("rk2avg", cfl=0.1)
        s4, _, _ = run_with("rk4", cfl=0.1)
        assert np.allclose(s2.state.x, s4.state.x, atol=5e-3)
        assert np.allclose(s2.state.v, s4.state.v, atol=5e-2)


class TestFactory:
    def test_unknown_name(self):
        p = SedovProblem(dim=2, order=1, zones_per_dim=2)
        with pytest.raises(ValueError):
            LagrangianHydroSolver(p, RunConfig(integrator="leapfrog"))

    def test_rk4_costs_more_force_evals(self):
        _, res2, _ = run_with("rk2avg", t_final=0.02)
        _, res4, _ = run_with("rk4", t_final=0.02)
        evals2 = res2.workload.force_evals / max(res2.steps, 1)
        evals4 = res4.workload.force_evals / max(res4.steps, 1)
        assert evals4 > evals2

    def test_euler_single_eval_per_step(self):
        _, res, _ = run_with("euler", t_final=0.02)
        # initialize_dt adds one; each step adds exactly one.
        assert res.workload.force_evals == res.steps + 1


class TestSolveCounts:
    """`WorkloadRecorder.pcg_solves` counts what the integrator ran: one
    PCG solve per velocity component of every momentum solve."""

    @pytest.mark.parametrize("name, solves_per_step", [
        ("euler", 1), ("rk2avg", 2), ("rk4", 4),
    ])
    def test_pcg_solves_match_what_ran(self, name, solves_per_step):
        p = SedovProblem(dim=2, order=2, zones_per_dim=4)
        s = LagrangianHydroSolver(p, RunConfig(integrator=name))
        ran = {"solves": 0, "iterations": 0}
        solve = s.momentum.solve

        def counted(rhs):
            accel = solve(rhs)
            ran["solves"] += accel.shape[1]
            ran["iterations"] += s.momentum.last_info.iterations
            return accel

        s.momentum.solve = counted
        res = s.run(t_final=1.0, max_steps=5)
        w = res.workload
        assert w.rejected_steps == 0
        assert w.pcg_solves == ran["solves"] == solves_per_step * p.mesh.dim * res.steps
        assert w.pcg_iterations == ran["iterations"]
        assert w.pcg_iters_per_solve == ran["iterations"] / ran["solves"]
