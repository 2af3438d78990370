"""Integration tests: full solver runs on the paper's benchmark problems.

These are the Python analogs of the paper's validation (Section 4.1,
Table 6): total energy must be conserved to machine precision, the
physics must be sane (shock position, positivity), and boundary
conditions must hold throughout.
"""

import numpy as np
import pytest

from repro import (
    LagrangianHydroSolver,
    RunConfig,
    SedovProblem,
    TaylorGreenProblem,
    TriplePointProblem,
)


@pytest.fixture(scope="module")
def sedov_2d_run():
    p = SedovProblem(dim=2, order=2, zones_per_dim=4)
    s = LagrangianHydroSolver(p)
    return p, s, s.run(t_final=0.05)


class TestSedov2D:
    def test_reaches_final_time(self, sedov_2d_run):
        _, _, res = sedov_2d_run
        assert res.reached_t_final
        assert res.state.t == pytest.approx(0.05)

    def test_energy_conservation_machine_precision(self, sedov_2d_run):
        """The paper's Table 6: total change ~ 1e-13."""
        _, _, res = sedov_2d_run
        rel = abs(res.energy_change) / res.energy_history[0].total
        assert rel < 1e-11

    def test_kinetic_energy_grows_from_zero(self, sedov_2d_run):
        _, _, res = sedov_2d_run
        assert res.energy_history[0].kinetic == pytest.approx(0.0, abs=1e-15)
        assert res.energy_history[-1].kinetic > 1e-4

    def test_density_positive(self, sedov_2d_run):
        _, s, _ = sedov_2d_run
        rho = s.density_at_points()
        assert np.all(rho > 0)

    def test_boundary_velocity_stays_zero(self, sedov_2d_run):
        _, s, _ = sedov_2d_run
        assert np.allclose(s.state.v[s.bc.mask], 0.0, atol=1e-14)

    def test_outward_motion(self, sedov_2d_run):
        """The blast pushes the mesh outward near the origin."""
        _, s, _ = sedov_2d_run
        disp = s.state.x - s.kinematic.node_coords
        r0 = np.linalg.norm(s.kinematic.node_coords, axis=1)
        near = (r0 > 1e-12) & (r0 < 0.4)
        radial = np.sum(disp[near] * s.kinematic.node_coords[near], axis=1) / r0[near]
        assert radial.mean() > 0

    def test_workload_recorded(self, sedov_2d_run):
        _, _, res = sedov_2d_run
        w = res.workload
        assert w.steps == res.steps
        assert w.force_evals >= 2 * res.steps
        assert w.pcg_iterations > 0
        assert w.nzones == 16


class TestSedovShockPosition:
    def test_shock_radius_tracks_analytic(self):
        """Longer 2D run: density peak near the self-similar radius."""
        p = SedovProblem(dim=2, order=2, zones_per_dim=8)
        s = LagrangianHydroSolver(p)
        s.run(t_final=0.2)
        rho = s.density_at_points()
        pts = s.engine.geom_eval.physical_points(s.state.x).reshape(-1, 2)
        r_peak = np.linalg.norm(pts[np.argmax(rho.ravel())])
        expect = p.shock_radius(0.2)
        assert r_peak == pytest.approx(expect, rel=0.25)

    def test_max_compression_bounded(self):
        """Density never exceeds the strong-shock limit (gamma+1)/(gamma-1)."""
        p = SedovProblem(dim=2, order=2, zones_per_dim=8)
        s = LagrangianHydroSolver(p)
        s.run(t_final=0.2)
        rho = s.density_at_points()
        limit = (p.gamma + 1) / (p.gamma - 1)
        assert rho.max() < 1.25 * limit  # small overshoot allowed


class TestSedov3D:
    def test_short_run_conserves(self):
        p = SedovProblem(dim=3, order=2, zones_per_dim=2)
        s = LagrangianHydroSolver(p)
        res = s.run(t_final=0.02)
        assert res.reached_t_final
        rel = abs(res.energy_change) / res.energy_history[0].total
        assert rel < 1e-11

    def test_q1_also_works(self):
        p = SedovProblem(dim=3, order=1, zones_per_dim=3)
        s = LagrangianHydroSolver(p)
        res = s.run(t_final=0.02)
        assert res.reached_t_final


class TestTriplePoint:
    def test_initial_energy_matches_paper(self):
        """Table 6 reports total energy 1.005e+01 for the triple point."""
        p = TriplePointProblem(order=2, nx=14, ny=6)
        s = LagrangianHydroSolver(p)
        assert s.energies().total == pytest.approx(10.05, rel=1e-10)

    def test_conservation(self):
        p = TriplePointProblem(order=2, nx=7, ny=3)
        s = LagrangianHydroSolver(p)
        res = s.run(t_final=0.1)
        rel = abs(res.energy_change) / res.energy_history[0].total
        assert rel < 1e-11

    def test_shock_moves_right(self):
        """The driver pushes material in +x: net x-momentum develops."""
        p = TriplePointProblem(order=2, nx=7, ny=3)
        s = LagrangianHydroSolver(p)
        s.run(t_final=0.1)
        from repro.hydro.diagnostics import total_momentum

        mom = total_momentum(s.state, s.mass_v)
        assert mom[0] > 0

    def test_three_materials_present(self):
        p = TriplePointProblem(order=2, nx=14, ny=6)
        region = p.region_of_zones()
        assert set(region) == {0, 1, 2}


class TestTaylorGreen:
    def test_smooth_flow_keeps_energy(self):
        p = TaylorGreenProblem(order=3, zones_per_dim=3)
        s = LagrangianHydroSolver(p)
        res = s.run(t_final=0.05)
        rel = abs(res.energy_change) / res.energy_history[0].total
        assert rel < 1e-12

    def test_initial_kinetic_energy(self):
        p = TaylorGreenProblem(order=4, zones_per_dim=3)
        s = LagrangianHydroSolver(p)
        assert s.energies().kinetic == pytest.approx(p.initial_kinetic_energy(), rel=1e-6)

    def test_viscosity_off_by_default(self):
        p = TaylorGreenProblem()
        assert not p.viscosity().enabled


class TestRunControl:
    def test_custom_quadrature(self):
        p = SedovProblem(dim=2, order=2, zones_per_dim=2)
        s = LagrangianHydroSolver(p, RunConfig(quad_points_1d=3))
        assert s.quad.nqp == 9

    def test_max_steps_cap(self):
        p = SedovProblem(dim=2, order=1, zones_per_dim=4)
        s = LagrangianHydroSolver(p, RunConfig(max_steps=3))
        res = s.run(t_final=10.0)
        assert res.steps == 3
        assert not res.reached_t_final

    def test_looser_pcg_tol_degrades_conservation(self):
        p = SedovProblem(dim=2, order=2, zones_per_dim=3)
        tight = LagrangianHydroSolver(p, RunConfig(pcg_tol=1e-14)).run(t_final=0.03)
        p2 = SedovProblem(dim=2, order=2, zones_per_dim=3)
        loose = LagrangianHydroSolver(p2, RunConfig(pcg_tol=1e-4)).run(t_final=0.03)
        assert abs(tight.energy_change) <= abs(loose.energy_change) + 1e-15

    def test_energy_every(self):
        p = SedovProblem(dim=2, order=1, zones_per_dim=3)
        s = LagrangianHydroSolver(p, RunConfig(energy_every=1000))
        res = s.run(t_final=0.02)
        # Only initial + final recorded.
        assert len(res.energy_history) == 2
