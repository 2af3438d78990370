"""Tests: exact Riemann solver + Sod shock-tube verification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LagrangianHydroSolver
from repro.analysis.riemann import RiemannState, solve_riemann
from repro.problems.sod import SodProblem


class TestExactRiemann:
    def test_sod_star_values(self):
        """Toro's canonical Sod results: p* = 0.30313, u* = 0.92745."""
        sol = solve_riemann(SodProblem.LEFT, SodProblem.RIGHT, 1.4)
        assert sol.p_star == pytest.approx(0.30313, abs=2e-5)
        assert sol.u_star == pytest.approx(0.92745, abs=2e-5)

    def test_sod_plateaus(self):
        sol = solve_riemann(SodProblem.LEFT, SodProblem.RIGHT, 1.4)
        rho, u, p = sol.sample(np.array([-2.0, 0.5, 1.2, 3.0]))
        assert rho[0] == pytest.approx(1.0)       # undisturbed left
        assert rho[1] == pytest.approx(0.42632, abs=1e-4)  # star left
        assert rho[2] == pytest.approx(0.26557, abs=1e-4)  # post-shock
        assert rho[3] == pytest.approx(0.125)     # undisturbed right

    def test_symmetric_problem(self):
        """Mirror-symmetric colliding states: u* = 0 by symmetry."""
        l = RiemannState(1.0, 1.0, 1.0)
        r = RiemannState(1.0, -1.0, 1.0)
        sol = solve_riemann(l, r)
        assert sol.u_star == pytest.approx(0.0, abs=1e-12)
        assert sol.p_star > 1.0  # compression

    def test_trivial_problem(self):
        s = RiemannState(1.0, 0.5, 1.0)
        sol = solve_riemann(s, s)
        assert sol.p_star == pytest.approx(1.0, rel=1e-10)
        assert sol.u_star == pytest.approx(0.5, rel=1e-10)
        rho, u, p = sol.sample(np.linspace(-1, 2, 7))
        assert np.allclose(rho, 1.0)

    def test_vacuum_detected(self):
        l = RiemannState(1.0, -10.0, 0.01)
        r = RiemannState(1.0, 10.0, 0.01)
        with pytest.raises(ValueError):
            solve_riemann(l, r)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            RiemannState(-1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            RiemannState(1.0, 0.0, 0.0)

    @given(
        rho_l=st.floats(0.1, 5.0), p_l=st.floats(0.1, 5.0),
        rho_r=st.floats(0.1, 5.0), p_r=st.floats(0.1, 5.0),
        du=st.floats(-1.0, 1.0),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_solution_consistency(self, rho_l, p_l, rho_r, p_r, du, seed):
        """The sampled solution connects continuously to the data and
        has a single velocity/pressure in the star region."""
        left = RiemannState(rho_l, 0.0, p_l)
        right = RiemannState(rho_r, du, p_r)
        sol = solve_riemann(left, right)
        assert sol.p_star > 0
        rho, u, p = sol.sample(np.array([-100.0, 100.0]))
        assert rho[0] == pytest.approx(rho_l, rel=1e-10)
        assert rho[1] == pytest.approx(rho_r, rel=1e-10)
        # Pressure and velocity are continuous across the contact.
        eps = 1e-9
        _, u_c, p_c = sol.sample(np.array([sol.u_star - eps, sol.u_star + eps]))
        assert u_c[0] == pytest.approx(u_c[1], abs=1e-6)
        assert p_c[0] == pytest.approx(p_c[1], abs=1e-6)


@pytest.mark.slow
class TestSodShockTube:
    def test_solver_matches_exact(self):
        prob = SodProblem(order=2, nx=40, ny=1)
        solver = LagrangianHydroSolver(prob)
        res = solver.run(t_final=0.2)
        assert res.reached_t_final
        assert abs(res.energy_change) / res.energy_history[0].total < 1e-11
        rho = solver.density_at_points().ravel()
        x = solver.engine.geom_eval.physical_points(solver.state.x).reshape(-1, 2)[:, 0]
        rho_ex, _, _ = prob.exact_profile(x, 0.2)
        # Shock-capturing smearing: small L1 error, accurate plateaus.
        assert np.mean(np.abs(rho - rho_ex)) < 0.02
        post_shock = rho[(x > 0.72) & (x < 0.83)]
        assert post_shock.mean() == pytest.approx(0.26557, rel=0.02)
        star_left = rho[(x > 0.55) & (x < 0.65)]
        assert star_left.mean() == pytest.approx(0.42632, rel=0.02)

    def test_shock_position(self):
        prob = SodProblem(order=2, nx=40, ny=1)
        solver = LagrangianHydroSolver(prob)
        solver.run(t_final=0.2)
        rho = solver.density_at_points().ravel()
        x = solver.engine.geom_eval.physical_points(solver.state.x).reshape(-1, 2)[:, 0]
        # The exact shock sits at x = 0.5 + 1.7522 * 0.2 = 0.8504;
        # find the numerical jump from ~0.266 down to 0.125.
        order = np.argsort(x)
        xs, rs = x[order], rho[order]
        jump = np.flatnonzero((rs[:-1] > 0.2) & (rs[1:] < 0.2))
        assert jump.size > 0
        assert xs[jump[-1]] == pytest.approx(0.8504, abs=0.05)
