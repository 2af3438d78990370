"""Ablation: quadrature points per dimension vs cost and robustness.

The paper fixes 2k points per dimension (giving its 81x64 / 375x512
operator shapes). This ablation varies the rule on a real Sedov run:
the minimal k-point rule under-integrates the curved, moving geometry
badly enough to tangle the blast (a real failure, reported as such),
the 2k rule is robust, and richer rules only add cost. Energy
conservation holds for any rule that completes — it is a structural
property of the RK2Avg pairing, not of quadrature accuracy.
"""

from _common import measured_pcg_iterations

from repro.analysis.report import Table
from repro import LagrangianHydroSolver, RunConfig, SedovProblem
from repro.gpu import execute_kernel, get_gpu
from repro.kernels import FEConfig
from repro.kernels.registry import corner_force_costs

ORDER = 2
POINTS = [2, 3, 4, 6]  # 2k = 4 is the paper default for Q2


def one(npts: int, t_final: float = 0.05):
    problem = SedovProblem(dim=2, order=ORDER, zones_per_dim=4)
    solver = LagrangianHydroSolver(problem, RunConfig(quad_points_1d=npts))
    try:
        result = solver.run(t_final=t_final, max_steps=1500)
        return {
            "completed": result.reached_t_final,
            "steps": result.steps,
            "drift": abs(result.energy_change) / result.energy_history[0].total,
            "final_ke": result.energy_history[-1].kinetic,
        }
    except RuntimeError:
        return {"completed": False, "steps": -1, "drift": float("nan"),
                "final_ke": float("nan")}


def compute():
    k20 = get_gpu("K20")
    rows = []
    for npts in POINTS:
        r = one(npts)
        cfg = FEConfig(2, ORDER, 16, quad_points_1d=npts)
        r.update(
            points=npts,
            nqp=npts**2,
            gpu_corner_time=sum(
                execute_kernel(k20, c).time_s for c in corner_force_costs(cfg)
            ),
        )
        rows.append(r)
    return rows


def run():
    rows = compute()
    t = Table(
        "Ablation: quadrature points per dim (2D Q2-Q1 Sedov to t=0.05)",
        ["pts/dim", "nqp/zone", "completed", "steps", "energy drift",
         "final KE", "GPU corner time"],
    )
    for r in rows:
        ok = r["completed"]
        t.add(
            r["points"], r["nqp"], str(ok), r["steps"],
            f"{r['drift']:.2e}" if ok else "-",
            f"{r['final_ke']:.6f}" if ok else "-",
            f"{r['gpu_corner_time'] * 1e6:8.1f} us",
        )
    t.print()
    return rows


def test_ablation_quadrature(benchmark):
    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    by_pts = {r["points"]: r for r in rows}
    # The paper's 2k rule (and anything richer) completes and conserves.
    for npts in (4, 6):
        assert by_pts[npts]["completed"]
        assert by_pts[npts]["drift"] < 1e-10
    # Cost grows monotonically with the rule.
    times = [r["gpu_corner_time"] for r in rows]
    assert all(b > a for a, b in zip(times, times[1:]))
    # The richer rules agree with each other far better than the
    # marginal 3-point rule does (if the minimal rule even completes).
    ke4, ke6 = by_pts[4]["final_ke"], by_pts[6]["final_ke"]
    assert abs(ke4 - ke6) / ke6 < 0.05
    if by_pts[3]["completed"]:
        assert abs(ke4 - ke6) <= abs(by_pts[3]["final_ke"] - ke6) + 1e-12


if __name__ == "__main__":
    run()
