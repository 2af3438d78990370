"""Functional weak/strong scaling measurements (Figures 12-13, measured).

`repro.cluster.scaling` *predicts* the paper's weak and strong scaling
curves from a hardware model. This bench closes the loop functionally:
it actually runs the distributed solver at P = 1..64 simulated ranks
(vectorized rank stepping, so every point is seconds of wall time),
derives a simulated per-cycle cluster time

    t(P) = t_node(local zones) + ledger(P) / steps

where the ledger is the alpha-beta-tree price of every collective the
run really posted, and cross-checks the resulting efficiency curves
against the analytic model fed the *same* compute baseline and a sync
amplification fitted from the measured collectives-per-step count —
exactly how the Titan curve's coefficient was fitted to the paper's
published endpoints. A drift past `SCALING_MODEL_TOLERANCE` means the
communicator's pricing and the analytic model no longer describe the
same machine.

The third case is the throughput gate the vectorized rank axis exists
for: `RANK_THROUGHPUT_RANKS` simulated ranks on a 16x16 Sedov must
complete a fixed step budget inside `RANK_THROUGHPUT_BUDGET_S` seconds
of wall time on one host.

Used by ``benchmarks/bench_scaling.py`` and ``repro bench scaling``;
records append to ``BENCH_scaling.json``.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

__all__ = [
    "SCALING_MODEL_TOLERANCE",
    "RANK_THROUGHPUT_BUDGET_S",
    "RANK_THROUGHPUT_RANKS",
    "bench_weak_scaling",
    "bench_strong_scaling",
    "bench_rank_throughput",
    "run_scaling_bench",
]

#: Measured and analytic efficiency must agree to this relative error at
#: every overlapping node count.
SCALING_MODEL_TOLERANCE = 0.15

#: Wall-clock budget for the high-rank-count functional run.
RANK_THROUGHPUT_BUDGET_S = 10.0
RANK_THROUGHPUT_RANKS = 256

#: Pinned PCG iteration cap: the collective count per step is then a
#: property of the integrator, not of how fast a given mesh converges.
_PCG_MAXITER = 12


def _bench_machine():
    """An alpha-dominated machine for the cross-check.

    Functional meshes are tiny, so per-message latency must carry the
    communication cost for scaling to be visible at all (beta ~ 0 also
    makes the fit formula exact: every collective costs ~2 log2(P)
    alpha regardless of payload). Titan's node geometry is reused; only
    the interconnect constants change.
    """
    from repro.cluster.machines import TITAN
    from repro.runtime.mpi_sim import CommCostModel

    return replace(
        TITAN,
        name="alpha-sim",
        comm=CommCostModel(alpha_s=5e-4, beta_s_per_byte=1e-12),
    )


def _measured_run(zones_per_dim: int, nranks: int, steps: int, machine) -> dict:
    """One functional distributed run; ledger + traffic per fixed steps."""
    from repro.backends.distributed import DistributedBackend
    from repro.config import RunConfig
    from repro.hydro.solver import LagrangianHydroSolver
    from repro.problems import SedovProblem

    problem = SedovProblem(dim=2, order=2, zones_per_dim=zones_per_dim)
    backend = DistributedBackend(
        nranks,
        node="cpu-fused",
        overlap=False,  # ledger fully exposed: total_s is the comm bill
        cost_model=machine.comm,
    )
    solver = LagrangianHydroSolver(
        problem, RunConfig(pcg_maxiter=_PCG_MAXITER), backend=backend
    )
    t0 = time.perf_counter()
    result = solver.run(max_steps=steps)
    wall = time.perf_counter() - t0
    comm = solver.backend.comm
    row = {
        "ranks": nranks,
        "zones": zones_per_dim * zones_per_dim,
        "steps": result.steps,
        "wall_s": wall,
        "ledger_s": comm.ledger.total_s,
        "reductions": comm.traffic.reductions,
        "messages": comm.traffic.messages,
        "bytes": comm.traffic.bytes,
    }
    solver.close()
    return row


def _fit_sync_amplification(machine, runs: list[dict]) -> tuple[float, float]:
    """(mean collectives per step, fitted sync amplification seconds).

    The analytic model bills one explicit 8-byte allreduce per cycle and
    folds everything else into `amp * log2(P)`; each extra collective on
    an alpha-beta tree costs 2 log2(P) (alpha + 8 beta), so the fit is

        amp = (K - 1) * 2 * (alpha + 8 beta),   K = collectives/step.
    """
    per_step = [r["reductions"] / r["steps"] for r in runs if r["ranks"] > 1]
    k_bar = float(np.mean(per_step)) if per_step else 1.0
    amp = max(k_bar - 1.0, 0.0) * 2.0 * (
        machine.comm.alpha_s + 8.0 * machine.comm.beta_s_per_byte
    )
    return k_bar, amp


def _efficiency_rows(ranks, t_measured, t_model, weak: bool) -> list[dict]:
    """Pointwise measured-vs-model efficiency with relative errors."""
    rows = []
    base_m, base_a = t_measured[0], t_model[0]
    p0 = ranks[0]
    for p, tm, ta in zip(ranks, t_measured, t_model):
        if weak:
            eff_m, eff_a = base_m / tm, base_a / ta
        else:
            eff_m = (base_m * p0 / p) / tm
            eff_a = (base_a * p0 / p) / ta
        rows.append({
            "nodes": int(p),
            "t_cycle_measured_s": float(tm),
            "t_cycle_model_s": float(ta),
            "eff_measured": float(eff_m),
            "eff_model": float(eff_a),
            "eff_rel_err": float(abs(eff_m - eff_a) / eff_a),
        })
    return rows


def bench_weak_scaling(
    ranks=(4, 16, 64), zones_per_rank: int = 4, steps: int = 4
) -> dict:
    """Fixed zones per rank; time grows only through synchronization.

    Mesh sizes are `zones_per_rank * P` (P a square times the per-rank
    square so every mesh is a square Sedov), measured functionally at
    every P, then compared against `cluster.scaling.weak_scaling` with
    the measured single-rank cycle time as the compute baseline. The
    efficiency base is the smallest multi-rank P (the paper's Figure 12
    base is 8 nodes, not 1): the analytic sync term has a log2(max(P,2))
    floor, so a P=1 base would compare modeled sync against a run that
    genuinely posts no collectives.
    """
    from repro.cluster.scaling import weak_scaling

    machine = _bench_machine()
    base = _measured_run(math.isqrt(zones_per_rank), 1, steps, machine)
    runs = []
    for p in ranks:
        zpd = math.isqrt(zones_per_rank * p)
        if zpd * zpd != zones_per_rank * p:
            raise ValueError(f"zones_per_rank*P={zones_per_rank * p} not square")
        runs.append(_measured_run(zpd, p, steps, machine))

    # The same per-node compute baseline feeds both curves: the measured
    # side adds the ledger, the analytic side adds the modeled comm.
    t_node = base["wall_s"] / base["steps"]
    k_bar, amp = _fit_sync_amplification(machine, runs)
    t_measured = [t_node + r["ledger_s"] / r["steps"] for r in runs]
    analytic = weak_scaling(
        machine, list(ranks), zones_per_node=zones_per_rank,
        cycles=1, node_cycle_s=t_node, sync_amplification_s=amp,
    )
    rows = _efficiency_rows(
        list(ranks), t_measured, [a.time_s for a in analytic], weak=True
    )
    for row, run in zip(rows, runs):
        row["reductions_per_step"] = run["reductions"] / run["steps"]
        row["host_wall_s"] = run["wall_s"]
    return {
        "zones_per_rank": zones_per_rank,
        "steps": steps,
        "node_cycle_s": t_node,
        "collectives_per_step": k_bar,
        "sync_amplification_s": amp,
        "points": rows,
        "max_eff_rel_err": max(r["eff_rel_err"] for r in rows),
    }


def bench_strong_scaling(
    ranks=(4, 16, 64), zones_per_dim: int = 16, steps: int = 4
) -> dict:
    """Fixed total domain divided across ranks (Shannon-style).

    The compute baseline is the measured single-rank per-zone step cost
    scaled linearly to the local zone count — passed as `node_cycle_fn`
    so the analytic curve shares it and the comparison isolates the comm
    terms. Like the weak curve, efficiency is based at the smallest
    multi-rank P (see `bench_weak_scaling`).
    """
    from repro.cluster.scaling import strong_scaling

    machine = _bench_machine()
    total_zones = zones_per_dim * zones_per_dim
    base = _measured_run(zones_per_dim, 1, steps, machine)
    runs = [_measured_run(zones_per_dim, p, steps, machine) for p in ranks]

    t_base = base["wall_s"] / base["steps"]
    t_zone = t_base / total_zones
    k_bar, amp = _fit_sync_amplification(machine, runs)
    t_measured = [
        t_zone * max(1, total_zones // r["ranks"]) + r["ledger_s"] / r["steps"]
        for r in runs
    ]
    analytic = strong_scaling(
        machine, total_zones, list(ranks), cycles=1,
        node_cycle_fn=lambda local: t_zone * local,
        sync_amplification_s=amp,
    )
    rows = _efficiency_rows(
        list(ranks), t_measured, [a.time_s for a in analytic], weak=False
    )
    for row, run in zip(rows, runs):
        row["reductions_per_step"] = run["reductions"] / run["steps"]
        row["host_wall_s"] = run["wall_s"]
    return {
        "total_zones": total_zones,
        "steps": steps,
        "zone_step_s": t_zone,
        "collectives_per_step": k_bar,
        "sync_amplification_s": amp,
        "points": rows,
        "max_eff_rel_err": max(r["eff_rel_err"] for r in rows),
    }


def bench_rank_throughput(
    nranks: int = RANK_THROUGHPUT_RANKS, zones_per_dim: int = 16,
    steps: int = 10,
) -> dict:
    """O(100) simulated ranks must step in seconds on one host.

    This is the stacked rank step's reason to exist: it evaluates all
    ranks' zones in O(1) batched calls per phase instead of O(P)
    rank-local evaluations per step. The budget is wall time for the
    whole fixed step budget, setup included.
    """
    machine = _bench_machine()
    t0 = time.perf_counter()
    run = _measured_run(zones_per_dim, nranks, steps, machine)
    total_wall = time.perf_counter() - t0
    return {
        "ranks": nranks,
        "zones": run["zones"],
        "steps": run["steps"],
        "step_wall_s": run["wall_s"],
        "total_wall_s": total_wall,
        "budget_s": RANK_THROUGHPUT_BUDGET_S,
        "reductions_per_step": run["reductions"] / run["steps"],
    }


def run_scaling_bench(
    quick: bool = False, json_path: str | os.PathLike | None = None
) -> dict:
    """Run the suite, print the curves, append the JSON record."""
    steps = 3 if quick else 6

    weak = bench_weak_scaling(steps=steps)
    print(f"weak scaling ({weak['zones_per_rank']} zones/rank, "
          f"{weak['steps']} steps, "
          f"{weak['collectives_per_step']:.1f} collectives/step, "
          f"fitted amp {weak['sync_amplification_s'] * 1e3:.2f} ms)")
    print(f"{'P':>5} {'t_meas ms':>10} {'t_model ms':>11} "
          f"{'eff meas':>9} {'eff model':>10} {'rel err':>8}")
    for r in weak["points"]:
        print(f"{r['nodes']:5d} {r['t_cycle_measured_s'] * 1e3:10.2f} "
              f"{r['t_cycle_model_s'] * 1e3:11.2f} {r['eff_measured']:9.3f} "
              f"{r['eff_model']:10.3f} {r['eff_rel_err']:8.1%}")

    strong = bench_strong_scaling(steps=steps)
    print(f"\nstrong scaling ({strong['total_zones']} zones total, "
          f"{strong['steps']} steps)")
    print(f"{'P':>5} {'t_meas ms':>10} {'t_model ms':>11} "
          f"{'eff meas':>9} {'eff model':>10} {'rel err':>8}")
    for r in strong["points"]:
        print(f"{r['nodes']:5d} {r['t_cycle_measured_s'] * 1e3:10.2f} "
              f"{r['t_cycle_model_s'] * 1e3:11.2f} {r['eff_measured']:9.3f} "
              f"{r['eff_model']:10.3f} {r['eff_rel_err']:8.1%}")

    throughput = bench_rank_throughput()
    print(f"\nrank throughput: {throughput['ranks']} ranks x "
          f"{throughput['steps']} steps on {throughput['zones']} zones "
          f"in {throughput['total_wall_s']:.2f} s wall "
          f"(budget {throughput['budget_s']:.0f} s)")

    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "quick": quick,
        "cpu_count": os.cpu_count() or 1,
        "weak": weak,
        "strong": strong,
        "throughput": throughput,
    }
    from repro.analysis.record import append_bench_record

    path = Path(json_path) if json_path is not None else _default_json_path()
    append_bench_record(record, path, timestamp=False)
    print(f"\nappended record to {path}")

    for name, res in (("weak", weak), ("strong", strong)):
        if res["max_eff_rel_err"] > SCALING_MODEL_TOLERANCE:
            raise SystemExit(
                f"{name}-scaling efficiency drifts "
                f"{res['max_eff_rel_err']:.1%} from the analytic model "
                f"(tolerance {SCALING_MODEL_TOLERANCE:.0%})"
            )
    if throughput["total_wall_s"] > RANK_THROUGHPUT_BUDGET_S:
        raise SystemExit(
            f"{throughput['ranks']}-rank functional run took "
            f"{throughput['total_wall_s']:.1f} s, over the "
            f"{RANK_THROUGHPUT_BUDGET_S:.0f} s budget"
        )
    return record


def _default_json_path() -> Path:
    """BENCH_scaling.json at the repo root (next to BENCH_hotpath.json)."""
    root = Path(__file__).resolve().parents[3]  # src/repro/analysis -> repo
    if (root / "pyproject.toml").exists():
        return root / "BENCH_scaling.json"
    return Path.cwd() / "BENCH_scaling.json"
