"""Per-layer metrics from the traced run's spans and public counters.

Solver workloads, per accepted step: the self time of every layer --
`force` (the backend's `force_fn` without geometry or comm),
`geometry`, CG without SpMV (`cg.self`), `spmv` (without comm),
`comm`, `mass_e`, `energies`, and the rest of `step` -- plus
`run.unattributed_ms`, the part of `solver.run` no layer span covers.
Their sum (`layer_sum_ms`) must match `run.wall_ms`, the traced solves'
wall time per step as the operation timer measured it apart from the
spans, host probe excluded. `cg.ms_per_step` alone is inclusive (CG
with its SpMV).

Fleet workload, per job: `admit` (the self time of `fleet.submit`),
`queue.wait` (from submit's return to the worker's `queue.get` return
for that job), journal appends, result-store puts and gets, cold
`build` and `solve` (inclusive), and the remainder up to the client's
submit-to-result wall time, which must not be negative. The solver
layers inside fleet jobs are reported per step as above.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import NAME, OP, PARENT, T0, T1

__all__ = ["LAYER_SUM", "fleet_layers", "layer_sum_ms", "solver_layers"]

#: Per-step metrics that add up to a solve's wall time.
LAYER_SUM = ("force.ms_per_step", "geometry.ms_per_step", "cg.self_ms_per_step",
             "spmv.ms_per_step", "comm.ms_per_step", "mass_e.ms_per_step",
             "energies.ms_per_step", "step.other_ms_per_step", "run.unattributed_ms")
#: Per-job parts of a fleet job's submit-to-result time.
FLEET_PARTS = ("admit", "queue.wait", "journal.append", "results.put", "results.get",
               "build", "solve")


def _totals(spans, self_t, keep=None):
    """Inclusive time, self time and call count per span name."""
    incl, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for i, s in enumerate(spans):
        if keep is None or keep[i]:
            incl[s[NAME]] += s[T1] - s[T0]
            own[s[NAME]] += self_t[i]
            calls[s[NAME]] += 1
    return incl, own, calls


def _under(spans, root: str) -> list[bool]:
    """Mask of spans nested, at any depth, under a span named `root`."""
    inside = [False] * len(spans)
    for i, s in enumerate(spans):
        p = s[PARENT]
        inside[i] = p >= 0 and (inside[p] or spans[p][NAME] == root)
    return inside


def _step_layers(spans, self_t, steps: int, counters, keep=None) -> dict:
    incl, own, calls = _totals(spans, self_t, keep)
    per = 1.0 / max(steps, 1)
    return {
        "force.ms_per_step": 1e3 * own["force"] * per,
        "force.calls_per_step": calls["force"] * per,
        "geometry.ms_per_step": 1e3 * own["geometry"] * per,
        "cg.ms_per_step": 1e3 * incl["cg"] * per,
        "cg.self_ms_per_step": 1e3 * own["cg"] * per,
        "cg.iters_per_solve": counters.cg_iterations / max(counters.cg_solves, 1),
        "cg.flops_per_step": counters.cg_flops * per,
        "spmv.ms_per_step": 1e3 * own["spmv"] * per,
        "spmv.calls_per_step": calls["spmv"] * per,
        "spmv.bytes_per_call": counters.spmv_bytes / max(calls["spmv"], 1),
        "mass_e.ms_per_step": 1e3 * own["mass_e"] * per,
        "energies.ms_per_step": 1e3 * own["energies"] * per,
        "step.other_ms_per_step": 1e3 * own["step"] * per,
        "comm.ms_per_step": 1e3 * own["comm"] * per,
        "comm.calls_per_step": calls["comm"] * per,
    }


def solver_layers(log, steps: int, counters) -> dict:
    """Solver-workload layers, in ms (or counts) per accepted step."""
    spans, self_t = log.spans, log.self_times()
    m = _step_layers(spans, self_t, steps, counters)
    _, own, _ = _totals(spans, self_t)
    m["run.unattributed_ms"] = 1e3 * own["run"] / max(steps, 1)
    return m


def layer_sum_ms(m: dict) -> float:
    """The solver layers' self times plus the unattributed remainder."""
    return sum(m[key] for key in LAYER_SUM)


def fleet_layers(log, jobs: list[str], steps: int, counters) -> tuple[dict, float]:
    """Fleet-workload layers and the most negative per-job remainder (ms)."""
    spans, self_t = log.spans, log.self_times()
    in_solve = _under(spans, "solve")
    m = _step_layers(spans, self_t, steps, counters, keep=in_solve)
    wanted = set(jobs)
    parts = {j: defaultdict(float) for j in wanted}
    submit_end, get_end = {}, {}
    for i, s in enumerate(spans):
        op, name = s[OP], s[NAME]
        if op not in wanted or in_solve[i]:
            continue
        acc = parts[op]
        if name == "job":
            acc["wall"] += s[T1] - s[T0]
        elif name == "submit":
            acc["admit"] += self_t[i]
            submit_end[op] = s[T1]
        elif name == "queue.get":
            get_end[op] = s[T1]
        elif name in FLEET_PARTS:
            acc[name] += s[T1] - s[T0]
    for op, end in get_end.items():
        if op in submit_end:
            parts[op]["queue.wait"] += end - submit_end[op]
    n = max(len(wanted), 1)

    def per_job(key):
        return 1e3 * sum(p[key] for p in parts.values()) / n

    remainders = [p["wall"] - sum(p[k] for k in FLEET_PARTS) for p in parts.values()]
    m.update({
        "admit.ms_per_job": per_job("admit"),
        "queue.wait_ms_per_job": per_job("queue.wait"),
        "build.ms_per_job": per_job("build"),
        "solve.ms_per_job": per_job("solve"),
        "journal.append_ms_per_job": per_job("journal.append"),
        "results.put_ms_per_job": per_job("results.put"),
        "results.get_ms_per_job": per_job("results.get"),
        "run.unattributed_ms": 1e3 * sum(remainders) / n,
        "run.wall_ms": per_job("wall"),
    })
    return m, 1e3 * min(remainders, default=0.0)
