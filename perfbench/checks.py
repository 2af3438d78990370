"""Correctness checks that run in the same command as the timing.

Each failed check counts as a failed operation of the run.

* Energy: total energy changes only at roundoff over a solve (the
  paper's Table 6), on every solver workload.
* Reference: the final state of a solve matches the state stored with
  the benchmark, to `STATE_RTOL` relative to each field's largest
  magnitude. That is loose enough for floating-point reordering and a
  `pcg_tol` of 1e-13 (about 1e-9 on the Sedov solve), and tight enough
  that a CFL perturbed by one part in a million fails (about 1e-6 on
  the triple point, 1e-2 on Sedov). `sedov-q2-par2` is checked against
  the `sedov-q2` reference, so the two must agree.
* Traffic: on the distributed workload, per-rank message and byte sums
  equal the communicator totals.
* Fleet: every job succeeds and reaches its end time, and every repeat
  is served the `state_sha256` of the job it repeats. After the timing,
  every job that a repeat copied runs once more on a fleet that does
  not reuse results, and must give the same `state_sha256` again.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

__all__ = [
    "ENERGY_RTOL",
    "STATE_RTOL",
    "energy_ok",
    "fleet_failures",
    "load_reference",
    "save_reference",
    "state_error",
    "traffic_ok",
]

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
ENERGY_RTOL = 1e-12
STATE_RTOL = 1e-8


def _arrays(state) -> dict:
    return {"v": np.asarray(state.v), "e": np.asarray(state.e),
            "x": np.asarray(state.x), "t": np.asarray(float(state.t))}


def save_reference(name: str, state, directory: Path = REFERENCE_DIR) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.npz"
    np.savez_compressed(path, **_arrays(state))
    return path


def load_reference(name: str, directory: Path = REFERENCE_DIR) -> dict:
    with np.load(directory / f"{name}.npz") as data:
        return {k: data[k].copy() for k in data.files}


def state_error(state, ref: dict) -> float:
    """Largest field error relative to that field's largest magnitude."""
    got = _arrays(state)
    err = 0.0
    for key, want in ref.items():
        have = got[key]
        if have.shape != want.shape:
            return float("inf")
        scale = max(float(np.max(np.abs(want))), 1e-300)
        err = max(err, float(np.max(np.abs(have - want))) / scale)
    return err


def energy_ok(e_initial: float, e_final: float) -> bool:
    return abs(e_final - e_initial) <= ENERGY_RTOL * max(abs(e_initial), 1.0)


def traffic_ok(traffic: dict) -> bool:
    return (traffic["rank_messages"] == traffic["messages"]
            and traffic["rank_bytes"] == traffic["bytes"])


def fleet_failures(jobs: dict, results: dict, reruns: dict) -> list[str]:
    """One line per failed fleet check (empty when all pass).

    `reruns` maps the id of each job a repeat copied to the result of
    running that job again without the result store.
    """
    bad = []
    for job_id, job in jobs.items():
        res = results.get(job_id)
        if res is None or res.status != "succeeded":
            bad.append(f"{job_id}: status {getattr(res, 'status', 'missing')}")
            continue
        if abs(res.t_final - job.t_final) > 1e-12 * max(1.0, job.t_final):
            bad.append(f"{job_id}: reached t={res.t_final!r}, asked {job.t_final!r}")
        if job.repeat_of is not None:
            first = results.get(job.repeat_of)
            if first is None or res.state_sha256 != first.state_sha256:
                bad.append(f"{job_id}: served a state other than its first run {job.repeat_of}'s")
    for job_id, again in reruns.items():
        first = results.get(job_id)
        if again is None or again.status != "succeeded":
            bad.append(f"{job_id}: re-run status {getattr(again, 'status', 'missing')}")
        elif first is None or again.state_sha256 != first.state_sha256:
            bad.append(f"{job_id}: re-run gives a state other than its first run's")
    return bad


if __name__ == "__main__":
    # Regenerate the stored references from the current program:
    #   PYTHONPATH=src python3 perfbench/checks.py
    import workloads

    for name in ("sedov-q2", "triple-pt-r8"):
        wl = workloads.SolverWorkload(name)
        solver = wl.construct()
        try:
            result = solver.run(t_final=workloads.SOLVER_T_FINAL)
        finally:
            solver.close()
        print(save_reference(name, result.state), result.steps, "steps, t =", result.state.t)
