import numpy as np
import pytest

import checks
import workloads
from repro.hydro.state import HydroState


def reference_state(name):
    ref = checks.load_reference(name)
    return HydroState(ref["v"].copy(), ref["e"].copy(), ref["x"].copy(), float(ref["t"]))


@pytest.mark.parametrize("name", ["sedov-q2", "triple-pt-r8"])
def test_reference_accepts_itself_and_rejects_a_perturbed_state(name):
    state = reference_state(name)
    ref = checks.load_reference(name)
    assert checks.state_error(state, ref) == 0.0
    state.x[3, 0] += 1e-6 * np.max(np.abs(state.x))
    assert checks.state_error(state, ref) > checks.STATE_RTOL


def test_reference_rejects_a_wrong_shape():
    ref = checks.load_reference("sedov-q2")
    state = reference_state("triple-pt-r8")
    assert checks.state_error(state, ref) == float("inf")


def solve(**overrides):
    wl = workloads.SolverWorkload("sedov-q2")
    wl.config = wl.config.replace(**overrides)
    solver = wl.construct()
    try:
        return solver.run(t_final=workloads.SOLVER_T_FINAL).state
    finally:
        solver.close()


def test_tolerance_admits_a_looser_cg_and_rejects_a_perturbed_cfl():
    ref = checks.load_reference("sedov-q2")
    assert checks.state_error(solve(pcg_tol=1e-13), ref) <= checks.STATE_RTOL
    assert checks.state_error(solve(cfl=0.5 * (1 + 1e-6)), ref) > checks.STATE_RTOL


def test_energy_and_traffic_checks():
    assert checks.energy_ok(1.0, 1.0 + 1e-14)
    assert not checks.energy_ok(1.0, 1.0 + 1e-9)
    good = {"messages": 4, "bytes": 64, "rank_messages": 4, "rank_bytes": 64}
    assert checks.traffic_ok(good)
    assert not checks.traffic_ok(dict(good, rank_bytes=56))


def test_fleet_check_flags_failures_wrong_end_times_and_differing_repeats():
    from types import SimpleNamespace

    from workloads import Job

    first = Job("j0", "sod", 5, 1, "cpu-fused", 0.03)
    jobs = {
        "j0": first,
        "j1": Job("j1", "sod", 5, 1, "cpu-fused", 0.03, repeat_of="j0"),
        "j2": Job("j2", "noh", 4, 2, "cpu-fused", 0.05),
        "j3": Job("j3", "noh", 4, 2, "cpu-fused", 0.06),
    }

    def ok(t, sha):
        return SimpleNamespace(status="succeeded", t_final=t, state_sha256=sha)

    results = {"j0": ok(0.03, "a"), "j1": ok(0.03, "a"), "j2": ok(0.05, "b"),
               "j3": ok(0.06, "c")}
    reruns = {"j0": ok(0.03, "a")}
    assert checks.fleet_failures(jobs, results, reruns) == []
    results["j1"] = ok(0.03, "z")
    results["j2"] = ok(0.04, "b")
    results["j3"] = SimpleNamespace(status="failed")
    bad = checks.fleet_failures(jobs, results, reruns)
    assert len(bad) == 3
    assert any("j1" in b and "first run" in b for b in bad)
    assert any("j2" in b and "reached" in b for b in bad)
    assert any("j3" in b and "failed" in b for b in bad)


def test_fleet_check_flags_a_rerun_that_gives_other_bits():
    from types import SimpleNamespace

    from workloads import Job

    jobs = {"j0": Job("j0", "sod", 5, 1, "cpu-fused", 0.03),
            "j1": Job("j1", "sod", 5, 1, "cpu-fused", 0.03, repeat_of="j0")}
    same = SimpleNamespace(status="succeeded", t_final=0.03, state_sha256="a")
    results = {"j0": same, "j1": same}
    bad = checks.fleet_failures(jobs, results, {"j0": SimpleNamespace(
        status="succeeded", t_final=0.03, state_sha256="b")})
    assert bad == ["j0: re-run gives a state other than its first run's"]
