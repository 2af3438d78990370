"""Communication/computation overlap: the distributed backend's knob.

The paper's MPI layer (Section 3.4) exchanges interface-dof force
contributions between ranks; an implementation that posts the exchange
nonblocking and evaluates interior zones while it is in flight hides
the transfer behind compute. The distributed backend reproduces that
trade as a pure *pricing* knob: `overlap=on` and `overlap=off` execute
the same arithmetic in the same order (states are bitwise identical),
and the `CommLedger` settles each modeled exchange against a modeled
window, the corner force of the rank with the fewest interior zones on
one core of the paper's E5-2670 (`DistributedBackend.window_s`; zero
with overlap off). No host clock enters the ledger, so every number
this bench reports is the same on every host.

This bench makes the run communication-bound (a slow alpha-beta
network under a small mesh), runs the same march both ways, and
checks the ledger against its closed form: with overlap off nothing is
hidden; with overlap on each force evaluation hides
min(exchange cost, window) and every other collective stays exposed.
It reports the exposed comm seconds both ways and the hidden share of
the interface exchange. Every run appends to BENCH_comm_overlap.json
(`--json PATH` appends to another file instead).
"""

from __future__ import annotations

import argparse
import math
from pathlib import Path

import numpy as np

try:
    import repro  # noqa: F401
except ImportError:  # running from a source checkout without PYTHONPATH=src
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import RunConfig
from repro.backends import DistributedBackend
from repro.hydro.solver import LagrangianHydroSolver
from repro.problems import SedovProblem
from repro.runtime.mpi_sim import CommCostModel

#: A slow interconnect (5 ms latency, ~1 MB/s-ish beta) under a small
#: mesh: per-step comm cost far exceeds per-step compute, so the window
#: hides only part of each exchange.
SLOW_NETWORK = CommCostModel(alpha_s=5e-3, beta_s_per_byte=1e-6)

RANKS = 2
STEPS = 8
ZONES = 6


def _march(overlap: bool) -> dict:
    backend = DistributedBackend(
        RANKS, overlap=overlap, cost_model=SLOW_NETWORK
    )
    solver = LagrangianHydroSolver(
        SedovProblem(dim=2, order=2, zones_per_dim=ZONES),
        RunConfig(),
        backend=backend,
    )
    result = solver.run(max_steps=STEPS)
    ledger = backend.comm.ledger
    traffic = backend.comm.traffic
    # The only *overlappable* comm is the interface-dof exchange (one
    # nonblocking sum per corner-force evaluation); the PCG's reductions
    # and the dt minimum are exposed in both modes, so the hidden time
    # is read against the exchange total, not the whole comm bill.
    iface_bytes = backend._iface_dofs.size * solver.kinematic.dim * 8
    exchange_each_s = SLOW_NETWORK.allreduce_time(backend.nranks, iface_bytes)
    force_evals = result.workload.force_evals
    out = {
        "overlap": overlap,
        "steps": result.steps,
        "force_evals": force_evals,
        "window_s": backend.window_s,
        "comm_total_s": ledger.total_s,
        "comm_hidden_s": ledger.hidden_s,
        "comm_exposed_s": ledger.exposed_s,
        "exchange_s": force_evals * exchange_each_s,
        "hidden_closed_form_s": force_evals * min(exchange_each_s, backend.window_s),
        "messages": traffic.messages,
        "bytes": traffic.bytes,
        "state": result.state,
    }
    solver.close()
    return out


def compute() -> dict:
    on = _march(overlap=True)
    off = _march(overlap=False)
    # The knob is pricing-only: the physics must be bitwise identical
    # and the traffic unchanged.
    assert np.array_equal(on["state"].v, off["state"].v)
    assert np.array_equal(on["state"].e, off["state"].e)
    assert np.array_equal(on["state"].x, off["state"].x)
    assert on["bytes"] == off["bytes"] and on["messages"] == off["messages"]
    # The ledger is the closed form, on any host: nothing hidden without
    # overlap, min(exchange, window) per force evaluation with it.
    assert off["comm_hidden_s"] == 0.0
    assert math.isclose(on["comm_hidden_s"], on["hidden_closed_form_s"], rel_tol=1e-12)
    for row in (on, off):
        del row["state"]
    return {
        "ranks": RANKS,
        "steps": STEPS,
        "zones_per_dim": ZONES,
        "alpha_s": SLOW_NETWORK.alpha_s,
        "beta_s_per_byte": SLOW_NETWORK.beta_s_per_byte,
        "on": on,
        "off": off,
        "exposed_saved_s": off["comm_exposed_s"] - on["comm_exposed_s"],
        "hidden_exchange_fraction": on["comm_hidden_s"] / on["exchange_s"],
    }


def _append_record(d: dict, path: Path | None = None) -> Path:
    from repro.analysis.record import append_bench_record

    return append_bench_record(d, path or _default_json_path())


def _default_json_path() -> Path:
    root = Path(__file__).resolve().parent.parent
    return root / "BENCH_comm_overlap.json"


def run(json_path=None) -> dict:
    d = compute()
    print(f"comm/compute overlap (sedov {ZONES}x{ZONES} Q2, "
          f"{RANKS} ranks, {STEPS} steps, "
          f"alpha {d['alpha_s'] * 1e3:.0f} ms; modeled window "
          f"{d['on']['window_s'] * 1e3:.3f} ms per exchange)")
    print(f"{'mode':12s} {'comm ms':>9} {'hidden ms':>10} {'exposed ms':>10} "
          f"{'exposed ms/st':>13}")
    for label, row in (("overlap on", d["on"]), ("overlap off", d["off"])):
        print(f"{label:12s} {row['comm_total_s'] * 1e3:9.1f} "
              f"{row['comm_hidden_s'] * 1e3:10.2f} "
              f"{row['comm_exposed_s'] * 1e3:10.1f} "
              f"{row['comm_exposed_s'] / row['steps'] * 1e3:13.2f}")
    print(f"overlap saves {d['exposed_saved_s'] * 1e3:.2f} ms of exposed comm "
          f"({d['hidden_exchange_fraction']:.1%} of the interface exchange "
          f"hidden under interior zones); physics bitwise identical")
    path = _append_record(d, Path(json_path) if json_path else None)
    print(f"appended record to {path}")
    return d


def test_comm_overlap(benchmark):
    import pytest

    d = benchmark.pedantic(compute, rounds=1, iterations=1)
    # Same modeled comm volume both ways; overlap hides part of it.
    assert d["on"]["comm_total_s"] > 0
    assert abs(d["on"]["comm_total_s"] - d["off"]["comm_total_s"]) < 1e-12
    assert d["on"]["comm_hidden_s"] > d["off"]["comm_hidden_s"] == 0.0
    assert d["on"]["comm_exposed_s"] < d["off"]["comm_exposed_s"]
    # The window (12 interior zones per rank: 0.512 ms) is about 4.9% of
    # one 10.42 ms exchange, whatever host runs the bench.
    assert d["hidden_exchange_fraction"] == pytest.approx(0.049, abs=5e-4)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--json", default=None,
                    help="override BENCH_comm_overlap.json path")
    run(json_path=ap.parse_args().json)
