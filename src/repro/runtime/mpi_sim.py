"""Single-process MPI simulator.

Runs `nranks` logical ranks inside one process with the collectives the
distributed backend posts: a sum-allreduce whose per-rank contributions
arrive stacked along a leading rank axis (the interface-dof exchange,
the momentum operator's interface rows) and a batch of scalar
min-allreduces (the global time step). Byte/message accounting feeds
the communication cost model. The functional layer is exact — the
collectives really combine the rank-local arrays — so distributed
algorithms can be validated against their serial counterparts without
real MPI.

Both collectives are nonblocking: a post returns a `CommRequest` that
`wait` completes. The functional result is computed eagerly (the sim
has no real asynchrony); the modeled cost is settled at `wait` against
an explicit modeled window, the compute the caller priced as running
while the request was in flight. Only the part of the cost the window
does not cover lands in `CommLedger.exposed_s`. That is the pricing rule
that makes communication/computation overlap measurable without
double-counting hidden time, and it reads no clock, so a run's ledger
is a function of its inputs.

With a `Tracer` attached, every traffic-incrementing operation emits
one span of category "comm" (name = the collective, meta = bytes/ranks)
at its completion point, so the summed span bytes always equal
`traffic.bytes`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.telemetry.tracer import NULL_SPAN

__all__ = ["SimulatedComm", "CommCostModel", "CommRequest", "CommLedger"]


@dataclass
class _Traffic:
    messages: int = 0
    bytes: int = 0
    reductions: int = 0
    #: Per-rank attribution as flat int64 arrays indexed by rank (grown on
    #: demand; survives `exclude_rank`/`resize_ranks` rebuilds because the
    #: object is carried over to the new communicator). Arrays, not a dict:
    #: at O(1000) ranks a per-rank `dict.setdefault` inside every collective
    #: made the bookkeeping itself a hot path.
    rank_messages: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    rank_bytes: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def _ensure(self, nranks: int) -> None:
        if self.rank_messages.shape[0] < nranks:
            grow = max(nranks, 2 * self.rank_messages.shape[0])
            for name in ("rank_messages", "rank_bytes"):
                old = getattr(self, name)
                new = np.zeros(grow, dtype=np.int64)
                new[: old.shape[0]] = old
                setattr(self, name, new)

    def charge_nonroot(self, nranks: int, messages_each: int, nbytes_each: int) -> None:
        """Charge ranks 1..nranks-1 uniformly (the reduce+bcast legs)."""
        self._ensure(nranks)
        self.rank_messages[1:nranks] += messages_each
        self.rank_bytes[1:nranks] += nbytes_each

    def per_rank_dict(self) -> dict:
        charged = np.nonzero((self.rank_messages != 0) | (self.rank_bytes != 0))[0]
        return {
            int(r): {"messages": int(self.rank_messages[r]), "bytes": int(self.rank_bytes[r])}
            for r in charged
        }


@dataclass
class CommLedger:
    """Modeled communication seconds, split by whether compute hid them.

    `total_s` is what the cost model charged; `hidden_s` the part that
    the modeled window passed to `SimulatedComm.wait` covered;
    `exposed_s` the remainder that a real run would stall on. A wait
    with no window (a blocking use) is fully exposed by construction.
    """

    total_s: float = 0.0
    hidden_s: float = 0.0
    exposed_s: float = 0.0

    def settle(self, cost_s: float, hidden_window_s: float) -> None:
        hidden = min(cost_s, max(hidden_window_s, 0.0))
        self.total_s += cost_s
        self.hidden_s += hidden
        self.exposed_s += cost_s - hidden


class CommRequest:
    """Handle for one in-flight nonblocking operation.

    The functional result already exists (the sim is synchronous); the
    request carries it plus the modeled cost, and `SimulatedComm.wait`
    settles the exposed/hidden split against the modeled window the
    caller passes.
    """

    __slots__ = ("op", "result", "cost_s", "nbytes", "done")

    def __init__(self, op: str, result, cost_s: float, nbytes: int):
        self.op = op
        self.result = result
        self.cost_s = cost_s
        self.nbytes = nbytes
        self.done = False


class SimulatedComm:
    """An MPI_COMM_WORLD of `nranks` simulated ranks.

    Parameters
    ----------
    nranks : number of simulated ranks.
    fault_injector : optional `repro.resilience.FaultInjector`;
        collectives may then abort with a `RankFailure` (a simulated
        dead rank), which the resilient driver answers with rank
        exclusion.
    cost_model : `CommCostModel` pricing every operation into `ledger`
        (defaults to the standard alpha-beta-tree model).
    tracer : optional enabled `repro.telemetry.Tracer` — every
        traffic-incrementing operation then emits a "comm" span.
    """

    def __init__(self, nranks: int, fault_injector=None,
                 cost_model: "CommCostModel | None" = None, tracer=None):
        if nranks < 1:
            raise ValueError("need at least one rank")
        self.nranks = nranks
        self.traffic = _Traffic()
        self.ledger = CommLedger()
        self.cost_model = cost_model or CommCostModel()
        self.tracer = tracer if (tracer is not None and tracer.enabled) else None
        self.fault_injector = fault_injector

    # -- Fault hook ------------------------------------------------------------

    def _maybe_fail(self, op: str) -> None:
        if self.fault_injector is not None:
            self.fault_injector.check("rank", detail=op)

    # -- Accounting ------------------------------------------------------------

    def _account_reduction(self, nbytes_each: int, count: int = 1) -> int:
        """Traffic of `count` tree allreduces; returns the total bytes moved.

        Totals keep the historic formula (2 (P-1) messages, 2 payload
        (P-1) bytes) per reduction. Per-rank attribution uses the
        reduce+bcast view: each non-root rank sends its payload up and
        receives the result down; the root's relaying is folded into
        those legs so the per-rank sum equals the communicator total.
        The per-rank charge is one vectorized slice update regardless of
        P or `count`, so accounting stays O(1) per collective even on
        O(1000)-rank communicators.
        """
        p = self.nranks
        self.traffic.reductions += count
        total = 2 * nbytes_each * (p - 1) * count
        self.traffic.messages += 2 * (p - 1) * count
        self.traffic.bytes += total
        self.traffic.charge_nonroot(p, 2 * count, 2 * nbytes_each * count)
        return total

    def _span(self, op: str, nbytes: int):
        """One "comm"-category span (or a no-op context when untraced)."""
        if self.tracer is None:
            return NULL_SPAN
        return self.tracer.span(
            op, category="comm", meta={"bytes": int(nbytes), "ranks": self.nranks},
        )

    # -- Collectives ------------------------------------------------------------

    def iallreduce_sum_stacked(self, stacked: np.ndarray,
                               nbytes_each: "int | None" = None) -> CommRequest:
        """Post a sum-allreduce whose contributions arrive pre-stacked.

        `stacked` has shape (nranks, ...): row r is rank r's
        contribution, and the result is the sum over axis 0. Validation
        and accounting are O(1) array ops, which is what lets the
        vectorized rank layer post one collective for O(1000) ranks
        without a Python loop. `nbytes_each` overrides the priced
        per-rank payload (defaults to one row's bytes); the distributed
        momentum operator prices a full (ndof,) vector per rank, the
        payload a rank-local operator would exchange.
        """
        stacked = np.asarray(stacked)
        if stacked.ndim < 1 or stacked.shape[0] != self.nranks:
            raise ValueError(
                f"stacked contributions must have leading axis nranks={self.nranks}, "
                f"got shape {stacked.shape}"
            )
        # Real numbers: (un)signed ints, floats and timedeltas; no bool,
        # complex or non-numeric kinds.
        if stacked.dtype.kind not in "iufm":
            raise TypeError(
                f"allreduce_sum: contributions must be real numeric arrays, got {stacked.dtype}"
            )
        self._maybe_fail("allreduce_sum")
        row_bytes = stacked[0].nbytes if nbytes_each is None else int(nbytes_each)
        total = self._account_reduction(row_bytes)
        cost = self.cost_model.allreduce_time(self.nranks, row_bytes)
        result = np.add.reduce(np.asarray(stacked, dtype=np.float64), axis=0)
        return CommRequest("allreduce_sum", result, cost, total)

    def iallreduce_min_batch(self, values: np.ndarray) -> CommRequest:
        """Post `k` independent scalar min-allreduces as one batch.

        `values` has shape (nranks,) for one reduction or (nranks, k)
        for k of them; the result is the column-wise minimum (a float
        for the 1-D form, an array of k floats otherwise). Priced and
        accounted as k scalar tree reductions.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.ndim not in (1, 2) or values.shape[0] != self.nranks:
            raise ValueError(
                f"values must have shape (nranks,) or (nranks, k) with "
                f"nranks={self.nranks}, got {values.shape}"
            )
        self._maybe_fail("allreduce_min")
        k = 1 if values.ndim == 1 else values.shape[1]
        total = self._account_reduction(8, count=k)
        cost = k * self.cost_model.allreduce_time(self.nranks, 8)
        result = float(values.min()) if values.ndim == 1 else values.min(axis=0)
        return CommRequest("allreduce_min", result, cost, total)

    def wait(self, req: CommRequest, window_s: float = 0.0):
        """Complete one request: settle its cost, emit its span.

        `window_s` is the modeled compute the request was in flight
        under; it hides up to the request's cost (`CommLedger.settle`).
        The default, no window, is a blocking use: fully exposed.
        """
        if req.done:
            raise RuntimeError(f"request '{req.op}' already completed")
        req.done = True
        with self._span(req.op, req.nbytes):
            self.ledger.settle(req.cost_s, window_s)
        return req.result


@dataclass(frozen=True)
class CommCostModel:
    """Alpha-beta-tree communication cost model.

    alpha_s: per-message latency; beta_s_per_byte: inverse bandwidth.
    Collectives over P ranks cost log2(P) rounds (binomial tree).
    """

    alpha_s: float = 2e-6
    beta_s_per_byte: float = 1.0 / 5e9

    def p2p_time(self, nbytes: float) -> float:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return self.alpha_s + nbytes * self.beta_s_per_byte

    def allreduce_time(self, nranks: int, nbytes: float) -> float:
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        if nranks == 1:
            return 0.0
        rounds = (int(nranks) - 1).bit_length()  # ceil(log2 P), exact
        return 2 * rounds * self.p2p_time(nbytes)

    def neighbor_exchange_time(self, nbytes_per_neighbor: float, nneighbors: int) -> float:
        if nneighbors < 0:
            raise ValueError("nneighbors must be non-negative")
        return nneighbors * self.p2p_time(nbytes_per_neighbor)
