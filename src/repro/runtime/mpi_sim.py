"""Single-process MPI simulator.

Runs `nranks` logical ranks inside one process: rank-local payloads,
collectives with the semantics the solver needs (min-reductions for the
global time step, sums for assembly), and byte/message accounting that
the communication cost model prices. The functional layer is exact —
collectives really combine the rank-local arrays — so distributed
algorithms can be validated against their serial counterparts without
real MPI.

Beyond the blocking collectives, the communicator offers MPI-style
nonblocking primitives (`iallreduce_min` / `iallreduce_sum` / `isend` /
`irecv` returning `CommRequest` handles completed by `wait` /
`waitall`). The *functional* result is computed eagerly — the sim has
no real asynchrony — but the *modeled* cost is settled at completion:
wall time elapsed between post and wait counts as compute the transfer
hid under, and only the remainder lands in `CommLedger.exposed_s`.
That is the pricing rule that makes communication/computation overlap
measurable without double-counting hidden time.

With a `Tracer` attached, every traffic-incrementing operation emits
one span of category "comm" (name = the collective, meta = bytes/ranks)
at its completion point, so the summed span bytes always equal
`traffic.bytes`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

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

    def charge_rank(self, rank: int, messages: int, nbytes: int) -> None:
        self._ensure(rank + 1)
        self.rank_messages[rank] += messages
        self.rank_bytes[rank] += nbytes

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
    overlapped with computation between a nonblocking post and its
    wait; `exposed_s` the remainder that a real run would stall on.
    Blocking operations are fully exposed by construction.
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
    settles the exposed/hidden split against the wall-clock window the
    caller kept it in flight.
    """

    __slots__ = ("op", "result", "cost_s", "nbytes", "posted_at", "done", "_recv")

    def __init__(self, op: str, result, cost_s: float, nbytes: int, recv=None):
        self.op = op
        self.result = result
        self.cost_s = cost_s
        self.nbytes = nbytes
        self.posted_at = perf_counter()
        self.done = False
        self._recv = recv  # lazy (src, dest, tag) for irecv


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
        self._mailboxes: dict[tuple[int, int, int], list] = {}
        self.fault_injector = fault_injector

    # -- Validation ------------------------------------------------------------

    def _check_contribs(self, contribs: list) -> None:
        if len(contribs) != self.nranks:
            raise ValueError(f"expected one contribution per rank ({self.nranks})")

    def _check_rank(self, rank: int, name: str) -> None:
        if not (0 <= rank < self.nranks):
            raise ValueError(
                f"{name} rank {rank} out of range for a {self.nranks}-rank communicator"
            )

    def _validate_arrays(self, op: str, contribs: list) -> list[np.ndarray]:
        """Coerce + validate per-rank arrays, naming the offending rank.

        Shape/dtype mismatches would otherwise surface as raw NumPy
        broadcast errors deep inside the reduction; here they fail fast
        with the rank that contributed the bad payload.
        """
        self._check_contribs(contribs)
        arrays = [np.asarray(c) for c in contribs]
        for rank, a in enumerate(arrays):
            if not np.issubdtype(a.dtype, np.number) or np.issubdtype(a.dtype, np.complexfloating):
                raise TypeError(
                    f"{op}: rank {rank} contributed dtype {a.dtype}; "
                    "contributions must be real numeric arrays"
                )
        shape = arrays[0].shape
        for rank, a in enumerate(arrays[1:], start=1):
            if a.shape != shape:
                raise ValueError(
                    f"{op}: rank {rank} contributed shape {a.shape}, "
                    f"expected {shape} (rank 0's shape)"
                )
        return [np.asarray(a, dtype=np.float64) for a in arrays]

    def _validate_scalars(self, op: str, contribs: list) -> list[float]:
        self._check_contribs(contribs)
        out = []
        for rank, c in enumerate(contribs):
            if np.ndim(c) != 0:
                raise ValueError(
                    f"{op}: rank {rank} contributed shape {np.shape(c)}, "
                    "expected a scalar"
                )
            try:
                out.append(float(c))
            except (TypeError, ValueError):
                raise TypeError(
                    f"{op}: rank {rank} contributed {type(c).__name__!s}, "
                    "expected a real scalar"
                ) from None
        return out

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

    def _span(self, op: str, nbytes: int, **meta):
        """One "comm"-category span (or a no-op context when untraced)."""
        if self.tracer is None:
            from repro.telemetry.tracer import NULL_SPAN

            return NULL_SPAN
        return self.tracer.span(
            op, category="comm",
            meta={"bytes": int(nbytes), "ranks": self.nranks, **meta},
        )

    # -- Collectives (blocking = post + immediate wait) --------------------------

    def allreduce_min(self, contribs: list[float]) -> float:
        """Global minimum (the paper's min-dt reduction, step 5)."""
        return self.wait(self.iallreduce_min(contribs))

    def allreduce_sum(self, contribs: list[np.ndarray]) -> np.ndarray:
        """Global element-wise sum of equal-shaped arrays."""
        return self.wait(self.iallreduce_sum(contribs))

    def bcast(self, value, root: int = 0):
        if not (0 <= root < self.nranks):
            raise ValueError("root out of range")
        nbytes = value.nbytes if isinstance(value, np.ndarray) else 8
        total = nbytes * (self.nranks - 1)
        self.traffic.messages += self.nranks - 1
        self.traffic.bytes += total
        self.traffic._ensure(self.nranks)
        self.traffic.rank_messages[: self.nranks] += 1
        self.traffic.rank_bytes[: self.nranks] += nbytes
        self.traffic.rank_messages[root] -= 1
        self.traffic.rank_bytes[root] -= nbytes
        cost = self.cost_model.allreduce_time(self.nranks, nbytes) / 2.0
        with self._span("bcast", total, root=root):
            self.ledger.settle(cost, 0.0)
        return value

    # -- Nonblocking primitives --------------------------------------------------

    def iallreduce_min(self, contribs: list[float]) -> CommRequest:
        """Post a nonblocking global-min reduction; complete with `wait`."""
        vals = self._validate_scalars("allreduce_min", contribs)
        self._maybe_fail("allreduce_min")
        total = self._account_reduction(8)
        cost = self.cost_model.allreduce_time(self.nranks, 8)
        return CommRequest("allreduce_min", float(min(vals)), cost, total)

    def iallreduce_sum(self, contribs: list[np.ndarray]) -> CommRequest:
        """Post a nonblocking element-wise sum; complete with `wait`."""
        arrays = self._validate_arrays("allreduce_sum", contribs)
        self._maybe_fail("allreduce_sum")
        nbytes = arrays[0].nbytes
        total = self._account_reduction(nbytes)
        cost = self.cost_model.allreduce_time(self.nranks, nbytes)
        return CommRequest("allreduce_sum", np.sum(arrays, axis=0), cost, total)

    def iallreduce_sum_stacked(self, stacked: np.ndarray,
                               nbytes_each: "int | None" = None) -> CommRequest:
        """Post a sum-allreduce whose contributions arrive pre-stacked.

        `stacked` has shape (nranks, ...): row r is rank r's
        contribution. Functionally identical to
        `iallreduce_sum(list(stacked))` — the result is the sum over
        axis 0 — but validation and accounting are O(1) array ops, which
        is what lets the vectorized rank layer post one collective for
        O(1000) ranks without a Python loop. `nbytes_each` overrides the
        priced per-rank payload (defaults to one row's bytes); the
        distributed momentum operator prices a full (ndof,) vector per
        rank, the payload a rank-local operator would exchange.
        """
        stacked = np.asarray(stacked)
        if stacked.ndim < 1 or stacked.shape[0] != self.nranks:
            raise ValueError(
                f"stacked contributions must have leading axis nranks={self.nranks}, "
                f"got shape {stacked.shape}"
            )
        if not np.issubdtype(stacked.dtype, np.number) or np.issubdtype(
            stacked.dtype, np.complexfloating
        ):
            raise TypeError(
                f"allreduce_sum: contributions must be real numeric arrays, got {stacked.dtype}"
            )
        self._maybe_fail("allreduce_sum")
        row_bytes = stacked[0].nbytes if nbytes_each is None else int(nbytes_each)
        total = self._account_reduction(row_bytes)
        cost = self.cost_model.allreduce_time(self.nranks, row_bytes)
        result = np.sum(np.asarray(stacked, dtype=np.float64), axis=0)
        return CommRequest("allreduce_sum", result, cost, total)

    def iallreduce_min_batch(self, values: np.ndarray) -> CommRequest:
        """Post `k` independent scalar min-allreduces as one batch.

        `values` has shape (nranks,) for one reduction or (nranks, k)
        for k of them; the result is the column-wise minimum (a float
        for the 1-D form, an array of k floats otherwise). Priced and
        accounted as k scalar tree reductions — the same totals as k
        separate `iallreduce_min` calls.
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

    def isend(self, payload: np.ndarray, src: int, dest: int, tag: int = 0) -> CommRequest:
        """Post a nonblocking send (the mailbox deposit happens eagerly)."""
        self._check_rank(src, "src")
        self._check_rank(dest, "dest")
        if src == dest:
            raise ValueError("self-sends are not modelled")
        payload = np.asarray(payload)
        self._mailboxes.setdefault((src, dest, tag), []).append(payload.copy())
        self.traffic.messages += 1
        self.traffic.bytes += payload.nbytes
        self.traffic.charge_rank(src, 1, payload.nbytes)
        cost = self.cost_model.p2p_time(payload.nbytes)
        return CommRequest("send", None, cost, payload.nbytes)

    def irecv(self, src: int, dest: int, tag: int = 0) -> CommRequest:
        """Post a nonblocking receive; the payload materializes at `wait`."""
        self._check_rank(src, "src")
        self._check_rank(dest, "dest")
        req = CommRequest("recv", None, 0.0, 0, recv=(src, dest, tag))
        return req

    def wait(self, req: CommRequest):
        """Complete one request: settle its cost, emit its span."""
        if req.done:
            raise RuntimeError(f"request '{req.op}' already completed")
        req.done = True
        if req._recv is not None:
            # The transfer was priced and accounted on the send side;
            # completing the receive just hands over the payload.
            src, dest, tag = req._recv
            req.result = self._pop_mailbox(src, dest, tag)
        hidden_window = perf_counter() - req.posted_at
        with self._span(req.op, req.nbytes):
            self.ledger.settle(req.cost_s, hidden_window)
        return req.result

    def waitall(self, reqs: list[CommRequest]) -> list:
        """Complete a batch of requests in posting order."""
        return [self.wait(r) for r in reqs]

    # -- Point to point ---------------------------------------------------------

    def send(self, payload: np.ndarray, src: int, dest: int, tag: int = 0) -> None:
        self.wait(self.isend(payload, src, dest, tag))

    def recv(self, src: int, dest: int, tag: int = 0) -> np.ndarray:
        self._check_rank(src, "src")
        self._check_rank(dest, "dest")
        return self.wait(self.irecv(src, dest, tag))

    def _pop_mailbox(self, src: int, dest: int, tag: int) -> np.ndarray:
        box = self._mailboxes.get((src, dest, tag))
        if not box:
            pending = sorted(
                (s, d, t) for (s, d, t), msgs in self._mailboxes.items() if msgs
            )
            raise RuntimeError(
                f"recv on empty mailbox: no message from rank {src} to rank {dest} "
                f"with tag {tag} (pending mailboxes: {pending or 'none'})"
            )
        return box.pop(0)


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
        rounds = int(np.ceil(np.log2(nranks)))
        return 2 * rounds * self.p2p_time(nbytes)

    def neighbor_exchange_time(self, nbytes_per_neighbor: float, nneighbors: int) -> float:
        if nneighbors < 0:
            raise ValueError("nneighbors must be non-negative")
        return nneighbors * self.p2p_time(nbytes_per_neighbor)
