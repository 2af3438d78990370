"""`DistributedBackend`: the simulated-MPI layer as an execution backend.

The paper's Section 3.4 claim is that the MPI level and the CPU/GPU
corner-force level are independent, composable layers. This module is
that composition for the repro: `RunConfig(ranks=N, backend=<any>)`
builds one ordinary `LagrangianHydroSolver` whose backend is a
`DistributedBackend` holding one *node* backend (cpu-fused /
cpu-sumfact / hybrid) that evaluates every rank's zones. The solver's
time loop, integrator, telemetry and resilience hooks are all the
standard ones — the distributed layer only changes how the corner
force is evaluated and how the mass operator is applied, and it does
both with stacked array operations over the rank axis, so the
functional layer steps O(100-1000) simulated ranks in seconds and
reproduces the paper's Figs 12-13 weak/strong curves measured, not
just modeled:

- corner forces: the node engine's own `compute` evaluates every zone
  in one call, whatever the node's flavour, exactly as a single-process
  run does. Every rank's zones are split into *interface* zones
  (touching shared dofs) and *interior* zones; the interface zones'
  per-rank momentum-RHS partials land in a (nranks, n_iface, dim)
  stack via `np.bincount` and are exchanged through one
  `iallreduce_sum_stacked`. With `overlap` on, the exchange settles
  against a modeled window: the corner force of the rank with the
  fewest interior zones, priced on one core of the paper's CPU, which
  the rank would evaluate while the exchange is in flight. Physics is
  bitwise identical either way, and the ledger reads no clock — only
  the `CommLedger` exposed/hidden split moves.
- time step: the result's per-zone dt minima (one CFL pass) fold into
  per-rank minima by `np.minimum.at`, combined through
  `iallreduce_min_batch`.
- momentum PCG: `VectorizedDistributedMomentumSolver` computes every
  zone's product of the global partial-assembly `MassAction` once,
  scatters them all into the result and replaces the interface rows
  with the sum of per-rank partials stacked from the interface zones'
  rows of the same products, exchanged through one
  `iallreduce_sum_stacked` priced as a full (ndof,) vector per rank,
  with the tolerances the solver's `RunConfig` (`solver.config`) sets.

At a fixed rank count P a run's traffic has a closed form in its force
evaluations F and operator applies S: `2F + S` reductions (one
interface exchange and one dt minimum per evaluation, one exchange per
apply), each priced as `2(P-1)` tree messages.

Resilience routes through the same object (`exclude_rank` rebuilds the
partition; `swap_node` records a rank's degraded node after a sticky
device fault), and when the node is hybrid it is also the in-band
scheduler's tuning target: all ranks model identical hardware, so the
split it prices over the largest rank's zones holds for every rank.

Elasticity: `resize_ranks` repartitions to a new rank count mid-run
(deterministic RCB on the initial zone centroids, traffic/ledger carried
over, a `rank_resize` trace instant emitted), and a `rank_schedule`
("step:ranks,step:ranks,...") drives resizes from the solver's step
hook — grow 4->8 or shrink 8->3 under a running job, building on the
same rebuild path `exclude_rank` uses. The schedule is parsed by
`repro.config.parse_rank_schedule`, the function `RunConfig` validates
it with, so a malformed schedule is a `ConfigError` when the config is
built, not when the solver is.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.backends.base import _SolverRef
from repro.config import parse_rank_schedule
from repro.hydro.corner_force import ForceResult
from repro.hydro.momentum import MomentumSolver
from repro.runtime.groups import (
    DofGroups,
    build_dof_groups,
    interface_dofs,
    split_interface_zones,
)
from repro.runtime.mpi_sim import SimulatedComm

__all__ = [
    "DistributedBackend",
    "VectorizedDistributedMomentumSolver",
]

#: The CPU whose single core prices the interface exchange's hiding
#: window (`DistributedBackend._price_window`).
WINDOW_CPU = "E5-2670"


@dataclass
class _RankData:
    """One simulated rank: its zones and the name of the node it runs.

    Every rank evaluates on the backend's one node; `node_name` records
    what the rank's hardware is, which a sticky device fault degrades.
    """

    zones: np.ndarray
    interface_zones: np.ndarray
    interior_zones: np.ndarray
    node_name: str


@dataclass
class _VecPlan:
    """Precomputed index machinery for the vectorized rank step.

    Built once per partition. `ifz` are the interface zones of *all*
    ranks concatenated rank-major, and `order` is `ifz` followed by the
    interior zones, rank-major too: gathering the engine's zone-local
    RHS by `order` puts every dof's zones in rank order. `scat_idx` maps
    each (zone-dof) entry that lands on an interface dof to its flat
    (rank, iface-position) slot; `scat_src` selects the matching rows of
    the gathered zone-local RHS (all among the interface zones' leading
    rows), and `prod_src` the same entries of the mass action's
    (nzones, ndof_per_zone) zone products, so the momentum operator
    stacks its per-rank interface partials without per-rank operators.
    `rhs_rows` is the global dof of every gathered row, so the momentum
    RHS is one `np.bincount` per component.
    """

    ifz: np.ndarray        # interface zones, rank-major concat
    order: np.ndarray      # ifz, then the interior zones rank-major
    iface_dofs: np.ndarray  # the shared (interface) dof ids
    n_iface: int
    scat_idx: np.ndarray   # flat rank * n_iface + iface_pos, masked entries
    scat_src: np.ndarray   # rows into (n_ifz * ndof_per_zone) flattened arrays
    prod_src: np.ndarray   # the same entries in (nzones * ndof_per_zone) products
    rhs_rows: np.ndarray   # (nzones * ndof_per_zone,) global dofs, `order`ed
    # The operator reads neither of the last two: the benchmark's
    # per-apply bytes figure does, until it is computed from the
    # action's operands.
    ldof_ifz: np.ndarray   # (n_ifz, ndof_per_zone) dof map of interface zones
    mass_blocks: np.ndarray  # (n_ifz, ndz, ndz) interface-zone mass blocks


class VectorizedDistributedMomentumSolver(MomentumSolver):
    """Momentum PCG whose operator is the group sum over the ranks.

    The operator computes every zone's mass-action product once and
    scatters them all into the result, which is exact at private dofs,
    where a single rank owns every contribution. It then replaces the
    interface-dof rows with a genuine sum of per-rank partials — the
    interface zones' rows of the same products, stacked by rank and
    exchanged through one collective priced at a full (ndof,) vector
    per rank, the payload a rank-local operator would exchange.
    """

    def __init__(self, mass, action, bc, plan, nranks, comm, tol=1e-14, maxiter=None):
        super().__init__(mass, action, bc, tol=tol, maxiter=maxiter)
        self.plan = plan
        self.nranks = nranks
        self.comm = comm

    def matvec(self, x: np.ndarray) -> np.ndarray:
        products = self.action.zone_products(x)
        y = self.action.scatter(products)
        p = self.plan
        stacked = np.bincount(
            p.scat_idx, weights=products.reshape(-1)[p.prod_src],
            minlength=self.nranks * p.n_iface,
        ).reshape(self.nranks, p.n_iface)
        iface_sum = self.comm.wait(
            self.comm.iallreduce_sum_stacked(stacked, nbytes_each=x.nbytes)
        )
        y[p.iface_dofs] = iface_sum
        return y


class DistributedBackend(_SolverRef):
    """Simulated-MPI execution over one node backend.

    Parameters
    ----------
    nranks : simulated ranks (>= 1).
    node : registry name of the node backend that evaluates every
        rank's zones ("cpu-fused" / "cpu-sumfact" / "hybrid"). Whatever
        its flavour, its engine's own `compute` evaluates every rank's
        zones in one call.
    node_kwargs : forwarded to the node backend's constructor.
    zone_rank : optional explicit zone -> rank map (default: RCB).
    overlap : price the interface-dof exchange as hidden under the
        modeled interior-zone compute (`window_s`); pricing only,
        physics is bitwise identical.
    rank_schedule : optional "step:ranks,step:ranks,..." elastic-rank
        schedule, e.g. "10:8,20:3" grows to 8 ranks after step 10 and
        shrinks to 3 after step 20 (driven by the solver's step hook).
    fault_injector : optional injector wired into the communicator.
    cost_model : optional `CommCostModel` pricing the communicator.
    """

    name = "distributed"

    def __init__(
        self,
        nranks: int,
        node: str = "cpu-fused",
        node_kwargs: dict | None = None,
        zone_rank: np.ndarray | None = None,
        overlap: bool = True,
        rank_schedule: str | None = None,
        fault_injector=None,
        cost_model=None,
    ):
        if nranks < 1:
            raise ValueError("need at least one rank")
        self.nranks = nranks
        self.node_name = node
        self.node_kwargs = dict(node_kwargs or {})
        self.overlap = bool(overlap)
        self.rank_schedule = parse_rank_schedule(rank_schedule)
        self._zone_rank_init = zone_rank
        self._initial_nranks = nranks
        self.fault_injector = fault_injector
        self.cost_model = cost_model
        self.engine = None
        self.node = None
        self.comm: SimulatedComm | None = None
        self.groups: DofGroups | None = None
        self.zone_rank: np.ndarray | None = None
        self.ranks: list[_RankData] = []
        self.momentum: "MomentumSolver | None" = None
        self._iface_dofs: np.ndarray | None = None
        self._vec_plan: _VecPlan | None = None
        self._rhs_slot = 0
        #: Modeled seconds the interface exchange hides under (0 with
        #: `overlap` off); priced per partition by `_price_window`.
        self.window_s = 0.0
        self._schedule_fired: set[int] = set()
        #: (step, nranks, reason) transitions, surfaced in the manifest.
        self.rank_history: list[dict] = []

    # -- Lifecycle -----------------------------------------------------------

    def attach(self, solver) -> None:
        """Attach the node backend and take its engine."""
        if self.node is not None:
            raise RuntimeError("backend 'distributed' is already attached")
        from repro.backends.base import make_backend

        self._bind(solver)
        self.node = make_backend(self.node_name, **self.node_kwargs)
        self.node.attach_node(solver)
        self.engine = self.node.engine

    def finalize(self, solver) -> None:
        """Build the partition-derived machinery (post-construction).

        Needs the solver's mass matrices, boundary conditions and
        integrator, so it runs as the solver's last construction step:
        partition, communicator, dof groups, the stacked-step index
        plan, and the distributed momentum solver
        (installed on the solver *and* its integrator).
        """
        self.zone_rank = self._initial_zone_rank()
        if self.zone_rank.shape != (solver.problem.mesh.nzones,):
            raise ValueError("zone_rank must assign every zone")
        self.comm = SimulatedComm(
            self.nranks,
            fault_injector=self.fault_injector,
            cost_model=self.cost_model,
            tracer=solver.tracer,
        )
        self._build_partition(solver)
        solver.integrator.assemble_fn = self._assemble_rhs

    def _rcb(self, nranks: int) -> np.ndarray:
        """RCB over the initial zone centroids: a pure function of nranks."""
        from repro.fem.partition import partition_rcb

        centroids = self.solver.problem.mesh.zone_vertex_coords().mean(axis=1)
        return np.asarray(partition_rcb(centroids, nranks), dtype=np.int64)

    def _initial_zone_rank(self) -> np.ndarray:
        if self._zone_rank_init is None:
            return self._rcb(self._initial_nranks)
        return np.asarray(self._zone_rank_init, dtype=np.int64)

    def _repartition(
        self, zone_rank: np.ndarray, nranks: int, carry=True, survivors=None
    ) -> None:
        """Move to a new zone -> rank map over `nranks` ranks.

        Rebuilds the communicator — carrying the run's traffic and
        ledger over when `carry`, so totals stay cumulative — and every
        partition-derived structure. New rank `i` keeps the node name of
        old rank `survivors[i]` (default: rank `i`), so a rank degraded
        by `swap_node` stays degraded; a rank with no predecessor runs
        the node.
        """
        old_names = [r.node_name for r in self.ranks]
        names = [old_names[s] if s < len(old_names) else self.node_name
                 for s in (survivors or range(nranks))]
        old = self.comm
        self.zone_rank = zone_rank
        self.nranks = nranks
        self.comm = SimulatedComm(
            nranks,
            fault_injector=old.fault_injector,
            cost_model=old.cost_model,
            tracer=old.tracer,
        )
        if carry:
            self.comm.traffic = old.traffic
            self.comm.ledger = old.ledger
        self._build_partition(self.solver)
        for rank, name in zip(self.ranks, names):
            rank.node_name = name

    def _build_partition(self, solver) -> None:
        """(Re)build everything derived from the zone -> rank map.

        Dof groups, the ranks' interface/interior split, the stacked-step
        plan, the exchange's modeled hiding window, a hybrid node's
        per-rank pricing, and the momentum operator over them.
        """
        self.groups = build_dof_groups(solver.kinematic, self.zone_rank)
        self._iface_dofs = interface_dofs(self.groups)
        splits = split_interface_zones(solver.kinematic, self.zone_rank, self.groups)
        self.ranks = [
            _RankData(
                zones=np.flatnonzero(self.zone_rank == r),
                interface_zones=splits[r][0],
                interior_zones=splits[r][1],
                node_name=self.node_name,
            )
            for r in range(self.nranks)
        ]
        self._vec_plan = self._build_vec_plan(solver)
        self.window_s = self._price_window(solver) if self.overlap else 0.0
        if self.node.name == "hybrid":
            self._price_hybrid_node(solver)
        self.momentum = VectorizedDistributedMomentumSolver(
            solver.mass_v,
            solver.mass_v_action,
            solver.bc,
            self._vec_plan,
            self.nranks,
            self.comm,
            tol=solver.config.pcg_tol,
            maxiter=solver.config.pcg_maxiter,
        )
        solver.momentum = self.momentum
        solver.integrator.momentum = self.momentum

    def _build_vec_plan(self, solver) -> _VecPlan:
        """Precompute the rank-major index machinery (see `_VecPlan`)."""
        kin = solver.kinematic
        iface = self._iface_dofs
        n_iface = int(iface.size)
        ifz = np.concatenate(
            [r.interface_zones for r in self.ranks]
            or [np.empty(0, dtype=np.int64)]
        ).astype(np.int64, copy=False)
        inz = np.concatenate(
            [r.interior_zones for r in self.ranks]
            or [np.empty(0, dtype=np.int64)]
        ).astype(np.int64, copy=False)
        ifz_rank = np.repeat(
            np.arange(self.nranks, dtype=np.int64),
            [r.interface_zones.size for r in self.ranks],
        )
        # dof -> interface position (or -1 for private dofs).
        pos = np.full(kin.ndof, -1, dtype=np.int64)
        pos[iface] = np.arange(n_iface, dtype=np.int64)
        ldof_ifz = kin.ldof[ifz]
        posz = pos[ldof_ifz]  # (n_ifz, ndz)
        mask = (posz >= 0).ravel()
        scat_src = np.flatnonzero(mask)
        scat_idx = (ifz_rank[:, None] * n_iface + posz).ravel()[scat_src]
        ndz = kin.ndof_per_zone
        prod_src = (ifz[:, None] * ndz + np.arange(ndz)).ravel()[scat_src]
        # Interface-zone mass blocks, from the weights the global mass
        # action applies; only the benchmark reads them (see `_VecPlan`).
        action = solver.mass_v_action
        blocks = np.einsum(
            "zk,ki,kj->zij", action.qp_weights[ifz], action.basis, action.basis
        )
        order = np.concatenate([ifz, inz])
        return _VecPlan(
            ifz=ifz,
            order=order,
            iface_dofs=iface,
            n_iface=n_iface,
            scat_idx=scat_idx,
            scat_src=scat_src,
            prod_src=prod_src,
            rhs_rows=kin.ldof[order].ravel(),
            ldof_ifz=ldof_ifz,
            mass_blocks=blocks,
        )

    def _price_window(self, solver) -> float:
        """Modeled seconds the interface exchange can hide under.

        All ranks post the exchange together and each evaluates its
        interior zones while it is in flight, so the collective stays
        exposed as long as the rank with the fewest interior zones
        waits: the window is that rank's corner force, priced from its
        flops on one core of `WINDOW_CPU` (the paper's Sandy Bridge part,
        whose interconnect the default `CommCostModel` matches).
        """
        from repro.cpu import get_cpu
        from repro.cpu.core_model import CPUExecutionModel
        from repro.kernels.config import FEConfig
        from repro.kernels.registry import corner_force_costs

        n_min = min(r.interior_zones.size for r in self.ranks)
        if n_min == 0:
            return 0.0
        kin = solver.kinematic
        cfg = FEConfig(kin.dim, kin.order, n_min, solver.quad.npts_1d)
        flops = sum(c.flops for c in corner_force_costs(cfg))
        cpu = CPUExecutionModel(get_cpu(WINDOW_CPU), nprocs=1)
        return cpu.corner_force_time(flops).seconds

    def _price_hybrid_node(self, solver) -> None:
        """Price the hybrid node's CPU/GPU split over one rank's zones.

        In the paper each MPI task balances its own zones between CPU
        and GPU; the largest rank sets the step, so the node prices that
        rank's zone count. A repartition that changes the count stops
        any in-band scheduler, as `swap_node` does: its decision priced
        another zone count.
        """
        from repro.kernels.config import FEConfig

        n_max = max(r.zones.size for r in self.ranks)
        # The first partition finds the node unpriced (`attach_node`).
        if self.node.fe_cfg is not None and self.node.fe_cfg.nzones == n_max:
            return
        self.node.price(replace(FEConfig.from_solver(solver), nzones=n_max))
        sched = getattr(solver, "scheduler", None)
        if sched is not None:
            sched.finalize()

    # -- The distributed corner force ----------------------------------------

    @property
    def force_fn(self):
        if self.node is None:
            raise RuntimeError("backend 'distributed' is not attached")
        return self._compute

    def _compute(self, state) -> ForceResult:
        """One distributed corner-force evaluation over the rank axis.

        The node engine's own `compute` evaluates every zone at once, as
        in a single process; the rank layer only routes its zone-local
        momentum RHS. Gathered in `_VecPlan.order` (interface zones,
        then interior zones, each rank-major), the interface zones' rows
        land in a (nranks, n_iface, dim) stack via `np.bincount`, and
        their exchange is one `iallreduce_sum_stacked`, settled against
        `window_s`: the modeled interior-zone compute it hides under
        when `overlap` is on (zero when off, so only the ledger's
        exposed/hidden split moves). Interior zones touch no interface
        dofs, so the global RHS scatter-add followed by the overwrite of
        the interface rows with the collective's sum is the group sum of
        the ranks' partials. The per-zone dt minima fold into per-rank
        minima, reduced through one `iallreduce_min_batch`. F_z is the
        engine's own double buffer; the stack, the gathered rows and
        the two alternating RHS buffers live in the engine's workspace.
        """
        engine = self.engine
        res = engine.compute(state)
        if not res.valid:
            return res
        kin = self.solver.kinematic
        ndof, dim = kin.ndof, kin.dim
        plan = self._vec_plan
        comm = self.comm
        ws = engine.workspace

        rz = engine.force_times_one(res.Fz)  # (nzones, ndz, dim)
        rows = ws.get("dist.rhs_z", rz.shape)
        np.take(rz, plan.order, axis=0, out=rows)
        rows = rows.reshape(-1, dim)
        stacked = ws.get("dist.stacked", (self.nranks, plan.n_iface, dim))
        for d in range(dim):
            stacked[..., d] = np.bincount(
                plan.scat_idx,
                weights=rows[plan.scat_src, d],
                minlength=self.nranks * plan.n_iface,
            ).reshape(self.nranks, plan.n_iface)
        iface_sum = comm.wait(comm.iallreduce_sum_stacked(stacked), window_s=self.window_s)

        slot = self._rhs_slot
        self._rhs_slot = 1 - slot
        rhs = ws.get(f"dist.rhs{slot}", (ndof, dim))
        for d in range(dim):
            rhs[:, d] = np.bincount(plan.rhs_rows, weights=rows[:, d], minlength=ndof)
        rhs[plan.iface_dofs] = iface_sum

        per_rank_dt = np.full(self.nranks, np.inf)
        np.minimum.at(per_rank_dt, self.zone_rank, res.dt_zones)
        res.dt_est = float(comm.wait(comm.iallreduce_min_batch(per_rank_dt)))
        res.rhs_mom = rhs
        return res

    def _assemble_rhs(self, force) -> np.ndarray:
        """Integrator hook: the RHS was assembled during the force eval."""
        return force.rhs_mom

    # -- Scheduler / resilience hooks ----------------------------------------

    def tuning_target(self):
        """The hybrid node, while no rank has been degraded; else None.

        All ranks model identical hardware, so the scheduler prices the
        one node — sized to the largest rank's zones by
        `_price_hybrid_node`, as each MPI task of the paper balances its
        own zones — and its decision holds for every rank: the paper's
        per-task autotuner converging once per architecture, not once
        per rank. The node's `name` stays "hybrid", so `TuningCache`
        keys are shared with single-task hybrid runs.
        """
        if self.ranks and all(r.node_name == "hybrid" for r in self.ranks):
            return self.node
        return None

    def swap_node(self, name: str, rank: int) -> None:
        """Degrade one rank's node to `name` (sticky device fault path).

        Records the rank's new node name — the other ranks keep theirs,
        the paper's failure model being per-task — and stops any in-band
        scheduler: its split no longer describes the hardware carrying
        the run. Every rank evaluates on the one engine, so a swap
        within an engine flavour (hybrid -> cpu-fused) changes no
        arithmetic; a name whose engine flavour differs is rejected.
        """
        if not (0 <= rank < self.nranks):
            raise ValueError(f"rank {rank} out of range (nranks={self.nranks})")
        from repro.backends.base import make_backend

        nb = make_backend(name)
        if nb.sumfact != self.node.sumfact:
            raise ValueError(
                f"cannot swap rank {rank} to '{name}': its engine flavour "
                f"differs from the '{self.node_name}' node's"
            )
        self.ranks[rank].node_name = name
        sched = getattr(self.solver, "scheduler", None)
        if sched is not None:
            sched.finalize()

    def exclude_rank(self, rank: int) -> None:
        """Degrade to `nranks - 1` ranks after a simulated rank failure.

        The dead rank's zones are dealt round-robin to the survivors
        and every partition-derived structure (communicator, dof
        groups, stacked-step plan, momentum operator) is rebuilt. The
        functional layer is partition-independent, so the physics
        continues unchanged up to floating-point reordering of the
        reductions. Traffic and ledger accounting carry over so a run's
        totals stay cumulative.
        """
        if not (0 <= rank < self.nranks):
            raise ValueError(f"rank {rank} out of range (nranks={self.nranks})")
        if self.nranks == 1:
            raise ValueError("cannot exclude the last remaining rank")
        survivors = [r for r in range(self.nranks) if r != rank]
        zr = self.zone_rank.copy()
        failed_zones = np.flatnonzero(zr == rank)
        for i, z in enumerate(failed_zones):
            zr[z] = survivors[i % len(survivors)]
        remap = {old: new for new, old in enumerate(survivors)}
        self._repartition(
            np.asarray([remap[r] for r in zr], dtype=np.int64),
            self.nranks - 1,
            survivors=survivors,
        )
        self._record_transition("exclude")

    # -- Elasticity -----------------------------------------------------------

    def resize_ranks(self, new_nranks: int) -> None:
        """Repartition to `new_nranks` simulated ranks mid-run.

        Deterministic: the new partition is RCB over the *initial* zone
        centroids (the same rule the constructor uses), so a resize at a
        given step is a pure function of (mesh, new_nranks) and a resized
        run is bit-reproducible. Traffic and ledger accounting carry
        over, every partition-derived structure is rebuilt through the
        same path `exclude_rank` uses, and a `rank_resize` trace instant
        marks the transition in the Chrome trace.
        """
        if new_nranks < 1:
            raise ValueError("need at least one rank")
        if new_nranks == self.nranks:
            return
        old_nranks = self.nranks
        self._repartition(self._rcb(new_nranks), new_nranks)
        self._record_transition("resize", old_nranks=old_nranks)

    def on_step(self, steps_done: int) -> None:
        """Solver per-step hook: fire any scheduled elastic resizes.

        `steps_done` is the solver's `sim_steps` (a rolled-back step
        counts once, however often it is replayed), so a schedule fires
        at the simulation step it names.
        """
        if not self.rank_schedule:
            return
        steps_done = int(steps_done)
        target = self.rank_schedule.get(steps_done)
        if target is not None and steps_done not in self._schedule_fired:
            self._schedule_fired.add(steps_done)
            self.resize_ranks(target)

    def _record_transition(self, reason: str, old_nranks: "int | None" = None) -> None:
        """Label the transition with the solver's simulation step (the
        steps completed when it happened; a rollback rewinds it)."""
        solver = self.solver
        steps = solver.sim_steps if solver is not None else 0
        self.rank_history.append(
            {"step": steps, "nranks": int(self.nranks), "reason": reason}
        )
        tracer = solver.tracer if solver is not None else None
        if tracer is not None:
            tracer.instant(
                "rank_resize" if reason != "exclude" else "rank_exclude",
                category="comm",
                step=steps,
                nranks=int(self.nranks),
                **({"from": int(old_nranks)} if old_nranks is not None else {}),
            )

    def reset(self) -> None:
        """Rewind to the constructed configuration (warm solver reuse).

        Restores the initial rank count/partition if a resize or
        exclusion moved it, and starts fresh traffic/ledger accounting
        so a pooled distributed solver re-runs bit-identically with
        per-job communication totals.
        """
        if self.comm is None:
            return  # not finalized yet (solver.__init__ calls reset first)
        if self.nranks != self._initial_nranks or self.rank_history:
            self._repartition(
                self._initial_zone_rank(), self._initial_nranks, carry=False
            )
        else:
            from repro.runtime.mpi_sim import CommLedger, _Traffic

            self.comm.traffic = _Traffic()
            self.comm.ledger = CommLedger()
        self.rank_history = []
        self._schedule_fired = set()

    # -- Housekeeping --------------------------------------------------------

    def describe(self) -> dict:
        out = {
            "backend": self.name,
            "ranks": self.nranks,
            "node": self.node_name,
            "overlap": self.overlap,
        }
        if self.rank_schedule:
            out["rank_schedule"] = dict(self.rank_schedule)
        if self.rank_history:
            out["rank_history"] = list(self.rank_history)
        if self.node is not None:
            out["node_detail"] = self.node.describe()
        return out
