"""Shared-DOF groups across MPI ranks (paper Figure 10).

"Finite element degrees of freedom (DOFs) shared by multiple MPI tasks
are grouped by the set (group) of tasks sharing them and each group is
assigned to one of the tasks in the group (the master). This results in
a non-overlapping decomposition of the global vectors..."

`build_dof_groups` computes exactly that structure from an H1 space and
a zone partition: each dof's sharing ranks, its master, and per rank the
dofs it shares. `split_interface_zones` then tells each rank which of its
zones touch the interface, the zones whose contributions need the group
exchange.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fem.spaces import H1Space

__all__ = ["DofGroups", "build_dof_groups", "interface_dofs", "split_interface_zones"]


@dataclass
class DofGroups:
    """Group structure of the kinematic dofs under a zone partition.

    Attributes
    ----------
    nranks : ranks in the partition.
    dof_ranks : list (len ndof) of sorted rank tuples sharing each dof.
    master : (ndof,) owning rank of each dof (min rank of its group).
    shared_dofs : per rank, the dofs it touches that others also touch.
    """

    nranks: int
    dof_ranks: list[tuple[int, ...]]
    master: np.ndarray
    shared_dofs: list[np.ndarray]

    @property
    def ndof(self) -> int:
        return self.master.size

    def groups(self) -> dict[tuple[int, ...], np.ndarray]:
        """Map group (rank tuple) -> dof ids, the paper's Figure 10."""
        out: dict[tuple[int, ...], list[int]] = {}
        for dof, ranks in enumerate(self.dof_ranks):
            out.setdefault(ranks, []).append(dof)
        return {g: np.asarray(d) for g, d in out.items()}


def build_dof_groups(space: H1Space, zone_rank: np.ndarray) -> DofGroups:
    """Compute the dof group structure from a zone->rank partition."""
    zone_rank = np.asarray(zone_rank, dtype=np.int64)
    if zone_rank.shape != (space.mesh.nzones,):
        raise ValueError("zone_rank must assign every zone exactly once")
    if zone_rank.size and zone_rank.min() < 0:
        raise ValueError("ranks must be non-negative")
    nranks = int(zone_rank.max()) + 1 if zone_rank.size else 1
    touched: list[set[int]] = [set() for _ in range(space.ndof)]
    for z in range(space.mesh.nzones):
        r = int(zone_rank[z])
        for dof in space.ldof[z]:
            touched[int(dof)].add(r)
    dof_ranks = [tuple(sorted(s)) for s in touched]
    if any(not r for r in dof_ranks):
        raise ValueError("found a dof touched by no zone (corrupt space)")
    master = np.array([r[0] for r in dof_ranks], dtype=np.int64)
    shared: list[list[int]] = [[] for _ in range(nranks)]
    for dof, ranks in enumerate(dof_ranks):
        if len(ranks) > 1:
            for r in ranks:
                shared[r].append(dof)
    return DofGroups(
        nranks=nranks,
        dof_ranks=dof_ranks,
        master=master,
        shared_dofs=[np.asarray(s, dtype=np.int64) for s in shared],
    )


def interface_dofs(groups: DofGroups) -> np.ndarray:
    """The global interface: dofs shared by more than one rank."""
    return np.flatnonzero([len(r) > 1 for r in groups.dof_ranks])


def split_interface_zones(
    space: H1Space, zone_rank: np.ndarray, groups: DofGroups
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per rank, its (interface_zones, interior_zones) split.

    A zone is *interface* when it touches at least one shared dof —
    its assembly contributions need the group exchange. Interior zones
    touch only rank-private dofs, so their corner-force evaluation can
    run while the interface exchange is in flight: this split is the
    comm/compute overlap window of the distributed backend.
    """
    zone_rank = np.asarray(zone_rank, dtype=np.int64)
    shared = np.zeros(space.ndof, dtype=bool)
    shared[interface_dofs(groups)] = True
    zone_touches_iface = shared[space.ldof].any(axis=1)
    out = []
    for r in range(groups.nranks):
        zones = np.flatnonzero(zone_rank == r)
        mask = zone_touches_iface[zones]
        out.append((zones[mask], zones[~mask]))
    return out
