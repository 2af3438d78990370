"""Corner force assembly — the computational hot spot of BLAST.

Implements equation (4)/(5)/(6): per zone z, the corner force matrix

    F_z = A_z B^T,
    (A_z)_{(i,d),k} = alpha_k [ sigma_hat(q_k) : J_z^{-1}(q_k)
                                 grad_hat w_i(q_k) e_d ] |J_z(q_k)|,
    (B)_{j,k} = phi_hat_j(q_k),

followed by the two contractions the time integrator needs: -F.1
(momentum right-hand side, kernel 8) and F^T v (energy right-hand side,
kernel 10).

Two formulations are provided:

* `ForceEngine` — the *batched* formulation of the paper's GPU redesign,
  as a zero-allocation hot path mirroring its register-blocked kernels:
  every stage is a vectorized contraction over all zones and quadrature
  points at once, all einsum contraction paths are planned once at
  construction, every intermediate writes into a `Workspace` buffer,
  geometry is evaluated once per RK2 stage into a read-only per-`x`
  cache, and the corner-force matrix is produced by a single fused
  five-operand contraction. The stages run under the span labels of the
  paper's Table 2 so the hardware cost models can meter each kernel.
  `SumfactForceEngine` is its matrix-free, sum-factorized subclass.
* `corner_force_loops` — the original CPU structure (outer loop over
  zones, inner loop over quadrature points, scalar math per point, the
  stress from `tensor_viscosity`), kept as the independently-written
  reference the batched path is validated against. The two agree to a
  few ULPs (~1e-15 relative; the fused contractions reorder
  mathematically-identical floating point).

The fused stages also evaluate any zone subset prepared with
`prepare_subset` (`compute_subset`): the simulated ranks' interface and
interior phases and the zone-parallel executor's chunks all go through
that one entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fem.geometry import GeometryAtPoints, GeometryEvaluator
from repro.fem.quadrature import QuadratureRule
from repro.fem.spaces import H1Space, L2Space
from repro.hydro.state import HydroState
from repro.hydro.viscosity import ViscosityCoefficients, ViscosityKernel, tensor_viscosity
from repro.hydro.workspace import Workspace
from repro.kernels.base import span_label
from repro.linalg.smallmat import batched_adjugate, batched_det
from repro.linalg.svd_small import batched_singular_values
from repro.telemetry.tracer import NULL_SPAN

__all__ = [
    "ForceEngine",
    "ForceResult",
    "PointData",
    "SumfactForceEngine",
    "SumfactStress",
    "ZoneSubset",
    "corner_force_loops",
]

# Table 2 span names for the kernel-aligned stages of the fused path:
# geometry (adjugate/det/SVD), pointwise stress (EoS + grad v + viscosity),
# and the fused A_z B^T contraction (kernels 5/6/7 in one einsum).
_K_GEOMETRY = span_label(1)
_K_STRESS = span_label(2)
_K_FORCE = span_label(7)


@dataclass
class PointData:
    """Per-(zone, quadrature point) thermodynamic fields."""

    rho: np.ndarray
    e: np.ndarray
    pressure: np.ndarray
    sound_speed: np.ndarray
    grad_v: np.ndarray
    sigma: np.ndarray
    mu_max: np.ndarray


@dataclass
class ForceResult:
    """Output of one corner-force evaluation.

    Fz has layout (nzones, ndof_h1_zone, dim, ndof_l2_zone); the paper's
    2D matrix view flattens (i, d) into the row index (e.g. 81 x 8 for
    3D Q2-Q1 zones). A zone-subset evaluation also carries `dt_zones`,
    the per-zone CFL minima (dt_est is their min).
    """

    Fz: np.ndarray
    geometry: GeometryAtPoints
    points: PointData
    dt_est: float
    valid: bool = True
    dt_zones: np.ndarray | None = field(default=None, repr=False)


@dataclass(eq=False)
class ZoneSubset:
    """A zone subset prepared once for `ForceEngine.compute_subset`.

    Everything that depends only on the zone ids is gathered here when
    the subset is prepared: the kinematic and L2 gather rows, the rows
    of the conserved pointwise mass, and the slice of a per-zone-gamma
    EOS. The private `workspace` (on the engine's arena) leases its
    buffers on the first evaluation, so later evaluations of the same
    subset allocate nothing.
    """

    zones: np.ndarray    # (n,) zone ids
    ldof: np.ndarray     # (n, ndof_h1_zone) kinematic gather rows
    ldof_l2: np.ndarray  # (n, ndof_l2_zone) thermodynamic gather rows
    mass_qp: np.ndarray  # (n, nqp) rho0 |J0| rows
    eos: object
    workspace: Workspace


class ForceEngine:
    """Batched corner-force evaluator (the redesigned formulation).

    Parameters
    ----------
    kinematic, thermodynamic : the Qk / Qk-1 spaces.
    quad : shared quadrature rule (2k points per dimension reproduces
        the paper's operator shapes).
    eos : object with pressure(rho, e) and sound_speed(rho, e).
    rho0_qp : (nzones, nqp) initial density at quadrature points.
    geometry0 : initial-configuration geometry (sets the conserved
        pointwise mass rho0 |J0|).
    viscosity : tensor artificial viscosity coefficients.
    workspace : buffer pool for every intermediate (a private one is
        created when omitted); subset workspaces share its arena.
    tracer : optional enabled `repro.telemetry.Tracer`; when given, the
        full-batch `compute` emits one "kernel"-category span per
        Table 2 stage (geometry / pointwise stress / fused contraction).
    """

    def __init__(
        self,
        kinematic: H1Space,
        thermodynamic: L2Space,
        quad: QuadratureRule,
        eos,
        rho0_qp: np.ndarray,
        geometry0: GeometryAtPoints,
        viscosity: ViscosityCoefficients | None = None,
        workspace: Workspace | None = None,
        tracer=None,
    ):
        if kinematic.mesh is not thermodynamic.mesh:
            raise ValueError("spaces must share a mesh")
        self.kinematic = kinematic
        self.thermodynamic = thermodynamic
        self.quad = quad
        self.eos = eos
        self.viscosity = viscosity or ViscosityCoefficients()
        self.geom_eval = GeometryEvaluator(kinematic, quad)
        self.grad_table = self.geom_eval.grad_table  # (nqp, ndzH1, dim)
        self.B = thermodynamic.element.tabulate_B(quad)  # (ndzL2, nqp)
        self.basis_l2 = thermodynamic.element.tabulate(quad.points)  # (nqp, ndzL2)
        rho0_qp = np.asarray(rho0_qp, dtype=np.float64)
        if rho0_qp.shape != (kinematic.mesh.nzones, quad.nqp):
            raise ValueError("rho0_qp must be (nzones, nqp)")
        if not geometry0.check_valid():
            raise ValueError("initial geometry is tangled (det J0 <= 0)")
        # Strong mass conservation: rho(q,t) |J(q,t)| = rho0 |J0| forever.
        self.mass_qp = rho0_qp * geometry0.det
        self.order = kinematic.order
        self.workspace = workspace if workspace is not None else Workspace()
        self.tracer = tracer if (tracer is not None and tracer.enabled) else None
        self._ldof = kinematic.ldof
        nz = kinematic.mesh.nzones
        nqp = quad.nqp
        ndz = kinematic.ndof_per_zone
        ndl2 = thermodynamic.ndof_per_zone
        dim = kinematic.dim
        self._fz_shape = (nz, ndz, dim, ndl2)
        # (ndl2, nqp) contiguous for the e interpolation matmul.
        self.basis_l2_T = np.ascontiguousarray(self.basis_l2.T)
        # Per-x geometry cache: two rotating slots keyed on array identity,
        # so the two most recent stage geometries stay live (RK2Avg needs
        # exactly that: the mid-step eval plus the end-of-step check, the
        # latter re-used as the next step's begin-of-step geometry).
        self._geo_cache: list[tuple[object, GeometryAtPoints] | None] = [None, None]
        self._geo_mru = 0
        self._fz_slot = 0
        # Live subsets from `prepare_subset`, so solver retirement can
        # return their workspace leases (`release_subset` drops one).
        self.subsets: list[ZoneSubset] = []
        # Contraction paths planned once for the fixed batch shapes
        # (np.broadcast_to gives shape-only stand-ins, no memory).

        def shaped(*shape):
            return np.broadcast_to(np.float64(0.0), shape)

        self._path_jac = np.einsum_path(
            "zid,kie->zkde", shaped(nz, ndz, dim), self.grad_table, optimize="optimal"
        )[0]
        self._path_gv = np.einsum_path(
            "zid,kir,zkre->zkde",
            shaped(nz, ndz, dim), self.grad_table, shaped(nz, nqp, dim, dim),
            optimize="optimal",
        )[0]
        self._path_fz = np.einsum_path(
            "zkde,zkre,kir,k,jk->zidj",
            shaped(nz, nqp, dim, dim), shaped(nz, nqp, dim, dim),
            self.grad_table, quad.weights, self.B,
            optimize="optimal",
        )[0]
        self._path_ftv = np.einsum_path(
            "zidj,zid->zj", shaped(*self._fz_shape), shaped(nz, ndz, dim),
            optimize="optimal",
        )[0]
        self._visc_kernel = ViscosityKernel(self.viscosity, self.order)
        self._visc_kernel.plan(nz, nqp, dim)

    # -- Kernel-aligned stages ---------------------------------------------

    def point_geometry(self, x: np.ndarray) -> GeometryAtPoints:
        """Kernels 1/3: Jacobians, determinants, adjugates at all points.

        Cached per `x` array (identity-keyed): each RK2 stage evaluates
        geometry exactly once and every consumer — corner force,
        viscosity length scales, dt control, validity checks — reads the
        same frozen `GeometryAtPoints`. The returned
        arrays are read-only; callers must treat `x` as immutable once
        passed in (all integrators allocate fresh position arrays).
        """
        for slot in (0, 1):
            entry = self._geo_cache[slot]
            if entry is not None and entry[0] is x:
                self._geo_mru = slot
                return entry[1]
        slot = 1 - self._geo_mru
        geo = self._zone_geometry(self.workspace, x, self._ldof, f"geo{slot}.")
        geo.freeze()
        self._geo_cache[slot] = (x, geo)
        self._geo_mru = slot
        return geo

    def _zone_geometry(
        self, ws: Workspace, x: np.ndarray, ldof: np.ndarray, prefix: str
    ) -> GeometryAtPoints:
        """Kernels 1/3 for the zones whose gather rows are `ldof`.

        Writes the gathered coordinates, Jacobians, determinants,
        adjugates and (for untangled zones) inverses into `ws` buffers,
        the geometry arrays under names starting with `prefix`.
        """
        n, ndz = ldof.shape
        dim = self.kinematic.dim
        nqp = self.quad.nqp
        xz = ws.get("xz", (n, ndz, dim))
        np.take(x, ldof, axis=0, out=xz)
        jac = ws.get(f"{prefix}jac", (n, nqp, dim, dim))
        self._jacobians(xz, jac)
        det = ws.get(f"{prefix}det", (n, nqp))
        batched_det(jac, out=det)
        adj = ws.get(f"{prefix}adj", (n, nqp, dim, dim))
        batched_adjugate(jac, out=adj)
        geo = GeometryAtPoints(jac, det=det, adj=adj)
        if geo.check_valid():
            inv = ws.get(f"{prefix}inv", (n, nqp, dim, dim))
            np.divide(adj, det[..., None, None], out=inv)
            geo.set_inv(inv)
        return geo

    def _jacobians(self, xz: np.ndarray, jac: np.ndarray) -> None:
        """Kernel 1: jac[z,k,d,e] = sum_i xz[z,i,d] gradW[k,i,e]."""
        np.einsum("zid,kie->zkde", xz, self.grad_table, out=jac, optimize=self._path_jac)

    def force_times_one(self, Fz: np.ndarray) -> np.ndarray:
        """Kernel 8: per-zone -F.1 contribution (before global scatter)."""
        if Fz.shape == self._fz_shape:
            out = self.workspace.get("rhs_mom_z", Fz.shape[:-1])
            np.sum(Fz, axis=-1, out=out)
            np.negative(out, out=out)
            return out
        return -Fz.sum(axis=-1)

    def force_transpose_times_v(self, Fz: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Kernel 10: per-zone F^T v (flat L2 layout)."""
        if Fz.shape == self._fz_shape:
            ws = self.workspace
            vz = ws.get("vz_energy", Fz.shape[:3])
            np.take(v, self._ldof, axis=0, out=vz)
            out = ws.get("rhs_energy_z", (Fz.shape[0], Fz.shape[-1]))
            np.einsum("zidj,zid->zj", Fz, vz, out=out, optimize=self._path_ftv)
            return self.thermodynamic.scatter(out)
        vz = self.kinematic.gather(v)
        out = np.einsum("zidj,zid->zj", Fz, vz, optimize=True)
        return self.thermodynamic.scatter(out)

    def _dt_points(self, points: PointData, geo: GeometryAtPoints) -> np.ndarray:
        """Per-point CFL limits, (nzones, nqp).

        h = sigma_min(J) / order is the minimal directional zone length
        (the SVD of kernel 1); the viscous term adds mu / (rho h) to the
        acoustic speed, following the reference scheme.
        """
        smin = batched_singular_values(geo.jac)[..., 0]
        h = np.maximum(smin / max(self.order, 1), 1e-300)
        speed = points.sound_speed + 2.0 * points.mu_max / (points.rho * h)
        return h / np.maximum(speed, 1e-300)

    def estimate_dt(self, points: PointData, geo: GeometryAtPoints) -> float:
        """CFL-limited time step from per-point wave speeds."""
        return float(self._dt_points(points, geo).min())

    def prepare_subset(self, zone_ids) -> ZoneSubset:
        """Prepare a zone subset for `compute_subset`; the engine keeps
        it (`subsets`) until `release_subset`."""
        zones = np.asarray(zone_ids, dtype=np.int64).reshape(-1)
        subset = ZoneSubset(
            zones=zones,
            ldof=self._ldof[zones],
            ldof_l2=self.thermodynamic.ldof[zones],
            mass_qp=self.mass_qp[zones],
            eos=self._eos_for_zones(zones),
            workspace=Workspace(arena=self.workspace.arena),
        )
        self.subsets.append(subset)
        return subset

    def release_subset(self, subset: ZoneSubset) -> None:
        """Return a subset's workspace leases to the arena and drop it."""
        subset.workspace.close()
        self.subsets.remove(subset)

    def _eos_for_zones(self, zone_ids: np.ndarray):
        """Slice a per-zone-gamma EOS down to a zone subset."""
        gamma = getattr(self.eos, "gamma", None)
        if gamma is None or np.ndim(gamma) == 0:
            return self.eos
        g = np.asarray(gamma).reshape(self.kinematic.mesh.nzones, -1)
        return type(self.eos)(g[zone_ids])

    def compute_subset(self, state: HydroState, subset: ZoneSubset) -> ForceResult:
        """Fused corner-force evaluation of a prepared zone subset.

        The per-zone arithmetic is `compute`'s (the same stages and
        construction-time `einsum_path`s) on the subset's gathered rows,
        and every contraction reduces within a zone: the subset of every
        zone in order gives the bits of the full-batch `compute`, and a
        fixed partition gives the same bits however its subsets are
        scheduled.
        Other subsets agree with the full-batch rows up to the final
        contraction's BLAS blocking (~1e-18 absolute).

        `Fz` (leading dimension len(zones)), geometry and points live in
        the subset's workspace until its next evaluation; `dt_zones`
        holds the per-zone CFL minima of the one `_dt_points` pass. An
        empty subset gives a valid zero-row result with dt_est = inf.
        """
        n = subset.zones.size
        _, ndz, dim, ndl2 = self._fz_shape
        ws = subset.workspace
        geo = self._zone_geometry(ws, state.x, subset.ldof, "")
        if not geo.check_valid():
            return ForceResult(np.zeros((n, ndz, dim, ndl2)), geo, None, 0.0, valid=False)
        ez = ws.get("ez", (n, ndl2))
        np.take(state.e, subset.ldof_l2, axis=0, out=ez)
        Fz, points = self._fused_stages(
            ws, geo, state.v, subset.ldof, ez, subset.mass_qp, subset.eos, "Fz", None
        )
        dt_zones = ws.get("dt_zones", (n,))
        np.min(self._dt_points(points, geo), axis=1, out=dt_zones)
        return ForceResult(Fz, geo, points, float(dt_zones.min(initial=np.inf)),
                           valid=True, dt_zones=dt_zones)

    def _fused_stages(
        self, ws: Workspace, geo: GeometryAtPoints, v: np.ndarray, ldof: np.ndarray,
        ez: np.ndarray, mass_qp: np.ndarray, eos, fz_name: str, tr,
    ) -> tuple[np.ndarray, PointData]:
        """Kernels 2/4 and the fused kernel 5/6/7 contraction into the
        `ws` buffer `fz_name`, shared by the full batch and zone subsets:
        `ldof`, `ez`, `mass_qp` and `eos` are the zones' velocity gather
        rows, L2 energy coefficients, pointwise mass and EOS; `tr` gets
        one kernel span per stage (None: no spans).

        F_z[z,i,d,j] = sum_k alpha_k B[j,k] sum_e sigma[z,k,d,e]
                        sum_r gradW[k,i,r] adj(J)[z,k,r,e]
        fuses kernels 5/6/7 into one five-operand contraction over the
        path planned at construction — the analogue of the paper's
        register-blocked kernel fusion (intermediates never touch
        "off-chip" memory, i.e. fresh heap arrays).
        """
        n, nqp = geo.det.shape
        ndz, dim = ldof.shape[1], self.kinematic.dim
        with tr.span(_K_STRESS, category="kernel") if tr else NULL_SPAN:
            rho = ws.get("rho", (n, nqp))
            np.divide(mass_qp, geo.det, out=rho)
            e_qp = ws.get("e_qp", (n, nqp))
            np.matmul(ez, self.basis_l2_T, out=e_qp)
            p = eos.pressure(rho, e_qp)
            cs = eos.sound_speed(rho, e_qp)
            vz = ws.get("vz", (n, ndz, dim))
            np.take(v, ldof, axis=0, out=vz)
            grad_v = ws.get("grad_v", (n, nqp, dim, dim))
            np.einsum(
                "zid,kir,zkre->zkde", vz, self.grad_table, geo.inv,
                out=grad_v, optimize=self._path_gv,
            )
            sigma, mu_max = self._visc_kernel.compute(grad_v, geo, rho, cs, ws)
            for d in range(dim):
                sigma[..., d, d] -= p
        Fz = ws.get(fz_name, (n,) + self._fz_shape[1:])
        with tr.span(_K_FORCE, category="kernel") if tr else NULL_SPAN:
            np.einsum(
                "zkde,zkre,kir,k,jk->zidj",
                sigma, geo.adj, self.grad_table, self.quad.weights, self.B,
                out=Fz, optimize=self._path_fz,
            )
        return Fz, PointData(rho, e_qp, p, cs, grad_v, sigma, mu_max)

    def compute(self, state: HydroState) -> ForceResult:
        """Full corner-force evaluation at the given state: the per-`x`
        cached geometry, the fused stages and a double-buffered F_z (the
        two most recent results stay live across RK2's stages)."""
        tr = self.tracer
        with tr.span(_K_GEOMETRY, category="kernel") if tr else NULL_SPAN:
            geo = self.point_geometry(state.x)
        if not geo.check_valid():
            return ForceResult(
                Fz=np.zeros(self._fz_shape),
                geometry=geo,
                points=None,
                dt_est=0.0,
                valid=False,
            )
        slot = self._fz_slot
        self._fz_slot = 1 - slot
        Fz, points = self._fused_stages(
            self.workspace, geo, state.v, self._ldof,
            self.thermodynamic.gather(state.e),  # reshape view, no copy
            self.mass_qp, self.eos, f"Fz{slot}", tr,
        )
        dt_est = self.estimate_dt(points, geo)
        return ForceResult(Fz, geo, points, dt_est, valid=True)


class SumfactStress:
    """Matrix-free stand-in for the dense corner-force matrix F_z.

    Carries the weighted quadrature-point stress

        T[z,k,d,r] = alpha_k sum_e sigma[z,k,d,e] adj(J)[z,k,r,e],

    which determines F_z exactly (F_z[z,i,d,j] = sum_{k,r} B[j,k]
    gradW[k,i,r] T[z,k,d,r]) but is O(nqp dim^2) per zone instead of
    O(ndz dim ndl2). The integrator only ever consumes F_z through
    `force_times_one` and `force_transpose_times_v`, and the sumfact
    engine applies both directly from T through the 1D contraction
    chains — the dense matrix is never materialized on this path.

    `shape` mirrors the dense layout so shape-keyed consumers can still
    identify the full-batch result.
    """

    __slots__ = ("T", "shape")

    def __init__(self, T: np.ndarray, fz_shape: tuple[int, int, int, int]):
        self.T = T
        self.shape = fz_shape


class SumfactForceEngine(ForceEngine):
    """Sum-factorized corner-force evaluator (matrix-free formulation).

    Same physics and kernel staging as the fused `ForceEngine`, but every
    basis contraction — geometry Jacobians, reference velocity gradients,
    L2 energy interpolation, and both force applications — runs through
    the 1D tensor-product chains of `fem.sumfact`: O(order^{d+1}) work
    per zone instead of the dense tables' O(order^{2d}). The dense F_z is
    never formed; `compute` returns a `SumfactStress` and the two
    integrator-facing applications are overridden to consume it.

    Agrees with the fused engine to contraction-reordering roundoff (the
    documented parity budget is 1e-10 relative per evaluation). The
    geometry cache and the fused `compute_subset` are inherited (over
    the factorized Jacobians), so under ranks a sumfact node evaluates
    its ranks' zones through the same subset entry as a `cpu-fused`
    node, and the resilience layer composes as with the other engines.
    """

    sumfact = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        from repro.fem.sumfact import SumFactorizedOperators

        self._ops_h1 = SumFactorizedOperators(self.kinematic.element, self.quad)
        self._ops_l2 = SumFactorizedOperators(self.thermodynamic.element, self.quad)
        # Column sums of B (== 1 by partition of unity, kept exact): the
        # F.1 contraction reduces the L2 index analytically.
        self._b_colsum = np.ascontiguousarray(self.B.sum(axis=0))
        self._t_slot = 0
        nz, ndz, dim, ndl2 = self._fz_shape
        nqp = self.quad.nqp

        def shaped(*shape):
            return np.broadcast_to(np.float64(0.0), shape)

        self._path_gv_point = np.einsum_path(
            "zkdr,zkre->zkde",
            shaped(nz, nqp, dim, dim), shaped(nz, nqp, dim, dim),
            optimize="optimal",
        )[0]
        self._path_t = np.einsum_path(
            "k,zkde,zkre->zkdr",
            self.quad.weights, shaped(nz, nqp, dim, dim), shaped(nz, nqp, dim, dim),
            optimize="optimal",
        )[0]

    # -- kernel-aligned stages, factorized ----------------------------------

    def _jacobians(self, xz: np.ndarray, jac: np.ndarray) -> None:
        """Kernel 1 factorized: jac[z,k,d,:] is the reference gradient of
        coordinate component d, contracted one 1D axis at a time."""
        for d in range(xz.shape[-1]):
            self._ops_h1.apply_G(xz[:, :, d], out=jac[:, :, d, :])

    def compute(self, state: HydroState) -> ForceResult:
        """Workspace-backed factorized evaluation ending in T, not F_z."""
        ws = self.workspace
        nz, ndz, dim, ndl2 = self._fz_shape
        nqp = self.quad.nqp
        tr = self.tracer
        with tr.span(_K_GEOMETRY, category="kernel") if tr else NULL_SPAN:
            geo = self.point_geometry(state.x)
        if not geo.check_valid():
            return ForceResult(
                Fz=np.zeros(self._fz_shape),
                geometry=geo,
                points=None,
                dt_est=0.0,
                valid=False,
            )
        with tr.span(_K_STRESS, category="kernel") if tr else NULL_SPAN:
            rho = ws.get("rho", (nz, nqp))
            np.divide(self.mass_qp, geo.det, out=rho)
            ez = self.thermodynamic.gather(state.e)  # reshape view, no copy
            e_qp = ws.get("e_qp", (nz, nqp))
            self._ops_l2.apply_B(ez, out=e_qp)
            p = self.eos.pressure(rho, e_qp)
            cs = self.eos.sound_speed(rho, e_qp)
            vz = ws.get("vz", (nz, ndz, dim))
            np.take(state.v, self._ldof, axis=0, out=vz)
            ref_grad = ws.get("sf.refgrad_v", (nz, nqp, dim, dim))
            for d in range(dim):
                self._ops_h1.apply_G(vz[:, :, d], out=ref_grad[:, :, d, :])
            grad_v = ws.get("grad_v", (nz, nqp, dim, dim))
            np.einsum(
                "zkdr,zkre->zkde", ref_grad, geo.inv,
                out=grad_v, optimize=self._path_gv_point,
            )
            sigma, mu_max = self._visc_kernel.compute(grad_v, geo, rho, cs, ws)
            for d in range(dim):
                sigma[..., d, d] -= p
        slot = self._t_slot
        self._t_slot = 1 - slot
        T = ws.get(f"sf.T{slot}", (nz, nqp, dim, dim))
        with tr.span(_K_FORCE, category="kernel") if tr else NULL_SPAN:
            np.einsum(
                "k,zkde,zkre->zkdr",
                self.quad.weights, sigma, geo.adj,
                out=T, optimize=self._path_t,
            )
        points = PointData(rho, e_qp, p, cs, grad_v, sigma, mu_max)
        dt_est = self.estimate_dt(points, geo)
        return ForceResult(SumfactStress(T, self._fz_shape), geo, points, dt_est, valid=True)

    # -- matrix-free force applications --------------------------------------

    def force_times_one(self, Fz) -> np.ndarray:
        """Kernel 8 from T: -F.1 = -G^T (colsum(B) * T) per component."""
        if not isinstance(Fz, SumfactStress):
            return super().force_times_one(Fz)
        ws = self.workspace
        nz, ndz, dim, _ = self._fz_shape
        nqp = self.quad.nqp
        out = ws.get("rhs_mom_z", (nz, ndz, dim))
        weighted = ws.get("sf.f1_weighted", (nz, nqp, dim))
        for d in range(dim):
            np.multiply(Fz.T[:, :, d, :], self._b_colsum[None, :, None], out=weighted)
            self._ops_h1.apply_G_T(weighted, out=out[:, :, d])
        np.negative(out, out=out)
        return out

    def force_transpose_times_v(self, Fz, v: np.ndarray) -> np.ndarray:
        """Kernel 10 from T: F^T v = B_l2^T (T : grad_ref v)."""
        if not isinstance(Fz, SumfactStress):
            return super().force_transpose_times_v(Fz, v)
        ws = self.workspace
        nz, ndz, dim, ndl2 = self._fz_shape
        nqp = self.quad.nqp
        vz = ws.get("vz_energy", (nz, ndz, dim))
        np.take(v, self._ldof, axis=0, out=vz)
        ref_grad = ws.get("sf.refgrad_e", (nz, nqp, dim, dim))
        for d in range(dim):
            self._ops_h1.apply_G(vz[:, :, d], out=ref_grad[:, :, d, :])
        contracted = ws.get("sf.contract_e", (nz, nqp))
        np.einsum("zkdr,zkdr->zk", Fz.T, ref_grad, out=contracted)
        out = ws.get("rhs_energy_z", (nz, ndl2))
        self._ops_l2.apply_B_T(contracted, out=out)
        return self.thermodynamic.scatter(out)

    def dense_force(self, Fz) -> np.ndarray:
        """Materialize the dense F_z from a `SumfactStress` (tests/benches).

        Not part of the hot path — parity checks against the fused
        engine need the full matrix.
        """
        if not isinstance(Fz, SumfactStress):
            return np.asarray(Fz)
        return np.einsum("zkdr,kir,jk->zidj", Fz.T, self.grad_table, self.B, optimize=True)


def corner_force_loops(engine: ForceEngine, state: HydroState) -> np.ndarray:
    """Reference CPU formulation: explicit zone / quadrature-point loops.

    Mirrors the paper's step 4/4.1/4.2 structure with scalar math at each
    point. O(nzones * nqp) Python-level iterations — use on small meshes
    to validate the batched engine.
    """
    mesh = engine.kinematic.mesh
    dim = mesh.dim
    nqp = engine.quad.nqp
    ndz = engine.kinematic.ndof_per_zone
    ndl2 = engine.thermodynamic.ndof_per_zone
    xz = engine.kinematic.gather(state.x)
    vz = engine.kinematic.gather(state.v)
    ez = engine.thermodynamic.gather(state.e)
    Fz = np.zeros((mesh.nzones, ndz, dim, ndl2))
    eye = np.eye(dim)

    def zone_eos(z: int):
        """Per-zone scalar-gamma view of a (possibly per-zone) EOS."""
        gamma = getattr(engine.eos, "gamma", None)
        if gamma is None or np.ndim(gamma) == 0:
            return engine.eos
        g = float(np.asarray(gamma).reshape(mesh.nzones, -1)[z, 0])
        return type(engine.eos)(g)

    for z in range(mesh.nzones):
        eos_z = zone_eos(z)
        for k in range(nqp):
            gw = engine.grad_table[k]  # (ndz, dim)
            jac = xz[z].T @ gw  # (dim, dim)
            det = np.linalg.det(jac)
            if det <= 0:
                raise RuntimeError(f"tangled zone {z} at point {k}")
            jinv = np.linalg.inv(jac)
            rho = engine.mass_qp[z, k] / det
            e_pt = float(engine.basis_l2[k] @ ez[z])
            p = float(np.asarray(eos_z.pressure(rho, e_pt)))
            cs = float(np.asarray(eos_z.sound_speed(rho, e_pt)))
            grad_v = vz[z].T @ gw @ jinv
            sigma_visc, _ = tensor_viscosity(
                grad_v[None], jac[None], np.array([rho]), np.array([cs]), engine.order, engine.viscosity
            )
            sigma = sigma_visc[0] - p * eye
            alpha = engine.quad.weights[k]
            contraction = gw @ (det * jinv) @ sigma.T  # (ndz, dim)
            for j in range(ndl2):
                Fz[z, :, :, j] += alpha * contraction * engine.B[j, k]
    return Fz
