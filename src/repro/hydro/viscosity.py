"""Tensor artificial viscosity.

Following the paper's reference scheme (Dobrev, Kolev & Rieben, SIAM
J. Sci. Comp. 2012), shocks are captured by adding a tensor viscous
stress built, at every quadrature point, from the eigendecomposition of
the symmetrized velocity gradient:

    eps(v) = sum_k  lambda_k  s_k s_k^T           (eigenpairs)
    sigma_visc = sum_k  mu_k  lambda_k  s_k s_k^T

with a directional coefficient active only in compressing directions
(lambda_k < 0):

    mu_k = rho ( q2 * l_k^2 * |lambda_k| + q1 * psi_k * l_k * c_s )

l_k is the zone length scale *in the direction s_k*, measured through
the Jacobian: l_k = |J s_hat_k| / order with s_hat_k the unit reference
direction mapping to s_k. This per-point eigen/length-scale evaluation
is the SVD-and-eigenvalue workload the paper assigns to kernels 1-2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.linalg.eig import sym_eig_2x2, sym_eig_3x3
from repro.linalg.smallmat import batched_inverse

__all__ = [
    "ViscosityCoefficients",
    "ViscosityKernel",
    "tensor_viscosity",
    "directional_length",
]


@dataclass(frozen=True)
class ViscosityCoefficients:
    """Tunable q1 (linear) and q2 (quadratic) coefficients.

    Defaults follow the reference scheme: q1 = 0.5, q2 = 2.0. `use_cs`
    toggles the linear (sound-speed) term; disabling both terms turns
    the viscosity off entirely (useful for smooth-flow convergence
    tests).
    """

    q1: float = 0.5
    q2: float = 2.0
    enabled: bool = True

    def __post_init__(self):
        if self.q1 < 0 or self.q2 < 0:
            raise ValueError("viscosity coefficients must be non-negative")


def directional_length(jac: np.ndarray, directions: np.ndarray, order: int) -> np.ndarray:
    """Zone length scale along physical unit directions.

    jac : (..., dim, dim) Jacobians; directions : (..., dim, dim) whose
    *columns* are physical unit directions. Returns (..., dim) lengths:
    l_k = |J s_hat_k| / order, where s_hat_k = J^{-1} s_k normalized.
    """
    jinv = batched_inverse(jac)
    ref = np.einsum("...re,...ek->...rk", jinv, directions)
    norms = np.linalg.norm(ref, axis=-2)
    norms = np.maximum(norms, 1e-300)
    s_hat = ref / norms[..., None, :]
    phys = np.einsum("...dr,...rk->...dk", jac, s_hat)
    return np.linalg.norm(phys, axis=-2) / max(order, 1)


def tensor_viscosity(
    grad_v: np.ndarray,
    jac: np.ndarray,
    rho: np.ndarray,
    sound_speed: np.ndarray,
    order: int,
    coeffs: ViscosityCoefficients,
) -> tuple[np.ndarray, np.ndarray]:
    """Viscous stress and effective viscosity coefficient per point.

    Parameters are batched over (..., ) points: grad_v and jac are
    (..., dim, dim); rho and sound_speed are (...,).

    Returns
    -------
    sigma_visc : (..., dim, dim) symmetric viscous stress (zero where
        no direction is compressing).
    mu_max : (...,) largest directional coefficient, which the CFL
        time-step estimate consumes as the viscous wave-speed term.
    """
    grad_v = np.asarray(grad_v, dtype=np.float64)
    dim = grad_v.shape[-1]
    if not coeffs.enabled:
        return np.zeros_like(grad_v), np.zeros(grad_v.shape[:-2])
    eps = 0.5 * (grad_v + np.swapaxes(grad_v, -1, -2))
    if dim == 2:
        lam, vecs = sym_eig_2x2(eps)
    elif dim == 3:
        lam, vecs = sym_eig_3x3(eps)
    else:
        raise ValueError("tensor viscosity supports dim 2 and 3")
    lengths = directional_length(jac, vecs, order)  # (..., dim)
    compress = lam < 0.0
    mu = np.where(
        compress,
        rho[..., None]
        * (
            coeffs.q2 * lengths**2 * np.abs(lam)
            + coeffs.q1 * lengths * sound_speed[..., None]
        ),
        0.0,
    )
    # sigma_visc = sum_k mu_k lambda_k s_k s_k^T
    sigma = np.einsum("...k,...k,...ik,...jk->...ij", mu, lam, vecs, vecs, optimize=True)
    return sigma, mu.max(axis=-1)


class ViscosityKernel:
    """Workspace-backed twin of `tensor_viscosity` for the hot path.

    Same eigenpairs and mu_k formula as the reference function,
    restructured for whole-batch arithmetic with zero steady-state
    allocations:

    * length scales use the identity J (J^{-1} s_k) = s_k: since s_k is
      a *unit* physical direction, |J s_hat_k| = 1 / |J^{-1} s_k|, so
      l_k = 1 / (|J^{-1} s_k| * order), with J^{-1} read from the cached
      `GeometryAtPoints` (computed once per stage);
    * in 2D every stage is closed-form elementwise arithmetic on the
      (nz, nqp) component planes: `sym_eig_2x2`'s eigenpairs (same
      formulas, same larger-norm eigenvector candidate and the same
      (1, 0) fallback at degenerate points), |J^{-1} s_k|, mu_k, sigma
      and mu_max, each ufunc writing into a `Workspace` plane;
    * in 3D the eigenpairs come from `sym_eig_3x3` and the two small
      contractions (J^{-1} s_k, and V diag(mu lambda) V^T) are batched
      `np.matmul`s;
    * mu_k = 0 in expanding directions is a product with the 0/1
      plane [lambda_k < 0], not a masked assignment.

    Results agree with the reference to a few ULPs (different but
    equivalent floating-point orderings), well inside the 1e-13 parity
    budget of the engine tests.
    """

    def __init__(self, coeffs: ViscosityCoefficients, order: int):
        self.coeffs = coeffs
        self.order = max(int(order), 1)

    def compute(
        self,
        grad_v: np.ndarray,
        geo,
        rho: np.ndarray,
        sound_speed: np.ndarray,
        ws,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Viscous stress + mu_max into workspace buffers.

        grad_v : (nz, nqp, dim, dim); geo supplies the cached inverse
        Jacobians; rho / sound_speed : (nz, nqp). The returned arrays
        are owned by `ws` and recycled on the next call.
        """
        dim = grad_v.shape[-1]
        sigma = ws.get("visc.sigma", grad_v.shape)
        mu_max = ws.get("visc.mu_max", grad_v.shape[:-2])
        if not self.coeffs.enabled:
            sigma[...] = 0.0
            mu_max[...] = 0.0
            return sigma, mu_max
        qcs = ws.get("visc.qcs", rho.shape)
        np.multiply(sound_speed, self.coeffs.q1, out=qcs)
        if dim == 2:
            self._compute_2d(grad_v, geo.inv, rho, qcs, sigma, mu_max, ws)
        elif dim == 3:
            self._compute_3d(grad_v, geo.inv, rho, qcs, sigma, mu_max, ws)
        else:
            raise ValueError("tensor viscosity supports dim 2 and 3")
        return sigma, mu_max

    def _coefficient(self, lam, length, rho, qcs, mu, tmp) -> None:
        """mu = [lam < 0] rho l (q2 l |lam| + q1 c_s), qcs = q1 c_s."""
        np.abs(lam, out=mu)
        mu *= length
        mu *= self.coeffs.q2
        mu += qcs
        mu *= length
        mu *= rho
        np.less(lam, 0.0, out=tmp)  # 1.0 where compressing, else 0.0
        mu *= tmp

    def _compute_2d(self, g, inv, rho, qcs, sigma, mu_max, ws) -> None:
        def plane(name):
            return ws.get(f"visc.{name}", rho.shape)

        t, u = plane("t"), plane("u")
        # eps = sym(grad v): eps00 = g00, eps11 = g11, eps01 = (g01 + g10) / 2.
        a00, a11 = g[..., 0, 0], g[..., 1, 1]
        a01 = plane("a01")
        np.add(g[..., 0, 1], g[..., 1, 0], out=a01)
        a01 *= 0.5
        # sym_eig_2x2: lam = mean -/+ sqrt(half_diff^2 + a01^2).
        mean, rad = plane("mean"), plane("rad")
        np.add(a00, a11, out=mean)
        mean *= 0.5
        np.subtract(a00, a11, out=rad)
        rad *= 0.5
        np.multiply(rad, rad, out=rad)
        np.multiply(a01, a01, out=t)  # a01^2, reused by both candidates
        rad += t
        np.sqrt(rad, out=rad)
        lam0, lam1 = plane("lam0"), plane("lam1")
        np.subtract(mean, rad, out=lam0)
        np.add(mean, rad, out=lam1)
        # Eigenvector of lam1: the larger of (a01, lam1 - a00) and
        # (lam1 - a11, a01); (1, 0) where both vanish.
        c1, c2 = plane("c1"), plane("c2")
        np.subtract(lam1, a00, out=c1)
        np.subtract(lam1, a11, out=c2)
        n1, n2 = plane("n1"), plane("n2")
        np.multiply(c1, c1, out=n1)
        np.add(t, n1, out=n1)
        np.sqrt(n1, out=n1)
        np.multiply(c2, c2, out=n2)
        n2 += t
        np.sqrt(n2, out=n2)
        pick = ws.get("visc.pick", rho.shape, dtype=bool)
        np.greater(n2, n1, out=pick)
        vx, vy = plane("vx"), plane("vy")
        np.copyto(vx, a01)
        np.putmask(vx, pick, c2)
        np.copyto(vy, c1)
        np.putmask(vy, pick, a01)
        np.maximum(n1, n2, out=n1)
        # Where both vanish (|v| < 1e-300, so vy ~ 0): v = (1, 0), |v| = 1.
        np.less(n1, 1e-300, out=n2)
        vx += n2
        n1 += n2
        vx /= n1
        vy /= n1
        # l_k = 1 / (|J^{-1} s_k| order) for s0 = (-vy, vx) and s1 = (vx, vy).
        i00, i01, i10, i11 = inv[..., 0, 0], inv[..., 0, 1], inv[..., 1, 0], inv[..., 1, 1]
        nvy, l0, l1 = plane("nvy"), plane("l0"), plane("l1")
        np.negative(vy, out=nvy)
        for length, sx, sy in ((l0, nvy, vx), (l1, vx, vy)):
            np.multiply(i00, sx, out=t)
            np.multiply(i01, sy, out=u)
            t += u
            np.multiply(t, t, out=length)
            np.multiply(i10, sx, out=t)
            np.multiply(i11, sy, out=u)
            t += u
            np.multiply(t, t, out=t)
            length += t
            np.sqrt(length, out=length)
            np.maximum(length, 1e-300, out=length)
            length *= self.order
            np.reciprocal(length, out=length)
        mu0, mu1 = plane("mu0"), plane("mu1")
        self._coefficient(lam0, l0, rho, qcs, mu0, t)
        self._coefficient(lam1, l1, rho, qcs, mu1, t)
        np.maximum(mu0, mu1, out=mu_max)
        # sigma = sum_k mu_k lam_k s_k s_k^T; with w_k = mu_k lam_k,
        # s00 = w0 vy^2 + w1 vx^2, s11 = w0 vx^2 + w1 vy^2 and
        # s01 = s10 = (w1 - w0) vx vy.
        w0, w1, w = mu0, mu1, c1
        w0 *= lam0
        w1 *= lam1
        np.multiply(vx, vx, out=t)
        np.multiply(vy, vy, out=u)
        s00, s01, s11 = sigma[..., 0, 0], sigma[..., 0, 1], sigma[..., 1, 1]
        np.multiply(w0, u, out=s00)
        np.multiply(w1, t, out=w)
        s00 += w
        np.multiply(w0, t, out=s11)
        np.multiply(w1, u, out=w)
        s11 += w
        np.subtract(w1, w0, out=w)
        w *= vx
        np.multiply(w, vy, out=s01)
        sigma[..., 1, 0] = s01

    def _compute_3d(self, grad_v, inv, rho, qcs, sigma, mu_max, ws) -> None:
        eps = ws.get("visc.eps", grad_v.shape)
        np.add(grad_v, np.swapaxes(grad_v, -1, -2), out=eps)
        eps *= 0.5
        lam, vecs = sym_eig_3x3(eps)
        ref = ws.get("visc.ref", grad_v.shape)
        np.matmul(inv, vecs, out=ref)  # columns J^{-1} s_k
        np.multiply(ref, ref, out=ref)
        lengths = ws.get("visc.len", lam.shape)
        np.sum(ref, axis=-2, out=lengths)
        np.sqrt(lengths, out=lengths)
        np.maximum(lengths, 1e-300, out=lengths)
        lengths *= self.order
        np.reciprocal(lengths, out=lengths)
        mu = ws.get("visc.mu", lam.shape)
        tmp = ws.get("visc.tmp", lam.shape)
        self._coefficient(lam, lengths, rho[..., None], qcs[..., None], mu, tmp)
        np.max(mu, axis=-1, out=mu_max)
        mu *= lam
        np.multiply(vecs, mu[..., None, :], out=ref)  # V diag(mu lam)
        np.matmul(ref, np.swapaxes(vecs, -1, -2), out=sigma)
