"""1D polynomial machinery: Legendre polynomials, Gauss quadrature and
Lagrange interpolation bases.

Everything here is exact double-precision numerics built from Newton
iterations on Legendre polynomials; no table lookups, so arbitrary orders
(the paper exercises Q1 through Q8) are supported.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "legendre",
    "legendre_deriv",
    "gauss_legendre",
    "gauss_lobatto_points",
    "LagrangeBasis1D",
]


def legendre(n: int, x: np.ndarray) -> np.ndarray:
    """Evaluate the Legendre polynomial P_n on [-1, 1].

    Uses the three-term recurrence; `x` may be any array shape.
    """
    x = np.asarray(x, dtype=np.float64)
    if n == 0:
        return np.ones_like(x)
    if n == 1:
        return x.copy()
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(1, n):
        p_next = ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        p_prev, p = p, p_next
    return p


def legendre_deriv(n: int, x: np.ndarray) -> np.ndarray:
    """Evaluate d/dx P_n on [-1, 1] via the derivative recurrence."""
    x = np.asarray(x, dtype=np.float64)
    if n == 0:
        return np.zeros_like(x)
    pn = legendre(n, x)
    pn1 = legendre(n - 1, x)
    denom = x * x - 1.0
    # Guard the endpoints where the standard formula is 0/0; use the known
    # endpoint values P'_n(+-1) = (+-1)^(n-1) n (n+1) / 2.
    safe = np.abs(denom) > 1e-14
    out = np.empty_like(x)
    out[safe] = n * (x[safe] * pn[safe] - pn1[safe]) / denom[safe]
    endpoint = n * (n + 1) / 2.0
    out[~safe] = np.where(x[~safe] > 0, endpoint, endpoint * (-1.0) ** (n - 1))
    return out


def gauss_legendre(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre points and weights on [0, 1].

    The reference zone in BLAST is the unit cube, so rules are mapped from
    [-1, 1] to [0, 1]. Nodes are found by Newton iteration from the
    Chebyshev initial guess; accuracy is at roundoff for npts <= 64.
    """
    if npts < 1:
        raise ValueError("quadrature rule needs at least one point")
    k = np.arange(npts)
    x = -np.cos(np.pi * (k + 0.75) / (npts + 0.5))
    for _ in range(100):
        p = legendre(npts, x)
        dp = legendre_deriv(npts, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    dp = legendre_deriv(npts, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    # map [-1,1] -> [0,1]
    return 0.5 * (x + 1.0), 0.5 * w


def gauss_lobatto_points(npts: int) -> np.ndarray:
    """Gauss-Lobatto-Legendre points on [0, 1] (endpoints included).

    These are the interpolation nodes of the kinematic/thermodynamic
    Lagrange bases: well-conditioned at high order, and they make the
    element vertices/edges explicit degrees of freedom so continuity
    of the H1 space is a pure index-matching problem.
    """
    if npts < 2:
        if npts == 1:
            return np.array([0.5])
        raise ValueError("need at least 1 point")
    if npts == 2:
        return np.array([0.0, 1.0])
    n = npts - 1
    # Interior nodes are roots of P'_n; initial guess: Chebyshev-Lobatto.
    x = -np.cos(np.pi * np.arange(1, n) / n)
    for _ in range(100):
        # Newton on P'_n using P''_n from the ODE:
        # (1-x^2) P''_n = 2x P'_n - n(n+1) P_n
        dp = legendre_deriv(n, x)
        p = legendre(n, x)
        d2p = (2.0 * x * dp - n * (n + 1) * p) / (1.0 - x * x)
        dx = dp / d2p
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    pts = np.concatenate(([-1.0], x, [1.0]))
    return 0.5 * (pts + 1.0)


class LagrangeBasis1D:
    """Lagrange interpolation basis on a given 1D node set in [0, 1].

    Evaluation uses the barycentric form, which is numerically stable for
    the Gauss-Lobatto node sets used here up to very high order.
    """

    def __init__(self, nodes: np.ndarray):
        nodes = np.asarray(nodes, dtype=np.float64)
        if nodes.ndim != 1 or nodes.size < 1:
            raise ValueError("nodes must be a non-empty 1D array")
        if nodes.size > 1 and np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        self.nodes = nodes
        self.n = nodes.size
        # Barycentric weights w_j = 1 / prod_{m != j} (x_j - x_m)
        diff = nodes[:, None] - nodes[None, :]
        np.fill_diagonal(diff, 1.0)
        self.bary_weights = 1.0 / np.prod(diff, axis=1)

    @classmethod
    def lobatto(cls, order: int) -> "LagrangeBasis1D":
        """Basis of polynomial order `order` on Gauss-Lobatto nodes."""
        if order == 0:
            return cls(np.array([0.5]))
        return cls(gauss_lobatto_points(order + 1))

    def eval(self, x: np.ndarray) -> np.ndarray:
        """Evaluate all basis functions; returns shape (len(x), n)."""
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if self.n == 1:
            return np.ones((x.size, 1))
        d = x[:, None] - self.nodes[None, :]
        exact = np.abs(d) < 1e-14
        on_node = exact.any(axis=1)
        d_safe = np.where(exact, 1.0, d)
        terms = self.bary_weights[None, :] / d_safe
        vals = terms / terms.sum(axis=1, keepdims=True)
        if on_node.any():
            vals[on_node] = exact[on_node].astype(np.float64)
        return vals

    def eval_deriv(self, x: np.ndarray) -> np.ndarray:
        """Evaluate all basis derivatives; returns shape (len(x), n).

        Built from the differentiation matrix applied to the (exact)
        interpolation identity: l'_j(x) = sum_i D[i, j] l_i(x) where D is
        the nodal differentiation matrix. This keeps endpoint evaluation
        exact, which geometry Jacobians rely on.
        """
        D = self.diff_matrix()
        # l'_j(x) = sum over node index i of l_i(x) * l'_j(nodes[i])
        return self.eval(x) @ D

    def diff_matrix(self) -> np.ndarray:
        """Nodal differentiation matrix D[i, j] = l'_j(nodes[i])."""
        if self.n == 1:
            return np.zeros((1, 1))
        x = self.nodes
        w = self.bary_weights
        D = np.empty((self.n, self.n))
        for i in range(self.n):
            for j in range(self.n):
                if i != j:
                    D[i, j] = (w[j] / w[i]) / (x[i] - x[j])
        np.fill_diagonal(D, 0.0)
        np.fill_diagonal(D, -D.sum(axis=1))
        return D

    def interpolate(self, fvals: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Interpolate nodal values `fvals` (last axis n) at points `x`."""
        return self.eval(x) @ np.asarray(fvals)
