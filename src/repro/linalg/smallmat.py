"""Batched determinant / adjugate / inverse / product of DIM x DIM matrices.

Kernel 1 of the paper (kernel_CalcAjugate_det) computes, per quadrature
point and per thread, the adjugate and determinant of the 2x2 or 3x3
Jacobian. These are the closed-form batched equivalents; the adjugate is
preferred over the inverse inside the corner-force contraction because
adj(J) = det(J) * J^{-1} keeps the |J| factor explicit (eq. (5) uses
J^{-1} ... |J| = adj(J)^T ... applied appropriately) and never divides.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "batched_det",
    "batched_adjugate",
    "batched_inverse",
    "batched_matmul",
]


def _as_square_batch(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("expected batched square matrices (..., d, d)")
    if a.shape[-1] not in (1, 2, 3):
        raise ValueError("only 1x1, 2x2 and 3x3 matrices are supported")
    return a


def batched_det(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Determinants of (..., d, d) matrices, closed form for d <= 3.

    `out` (shape (...,)) lets the hot path reuse a workspace buffer; the
    expression order is identical either way, so results are bitwise
    equal with and without it.
    """
    a = _as_square_batch(a)
    d = a.shape[-1]
    if d == 1:
        if out is None:
            return a[..., 0, 0].copy()
        out[...] = a[..., 0, 0]
        return out
    if d == 2:
        det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    else:
        det = (
            a[..., 0, 0] * (a[..., 1, 1] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 1])
            - a[..., 0, 1] * (a[..., 1, 0] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 0])
            + a[..., 0, 2] * (a[..., 1, 0] * a[..., 2, 1] - a[..., 1, 1] * a[..., 2, 0])
        )
    if out is None:
        return det
    out[...] = det
    return out


def batched_adjugate(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Adjugates (transposed cofactor matrices): adj(A) @ A = det(A) I."""
    a = _as_square_batch(a)
    d = a.shape[-1]
    if out is None:
        out = np.empty_like(a)
    elif out.shape != a.shape:
        raise ValueError("out must match the input batch shape")
    if d == 1:
        out[..., 0, 0] = 1.0
        return out
    if d == 2:
        out[..., 0, 0] = a[..., 1, 1]
        out[..., 0, 1] = -a[..., 0, 1]
        out[..., 1, 0] = -a[..., 1, 0]
        out[..., 1, 1] = a[..., 0, 0]
        return out
    # 3x3: adj(A)[i, j] = cofactor(A)[j, i]
    out[..., 0, 0] = a[..., 1, 1] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 1]
    out[..., 0, 1] = a[..., 0, 2] * a[..., 2, 1] - a[..., 0, 1] * a[..., 2, 2]
    out[..., 0, 2] = a[..., 0, 1] * a[..., 1, 2] - a[..., 0, 2] * a[..., 1, 1]
    out[..., 1, 0] = a[..., 1, 2] * a[..., 2, 0] - a[..., 1, 0] * a[..., 2, 2]
    out[..., 1, 1] = a[..., 0, 0] * a[..., 2, 2] - a[..., 0, 2] * a[..., 2, 0]
    out[..., 1, 2] = a[..., 0, 2] * a[..., 1, 0] - a[..., 0, 0] * a[..., 1, 2]
    out[..., 2, 0] = a[..., 1, 0] * a[..., 2, 1] - a[..., 1, 1] * a[..., 2, 0]
    out[..., 2, 1] = a[..., 0, 1] * a[..., 2, 0] - a[..., 0, 0] * a[..., 2, 1]
    out[..., 2, 2] = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    return out


def batched_inverse(a: np.ndarray) -> np.ndarray:
    """Inverses via adjugate/determinant; raises on singular batches."""
    a = _as_square_batch(a)
    det = batched_det(a)
    if np.any(np.abs(det) < 1e-300):
        raise np.linalg.LinAlgError("singular matrix in batch")
    return batched_adjugate(a) / det[..., None, None]


def batched_matmul(
    a: np.ndarray, b: np.ndarray, out: np.ndarray, tmp: np.ndarray
) -> np.ndarray:
    """Per-point products out[..., d, e] = sum_r a[..., d, r] b[..., r, e].

    Closed form over the (d, e) component planes: d^3 elementwise
    multiply-adds over the whole batch instead of one small product per
    point. `b` may be a transposed view (`adj.swapaxes(-1, -2)`); `out`
    must not alias `a` or `b`, and `tmp` (shape out.shape[:-2]) is the
    scratch plane for the products.
    """
    d = a.shape[-1]
    for i in range(d):
        for j in range(d):
            o = out[..., i, j]
            np.multiply(a[..., i, 0], b[..., 0, j], out=o)
            for r in range(1, d):
                np.multiply(a[..., i, r], b[..., r, j], out=tmp)
                np.add(o, tmp, out=o)
    return out
