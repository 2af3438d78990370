"""Batched singular values of 2x2 and 3x3 matrices.

Kernel 1 of the paper computes per-thread SVDs of the DIM x DIM Jacobian
to extract directional length scales for the artificial viscosity and
the time-step control. The 2x2 singular values have a closed form that
never squares the matrix:

    sigma_max = (sqrt((a+d)^2 + (c-b)^2) + sqrt((a-d)^2 + (c+b)^2)) / 2,
    sigma_min = |ad - bc| / sigma_max,

which keeps sigma_min accurate on strongly anisotropic zones (forming
J^T J squares their condition number) and near isotropy (where the
det/Frobenius-norm form cancels). 3x3 singular values are the square
roots of the eigenvalues of J^T J. Singular values are returned
*ascending*, to match the eigensolvers.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.eig import sym_eigvals

__all__ = ["batched_singular_values"]


def _check(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] not in (2, 3):
        raise ValueError("expected batched 2x2 or 3x3 matrices")
    return a


def batched_singular_values(a: np.ndarray) -> np.ndarray:
    """Ascending singular values of (..., d, d) batches, d in {2, 3}.

    2x2 batches use the closed form of the module docstring (the zero
    matrix gives zeros); 3x3 batches take the eigenvalues of J^T J.
    """
    a = _check(a)
    if a.shape[-1] == 3:
        w = sym_eigvals(np.swapaxes(a, -1, -2) @ a)
        return np.sqrt(np.maximum(w, 0.0))
    a00, a01 = a[..., 0, 0], a[..., 0, 1]
    a10, a11 = a[..., 1, 0], a[..., 1, 1]
    smax = 0.5 * (
        np.sqrt((a00 + a11) ** 2 + (a10 - a01) ** 2)
        + np.sqrt((a00 - a11) ** 2 + (a10 + a01) ** 2)
    )
    smin = np.abs(a00 * a11 - a01 * a10) / np.maximum(smax, np.finfo(np.float64).tiny)
    return np.stack([smin, smax], axis=-1)
