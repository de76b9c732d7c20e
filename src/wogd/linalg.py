"""Small dense linear algebra: LAPACK-backed SVD, spectral norms, projections.

The decomposition is numpy's LAPACK SVD; this module adds input checks, a
fixed result layout and the two projections the optimizers need. Everything
works on plain float64 numpy arrays, and all functions are pure: inputs are
never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DIM = 4096


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD: u @ diag(sigma) @ v.T reconstructs the input.

    u has orthonormal columns (rows x k), sigma is non-negative and
    non-increasing (k,), v has orthonormal columns (cols x k), with
    k = min(rows, cols).
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


def _as_matrix(m, ndims=(2,)) -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim not in ndims or min(a.shape) < 1:
        raise ValueError(f"expected a {'/'.join(map(str, ndims))}-d array, got shape {a.shape}")
    if max(a.shape[-2:]) > MAX_DIM:
        raise ValueError(f"matrix dimension {max(a.shape[-2:])} exceeds supported {MAX_DIM}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def svd(m) -> SvdResult:
    """Thin singular value decomposition (LAPACK gesdd via numpy).

    Singular values are returned sorted in non-increasing order. Raises
    ValueError for non-finite input or dimensions beyond the supported
    maximum, and np.linalg.LinAlgError if LAPACK does not converge.
    """
    u, sigma, vt = np.linalg.svd(_as_matrix(m), full_matrices=False)
    return SvdResult(u=u, sigma=sigma, v=vt.T)


def spectral_norm(m) -> float:
    """Largest singular value (the matrix 2-norm)."""
    return float(svd(m).sigma[0])


def clip_singular_values(m, lam: float) -> np.ndarray:
    """Nearest matrix in Frobenius norm with spectral norm <= lam, of a
    matrix or of each member of a (B, rows, cols) stack (one SVD call for the
    stack, bitwise the call per matrix).

    Computed by clipping the singular values at lam. A matrix that already
    satisfies the bound is returned unchanged (as a copy). A member whose
    Frobenius norm is within the bound satisfies it (sigma_max <= ||A||_F)
    and skips the SVD; only the others are decomposed. A clipped result's
    computed spectral norm can round above lam, so clipping it again may
    move it by rounding: the operation is idempotent to rounding, not
    bitwise.
    """
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    a = _as_matrix(m, (2, 3))
    out = a.reshape(-1, *a.shape[-2:]).copy()
    # The computed sigma_max can exceed the computed Frobenius norm by a few
    # ulps (rank-one inputs); the slack keeps the exit bitwise the SVD path.
    big = frobenius_norms(out) > lam * (1.0 - 1e-12)
    if big.any():
        stack = out[big]
        u, sigma, vt = np.linalg.svd(stack, full_matrices=False)
        clipped = (u * np.minimum(sigma, lam)[:, None]) @ vt
        out[big] = np.where((sigma[:, 0] > lam)[:, None, None], clipped, stack)
    return out.reshape(a.shape)


def frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """The Frobenius (l2) norm of each member of a (B, ...) stack, bitwise
    np.linalg.norm of each: one matmul of each flattened member with itself
    is the dot product np.linalg.norm takes (np.einsum sums differently)."""
    flat = stack.reshape(len(stack), 1, -1)
    return np.sqrt(np.matmul(flat, flat.transpose(0, 2, 1))[:, 0, 0])


def project_l2_ball(v, radius: float) -> np.ndarray:
    """Orthogonal projection onto the l2 ball of given radius of a vector,
    or of each row of a (B, n) stack."""
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    x = np.array(v, dtype=np.float64)
    rows = x.reshape(-1, x.shape[-1])
    norms = frobenius_norms(rows)
    out = norms > radius
    rows[out] *= (radius / norms[out])[:, None]
    return x
