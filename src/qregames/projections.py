"""Euclidean projections onto the feasible cost-matrix sets.

The design routes constrain C to the cone of matrices with PSD symmetric
part and symmetric diagonal blocks, optionally intersected with a Frobenius
ball of radius rho.  Both projections are exact: the cone splits into a PSD
projection of the symmetric part plus a diagonal-block-zeroing of the skew
part, and the ball composes on the outside by a radial rescale.
"""

from __future__ import annotations

import numpy as np

from .errors import EigendecompositionFailure
from .game import PlayerDims


def project_psd(S: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix to a symmetric S: clamp negative eigenvalues."""
    try:
        w, V = np.linalg.eigh(S)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionFailure(str(exc)) from exc
    return (V * np.maximum(w, 0.0)) @ V.T


def project_cone_sum(C: np.ndarray, dims: PlayerDims) -> np.ndarray:
    """Project onto {C : C + C^T >= 0, diagonal blocks symmetric}.

    The set is the direct sum of two orthogonal cones: PSD symmetric
    matrices, and skew matrices with (necessarily zero) diagonal blocks.
    Projecting each part independently is therefore exact.
    """
    C = np.asarray(C, dtype=float)
    sym = 0.5 * (C + C.T)
    skew = 0.5 * (C - C.T)
    skew[dims.owner[:, None] == dims.owner[None, :]] = 0.0
    return project_psd(sym) + skew


def project_feasible(C: np.ndarray, dims: PlayerDims, rho: float) -> np.ndarray:
    """Project onto the cone intersected with the Frobenius ball of radius rho.

    Ball-after-cone is the exact projection onto the intersection because the
    ball is centered at the cone's apex.
    """
    if not 0 < rho < np.inf:
        raise ValueError("rho must be finite and > 0")
    A = project_cone_sum(C, dims)
    norm = float(np.linalg.norm(A))
    return (rho / max(rho, norm)) * A


def in_feasible_set(
    C: np.ndarray,
    dims: PlayerDims,
    rho: float,
    eig_tol: float = 1e-9,
    ball_tol: float = 1e-9,
    block_tol: float = 1e-10,
) -> bool:
    """Membership test used by diagnostics and tests."""
    sym_eigs = np.linalg.eigvalsh(0.5 * (C + C.T))
    if sym_eigs[0] < -eig_tol:
        return False
    if np.linalg.norm(C) > rho + ball_tol:
        return False
    for i in range(dims.n):
        blk = C[dims.block(i), dims.block(i)]
        if np.linalg.norm(blk - blk.T) > block_tol:
            return False
    return True
