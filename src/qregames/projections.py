"""Euclidean projections onto the feasible cost-matrix sets.

The design routes constrain C to the cone of matrices with PSD symmetric
part and symmetric diagonal blocks, optionally intersected with a Frobenius
ball of radius rho.  Both projections are exact: the cone splits into a PSD
projection of the symmetric part plus a diagonal-block-zeroing of the skew
part, and the ball composes on the outside by a radial rescale.  The
min-norm dual projects only rank-one matrices a t^T, whose cone projection
has a closed form (`_project_rank_one`).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import EigendecompositionFailure
from .game import PlayerDims, _array, _cone_defects, _real


def _norm(v: np.ndarray) -> float:
    """The Euclidean norm of the float vector v (a flat view for a matrix's
    Frobenius norm): np.linalg.norm's own formula, without its overhead."""
    return math.sqrt(v.dot(v))


def _raise_unconverged(err, flag):
    raise EigendecompositionFailure("Eigenvalues did not converge")


def project_psd(S: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix to a symmetric float S: clamp negative eigenvalues.

    The eigendecomposition is np.linalg.eigh(S)'s own LAPACK gufunc under
    its own error state, without the wrapper's dispatch, as in
    solver._linear_solve.
    """
    with np.errstate(call=_raise_unconverged, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        w, V = _umath_linalg.eigh_lo(S, signature="d->dd")
    np.maximum(w, 0.0, out=w)
    return (V * w).dot(V.T)


def _skew_part(X: np.ndarray, dims: PlayerDims) -> np.ndarray:
    """The cone projection of X's skew part, as a new array: (X - X^T) times
    dims._off_block_half, which halves it off the diagonal blocks and zeroes
    it on them."""
    skew = X - X.T
    skew *= dims._off_block_half
    return skew


def project_cone_sum(C: np.ndarray, dims: PlayerDims) -> np.ndarray:
    """Project onto {C : C + C^T >= 0, diagonal blocks symmetric}.

    The set is the direct sum of two orthogonal cones: PSD symmetric
    matrices, and skew matrices with (necessarily zero) diagonal blocks.
    Projecting each part independently is therefore exact.  The skew part
    (`_skew_part`) is added into the new PSD matrix, which is returned.
    """
    return _project_cone_sum(_array(C, (dims.total, dims.total), "C"), dims)


def _project_cone_sum(C: np.ndarray, dims: PlayerDims) -> np.ndarray:
    """project_cone_sum of a finite float m x m array, unchecked."""
    sym = C + C.T
    sym *= 0.5
    P = project_psd(sym)
    P += _skew_part(C, dims)
    return P


def _psd_factor(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """q with q q^T / 4 the PSD projection of (a t^T + t a^T) / 2; zero when a is.

    That symmetric matrix has one positive eigenvalue, (|a| |t| + a.t) / 2,
    on the direction a / |a| + t / |t|.
    """
    norm_a, norm_t = _norm(a), _norm(t)
    if norm_a == 0.0:
        return np.zeros_like(a)
    return math.sqrt(norm_t / norm_a) * a + math.sqrt(norm_a / norm_t) * t


def _project_rank_one(a: np.ndarray, t: np.ndarray, dims: PlayerDims) -> np.ndarray:
    """project_cone_sum(outer(a, t)) in closed form: the PSD part is
    q q^T / 4 (`_psd_factor`), plus the skew part."""
    C = _skew_part(np.outer(a, t), dims)
    q = _psd_factor(a, t)
    C += 0.25 * np.outer(q, q)
    return C


def project_feasible(C: np.ndarray, dims: PlayerDims, rho: float) -> np.ndarray:
    """Project onto the cone intersected with the Frobenius ball of radius rho.

    Ball-after-cone is the exact projection onto the intersection because the
    ball is centered at the cone's apex.  The cone projection is a new array,
    so the ball's radial rescale runs on it in place, and only when its norm
    exceeds rho (otherwise the factor rho / max(rho, norm) is exactly 1).
    The norm is `_norm` of the flat view.
    """
    rho = _real(rho, "rho")  # a double, so the rescale is not rounded to a float32 rho
    return _project_feasible(_array(C, (dims.total, dims.total), "C"), dims, rho)


def _project_feasible(C: np.ndarray, dims: PlayerDims, rho: float) -> np.ndarray:
    """project_feasible of a finite float m x m array and a float rho > 0,
    unchecked: the bilevel loop checks rho once and owns every C it projects."""
    A = _project_cone_sum(C, dims)
    norm = _norm(A.ravel())
    if norm > rho:
        A *= rho / norm
    return A


def in_feasible_set(
    C: np.ndarray,
    dims: PlayerDims,
    rho: float,
    eig_tol: float = 1e-9,
    ball_tol: float = 1e-9,
    block_tol: float = 1e-10,
) -> bool:
    """Membership test used by diagnostics and tests; eig_tol bounds (C + C^T)/2."""
    rho = _real(rho, "rho")
    for tol, name in ((eig_tol, "eig_tol"), (ball_tol, "ball_tol"), (block_tol, "block_tol")):
        _real(tol, name, strict=False)
    C = _array(C, (dims.total, dims.total), "C")
    min_eig, asym = _cone_defects(C, dims)
    return bool(0.5 * min_eig >= -eig_tol and asym <= block_tol
                and np.linalg.norm(C) <= rho + ball_tol)
