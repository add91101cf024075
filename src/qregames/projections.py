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

from .game import PlayerDims, _array, _cone_defects, _eigh, _halves, _real

_SHRINK = 2.0 ** -600  # exact, and brings every finite C's cone projection into range


def _norm(v: np.ndarray) -> float:
    """The Euclidean norm of the float array v read flat, so a matrix's Frobenius
    norm: np.linalg.norm's own formula, without its overhead.  np.vdot runs the
    same ddot as ndarray.dot, but warns on no overflow; only when the sum of
    squares is not finite is v rescaled by its largest entry (as in Blue, ACM
    TOMS 4(1), 1978), so a finite v has a finite norm unless the norm itself
    exceeds double range."""
    sq = float(np.vdot(v, v))
    if math.isfinite(sq):
        return math.sqrt(sq)
    scale = float(np.abs(v).max())
    if not math.isfinite(scale):  # v holds an infinity or a NaN, and so does its norm
        return scale
    v = v / scale
    return scale * math.sqrt(np.vdot(v, v))


def project_cone_sum(C: np.ndarray, dims: PlayerDims) -> np.ndarray:
    """Project onto {C : C + C^T >= 0, diagonal blocks symmetric}.

    The set is the direct sum of two orthogonal cones: PSD symmetric
    matrices, and skew matrices with (necessarily zero) diagonal blocks.
    Projecting each part independently is therefore exact.  Both parts are
    read from `_halves`; the skew half, zeroed on the diagonal blocks by
    dims._off_block, is added into the new PSD matrix, which is returned.
    Where that overflows, C scaled by `_SHRINK` is projected and scaled back:
    the projection is positively homogeneous.
    """
    C = _array(C, (dims.total, dims.total), "C")
    P = _project_cone_sum(C, dims)
    return P if np.isfinite(P).all() else _project_cone_sum(C * _SHRINK, dims) / _SHRINK


def _project_cone_sum(C: np.ndarray, dims: PlayerDims) -> np.ndarray:
    """project_cone_sum of a finite float m x m array, unchecked.  The PSD part
    clamps the negative eigenvalues of the symmetric half (`game._eigh`)."""
    sym, skew = _halves(C)
    w, V = _eigh(sym)
    np.maximum(w, 0.0, out=w)
    P = (V * w).dot(V.T)
    skew *= dims._off_block
    P += skew
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
    q q^T / 4 (`_psd_factor`), plus the skew half off the diagonal blocks."""
    _, C = _halves(np.outer(a, t))
    C *= dims._off_block
    q = _psd_factor(a, t)
    C += 0.25 * np.outer(q, q)
    return C


def project_feasible(C: np.ndarray, dims: PlayerDims, rho: float) -> np.ndarray:
    """Project onto the cone intersected with the Frobenius ball of radius rho.

    Ball-after-cone is the exact projection onto the intersection because the
    ball is centered at the cone's apex.  The cone projection is a new array,
    so the ball's radial rescale runs on it in place, and only when its norm
    exceeds rho (otherwise the factor rho / max(rho, norm) is exactly 1).
    The norm is `_norm`'s, which rescales where the sum of squares overflows;
    a cone projection that overflows is redone on C scaled by `_SHRINK`.
    """
    rho = _real(rho, "rho")  # a double, so the rescale is not rounded to a float32 rho
    return _project_feasible(_array(C, (dims.total, dims.total), "C"), dims, rho)


def _project_feasible(C: np.ndarray, dims: PlayerDims, rho: float) -> np.ndarray:
    """project_feasible of a finite float m x m array and a float rho > 0,
    unchecked: the bilevel loop checks rho once and owns every C it projects."""
    A = _project_cone_sum(C, dims)
    norm = _norm(A)
    if not math.isfinite(norm):  # the ball binds: the projection's norm left double range
        A = _project_cone_sum(C * _SHRINK, dims)
        A *= rho / _norm(A)
    elif norm > rho:
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
    """Membership test used by diagnostics and tests; eig_tol bounds (C + C^T)/2.
    A C whose certificate numbers leave double range raises NonFiniteInput, as
    check_assumption does."""
    rho = _real(rho, "rho")
    for tol, name in ((eig_tol, "eig_tol"), (ball_tol, "ball_tol"), (block_tol, "block_tol")):
        _real(tol, name, strict=False)
    C = _array(C, (dims.total, dims.total), "C")
    min_eig, asym = _cone_defects(C, dims)
    return bool(0.5 * min_eig >= -eig_tol and asym <= block_tol
                and _norm(C) <= rho + ball_tol)
