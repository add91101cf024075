"""Forward problem: the logit response map and the equilibrium solve.

An equilibrium is a joint strategy x whose every block equals the softmax
best response to the costs the other blocks induce.  We find it by driving
the cost-space residual R(y) = y - b - C f(-y/lam) to zero with a
Gauss-Newton iteration over all of R^m; when the uniqueness certificate
holds the zero is unique, and x = f(-y/lam) is the equilibrium.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DecompositionFailure, DimensionMismatch, NonFiniteInput, NonPositiveStrategy
from .game import (
    Game,
    _array,
    _check_lambda,
    _linear_solve,
    _positive,
    _real,
    _whole,
    check_assumption,
    uniform_strategy,
)

# Armijo backtracking of the Gauss-Newton step: sufficient-decrease
# constant, step shrink factor, and the trials before the solve gives up.
ARMIJO_C = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 40

# Samples drawn per batch by simulate_gumbel_choice, bounding its memory.
GUMBEL_CHUNK = 1 << 16


@dataclass(frozen=True)
class SolverConfig:
    residual_tol: float = 1e-10  # bound on both ||x - f(x)||^2 and the cost residual ||R||^2
    max_iters: int = 200

    def __post_init__(self):
        object.__setattr__(self, "max_iters", _whole(self.max_iters, "max_iters", 1))
        _real(self.residual_tol, "residual_tol")


_DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True, eq=False)
class SolveOutcome:
    """The last iterate of a solve, its residual and whether it converged.

    `certified` says whether the solved game passes the uniqueness
    certificate, so that x is *the* equilibrium.  It is a property of the
    game, not of the solve, and costs an O(m^3) eigendecomposition of
    C + C^T; it is computed on first read and kept, so a caller that never
    reads it never pays for it.
    """

    x: np.ndarray
    residual_sq: float
    iterations: int
    converged: bool
    _game: Game = field(repr=False)
    _cost_residual_sq: float = field(default=math.nan, repr=False)  # ||R||^2, set when unconverged

    @cached_property
    def certified(self) -> bool:
        return check_assumption(self._game).passed


def blockwise_softmax(u: np.ndarray, dims) -> np.ndarray:
    """Softmax per player block, stabilized by subtracting the block max.

    Without the shift, temperatures like 0.1 against costs of a few units
    produce exponents near -30 that underflow asymmetrically.  All blocks
    are reduced at once over `dims.starts` and spread back by `dims.owner`.
    The exp and the normalisation run in place on the shifted copy of the
    float array u, so u is left unchanged.
    """
    e = u - np.maximum.reduceat(u, dims.starts)[dims.owner]
    np.exp(e, out=e)
    e /= np.add.reduceat(e, dims.starts)[dims.owner]
    return e


def perceived_cost(g: Game, x: np.ndarray) -> np.ndarray:
    # The kernels multiply with ndarray.dot: the same BLAS call as `@`, with
    # about half of matmul's per-call overhead at m = 12.
    c = g.C.dot(x)
    c += g.b
    return c


def logit_response(g: Game, x: np.ndarray) -> np.ndarray:
    """Blockwise softmax response to the costs induced by x.

    Output blocks are nonnegative and sum to one, under `_response`'s
    overflow rule.  Raises NonFiniteInput if x, or the cost argument,
    contains NaN or infinity; x is checked before the product C x.
    """
    x = _array(x, (g.dims.total,), "strategy")
    with np.errstate(over="ignore"):  # a cost that overflows is rejected by _response
        cost = perceived_cost(g, x)
    return _response(cost, g.lam, g.dims)


def _response(cost: np.ndarray, lam: float, dims) -> np.ndarray:
    """f(-cost/lam), checked: NonFiniteInput on a NaN or infinite cost entry, or on
    a block of -cost/lam that overflows whole; an entry that overflows alone gets
    probability 0.  The solve's per-trial steps call `blockwise_softmax` unchecked."""
    if not np.isfinite(cost).all():
        raise NonFiniteInput("cost argument of the response map is not finite")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        p = blockwise_softmax(cost / -lam, dims)
    return _array(p, None, "logit response to -cost/lambda")


def response_jacobian(g: Game, x: np.ndarray) -> np.ndarray:
    """Jacobian of the softmax with respect to its argument u = -(b + Cx)/lam.

    Block-diagonal with blocks diag(p_i) - p_i p_i^T where p = f(u); each
    block is symmetric PSD with zero row sums: J = diag(p) - W W^T, with W
    the `_block_scatter` of p.  This is the only place the dense m x m matrix
    is built: the solver and the implicit gradient use its block structure
    instead (see cost_residual_jacobian).
    """
    p = logit_response(g, x)
    W = _block_scatter(g.dims, p)
    return np.diag(p) - W.dot(W.T)


def _block_scatter(dims, x: np.ndarray) -> np.ndarray:
    """The m x n matrix whose column i is x on player i's block, 0 off it."""
    W = np.zeros((dims.total, dims.n))
    W.ravel()[dims._scatter_index] = x  # a view: W is contiguous
    return W


def cost_residual_jacobian(g: Game, x: np.ndarray) -> np.ndarray:
    """H = I + (1/lam) C J_u, with J_u the softmax Jacobian at the strategy x.

    H is the Jacobian of the cost-space residual R(y) = y - b - C f(-y/lam)
    at the cost y with f(-y/lam) = x.  It is formed in O(m^2 n) from the
    block structure of J_u, without building it: column j of C J_u, in block
    k, is x_j (C_{:,j} - S_{:,k}) with S_{:,k} = sum over l in block k of
    C_{:,l} x_l, one product of C with the block scatter W of x
    (`_block_scatter`).  Blocks are contiguous, so S is spread over them
    with one contiguous repeat of each column, m_k times, by the sizes
    array that dims computed once.

    Under the uniqueness certificate H is nonsingular: det(I + AB) =
    det(I + BA) gives det H = det(I + (1/lam) J_u C) =
    det(I + (1/lam) J_u^1/2 C J_u^1/2), and the last matrix's symmetric part
    is at least I.
    """
    dims = g.dims
    H = g.C.dot(_block_scatter(dims, x)).repeat(dims._size_array, axis=1)
    np.subtract(g.C, H, out=H)
    H *= x / g.lam
    diagonal = H.ravel()[:: dims.total + 1]  # a view: H is contiguous
    diagonal += 1.0
    return H


def solve_equilibrium(
    g: Game,
    cfg: SolverConfig | None = None,
    x0: np.ndarray | None = None,
) -> SolveOutcome:
    """Gauss-Newton with Armijo backtracking on the perceived cost.

    The unknown is the cost vector y in R^m, unconstrained: the strategy
    x = f(-y/lam) has its blocks on the simplex for every y, and the
    residual R(y) = y - b - Cx vanishes exactly at an equilibrium.  The step
    solves H s = -R (see cost_residual_jacobian) and the line search
    backtracks on 0.5 ||R||^2.  Starts from y = b + C x0, with x0 the
    uniform strategy unless given; x0, checked before the product C x0, and
    the starting y/lam must be finite (NonFiniteInput).

    Converged means both ||x - f(x)||^2 and ||R||^2 are at most
    `residual_tol`; `residual_sq` reports the first, computed from the
    perceived cost b + Cx that the residual R already formed, so the exit
    test costs one softmax and no product with C.  The second is the
    first-order condition: b + Cx + lam ln x equals -R plus a constant per
    block, so it bounds the error of log x even in exponentially small
    entries.  Returns the last iterate.  The solve does not check the
    uniqueness certificate: it runs on any game with lam > 0, and the
    outcome's `certified` checks it on first read.  The solve stops
    unconverged where H turns singular (an uncertified game can) or where no
    line-search trial passes, as the bilevel loop and the min-norm dual do.
    """
    if cfg is None:
        cfg = _DEFAULT_CONFIG
    if x0 is not None:
        x0 = _array(x0, (g.dims.total,), "x0")
    # an overflow ends as the start check's error, a trial's non-finite ||R||^2
    # that the line search rejects, or the checked response of the unconverged tail
    with np.errstate(over="ignore"):
        return _solve_equilibrium(g, cfg, x0)


def _solve_equilibrium(g: Game, cfg: SolverConfig, x0: np.ndarray | None) -> SolveOutcome:
    """solve_equilibrium's Gauss-Newton loop, with x0 None or a finite float
    vector that fits g: the design loops call it on the iterates they own."""
    dims, lam, tol = g.dims, g.lam, cfg.residual_tol
    y = perceived_cost(g, uniform_strategy(dims) if x0 is None else x0)
    if not math.isfinite(float(np.abs(y).max()) / lam):  # NaN fails too
        raise NonFiniteInput("starting cost (b + C x0)/lambda is not finite")
    x, c, R, Rsq = _at_cost(g, y)
    for it in range(cfg.max_iters):
        if Rsq <= tol:
            # R is finite, so c = y - R is too and the response needs no check
            r = x - blockwise_softmax(c / -lam, dims)
            rsq = float(r.dot(r))
            if rsq <= tol:
                return SolveOutcome(x=x, residual_sq=rsq, iterations=it, converged=True,
                                    _game=g)
        try:
            step = _linear_solve(cost_residual_jacobian(g, x), -R)
        except DecompositionFailure:
            break

        # Armijo backtracking on phi = 0.5 ||R||^2, whose slope along the
        # Gauss-Newton step is R^T H s = -||R||^2; if no trial passes, the
        # solve ends unconverged at the current iterate.
        phi0 = 0.5 * Rsq
        slope = -Rsq
        alpha = 1.0
        for _ in range(MAX_BACKTRACKS):
            y_try = y + alpha * step
            x_try, c_try, R_try, Rsq_try = _at_cost(g, y_try)
            if 0.5 * Rsq_try <= phi0 + ARMIJO_C * alpha * slope:
                break
            alpha *= BACKTRACK_FACTOR
        else:
            break
        y, x, c, R, Rsq = y_try, x_try, c_try, R_try, Rsq_try
    else:
        it = cfg.max_iters
    # H singular, a failed search or the cap: c may not be finite, so the response checks it
    r = x - _response(c, lam, dims)
    rsq = float(r.dot(r))
    return SolveOutcome(x=x, residual_sq=rsq, iterations=it, converged=max(rsq, Rsq) <= tol,
                        _game=g, _cost_residual_sq=Rsq)


def _at_cost(g: Game, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(x, c, R, ||R||^2) at the cost y: x = f(-y/lam), c = b + C x, R = y - c."""
    x = blockwise_softmax(y / -g.lam, g.dims)
    c = perceived_cost(g, x)
    R = y - c
    return x, c, R, float(R.dot(R))


def stationarity_residual(g: Game, x: np.ndarray) -> float:
    """Deviation from the per-block first-order optimality condition.

    At an exact equilibrium, b_i + (Cx)_i + lam*ln(x_i) is constant within
    each block; returns the largest spread (max - min) of that vector over
    all players.  Requires x finite (else NonFiniteInput) and strictly
    positive (else NonPositiveStrategy).
    """
    x = _array(x, (g.dims.total,), "strategy", finite=False)
    _positive(x, "strategy", NonPositiveStrategy,
              "stationarity diagnostic needs strictly positive entries")
    v = perceived_cost(g, x) + g.lam * np.log(x)
    starts = g.dims.starts
    return float(np.max(np.maximum.reduceat(v, starts) - np.minimum.reduceat(v, starts)))


def simulate_gumbel_choice(
    cost: np.ndarray,
    lam: float,
    samples: int,
    seed: int,
) -> np.ndarray:
    """Empirical choice frequencies under Gumbel-perturbed costs.

    Draws Gumbel(0, lam) noise by inverse CDF, -lam*ln(-ln(U)), and picks
    argmax_k(-cost_k + noise_k) per sample; this max-stable form reproduces
    the logit response exactly in distribution.  Deterministic given seed.
    cost must hold numbers, else InvalidInput, with finite entries, else
    NonFiniteInput, and be a non-empty 1-D vector, else DimensionMismatch;
    samples and seed must be whole numbers, samples >= 1 and seed >= 0, else
    InvalidInput.
    """
    cost = _array(cost, None, "cost")
    if cost.ndim != 1 or cost.size == 0:
        raise DimensionMismatch(f"cost must be a non-empty vector, got shape {cost.shape}")
    _check_lambda(lam)
    samples = _whole(samples, "samples", 1)
    seed = _whole(seed, "seed", 0)
    k = cost.shape[0]
    rng = np.random.default_rng(seed)
    counts = np.zeros(k, dtype=np.int64)
    done = 0
    while done < samples:
        n = min(GUMBEL_CHUNK, samples - done)
        u = rng.random((n, k))
        noise = -lam * np.log(-np.log(u))
        winners = np.argmax(-cost + noise, axis=1)
        counts += np.bincount(winners, minlength=k)
        done += n
    return counts / float(samples)
