"""Forward problem: the logit response map and the equilibrium solve.

An equilibrium is a joint strategy x whose every block equals the softmax
best response to the costs the other blocks induce.  We find it by driving
the cost-space residual R(y) = y - b - C f(-y/lam) to zero with a
Gauss-Newton iteration over all of R^m; when the uniqueness certificate
holds the zero is unique, and x = f(-y/lam) is the equilibrium.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NonFiniteInput, NonPositiveStrategy
from .game import Game, _check_lambda, _check_length, _whole, check_assumption, uniform_strategy


@dataclass(frozen=True)
class SolverConfig:
    residual_tol: float = 1e-10  # bound on both ||x - f(x)||^2 and the cost residual ||R||^2
    max_iters: int = 200
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5
    max_backtracks: int = 40

    def __post_init__(self):
        for name in ("max_iters", "max_backtracks"):
            object.__setattr__(self, name, _whole(getattr(self, name), name, ValueError))
        if not 0 < self.residual_tol < np.inf:
            raise ValueError("residual_tol must be finite and > 0")
        if self.max_iters < 1 or self.max_backtracks < 1:
            raise ValueError("max_iters and max_backtracks must be >= 1")
        if not 0 < self.armijo_c < 1 or not 0 < self.backtrack_factor < 1:
            raise ValueError("armijo_c and backtrack_factor must lie in (0, 1)")


@dataclass(frozen=True)
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
    _game: Game = field(repr=False, compare=False)

    @cached_property
    def certified(self) -> bool:
        return check_assumption(self._game).passed


def blockwise_softmax(u: np.ndarray, dims) -> np.ndarray:
    """Softmax per player block, stabilized by subtracting the block max.

    Without the shift, temperatures like 0.1 against costs of a few units
    produce exponents near -30 that underflow asymmetrically.  All blocks
    are reduced at once over `dims.starts` and spread back by `dims.owner`.
    """
    e = np.exp(u - np.maximum.reduceat(u, dims.starts)[dims.owner])
    return e / np.add.reduceat(e, dims.starts)[dims.owner]


def perceived_cost(g: Game, x: np.ndarray) -> np.ndarray:
    return g.b + g.C @ x


def logit_response(g: Game, x: np.ndarray) -> np.ndarray:
    """Blockwise softmax response to the costs induced by x.

    Output blocks are strictly positive and sum to one.  Raises
    NonFiniteInput if the cost argument contains NaN or infinity.
    """
    x = np.asarray(x, dtype=float)
    _check_length(x, g.dims)
    cost = perceived_cost(g, x)
    if not np.all(np.isfinite(cost)):
        raise NonFiniteInput("cost argument of the response map is not finite")
    return blockwise_softmax(-cost / g.lam, g.dims)


def response_jacobian(g: Game, x: np.ndarray) -> np.ndarray:
    """Jacobian of the softmax with respect to its argument u = -(b + Cx)/lam.

    Block-diagonal with blocks diag(p_i) - p_i p_i^T where p = f(u); each
    block is symmetric PSD with zero row sums.  This is the only place the
    dense m x m matrix is built: the solver and the implicit gradient use
    its block structure instead (see cost_residual_jacobian).
    """
    p = logit_response(g, x)
    owner = g.dims.owner
    J = np.where(owner[:, None] == owner[None, :], -np.outer(p, p), 0.0)
    J.flat[:: p.size + 1] += p
    return J


def cost_residual_jacobian(g: Game, x: np.ndarray) -> np.ndarray:
    """H = I + (1/lam) C J_u, with J_u the softmax Jacobian at the strategy x.

    H is the Jacobian of the cost-space residual R(y) = y - b - C f(-y/lam)
    at the cost y with f(-y/lam) = x.  It is formed in O(m^2 n) from the
    block structure of J_u, without building it: column j of C J_u, in block
    k, is x_j (C_{:,j} - S_{:,k}) with S_{:,k} = sum over l in block k of
    C_{:,l} x_l, one product of C with the m x n block indicator scaled by x.

    Under the uniqueness certificate H is nonsingular: det(I + AB) =
    det(I + BA) gives det H = det(I + (1/lam) J_u C) =
    det(I + (1/lam) J_u^1/2 C J_u^1/2), and the last matrix's symmetric part
    is at least I.
    """
    dims = g.dims
    m = dims.total
    W = np.zeros((m, dims.n))
    W[np.arange(m), dims.owner] = x
    H = (g.C @ W)[:, dims.owner]
    np.subtract(g.C, H, out=H)
    H *= x / g.lam
    H.flat[:: m + 1] += 1.0
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
    uniform strategy unless given.

    Converged means both ||x - f(x)||^2 and ||R||^2 are at most
    `residual_tol`; `residual_sq` reports the first.  The second is the
    first-order condition: b + Cx + lam ln x equals -R plus a constant per
    block, so it bounds the error of log x even in exponentially small
    entries.  Returns the last iterate.  The solve does not check the
    uniqueness certificate: it runs on any game with lam > 0, and the
    outcome's `certified` checks it on first read.  On an uncertified game H
    can turn singular; the solve then stops there, unconverged.
    """
    cfg = cfg or SolverConfig()
    dims = g.dims
    x = uniform_strategy(dims) if x0 is None else np.asarray(x0, dtype=float)
    _check_length(x, dims, "x0")

    def at(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        p = blockwise_softmax(-y / g.lam, dims)
        R = y - perceived_cost(g, p)
        return p, R, float(R @ R)

    def outcome(p: np.ndarray, Rsq: float, iterations: int) -> SolveOutcome:
        r = p - logit_response(g, p)
        rsq = float(r @ r)
        return SolveOutcome(x=p, residual_sq=rsq, iterations=iterations,
                            converged=max(rsq, Rsq) <= cfg.residual_tol, _game=g)

    y = perceived_cost(g, x)
    if not np.all(np.isfinite(y)):
        raise NonFiniteInput("starting cost b + C x0 is not finite")
    x, R, Rsq = at(y)
    for it in range(cfg.max_iters):
        if Rsq <= cfg.residual_tol:
            out = outcome(x, Rsq, it)
            if out.converged:
                return out
        try:
            step = np.linalg.solve(cost_residual_jacobian(g, x), -R)
        except np.linalg.LinAlgError:
            return outcome(x, Rsq, it)

        # Armijo backtracking on phi = 0.5 ||R||^2, whose slope along the
        # Gauss-Newton step is R^T H s = -||R||^2; if no trial passes, take
        # the last (smallest) one anyway so the iteration cannot stall.
        phi0 = 0.5 * Rsq
        slope = -Rsq
        alpha = 1.0
        for _ in range(cfg.max_backtracks):
            y_try = y + alpha * step
            x_try, R_try, Rsq_try = at(y_try)
            if 0.5 * Rsq_try <= phi0 + cfg.armijo_c * alpha * slope:
                break
            alpha *= cfg.backtrack_factor
        y, x, R, Rsq = y_try, x_try, R_try, Rsq_try
    return outcome(x, Rsq, cfg.max_iters)


def stationarity_residual(g: Game, x: np.ndarray) -> float:
    """Deviation from the per-block first-order optimality condition.

    At an exact equilibrium, b_i + (Cx)_i + lam*ln(x_i) is constant within
    each block; returns the largest spread (max - min) of that vector over
    all players.  Requires x strictly positive.
    """
    x = np.asarray(x, dtype=float)
    _check_length(x, g.dims)
    if np.any(x <= 0):
        raise NonPositiveStrategy("stationarity diagnostic needs strictly positive entries")
    v = perceived_cost(g, x) + g.lam * np.log(x)
    starts = g.dims.starts
    return float(np.max(np.maximum.reduceat(v, starts) - np.minimum.reduceat(v, starts)))


def simulate_gumbel_choice(
    cost: np.ndarray,
    lam: float,
    samples: int,
    seed: int,
    _chunk: int = 1 << 16,
) -> np.ndarray:
    """Empirical choice frequencies under Gumbel-perturbed costs.

    Draws Gumbel(0, lam) noise by inverse CDF, -lam*ln(-ln(U)), and picks
    argmax_k(-cost_k + noise_k) per sample; this max-stable form reproduces
    the logit response exactly in distribution.  Deterministic given seed.
    """
    cost = np.asarray(cost, dtype=float)
    _check_lambda(lam)
    if not np.all(np.isfinite(cost)):
        raise NonFiniteInput("cost vector is not finite")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    k = cost.shape[0]
    rng = np.random.default_rng(seed)
    counts = np.zeros(k, dtype=np.int64)
    done = 0
    while done < samples:
        n = min(_chunk, samples - done)
        u = rng.random((n, k))
        noise = -lam * np.log(-np.log(u))
        winners = np.argmax(-cost + noise, axis=1)
        counts += np.bincount(winners, minlength=k)
        done += n
    return counts / float(samples)
