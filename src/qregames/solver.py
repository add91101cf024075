"""Forward problem: the logit response map and the equilibrium solve.

An equilibrium is a joint strategy x whose every block equals the softmax
best response to the costs the other blocks induce.  We find it by driving
the cost-space residual R(y) = y - b - C f(-y/lam) to zero with a
Gauss-Newton iteration over all of R^m; when the uniqueness certificate
holds the zero is unique, and x = f(-y/lam) is the equilibrium.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput, NonPositiveStrategy
from .game import Game, check_assumption, uniform_strategy, validate_game


@dataclass(frozen=True)
class SolverConfig:
    residual_tol: float = 1e-10  # bound on both ||x - f(x)||^2 and the cost residual ||R||^2
    max_iters: int = 200
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5
    max_backtracks: int = 40

    def __post_init__(self):
        if not self.residual_tol > 0:
            raise ValueError("residual_tol must be > 0")
        if self.max_iters < 1 or self.max_backtracks < 1:
            raise ValueError("max_iters and max_backtracks must be >= 1")
        if not 0 < self.armijo_c < 1 or not 0 < self.backtrack_factor < 1:
            raise ValueError("armijo_c and backtrack_factor must lie in (0, 1)")


@dataclass(frozen=True)
class SolveOutcome:
    x: np.ndarray
    residual_sq: float
    iterations: int
    converged: bool
    certified: bool  # uniqueness certificate held, so this is *the* equilibrium


def blockwise_softmax(u: np.ndarray, dims) -> np.ndarray:
    """Softmax per player block, stabilized by subtracting the block max.

    Without the shift, temperatures like 0.1 against costs of a few units
    produce exponents near -30 that underflow asymmetrically.
    """
    out = np.empty_like(u)
    for i in range(dims.n):
        z = u[dims.block(i)]
        e = np.exp(z - z.max())
        out[dims.block(i)] = e / e.sum()
    return out


def perceived_cost(g: Game, x: np.ndarray) -> np.ndarray:
    return g.b + g.C @ x


def logit_response(g: Game, x: np.ndarray) -> np.ndarray:
    """Blockwise softmax response to the costs induced by x.

    Output blocks are strictly positive and sum to one.  Raises
    NonFiniteInput if the cost argument contains NaN or infinity.
    """
    cost = perceived_cost(g, x)
    if not np.all(np.isfinite(cost)):
        raise NonFiniteInput("cost argument of the response map is not finite")
    return blockwise_softmax(-cost / g.lam, g.dims)


def _softmax_jacobian(p: np.ndarray, dims) -> np.ndarray:
    """Block-diagonal softmax Jacobian with blocks diag(p_i) - p_i p_i^T."""
    m = dims.total
    J = np.zeros((m, m))
    for i in range(dims.n):
        blk = dims.block(i)
        pi = p[blk]
        J[blk, blk] = np.diag(pi) - np.outer(pi, pi)
    return J


def response_jacobian(g: Game, x: np.ndarray) -> np.ndarray:
    """Jacobian of the softmax with respect to its argument u = -(b + Cx)/lam.

    Block-diagonal with blocks diag(p_i) - p_i p_i^T where p = f(u); each
    block is symmetric PSD with zero row sums.
    """
    return _softmax_jacobian(logit_response(g, x), g.dims)


def cost_residual_jacobian(g: Game, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax Jacobian J_u at the strategy x, and H = I + (1/lam) C J_u.

    H is the Jacobian of the cost-space residual R(y) = y - b - C f(-y/lam)
    at the cost y with f(-y/lam) = x.  Under the uniqueness certificate H is
    nonsingular: det(I + AB) = det(I + BA) gives
    det H = det(I + (1/lam) J_u C) = det(I + (1/lam) J_u^1/2 C J_u^1/2),
    and the last matrix's symmetric part is at least I.
    """
    J_u = _softmax_jacobian(x, g.dims)
    return J_u, np.eye(g.dims.total) + (1.0 / g.lam) * (g.C @ J_u)


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
    entries.  Returns the last iterate.  If the uniqueness certificate fails
    the solve still runs, but the outcome is flagged `certified=False`;
    should H then turn singular, the solve stops there, unconverged.
    """
    validate_game(g)
    cfg = cfg or SolverConfig()
    certified = check_assumption(g).passed
    dims = g.dims
    x = uniform_strategy(dims) if x0 is None else np.asarray(x0, dtype=float)
    if x.shape != (dims.total,):
        raise DimensionMismatch(f"x0 has shape {x.shape}, expected ({dims.total},)")

    def at(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        p = blockwise_softmax(-y / g.lam, dims)
        R = y - perceived_cost(g, p)
        return p, R, float(R @ R)

    def outcome(p: np.ndarray, Rsq: float, iterations: int) -> SolveOutcome:
        r = p - logit_response(g, p)
        rsq = float(r @ r)
        return SolveOutcome(x=p, residual_sq=rsq, iterations=iterations,
                            converged=max(rsq, Rsq) <= cfg.residual_tol, certified=certified)

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
            step = np.linalg.solve(cost_residual_jacobian(g, x)[1], -R)
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
    if np.any(x <= 0):
        raise NonPositiveStrategy("stationarity diagnostic needs strictly positive entries")
    v = perceived_cost(g, x) + g.lam * np.log(x)
    spread = 0.0
    for i in range(g.dims.n):
        vi = v[g.dims.block(i)]
        spread = max(spread, float(vi.max() - vi.min()))
    return spread


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
