"""Forward problem: the logit response map and the equilibrium solve.

An equilibrium is a joint strategy x whose every block equals the softmax
best response to the costs the other blocks induce.  We find it by driving
the residual r(x) = x - f(-(b + Cx)/lam) to zero with a Gauss-Newton
iteration; when the uniqueness certificate holds the zero is unique.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput, NonPositiveStrategy
from .game import Game, check_assumption, uniform_strategy, validate_game

# Feasibility floor: keeps log-based diagnostics defined after renormalization.
ENTRY_FLOOR = 1e-300


@dataclass(frozen=True)
class SolverConfig:
    residual_tol: float = 1e-10  # termination on the squared residual norm
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


def response_jacobian(g: Game, x: np.ndarray) -> np.ndarray:
    """Jacobian of the softmax with respect to its argument u = -(b + Cx)/lam.

    Block-diagonal with blocks diag(p_i) - p_i p_i^T where p = f(u); each
    block is symmetric PSD with zero row sums.  Callers compose the residual
    Jacobian as I + (1/lam) * J_u * C.
    """
    p = logit_response(g, x)
    m = g.dims.total
    J = np.zeros((m, m))
    for i in range(g.dims.n):
        blk = g.dims.block(i)
        pi = p[blk]
        J[blk, blk] = np.diag(pi) - np.outer(pi, pi)
    return J


def _renormalize(x: np.ndarray, dims) -> np.ndarray:
    x = np.maximum(x, ENTRY_FLOOR)
    for i in range(dims.n):
        blk = dims.block(i)
        x[blk] /= x[blk].sum()
    return x


def _polish(g: Game, x: np.ndarray, rsq: float, tol: float) -> tuple[np.ndarray, float]:
    """One response-map application after convergence.

    Gauss-Newton controls the absolute residual, which leaves exponentially
    small strategy entries relatively wrong (they sit near the clamp floor
    rather than at their softmax values), spoiling log-based diagnostics.
    Re-evaluating the response once fixes every entry's log to the accuracy
    of the large entries.  Kept only if the residual stays converged.
    """
    polished = logit_response(g, x)
    r = polished - logit_response(g, polished)
    rsq_polished = float(r @ r)
    if rsq_polished <= tol:
        return polished, rsq_polished
    return x, rsq


def solve_equilibrium(
    g: Game,
    cfg: SolverConfig | None = None,
    x0: np.ndarray | None = None,
) -> SolveOutcome:
    """Minimize ||x - f(u(x))||^2 by Gauss-Newton with Armijo backtracking.

    The step solves J s = -r with J = I + (1/lam) * J_u * C.  Under the
    uniqueness certificate J is nonsingular: det(I + AB) = det(I + BA) gives
    det J = det(I + (1/lam) J_u^1/2 C J_u^1/2), whose symmetric part is
    at least I.  Accepted iterates are clamped to the positive orthant and
    renormalized blockwise, which keeps downstream log diagnostics defined.
    Starts from the uniform strategy unless x0 is given.

    Returns the best iterate found; `converged` records whether the squared
    residual reached `residual_tol`.  If the uniqueness certificate fails the
    solve still runs, but the outcome is flagged `certified=False`; should J
    then turn singular, the solve stops there, unconverged.
    """
    validate_game(g)
    cfg = cfg or SolverConfig()
    certified = check_assumption(g).passed
    dims = g.dims
    m = dims.total

    x = uniform_strategy(dims) if x0 is None else _renormalize(np.array(x0, dtype=float), dims)
    f = logit_response(g, x)
    r = x - f
    rsq = float(r @ r)
    best_x, best_rsq = x.copy(), rsq
    identity = np.eye(m)

    iterations = cfg.max_iters
    for it in range(cfg.max_iters):
        if rsq <= cfg.residual_tol:
            x, rsq = _polish(g, x, rsq, cfg.residual_tol)
            return SolveOutcome(x=x, residual_sq=rsq, iterations=it, converged=True,
                                certified=certified)
        J = identity + (1.0 / g.lam) * response_jacobian(g, x) @ g.C
        try:
            step = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            iterations = it
            break

        # Armijo backtracking on phi = 0.5 ||r||^2, whose slope along the
        # Gauss-Newton step is r^T J s = -||r||^2; if no trial passes, take
        # the last (smallest) one anyway so the iteration cannot stall.
        phi0 = 0.5 * rsq
        slope = -rsq
        alpha = 1.0
        for _ in range(cfg.max_backtracks):
            x_try = _renormalize(x + alpha * step, dims)
            r_try = x_try - logit_response(g, x_try)
            rsq_try = float(r_try @ r_try)
            if 0.5 * rsq_try <= phi0 + cfg.armijo_c * alpha * slope:
                break
            alpha *= cfg.backtrack_factor
        x, r, rsq = x_try, r_try, rsq_try
        if rsq < best_rsq:
            best_x, best_rsq = x.copy(), rsq

    converged = best_rsq <= cfg.residual_tol
    if converged:  # crossed the tolerance on the final allowed iteration
        best_x, best_rsq = _polish(g, best_x, best_rsq, cfg.residual_tol)
    return SolveOutcome(
        x=best_x,
        residual_sq=best_rsq,
        iterations=iterations,
        converged=converged,
        certified=certified,
    )


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
