"""Cost design for a pure target equilibrium: minimum-norm feasibility.

Making a pure joint strategy the (unique) equilibrium amounts to linear
margin constraints on C -- at the target profile, each player's chosen
action must undercut every alternative by at least epsilon -- plus the
uniqueness cone.  Minimizing ||C||_F over that intersection is exactly the
projection of the zero matrix onto it.  Its Lagrange dual has one
nonnegative multiplier per margin and is smooth (Malick, SIAM J. Matrix
Anal. Appl. 2004), so a projected Barzilai-Borwein iteration over the
multipliers (Birgin, Martinez and Raydan, SIAM J. Optim. 2000) computes the
projection without an external conic solver.  Every matrix the dual
projects is rank one, a t^T with t the indicator of the chosen actions,
and its cone projection has a closed form; so an evaluation costs O(m),
with no eigendecomposition and no m x m array, and the design's symmetric
part has rank at most one.
The margins are always jointly feasible with the cone: a block-diagonal C
whose block i is the rank-one PSD v v^T, with v = 1 at the chosen action
and v = c elsewhere, makes every alternative cost c - 1 more.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput
from .game import Game, PlayerDims, PureTarget, _array, _real, _whole, pure_to_strategy
from .objectives import kl_objective
from .projections import _norm, _project_rank_one, _psd_factor
from .results import DesignResult
from .solver import solve_equilibrium

# Nonmonotone Armijo test of the dual iteration: sufficient decrease
# against the largest of the last ARMIJO_WINDOW dual values, halving the
# step until it holds.  A monotone test stalls on round-off near the
# optimum.  BB_STEP_MAX caps the spectral step where the gradient barely
# changed along the last step.
ARMIJO_SIGMA = 1e-4
ARMIJO_WINDOW = 10
ARMIJO_SHRINK = 0.5
BB_STEP_MAX = 1e10


@dataclass(frozen=True, eq=False)
class MarginConstraint:
    """One linear constraint <normal, C> <= beta (Frobenius inner product).

    Encodes: at the target profile, `player`'s chosen action costs at least
    epsilon less than alternative `action` (1-based).
    """

    normal: np.ndarray
    beta: float
    player: int
    action: int

    def violation(self, C: np.ndarray) -> float:
        return float(np.sum(self.normal * C) - self.beta)


@dataclass(frozen=True)
class MinNormConfig:
    epsilon: float = 3.0  # cost separation margin at the target profile
    # Stop when the dual's projected gradient ||mu - max(mu - grad, 0)|| is at
    # most this; it bounds every margin's violation.
    dykstra_tol: float = 1e-8
    max_sweeps: int = 50_000  # cap on dual iterations

    def __post_init__(self):
        object.__setattr__(self, "max_sweeps", _whole(self.max_sweeps, "max_sweeps", 1))
        _real(self.epsilon, "epsilon", strict=False)
        _real(self.dykstra_tol, "dykstra_tol")


def build_margin_constraints(
    g: Game, t: PureTarget, epsilon: float
) -> list[MarginConstraint]:
    """One constraint per (player, non-chosen action).

    With x* the pure target profile, the cost of action k for player i is
    [b + C x*] at row (i, k), and C x* picks one column of C per player (the
    chosen one).  The constraint "chosen + epsilon <= alternative" therefore
    has normal +1 on (chosen row, chosen columns) and -1 on (alternative
    row, chosen columns), with beta = b[alt] - b[chosen] - epsilon, which
    must be finite (else NonFiniteInput).
    """
    dims = g.dims
    m = dims.total
    target, star, alt, beta = _margin_structure(g, t, _real(epsilon, "epsilon", strict=False))
    constraints = []
    for row_star, row_k, bound in zip(star, alt, beta):
        normal = np.zeros((m, m))
        normal[row_star] = target
        normal[row_k] -= target
        player = int(dims.owner[row_k])
        action = int(row_k - dims.offsets[player]) + 1
        constraints.append(
            MarginConstraint(normal=normal, beta=float(bound), player=player, action=action)
        )
    return constraints


def max_margin_violation(C: np.ndarray, constraints: list[MarginConstraint]) -> float:
    if not constraints:
        return 0.0
    C = _array(C, constraints[0].normal.shape, "C")
    return max(max(c.violation(C) for c in constraints), 0.0)


def _margin_structure(
    g: Game, t: PureTarget, epsilon: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The margin constraints of `build_margin_constraints`, without normals.

    Returns (target, star, alt, beta): the target strategy x*, and per
    constraint the chosen row, the alternative row and the bound.
    Constraint k reads s[star[k]] - s[alt[k]] <= beta[k] with s = C x*.
    A bound that leaves double range raises NonFiniteInput.
    """
    dims = g.dims
    target = pure_to_strategy(t, dims)  # raises IndexOutOfRange on a bad target
    star = np.repeat(np.flatnonzero(target), [s - 1 for s in dims.sizes])
    alt = np.flatnonzero(target == 0.0)
    with np.errstate(over="ignore"):  # an infinite bound is rejected below
        beta = g.b[alt] - g.b[star] - epsilon
    if not np.isfinite(beta).all():
        raise NonFiniteInput("margin bound b[alt] - b[star] - epsilon leaves double range")
    return target, star, alt, beta


def _off_block_sum(v: np.ndarray, dims: PlayerDims) -> np.ndarray:
    """M v: entry k sums v over the blocks of the players other than k's owner."""
    return v.sum() - np.add.reduceat(v, dims.starts)[dims.owner]


def _dual_min_norm(
    dims: PlayerDims,
    margins: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    tol: float,
    max_iters: int,
) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """Project zero onto (cone) intersect (margins).

    Minimises the smooth dual theta(mu) = 1/2 ||C(mu)||^2 + beta^T mu over
    mu >= 0, with C(mu) = Pi_K(-A* mu) and grad theta = beta - A C(mu), by
    projected Barzilai-Borwein steps under a nonmonotone Armijo test.
    -A* mu is a t^T, with t the target strategy and
    a = sum_k mu_k (e_alt_k - e_star_k); A C reads s = C t at the star and
    alternative rows.  With M the off-block sum (`_off_block_sum`) and q
    from `_psd_factor`, the dual needs only the O(m)
        s = (q.t) q / 4 + (a o M(t o t) - t o M(a o t)) / 2,
    for any t: by Moreau's decomposition ||C||^2 = <a t^T, C> = a.s, so
    theta = mu.(beta - A C / 2).  C itself is formed once, on return.
    Returns (C, grad, iterations, converged); a margin's violation is
    -grad[k], bounded by the stopping test's projected-gradient norm.
    """
    t, star, alt, beta = margins
    m = dims.total
    Mtt = _off_block_sum(t * t, dims)

    def evaluate(mu):
        a = np.bincount(alt, mu, m) - np.bincount(star, mu, m)
        q = _psd_factor(a, t)
        s = 0.25 * float(q.dot(t)) * q + 0.5 * (a * Mtt - t * _off_block_sum(a * t, dims))
        As = s[star] - s[alt]
        # theta as mu.(beta - As / 2): mu.(grad + beta) / 2 overflows at margins near 1e308
        return a, beta - As, float(mu.dot(beta - 0.5 * As))

    mu = np.zeros(len(beta))
    a, grad, theta = evaluate(mu)
    recent = deque([theta], maxlen=ARMIJO_WINDOW)
    # 1/||A||^2, the step of the descent lemma: A A^T has one block
    # n (I + 11^T) of size m_i - 1 per player.
    alpha = 1.0 / (dims.n * max(dims.sizes))
    iterations = 0
    while not (converged := _norm(mu - np.maximum(mu - grad, 0.0)) <= tol):  # NaN never does
        if iterations == max_iters:
            break
        d = np.maximum(mu - alpha * grad, 0.0) - mu
        slope = ARMIJO_SIGMA * float(np.vdot(d, grad))  # vdot: no overflow warning
        if not math.isfinite(slope):  # d or grad overflowed: no step can pass the test
            break
        ceiling = max(recent)
        step = 1.0
        while not np.array_equal(trial := mu + step * d, mu):
            a_new, grad_new, theta_new = evaluate(trial)
            if theta_new <= ceiling + step * slope:
                break
            step *= ARMIJO_SHRINK
        else:  # the step vanished in round-off
            break
        s_step, y_step = trial - mu, grad_new - grad
        sy = float(s_step.dot(y_step))
        alpha = min(float(s_step.dot(s_step)) / sy, BB_STEP_MAX) if sy > 0 else BB_STEP_MAX
        mu, a, grad = trial, a_new, grad_new
        recent.append(theta_new)
        iterations += 1
    return _project_rank_one(a, t, dims), grad, iterations, converged


def solve_min_norm_design(
    g: Game,
    t: PureTarget,
    cfg: MinNormConfig | None = None,
) -> DesignResult:
    """Smallest-Frobenius-norm C that makes the target the unique equilibrium.

    Solves the dual of the projection onto the margin half-spaces and the
    uniqueness cone, then solves the forward problem for the induced
    equilibrium.  The reported objective value is the divergence of the
    induced equilibrium from the (smoothed) target.  A result with
    `converged=False` means the dual iteration cap ran out, the line search
    could no longer move the multipliers, or the dual overflowed (a margin
    near the edge of double range) before the stopping test held.
    """
    cfg = cfg or MinNormConfig()
    margins = _margin_structure(g, t, cfg.epsilon)
    C, grad, iterations, converged = _dual_min_norm(
        g.dims, margins, cfg.dykstra_tol, cfg.max_sweeps
    )
    designed = g.with_matrix(C)
    outcome = solve_equilibrium(designed)
    divergence = kl_objective(margins[0], g.dims).value(outcome.x)
    return DesignResult(
        C=C,
        x=outcome.x,
        objective_value=divergence,
        c_norm=_norm(C),
        outer_iterations=iterations,
        converged=converged and outcome.converged,
        max_violation=max(0.0, -float(grad.min(initial=np.inf))),
    )
