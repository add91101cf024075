"""Cost design for a pure target equilibrium: minimum-norm feasibility.

Making a pure joint strategy the (unique) equilibrium amounts to linear
margin constraints on C -- at the target profile, each player's chosen
action must undercut every alternative by at least epsilon -- plus the
uniqueness cone.  Minimizing ||C||_F over that intersection is exactly the
projection of the zero matrix onto it.  Its Lagrange dual has one
nonnegative multiplier per margin and is smooth, with one cone projection
(one `eigh`) per evaluation (Malick, SIAM J. Matrix Anal. Appl. 2004), so a
projected Barzilai-Borwein iteration over the multipliers (Birgin, Martinez
and Raydan, SIAM J. Optim. 2000) computes the projection without an
external conic solver and without storing any m x m constraint normal.
The margins are always jointly feasible with the cone: a block-diagonal C
whose block i is the rank-one PSD v v^T, with v = 1 at the chosen action
and v = c elsewhere, makes every alternative cost c - 1 more.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .game import Game, PlayerDims, PureTarget, _whole, pure_to_strategy
from .objectives import kl_objective
from .projections import project_cone_sum
from .results import DesignResult
from .solver import SolverConfig, solve_equilibrium

# Nonmonotone Armijo test of the dual iteration: sufficient decrease
# against the largest of the last ARMIJO_WINDOW dual values, halving the
# step until it holds.  A monotone test stalls on round-off near the
# optimum.  BB_STEP_MAX caps the spectral step where the gradient barely
# changed along the last step.
ARMIJO_SIGMA = 1e-4
ARMIJO_WINDOW = 10
ARMIJO_SHRINK = 0.5
BB_STEP_MAX = 1e10


@dataclass(frozen=True)
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
        object.__setattr__(self, "max_sweeps", _whole(self.max_sweeps, "max_sweeps", ValueError))
        if not 0 <= self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and >= 0")
        if not 0 < self.dykstra_tol < math.inf or self.max_sweeps < 1:
            raise ValueError("dykstra_tol must be finite and > 0, and max_sweeps >= 1")


def build_margin_constraints(
    g: Game, t: PureTarget, epsilon: float
) -> list[MarginConstraint]:
    """One constraint per (player, non-chosen action).

    With x* the pure target profile, the cost of action k for player i is
    [b + C x*] at row (i, k), and C x* picks one column of C per player (the
    chosen one).  The constraint "chosen + epsilon <= alternative" therefore
    has normal +1 on (chosen row, chosen columns) and -1 on (alternative
    row, chosen columns), with beta = b[alt] - b[chosen] - epsilon.
    """
    dims = g.dims
    m = dims.total
    cols = np.flatnonzero(pure_to_strategy(t, dims))
    constraints = []
    for i in range(dims.n):
        row_star = cols[i]
        for k in range(1, dims.sizes[i] + 1):
            row_k = dims.flat_index(i, k)
            if row_k == row_star:
                continue
            normal = np.zeros((m, m))
            normal[row_star, cols] += 1.0
            normal[row_k, cols] -= 1.0
            beta = float(g.b[row_k] - g.b[row_star] - epsilon)
            constraints.append(
                MarginConstraint(normal=normal, beta=beta, player=i, action=k)
            )
    return constraints


def max_margin_violation(C: np.ndarray, constraints: list[MarginConstraint]) -> float:
    if not constraints:
        return 0.0
    return max(max(c.violation(C) for c in constraints), 0.0)


def _margin_structure(
    g: Game, t: PureTarget, epsilon: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The margin constraints of `build_margin_constraints`, without normals.

    Returns (cols, star, alt, beta): the chosen flat index of every player,
    and per constraint the chosen row, the alternative row and the bound.
    Constraint k reads s[star[k]] - s[alt[k]] <= beta[k] with
    s = C[:, cols].sum(1).
    """
    dims = g.dims
    cols = np.flatnonzero(pure_to_strategy(t, dims))  # raises IndexOutOfRange on a bad target
    star = np.repeat(cols, [s - 1 for s in dims.sizes])
    alt = np.setdiff1d(np.arange(dims.total, dtype=np.intp), cols)
    beta = g.b[alt] - g.b[star] - epsilon
    return cols, star, alt, beta


def _dual_min_norm(
    dims: PlayerDims,
    margins: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    tol: float,
    max_iters: int,
    start: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """Project `start` (default: zero) onto (cone) intersect (margins).

    Minimises the smooth dual theta(mu) = 1/2 ||C(mu)||^2 + beta^T mu over
    mu >= 0, with C(mu) = Pi_K(start - A* mu) and grad theta = beta - A C(mu),
    by projected Barzilai-Borwein steps under a nonmonotone Armijo test.
    A* mu subtracts r = sum_k mu_k (e_star_k - e_alt_k) from the columns
    `cols`; A C reads s = C[:, cols].sum(1) at the star and alternative rows.
    Returns (C, grad, iterations, converged); a margin's violation is
    -grad[k], bounded by the stopping test's projected-gradient norm.
    """
    cols, star, alt, beta = margins
    m = dims.total
    Y0 = np.zeros((m, m)) if start is None else np.asarray(start, dtype=float)

    def evaluate(mu):
        r = np.bincount(star, mu, m) - np.bincount(alt, mu, m)
        Z = Y0.copy()
        Z[:, cols] -= r[:, None]
        C = project_cone_sum(Z, dims)
        s = C[:, cols].sum(axis=1)
        grad = beta - (s[star] - s[alt])
        return C, grad, 0.5 * float(np.vdot(C, C)) + float(beta @ mu)

    mu = np.zeros(len(beta))
    C, grad, theta = evaluate(mu)
    recent = deque([theta], maxlen=ARMIJO_WINDOW)
    # 1/||A||^2, the step of the descent lemma: A A^T has one block
    # n (I + 11^T) of size m_i - 1 per player.
    alpha = 1.0 / (dims.n * max(dims.sizes))
    iterations = 0
    while np.linalg.norm(mu - np.maximum(mu - grad, 0.0)) > tol:
        if iterations == max_iters:
            return C, grad, iterations, False
        d = np.maximum(mu - alpha * grad, 0.0) - mu
        slope = ARMIJO_SIGMA * float(d @ grad)
        ceiling = max(recent)
        step = 1.0
        while True:
            trial = mu + step * d
            if np.array_equal(trial, mu):
                return C, grad, iterations, False  # the step vanished in round-off
            C_new, grad_new, theta_new = evaluate(trial)
            if theta_new <= ceiling + step * slope:
                break
            step *= ARMIJO_SHRINK
        s_step, y_step = trial - mu, grad_new - grad
        sy = float(s_step @ y_step)
        alpha = min(float(s_step @ s_step) / sy, BB_STEP_MAX) if sy > 0 else BB_STEP_MAX
        mu, C, grad = trial, C_new, grad_new
        recent.append(theta_new)
        iterations += 1
    return C, grad, iterations, True


def solve_min_norm_design(
    g: Game,
    t: PureTarget,
    cfg: MinNormConfig | None = None,
    solver: SolverConfig | None = None,
) -> DesignResult:
    """Smallest-Frobenius-norm C that makes the target the unique equilibrium.

    Solves the dual of the projection onto the margin half-spaces and the
    uniqueness cone, then solves the forward problem for the induced
    equilibrium.  The reported objective value is the divergence of the
    induced equilibrium from the (smoothed) target.  A result with
    `converged=False` means the dual iteration cap ran out, or the line
    search could no longer move the multipliers, before the stopping test
    held.
    """
    cfg = cfg or MinNormConfig()
    C, grad, iterations, converged = _dual_min_norm(
        g.dims, _margin_structure(g, t, cfg.epsilon), cfg.dykstra_tol, cfg.max_sweeps
    )
    designed = g.with_matrix(C)
    outcome = solve_equilibrium(designed, solver)
    target_x = pure_to_strategy(t, g.dims)
    divergence = kl_objective(target_x, g.dims).value(outcome.x)
    return DesignResult(
        C=C,
        x=outcome.x,
        objective_value=divergence,
        c_norm=float(np.linalg.norm(C)),
        outer_iterations=iterations,
        converged=converged and outcome.converged,
        max_violation=max(0.0, -float(grad.min(initial=np.inf))),
    )
