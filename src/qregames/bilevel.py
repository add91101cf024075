"""Cost design against a differentiable performance function.

The equilibrium is an implicit function of the cost matrix through its
fixed-point condition, so the chain rule plus the implicit function theorem
give the gradient of any smooth performance function with respect to C.  A
projected gradient loop with an Armijo line search then descends that gradient
over the feasible set (uniqueness cone intersected with a Frobenius ball).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DecompositionFailure, InnerSolveFailure
from .game import Game, _check_length, _whole
from .objectives import PerformanceObjective
from .projections import project_feasible
from .results import DesignResult
from .solver import SolverConfig, cost_residual_jacobian, solve_equilibrium

# The outer loop needs equilibria resolved well below its own stopping
# tolerance, otherwise solver noise masks the gradient near stationarity.
INNER_SOLVER_DEFAULT = SolverConfig(residual_tol=1e-20)

# Armijo line search on the projection arc: sufficient-decrease constant,
# step shrink factor, and the halvings allowed before the run gives up.
ARMIJO_SIGMA = 1e-4
HALVING = 0.5
MAX_HALVINGS = 30


@dataclass(frozen=True)
class BilevelConfig:
    step_alpha: float = 0.1  # first trial step of each iteration's line search
    stop_eps: float = 1e-6  # converged once the step_alpha projected step moves C at most this
    max_outer_iters: int = 5000
    inner: SolverConfig = field(default_factory=lambda: INNER_SOLVER_DEFAULT)

    def __post_init__(self):
        object.__setattr__(
            self, "max_outer_iters", _whole(self.max_outer_iters, "max_outer_iters", ValueError)
        )
        if not 0 < self.step_alpha < np.inf or not 0 < self.stop_eps < np.inf:
            raise ValueError("step_alpha and stop_eps must be finite and > 0")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be >= 1")


def implicit_gradient(g: Game, x: np.ndarray, grad_psi_x: np.ndarray) -> np.ndarray:
    """Gradient of a performance function with respect to the cost matrix.

    For an equilibrium x of g and the performance gradient at x, returns

        -(1/lam) * J_u^T * (I + (1/lam) J_u C)^-T * grad_psi * x^T
      = -(1/lam) * (I + (1/lam) C J_u)^-T * J_u * grad_psi * x^T

    where J_u is the softmax Jacobian at the equilibrium: the exact
    implicit-function-theorem gradient, computed with one linear solve.  The
    two forms agree because (I + (1/lam) J_u C)^-1 J_u = J_u (I + (1/lam) C J_u)^-1
    and J_u is symmetric; the second uses the cost-space residual Jacobian H
    that solve_equilibrium steps with.  J_u is never formed: with
    v = grad_psi, block i of J_u v is x_i * (v_i - x_i^T v_i).  The
    uniqueness certificate makes H nonsingular (see cost_residual_jacobian);
    a singular one, possible only for an uncertified game, raises
    DecompositionFailure.
    """
    x = np.asarray(x, dtype=float)
    grad_psi_x = np.asarray(grad_psi_x, dtype=float)
    dims = g.dims
    _check_length(x, dims)
    if grad_psi_x.shape != (dims.total,):
        raise ValueError(f"gradient has shape {grad_psi_x.shape}, expected ({dims.total},)")
    Ju_v = x * (grad_psi_x - np.add.reduceat(x * grad_psi_x, dims.starts)[dims.owner])
    try:
        w = np.linalg.solve(cost_residual_jacobian(g, x).T, Ju_v)
    except np.linalg.LinAlgError as exc:
        raise DecompositionFailure(str(exc)) from exc
    return (-1.0 / g.lam) * np.outer(w, x)


def run_projected_gradient(
    g0: Game,
    obj: PerformanceObjective,
    rho: float,
    cfg: BilevelConfig | None = None,
) -> DesignResult:
    """Monotone projected gradient descent of obj over the feasible set.

    Starts at C = P(g0.C), P the projection onto the feasible set, with a cold
    equilibrium solve.  Each iteration takes the implicit gradient g at C and
    records (iteration, obj at C, ||P(C - step_alpha*g) - C||); it stops,
    converged, once that norm is at most stop_eps.  Otherwise an Armijo search
    along the projection arc C(t) = P(C - t*g) (Bertsekas 1976) halves t from
    step_alpha, never growing it, until obj(C(t)) <= obj(C) + ARMIJO_SIGMA *
    <g, C(t) - C>; C(t) is the next iterate.  Trial solves start from the
    equilibrium of C; an unconverged one raises InnerSolveFailure.

    Under sufficient decrease the recorded objective never rises, so the last
    iterate is the best.  A run ends unconverged at its last iterate when it
    uses up max_outer_iters or a line search fails after MAX_HALVINGS halvings.
    """
    cfg = cfg or BilevelConfig()
    C = project_feasible(np.array(g0.C, dtype=float), g0.dims, rho)
    game = g0.with_matrix(C)
    x = _solve(game, cfg, None, 0)
    value = obj.value(x)
    history: list[tuple[int, float, float]] = []

    for iteration in range(1, cfg.max_outer_iters + 1):
        g = implicit_gradient(game, x, obj.gradient(x))
        t = cfg.step_alpha
        C_trial = project_feasible(C - t * g, g0.dims, rho)
        step_norm = float(np.linalg.norm(C_trial - C))
        history.append((iteration, value, step_norm))
        if step_norm <= cfg.stop_eps or iteration == cfg.max_outer_iters:
            break
        for _ in range(MAX_HALVINGS + 1):
            game_trial = g0.with_matrix(C_trial)
            x_trial = _solve(game_trial, cfg, x, iteration)
            value_trial = obj.value(x_trial)
            if value_trial <= value + ARMIJO_SIGMA * float(np.vdot(g, C_trial - C)):
                break
            t *= HALVING
            C_trial = project_feasible(C - t * g, g0.dims, rho)
        else:
            break
        game, C, x, value = game_trial, C_trial, x_trial, value_trial

    return DesignResult(
        C=C,
        x=x,
        objective_value=value,
        c_norm=float(np.linalg.norm(C)),
        outer_iterations=len(history),
        converged=history[-1][2] <= cfg.stop_eps,
        history=tuple(history),
    )


def _solve(g: Game, cfg: BilevelConfig, warm: np.ndarray | None, iteration: int) -> np.ndarray:
    outcome = solve_equilibrium(g, cfg.inner, x0=warm)
    if not outcome.converged:
        raise InnerSolveFailure(f"equilibrium solve unconverged at outer iteration {iteration} "
                                f"(residual_sq={outcome.residual_sq:.3e})")
    return outcome.x
