"""Cost design against a differentiable performance function.

The equilibrium is an implicit function of the cost matrix through its
fixed-point condition, so the chain rule plus the implicit function theorem
give the gradient of any smooth performance function with respect to C.  A
projected gradient loop then descends that gradient over the feasible set
(uniqueness cone intersected with a Frobenius ball), with an Armijo line search
along the feasible direction: one projection per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InnerSolveFailure, InvalidInput, NonFiniteInput
from .game import Game, _array, _linear_solve, _real, _whole
from .objectives import PerformanceObjective
from .projections import _norm, _project_feasible
from .results import DesignResult
from .solver import SolverConfig, _solve_equilibrium, cost_residual_jacobian

# The outer loop needs equilibria resolved well below its own stopping
# tolerance, otherwise solver noise masks the gradient near stationarity.
INNER_SOLVER_DEFAULT = SolverConfig(residual_tol=1e-20)

# Armijo line search along the feasible direction: sufficient-decrease
# constant, step shrink factor, and the halvings allowed before the run gives up.
ARMIJO_SIGMA = 1e-4
HALVING = 0.5
MAX_HALVINGS = 30


@dataclass(frozen=True)
class BilevelConfig:
    step_alpha: float = 0.1  # gradient step projected once per iteration: the first trial
    stop_eps: float = 1e-6  # converged once the step_alpha projected step moves C at most this
    max_outer_iters: int = 5000
    inner: ClassVar[SolverConfig] = INNER_SOLVER_DEFAULT  # fixed, not a field: readable only

    def __post_init__(self):
        max_outer_iters = _whole(self.max_outer_iters, "max_outer_iters", 1)
        object.__setattr__(self, "max_outer_iters", max_outer_iters)
        _real(self.step_alpha, "step_alpha")
        _real(self.stop_eps, "stop_eps")


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
    DecompositionFailure.  x and the gradient must be finite (NonFiniteInput).
    """
    m = g.dims.total
    return _implicit_gradient(g, _array(x, (m,), "strategy"),
                              _array(grad_psi_x, (m,), "performance gradient"))


def _implicit_gradient(g: Game, x: np.ndarray, grad_psi_x: np.ndarray) -> np.ndarray:
    """implicit_gradient at an equilibrium x the caller solved for, unchecked."""
    dims = g.dims
    Ju_v = np.add.reduceat(x * grad_psi_x, dims.starts)[dims.owner]  # x_i^T v_i per block
    np.subtract(grad_psi_x, Ju_v, out=Ju_v)
    Ju_v *= x
    w = _linear_solve(cost_residual_jacobian(g, x).T, Ju_v)
    G = w[:, None] * x
    G *= -1.0 / g.lam
    return G


def run_projected_gradient(
    g0: Game,
    obj: PerformanceObjective,
    rho: float,
    cfg: BilevelConfig | None = None,
) -> DesignResult:
    """Monotone projected gradient descent of obj over the feasible set.

    Starts at C = P(g0.C), P the projection onto the feasible set, with a cold
    equilibrium solve.  Each iteration takes the implicit gradient g at C and
    records (iteration, obj at C, ||D||) with D = P(C - step_alpha*g) - C; it
    stops, converged, once ||D|| is at most stop_eps.  Otherwise an Armijo
    search along the feasible direction D (Bertsekas, Nonlinear Programming,
    sec. 2.2) tries P(C - step_alpha*g) itself, then C + s*D for s halved from
    1, never growing, until obj(trial) <= obj(C) + s * ARMIJO_SIGMA * <g, D>;
    the trial is the next iterate.  The feasible set is convex, so every trial
    is feasible, and the step's one projection serves its whole search.  Trial
    solves start from the equilibrium of C; an unconverged one raises
    InnerSolveFailure.  A performance gradient with a NaN or infinite entry,
    or a performance value that is NaN or infinite, raises NonFiniteInput,
    and a value that is not a real number InvalidInput: each value is checked
    before the loop compares it or makes another trial solve.

    Under sufficient decrease the recorded objective never rises, so the last
    iterate is the best.  A run ends unconverged at its last iterate when it
    uses up max_outer_iters or a line search fails after MAX_HALVINGS halvings.
    """
    cfg = cfg or BilevelConfig()
    rho = _real(rho, "rho")
    dims = g0.dims
    C = _project_feasible(g0.C, dims, rho)
    game = g0._wrapping(C)
    x = _solve(game, cfg, None, 0)
    value = _value(obj, x)
    history: list[tuple[int, float, float]] = []

    for iteration in range(1, cfg.max_outer_iters + 1):
        grad_psi = _array(obj.gradient(x), (dims.total,), "performance gradient")
        g = _implicit_gradient(game, x, grad_psi)
        Y = cfg.step_alpha * g
        np.subtract(C, Y, out=Y)
        P = _project_feasible(Y, dims, rho)
        D = P - C
        step_norm = _norm(D)
        history.append((iteration, value, step_norm))
        if step_norm <= cfg.stop_eps or iteration == cfg.max_outer_iters:
            break
        slope = ARMIJO_SIGMA * float(np.vdot(g, D))
        C_trial, s = P, 1.0
        for _ in range(MAX_HALVINGS + 1):
            game_trial = g0._wrapping(C_trial)
            x_trial = _solve(game_trial, cfg, x, iteration)
            value_trial = _value(obj, x_trial)
            if value_trial <= value + s * slope:
                break
            s *= HALVING
            C_trial = C + s * D
        else:
            break
        game, C, x, value = game_trial, C_trial, x_trial, value_trial

    return DesignResult(
        C=C,
        x=x,
        objective_value=value,
        c_norm=_norm(C),
        outer_iterations=len(history),
        converged=history[-1][2] <= cfg.stop_eps,
        history=tuple(history),
    )


def _solve(g: Game, cfg: BilevelConfig, warm: np.ndarray | None, iteration: int) -> np.ndarray:
    outcome = _solve_equilibrium(g, cfg.inner, warm)
    if not outcome.converged:
        raise InnerSolveFailure(f"equilibrium solve unconverged at outer iteration {iteration} "
                                f"(strategy residual_sq={outcome.residual_sq:.3e}, cost "
                                f"residual_sq={outcome._cost_residual_sq:.3e}, tolerance "
                                f"{cfg.inner.residual_tol:g})")
    return outcome.x


def _value(obj: PerformanceObjective, x: np.ndarray):
    """obj.value(x) if it is a finite real number, else NonFiniteInput (NaN or
    infinite) or InvalidInput (not a real number).  math.isfinite, not `_array`:
    it runs once per trial solve and costs a fiftieth as much."""
    value = obj.value(x)
    try:
        finite = math.isfinite(value)
    except TypeError as exc:
        raise InvalidInput(f"performance value {value!r} is not a real number") from exc
    if not finite:
        raise NonFiniteInput(f"performance value {value!r} is not finite")
    return value
