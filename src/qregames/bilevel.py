"""Cost design against a differentiable performance function.

The equilibrium is an implicit function of the cost matrix through its
fixed-point condition, so the chain rule plus the implicit function theorem
give the gradient of any smooth performance function with respect to C.  A
projected gradient loop then descends that gradient over the feasible set
(uniqueness cone intersected with a Frobenius ball).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DecompositionFailure, InnerSolveFailure
from .game import Game, validate_game
from .objectives import PerformanceObjective
from .projections import project_feasible
from .results import DesignResult
from .solver import SolverConfig, cost_residual_jacobian, solve_equilibrium

# The outer loop needs equilibria resolved well below its own stopping
# tolerance, otherwise solver noise masks the gradient near stationarity.
INNER_SOLVER_DEFAULT = SolverConfig(residual_tol=1e-20)


@dataclass(frozen=True)
class BilevelConfig:
    step_alpha: float = 0.1
    stop_eps: float = 1e-6  # terminate when the projected step moves C less than this
    max_outer_iters: int = 5000
    inner: SolverConfig = field(default_factory=lambda: INNER_SOLVER_DEFAULT)

    def __post_init__(self):
        if not self.step_alpha > 0 or not self.stop_eps > 0 or self.max_outer_iters < 1:
            raise ValueError("step_alpha, stop_eps must be > 0 and max_outer_iters >= 1")


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
    """Approximate projected gradient descent of obj over the feasible set.

    Starting from g0's cost matrix (offset by 2*stop_eps*identity so the
    first loop test passes), each iteration solves the
    equilibrium, takes an implicit-gradient step of size step_alpha, and
    projects back onto the feasible set.  Stops when consecutive matrices
    differ by at most stop_eps in Frobenius norm.

    Each equilibrium solve starts from the previous equilibrium (the first
    from the uniform strategy).  Raises InnerSolveFailure if a solve does
    not converge.

    On convergence the final iterate is returned; if the iteration budget
    runs out, the best iterate seen (lowest objective) is returned with
    converged=False.  The history records (iteration, objective, step norm)
    for every iteration.
    """
    validate_game(g0)
    cfg = cfg or BilevelConfig()
    dims = g0.dims
    m = dims.total

    C = np.array(g0.C, dtype=float)
    C_next = C + 2.0 * cfg.stop_eps * np.eye(m)
    history: list[tuple[int, float, float]] = []
    warm: np.ndarray | None = None
    best: tuple[float, np.ndarray, np.ndarray] | None = None
    iteration = 0
    first = True

    while float(np.linalg.norm(C_next - C)) > cfg.stop_eps and iteration < cfg.max_outer_iters:
        # The initial offset matrix is not itself feasible; project it once.
        C = project_feasible(C_next, dims, rho) if first else C_next
        first = False
        current = g0.with_matrix(C)
        outcome = solve_equilibrium(current, cfg.inner, x0=warm)
        if not outcome.converged:
            raise InnerSolveFailure(
                f"equilibrium solve unconverged at outer iteration {iteration} "
                f"(residual_sq={outcome.residual_sq:.3e})"
            )
        warm = outcome.x
        value = obj.value(outcome.x)
        if best is None or value < best[0]:
            best = (value, C.copy(), outcome.x.copy())
        step = implicit_gradient(current, outcome.x, obj.gradient(outcome.x))
        C_next = project_feasible(C - cfg.step_alpha * step, dims, rho)
        iteration += 1
        history.append((iteration, value, float(np.linalg.norm(C_next - C))))

    # The entry offset guarantees at least one iteration, so history is
    # never empty and `warm` is the equilibrium of the last solved C.
    converged = float(np.linalg.norm(C_next - C)) <= cfg.stop_eps
    if converged:
        final_C, final_x, final_value = C, warm, history[-1][1]
    else:
        final_value, final_C, final_x = best
    return DesignResult(
        C=final_C,
        x=final_x,
        objective_value=final_value,
        c_norm=float(np.linalg.norm(final_C)),
        outer_iterations=iteration,
        converged=converged,
        history=tuple(history),
    )
