"""The public surface: the names `qregames` exports and the fields of a solve."""

import qregames
from qregames import solve_equilibrium
from qregames.experiments import build_collision_game

PUBLIC_NAMES = [
    "AssumptionReport",
    "BilevelConfig",
    "DecompositionFailure",
    "DesignResult",
    "DimensionMismatch",
    "EigendecompositionFailure",
    "Game",
    "IndexOutOfRange",
    "InfeasibleDetected",
    "InnerSolveFailure",
    "InvalidGeometry",
    "InvalidInput",
    "MarginConstraint",
    "MinNormConfig",
    "NonFiniteInput",
    "NonPositiveLambda",
    "NonPositiveStrategy",
    "PerformanceObjective",
    "PlayerDims",
    "PureTarget",
    "QreGamesError",
    "SolveOutcome",
    "SolverConfig",
    "ZeroAreaTotal",
    "build_margin_constraints",
    "check_assumption",
    "check_strategy",
    "game_from_dict",
    "game_to_dict",
    "implicit_gradient",
    "in_feasible_set",
    "kl_objective",
    "kl_to_pure",
    "load_game",
    "logit_response",
    "max_margin_violation",
    "potential_delay_objective",
    "project_cone_sum",
    "project_feasible",
    "pure_to_strategy",
    "response_jacobian",
    "run_projected_gradient",
    "save_game",
    "simulate_gumbel_choice",
    "smooth_target",
    "solve_equilibrium",
    "solve_min_norm_design",
    "stationarity_residual",
    "uniform_strategy",
    "validate_game",
]


def test_exported_names_are_pinned():
    assert qregames.__all__ == PUBLIC_NAMES
    assert all(hasattr(qregames, name) for name in PUBLIC_NAMES)


def test_solve_outcome_fields():
    out = solve_equilibrium(build_collision_game()[0])
    assert isinstance(out, qregames.SolveOutcome)
    assert out.x.shape == (12,)
    assert isinstance(out.residual_sq, float) and isinstance(out.iterations, int)
    assert out.converged is True and out.certified is True
