"""The public surface: the names `qregames` exports, the settable fields of
each config and the fields of a solve."""

import dataclasses

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


def test_config_fields_are_pinned():
    def names(cls):
        return tuple(f.name for f in dataclasses.fields(cls))

    assert names(qregames.SolverConfig) == ("residual_tol", "max_iters")
    assert names(qregames.MinNormConfig) == ("epsilon", "dykstra_tol", "max_sweeps")
    assert names(qregames.BilevelConfig) == ("step_alpha", "stop_eps", "max_outer_iters")
    assert qregames.BilevelConfig().inner.residual_tol == 1e-20
