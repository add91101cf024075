import dataclasses
import re

import numpy as np
import pytest

import qregames.bilevel
from qregames import (
    BilevelConfig,
    DecompositionFailure,
    DimensionMismatch,
    Game,
    InnerSolveFailure,
    InvalidInput,
    NonFiniteInput,
    PerformanceObjective,
    PlayerDims,
    SolverConfig,
    check_assumption,
    implicit_gradient,
    in_feasible_set,
    kl_objective,
    kl_to_pure,
    potential_delay_objective,
    project_feasible,
    pure_to_strategy,
    run_projected_gradient,
    solve_equilibrium,
    uniform_strategy,
)
from qregames.experiments import (
    AREA_NAMES,
    DEFAULT_RHO_GRID,
    FAIR_HOMES,
    build_collision_game,
    build_fair_game,
)

from conftest import (
    random_certified_game,
    random_interior_strategy,
    reference_projected_gradient,
)

RESOLVE = SolverConfig(residual_tol=1e-24)  # residual norm ~1e-12 for differencing


def fd_through_resolve(game, value, p, q, h=1e-5):
    """Difference the objective through a full re-solve per perturbation."""
    up = np.array(game.C)
    up[p, q] += h
    down = np.array(game.C)
    down[p, q] -= h
    hi = solve_equilibrium(game.with_matrix(up), RESOLVE)
    lo = solve_equilibrium(game.with_matrix(down), RESOLVE)
    assert hi.converged and lo.converged
    return (value(hi.x) - value(lo.x)) / (2.0 * h)


class TestImplicitGradient:
    def test_zero_objective_gradient(self, rng):
        g = random_certified_game(rng, [3, 3])
        out = solve_equilibrium(g, RESOLVE)
        G = implicit_gradient(g, out.x, np.zeros(g.dims.total))
        assert np.abs(G).max() == 0.0

    def test_reduces_to_outer_product_when_uncoupled(self, rng):
        from qregames.solver import response_jacobian

        g = random_certified_game(rng, [3, 2], coupling=0.0)  # C = 0
        out = solve_equilibrium(g, RESOLVE)
        grad_psi = rng.normal(size=g.dims.total)
        G = implicit_gradient(g, out.x, grad_psi)
        J = response_jacobian(g, out.x)
        expected = -(1.0 / g.lam) * np.outer(J.T @ grad_psi, out.x)
        assert np.abs(G - expected).max() <= 1e-12

    def test_matches_resolve_differences(self, rng):
        for _ in range(3):
            g = random_certified_game(rng, [3, 3], lam=0.5)
            out = solve_equilibrium(g, RESOLVE)
            target = random_interior_strategy(rng, g.dims)
            obj = kl_objective(target, g.dims)
            G = implicit_gradient(g, out.x, obj.gradient(out.x))
            fd = np.array(
                [
                    [fd_through_resolve(g, obj.value, p, q) for q in range(6)]
                    for p in range(6)
                ]
            )
            assert np.linalg.norm(G - fd) <= 1e-4 * np.linalg.norm(fd)

    def test_matches_dense_formula(self, rng):
        from qregames.solver import logit_response, response_jacobian

        g = random_certified_game(rng, [1, 4, 2, 7], lam=0.3, coupling=2.0)
        x0 = solve_equilibrium(g, RESOLVE).x
        x = logit_response(g, x0)  # the strategy response_jacobian(g, x0) is taken at
        grad_psi = rng.normal(size=g.dims.total)
        G = implicit_gradient(g, x, grad_psi)
        J = response_jacobian(g, x0)
        H = np.eye(g.dims.total) + (1.0 / g.lam) * g.C @ J
        expected = -(1.0 / g.lam) * np.outer(np.linalg.solve(H.T, J @ grad_psi), x)
        assert np.abs(G - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())

    def test_in_place_matches_textbook_bit_for_bit(self, rng):
        from qregames.solver import cost_residual_jacobian

        g = random_certified_game(rng, [1, 4, 2, 7], lam=0.3, coupling=2.0)
        dims = g.dims
        x = solve_equilibrium(g, RESOLVE).x
        for _ in range(5):
            v = rng.normal(size=dims.total)
            Ju_v = x * (v - np.add.reduceat(x * v, dims.starts)[dims.owner])
            w = np.linalg.solve(cost_residual_jacobian(g, x).T, Ju_v)
            expected = (-1.0 / g.lam) * np.outer(w, x)
            assert np.array_equal(implicit_gradient(g, x, v), expected)

    def test_rejects_wrong_gradient_length(self, rng):
        g = random_certified_game(rng, [2, 2])
        out = solve_equilibrium(g)
        with pytest.raises(DimensionMismatch):
            implicit_gradient(g, out.x, np.zeros(3))

    def test_rejects_wrong_strategy_length(self, rng):
        g = random_certified_game(rng, [2, 2])
        with pytest.raises(DimensionMismatch):
            implicit_gradient(g, np.full(3, 0.5), np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["strategy", "gradient"])
    def test_rejects_non_finite_input(self, rng, bad, where):
        g = random_certified_game(rng, [2, 2])
        x, v = solve_equilibrium(g).x, np.ones(4)
        (x if where == "strategy" else v)[1] = bad
        with pytest.raises(NonFiniteInput):
            implicit_gradient(g, x, v)

    def test_singular_inner_matrix_raises(self):
        # uncertified (C + C^T = -4I): at x = (1/2, 1/2) the softmax Jacobian
        # is [[1, -1], [-1, 1]]/4, so I + J_u C = [[1, 1], [1, 1]]/2 exactly
        g = Game(PlayerDims([2]), 1.0, np.zeros(2), -2.0 * np.eye(2))
        with pytest.raises(DecompositionFailure):
            implicit_gradient(g, np.array([0.5, 0.5]), np.array([1.0, 0.0]))


def stalling_solver(monkeypatch, stalls):
    """Patch the design loop's equilibrium solve, the unchecked kernel it
    calls; `stalls(call_index, x0)` picks the calls that report an
    unconverged outcome.  Returns the list of warm-start flags, one per
    call."""
    warm_flags = []

    def solve(g, cfg=None, x0=None):
        out = solve_equilibrium(g, cfg, x0=x0)
        stall = stalls(len(warm_flags), x0)
        warm_flags.append(x0 is not None)
        if stall:
            return dataclasses.replace(out, x=uniform_strategy(g.dims), residual_sq=1.0,
                                       converged=False)
        return out

    monkeypatch.setattr(qregames.bilevel, "_solve_equilibrium", solve)
    return warm_flags


class TestInnerSolveRetry:
    def setup_method(self):
        game, target = build_collision_game()
        self.game = game
        self.obj = kl_objective(pure_to_strategy(target, game.dims), game.dims)

    @pytest.mark.parametrize("healthy_calls, expected_flags", [
        (0, [False]),  # the first, cold, solve stalls
        (1, [False, True]),  # the first warm solve stalls
    ])
    def test_unconverged_solve_raises(self, monkeypatch, healthy_calls, expected_flags):
        warm_flags = stalling_solver(monkeypatch, lambda call, x0: call >= healthy_calls)
        with pytest.raises(InnerSolveFailure):
            run_projected_gradient(self.game, self.obj, rho=4.0)
        assert warm_flags == expected_flags


def collision_kl():
    game, target = build_collision_game()
    return game, kl_objective(pure_to_strategy(target, game.dims), game.dims)


def fair_delay():
    game = build_fair_game()
    return game, potential_delay_objective(game.dims)


class TestOuterStepWork:
    @pytest.mark.parametrize("row, rho, backtracks, min_steps", [
        (collision_kl, 0.1, False, 100),  # rejects no trial
        (fair_delay, 1.0, True, 20),  # rejects trials: 22 steps, 34 solves
    ], ids=["collision-0.1", "fair-1.0"])
    def test_one_projection_and_one_solve_per_step(self, monkeypatch, row, rho, backtracks,
                                                   min_steps):
        # the start and each step's P(C - step_alpha*g) are the only
        # projections, a rejected trial C + s*D adds a solve and no
        # projection, and every step but the last solves its accepted trial;
        # the loop calls each through its unchecked kernel, `_` + name
        game, obj = row()
        calls = {"project_feasible": 0, "solve_equilibrium": 0}

        def counting(name):
            fn = getattr(qregames.bilevel, "_" + name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(qregames.bilevel, "_" + name, counted)

        counting("project_feasible")
        counting("solve_equilibrium")
        result = run_projected_gradient(game, obj, rho)
        assert result.converged and result.outer_iterations > min_steps
        assert calls["project_feasible"] == result.outer_iterations + 1
        if backtracks:
            assert calls["solve_equilibrium"] > result.outer_iterations
        else:
            assert calls["solve_equilibrium"] == result.outer_iterations

    def test_halved_trials_are_feasible_and_certified(self, monkeypatch):
        # collision rho=2 first rejects a trial after step 60, and 27 by
        # step 80; a halved trial is the convex combination C + s*D, not a
        # projection
        game, obj = collision_kl()
        rho = 2.0
        trials = []
        solve = qregames.bilevel._solve_equilibrium

        def recording(g, *args, **kwargs):
            trials.append(g.C)
            return solve(g, *args, **kwargs)
        monkeypatch.setattr(qregames.bilevel, "_solve_equilibrium", recording)
        result = run_projected_gradient(game, obj, rho, BilevelConfig(max_outer_iters=80))
        assert len(trials) > result.outer_iterations  # some trials were halved
        for C in trials:
            assert check_assumption(game.with_matrix(C)).passed
            assert in_feasible_set(C, game.dims, rho)


class TestKernelLoop:
    """The loop checks rho and g0 once and then runs the unchecked kernels
    on arrays it owns; these pin what that may and may not change."""

    @pytest.mark.parametrize("row, rho, max_outer", [
        (collision_kl, 0.1, 40),  # its first 40 steps
        (fair_delay, 0.5, BilevelConfig.max_outer_iters),
        (fair_delay, 1.0, BilevelConfig.max_outer_iters),  # rejects trials
    ], ids=["collision-0.1", "fair-0.5", "fair-1.0"])
    def test_matches_the_public_api_loop(self, row, rho, max_outer):
        game, obj = row()
        cfg = BilevelConfig(max_outer_iters=max_outer)
        result = run_projected_gradient(game, obj, rho, cfg)
        C, x, history = reference_projected_gradient(game, obj, rho, cfg)
        assert np.array_equal(result.C, C)
        assert np.array_equal(result.x, x)
        assert result.history == tuple(history)
        assert result.outer_iterations == len(history) > 10

    def test_gradient_that_turns_nan_raises_naming_it(self):
        game, obj = collision_kl()
        calls = []

        def turning_nan(x):
            calls.append(x)
            grad = obj.gradient(x)
            if len(calls) == 3:
                grad[1] = np.nan
            return grad

        nan_at_3 = PerformanceObjective(obj.value, turning_nan, "nan-at-step-3")
        with pytest.raises(NonFiniteInput, match="performance gradient"):
            run_projected_gradient(game, nan_at_3, 0.1)
        assert len(calls) == 3

    @pytest.mark.parametrize("bad_from, bad, error", [
        (4, np.nan, NonFiniteInput),  # used to run all 31 trials of a line search
        (1, np.nan, NonFiniteInput),  # used to be returned as the objective value
        (2, np.inf, NonFiniteInput),
        (1, "abc", InvalidInput),  # used to escape as a bare TypeError
    ], ids=["nan-from-call-4", "nan-first", "inf-from-call-2", "str-first"])
    def test_value_that_is_not_finite_raises_before_another_solve(self, monkeypatch, bad_from,
                                                                  bad, error):
        game, obj = collision_kl()
        values, solves = [], []

        def turning_bad(x):
            values.append(x)
            return bad if len(values) >= bad_from else obj.value(x)

        solve = qregames.bilevel._solve_equilibrium

        def counted(*args, **kwargs):
            solves.append(args)
            return solve(*args, **kwargs)
        monkeypatch.setattr(qregames.bilevel, "_solve_equilibrium", counted)
        bad_value = PerformanceObjective(turning_bad, obj.gradient, "bad-value")
        with pytest.raises(error, match="performance value"):
            run_projected_gradient(game, bad_value, 1.0)
        assert len(values) == len(solves) == bad_from

    def test_unconverged_trial_raises(self):
        # the collision start C = P(0) = 0 has the closed-form equilibrium, so
        # the cold solve converges in 0 Gauss-Newton iterations; the first
        # trial, a long step away, needs more than the one allowed
        class OneIteration(BilevelConfig):
            inner = SolverConfig(residual_tol=1e-20, max_iters=1)

        game, obj = collision_kl()
        with pytest.raises(InnerSolveFailure, match="outer iteration 1 "):
            run_projected_gradient(game, obj, 10.0, OneIteration(step_alpha=1e3))

    @pytest.mark.parametrize("problem", [fair_delay, collision_kl])
    def test_unconverged_trial_names_both_residuals(self, problem):
        # at this radius the first trial's costs are so large that ||R||^2 cannot
        # reach the inner tolerance; on fair ||x - f(x)||^2 meets it
        game, obj = problem()
        with pytest.raises(InnerSolveFailure) as info:
            run_projected_gradient(game, obj, 1e8, BilevelConfig(step_alpha=1e7))
        found = re.fullmatch(r"equilibrium solve unconverged at outer iteration 1 \(strategy "
                             r"residual_sq=(\S+), cost residual_sq=(\S+), tolerance 1e-20\)",
                             str(info.value))
        assert found is not None
        assert float(found[2]) > 1e-20

    def test_result_matrix_is_writable_and_its_own(self):
        game, obj = collision_kl()
        result = run_projected_gradient(game, obj, 0.5, BilevelConfig(max_outer_iters=5))
        assert result.C.flags.writeable
        assert not np.shares_memory(result.C, game.C)
        before = game.C.copy()
        result.C[0, 0] += 1.0
        assert np.array_equal(game.C, before)


class TestBilevelConfig:
    @pytest.mark.parametrize("value", [1.5, True, "5", np.inf])
    def test_outer_budget_must_be_whole(self, value):
        with pytest.raises(ValueError):
            BilevelConfig(max_outer_iters=value)

    def test_whole_float_budget_accepted(self):
        assert BilevelConfig(max_outer_iters=5.0).max_outer_iters == 5


class TestRunProjectedGradient:
    def test_tiny_budget_keeps_base_equilibrium(self):
        # with essentially no design freedom the outcome matches C = 0
        game = build_fair_game()
        obj = potential_delay_objective(game.dims)
        result = run_projected_gradient(game, obj, rho=1e-8)
        assert result.converged
        base = solve_equilibrium(game)
        assert np.abs(result.x - base.x).max() <= 1e-4
        for i, home in enumerate(FAIR_HOMES):
            assert result.x[game.dims.block(i)][AREA_NAMES.index(home)] >= 0.99

    def test_collision_kl_improves_on_zero_matrix(self):
        game, target = build_collision_game()
        target_x = pure_to_strategy(target, game.dims)
        obj = kl_objective(target_x, game.dims, smoothing_delta=1e-3)
        baseline = obj.value(solve_equilibrium(game).x)
        result = run_projected_gradient(game, obj, rho=7.0, cfg=BilevelConfig(step_alpha=0.1))
        assert result.objective_value < baseline
        assert in_feasible_set(result.C, game.dims, 7.0)
        # the designed game sends everyone to the counterclockwise path
        assert kl_to_pure(result.x, target_x) < kl_to_pure(solve_equilibrium(game).x, target_x)

    def test_iterates_stay_feasible(self, rng):
        game, target = build_collision_game()
        obj = kl_objective(pure_to_strategy(target, game.dims), game.dims)
        rho = 2.0
        result = run_projected_gradient(
            game, obj, rho, BilevelConfig(max_outer_iters=40)
        )
        assert in_feasible_set(result.C, game.dims, rho)
        sym_min = np.linalg.eigvalsh(0.5 * (result.C + result.C.T)).min()
        assert sym_min >= -1e-9
        assert np.linalg.norm(result.C) <= rho + 1e-9

    def test_history_and_iteration_budget(self):
        game, target = build_collision_game()
        obj = kl_objective(pure_to_strategy(target, game.dims), game.dims)
        result = run_projected_gradient(game, obj, rho=4.0, cfg=BilevelConfig(max_outer_iters=5))
        assert not result.converged
        assert result.outer_iterations == 5
        assert len(result.history) == 5
        assert [h[0] for h in result.history] == [1, 2, 3, 4, 5]
        # unconverged runs return the best iterate recorded in the history,
        # and the returned pair stays consistent: x solves the returned C
        assert result.objective_value == pytest.approx(min(h[1] for h in result.history))
        check = solve_equilibrium(game.with_matrix(result.C), RESOLVE)
        assert np.abs(check.x - result.x).max() <= 1e-8

    def test_returned_x_is_equilibrium_of_returned_c(self):
        game, target = build_collision_game()
        obj = kl_objective(pure_to_strategy(target, game.dims), game.dims)
        result = run_projected_gradient(game, obj, rho=1.0)
        check = solve_equilibrium(game.with_matrix(result.C), RESOLVE)
        assert np.abs(check.x - result.x).max() <= 1e-8

    def test_fair_game_base_homes_concentrated(self):
        game = build_fair_game()
        out = solve_equilibrium(game)
        for i, home in enumerate(FAIR_HOMES):
            assert out.x[game.dims.block(i)][AREA_NAMES.index(home)] >= 0.99


@pytest.fixture(scope="module")
def paper_rows():
    """Both scenarios' projected-gradient runs over the default radius grid."""
    collision, target = build_collision_game()
    fair = build_fair_game()
    cases = [
        ("collision", collision, kl_objective(pure_to_strategy(target, collision.dims),
                                              collision.dims, smoothing_delta=1e-3)),
        ("fair", fair, potential_delay_objective(fair.dims)),
    ]
    return {
        (name, rho): run_projected_gradient(game, obj, rho)
        for name, game, obj in cases
        for rho in DEFAULT_RHO_GRID
    }


class TestArmijoLineSearch:
    def test_paper_rows_converge_monotonically(self, paper_rows):
        assert len(paper_rows) == 16
        for key, result in paper_rows.items():
            assert result.converged, key
            values = [h[1] for h in result.history]
            assert all(b <= a for a, b in zip(values, values[1:])), key
            assert result.objective_value == values[-1]

    def test_fair_rows_reach_the_am_hm_minimum(self, paper_rows):
        # sum_a 1/total_a >= 9^2 / sum_a total_a = 27 for every strategy
        for rho in (2.0, 4.0, 7.0):
            assert 27.0 <= paper_rows[("fair", rho)].objective_value <= 27.0 + 1e-9, rho

    def test_ascent_is_never_accepted(self):
        game, target = build_collision_game()
        game = game.with_matrix(5.0 * np.eye(game.dims.total))
        kl = kl_objective(pure_to_strategy(target, game.dims), game.dims)
        evaluations = []

        def rising(x):
            evaluations.append(x)
            return float(len(evaluations))

        rho = 1.0
        obj = PerformanceObjective(rising, kl.gradient, "rising")
        result = run_projected_gradient(game, obj, rho)
        assert not result.converged
        assert result.outer_iterations == 1
        assert len(evaluations) == 2 + qregames.bilevel.MAX_HALVINGS
        start = project_feasible(game.C, game.dims, rho)
        assert np.array_equal(result.C, start)
        assert result.objective_value == 1.0
        check = solve_equilibrium(game.with_matrix(start), RESOLVE)
        assert np.abs(check.x - result.x).max() <= 1e-8
