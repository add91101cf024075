import tracemalloc

import numpy as np
import pytest

from qregames import (
    DimensionMismatch,
    Game,
    IndexOutOfRange,
    MinNormConfig,
    PlayerDims,
    PureTarget,
    build_margin_constraints,
    max_margin_violation,
    project_cone_sum,
    solve_min_norm_design,
)
from qregames.experiments import DEFAULT_EPS_GRID, build_collision_game
from qregames.min_norm import _dual_min_norm, _margin_structure, _project_rank_one

from conftest import in_cone


def two_action_game(b, lam=0.1):
    dims = PlayerDims([2])
    return Game(dims, lam, np.asarray(b, dtype=float), np.zeros((2, 2)))


def analytic_one_player_design():
    """Closed-form minimum-norm solution for one player, two actions,
    b = [0, 0], target action 1, margin 1.

    The single constraint is <A, C> <= -1 with A = e1 e1^T - e2 e1^T, and the
    cone is the symmetric PSD matrices.  KKT: C* = Pi_PSD(-mu * sym(A)) with
    mu > 0 making the constraint active, which works out to v v^T / lam_max
    for the positive eigenpair (lam_max, v) of -sym(A).
    """
    s2 = np.sqrt(2.0)
    return np.array([[1.0, 1.0 + s2], [1.0 + s2, 3.0 + 2.0 * s2]]) / s2


def feasible_point(C_star, dims, target, cons, rng):
    """c C_star + S + tau D, a matrix that meets the margins and lies in the cone.

    c is near 1, so the point can also lie closer to the origin than C_star.
    S is a random cone element at a random scale: a PSD matrix plus a skew
    one with zero diagonal blocks.  D is block-diagonal with block i = v v^T,
    v = 1 at the chosen action and 2 elsewhere, so each unit of tau lowers
    every margin's violation by exactly 1; tau is the largest violation of
    c C_star + S.
    """
    m = dims.total
    B = rng.normal(size=(m, int(rng.integers(1, m + 1))))
    W = rng.normal(size=(m, m))
    off_block = dims.owner[:, None] != dims.owner[None, :]
    S = B @ B.T + (W - W.T) * off_block
    S *= 10.0 ** rng.uniform(-4.0, 1.0) / np.linalg.norm(S)
    D = np.zeros((m, m))
    for i, chosen in enumerate(target.chosen):
        v = np.full(dims.sizes[i], 2.0)
        v[chosen - 1] = 1.0
        D[dims.block(i), dims.block(i)] = np.outer(v, v)
    Y = rng.uniform(0.9, 1.1) * C_star + S
    return Y + max_margin_violation(Y, cons) * D


class TestBuildMarginConstraints:
    def test_collision_count_and_structure(self):
        game, target = build_collision_game()
        cons = build_margin_constraints(game, target, epsilon=3.0)
        assert len(cons) == 8  # sum over players of (m_i - 1)
        for c in cons:
            assert np.sum(c.normal == 1.0) == 4
            assert np.sum(c.normal == -1.0) == 4
            assert np.sum(c.normal != 0.0) == 8
            # beta = b[alt] - b[chosen] - eps; alternatives cost 2 or pi
            assert c.beta in (
                pytest.approx(2.0 - np.pi - 3.0),
                pytest.approx(np.pi - np.pi - 3.0),
            )

    def test_single_player_already_separated(self):
        g = two_action_game([0.0, 1.0])
        cons = build_margin_constraints(g, PureTarget([1]), epsilon=0.0)
        assert len(cons) == 1
        assert cons[0].beta == pytest.approx(1.0)
        assert cons[0].violation(np.zeros((2, 2))) <= 0.0

    def test_large_epsilon_still_well_formed(self):
        g = two_action_game([0.0, 0.0])
        cons = build_margin_constraints(g, PureTarget([2]), epsilon=1e6)
        assert len(cons) == 1 and np.isfinite(cons[0].beta)

    def test_constraint_encodes_cost_gap(self, rng):
        # <normal, C> must equal cost(chosen) - cost(alt) at the target profile
        from qregames import pure_to_strategy

        game, target = build_collision_game()
        x_star = pure_to_strategy(target, game.dims)
        C = rng.normal(size=(12, 12))
        cost = C @ x_star
        for c in build_margin_constraints(game, target, epsilon=0.0):
            row_star = game.dims.flat_index(c.player, target.chosen[c.player])
            row_alt = game.dims.flat_index(c.player, c.action)
            assert np.sum(c.normal * C) == pytest.approx(cost[row_star] - cost[row_alt])

    @pytest.mark.parametrize("C", [np.zeros((3, 3)), np.zeros(4), np.zeros((2, 2, 1))])
    def test_violation_of_a_matrix_that_does_not_fit_raises(self, C):
        cons = build_margin_constraints(two_action_game([0.0, 1.0]), PureTarget([1]), 0.0)
        with pytest.raises(DimensionMismatch):
            max_margin_violation(C, cons)

    def test_no_constraints_no_violation(self):
        assert max_margin_violation(np.ones((3, 3)), []) == 0.0


class TestSolveMinNormDesign:
    def test_zero_matrix_when_already_feasible(self):
        g = two_action_game([0.0, 1.0])
        result = solve_min_norm_design(g, PureTarget([1]), MinNormConfig(epsilon=0.0))
        assert result.converged
        assert result.c_norm <= 1e-8

    def test_matches_analytic_one_player_solution(self):
        g = two_action_game([0.0, 0.0])
        result = solve_min_norm_design(g, PureTarget([1]), MinNormConfig(epsilon=1.0))
        assert result.converged
        assert np.abs(result.C - analytic_one_player_design()).max() <= 1e-6

    def test_collision_design(self):
        from qregames import stationarity_residual

        game, target = build_collision_game()
        result = solve_min_norm_design(game, target, MinNormConfig(epsilon=3.0))
        assert result.converged
        cons = build_margin_constraints(game, target, epsilon=3.0)
        assert max_margin_violation(result.C, cons) <= 1e-6
        assert np.linalg.eigvalsh(0.5 * (result.C + result.C.T)).min() >= -1e-9
        for i in range(4):
            assert result.x[game.dims.block(i)][2] >= 0.9
        # the induced equilibrium is coordinate-accurate, not just in norm
        assert stationarity_residual(game.with_matrix(result.C), result.x) <= 1e-6

    def test_matches_conic_solver_oracle(self):
        cp = pytest.importorskip("cvxpy")
        game, target = build_collision_game()
        result = solve_min_norm_design(game, target, MinNormConfig(epsilon=3.0))
        C = cp.Variable((12, 12))
        cons = [C + C.T >> 0]
        for i in range(4):
            blk = C[3 * i : 3 * i + 3, 3 * i : 3 * i + 3]
            cons.append(blk == blk.T)
        for mc in build_margin_constraints(game, target, epsilon=3.0):
            cons.append(cp.sum(cp.multiply(mc.normal, C)) <= mc.beta)
        prob = cp.Problem(cp.Minimize(0.5 * cp.sum_squares(C)), cons)
        prob.solve(solver=cp.SCS, eps=1e-9, max_iters=200_000)
        assert prob.status == "optimal"
        assert np.linalg.norm(C.value) == pytest.approx(result.c_norm, abs=1e-5)

    def test_min_norm_among_sampled_feasible_points(self, rng):
        g = two_action_game([0.0, 0.0])
        target = PureTarget([1])
        result = solve_min_norm_design(g, target, MinNormConfig(epsilon=1.0))
        cons = build_margin_constraints(g, target, epsilon=1.0)
        for _ in range(1000):
            Y = feasible_point(result.C, g.dims, target, cons, rng)
            assert in_cone(Y, g.dims) and max_margin_violation(Y, cons) <= 1e-9
            assert result.c_norm <= np.linalg.norm(Y) + 1e-6

    def test_epsilon_zero_needs_nonzero_matrix(self):
        # the beeline is strictly cheaper, so C = 0 violates the margins
        game, target = build_collision_game()
        cons = build_margin_constraints(game, target, epsilon=0.0)
        assert max_margin_violation(np.zeros((12, 12)), cons) > 0.0
        result = solve_min_norm_design(game, target, MinNormConfig(epsilon=0.0))
        assert result.converged and result.c_norm > 0.0

    def test_monotone_in_epsilon(self):
        game, target = build_collision_game()
        norms, kls = [], []
        from qregames import kl_to_pure, pure_to_strategy

        x_star = pure_to_strategy(target, game.dims)
        for eps in (0.5, 1.5, 3.0, 4.5):
            result = solve_min_norm_design(game, target, MinNormConfig(epsilon=eps))
            norms.append(result.c_norm)
            kls.append(kl_to_pure(result.x, x_star))
        assert all(b >= a - 1e-8 for a, b in zip(norms, norms[1:]))
        assert all(b <= a + 1e-8 for a, b in zip(kls, kls[1:]))

    def test_max_sweeps_flagged(self):
        game, target = build_collision_game()
        result = solve_min_norm_design(game, target, MinNormConfig(epsilon=3.0, max_sweeps=3))
        assert not result.converged
        assert result.outer_iterations == 3

    def test_nan_stopping_measure_is_not_convergence(self):
        # a NaN projected-gradient norm fails `<= tol`: the dual does not stop
        # as converged, and its line search exits on the non-finite slope
        game, target = build_collision_game()
        x_star, star, alt, beta = _margin_structure(game, target, 3.0)
        beta[0] = np.nan
        with np.errstate(invalid="ignore"):
            C, grad, iterations, converged = _dual_min_norm(
                game.dims, (x_star, star, alt, beta), 1e-8, 50)
        assert not converged and iterations == 0

    @pytest.mark.parametrize("epsilon", [-1.0, float("nan"), float("inf")])
    def test_epsilon_must_be_finite_and_nonnegative(self, epsilon):
        with pytest.raises(ValueError):
            MinNormConfig(epsilon=epsilon)

    @pytest.mark.parametrize("value", [2.5, True, "3", np.nan])
    def test_max_sweeps_must_be_whole(self, value):
        with pytest.raises(ValueError):
            MinNormConfig(max_sweeps=value)

    @pytest.mark.parametrize("chosen", [[1], [1, 1, 1], [1, 3]])
    def test_target_must_fit_dims(self, chosen):
        g = Game(PlayerDims([2, 2]), 0.1, np.zeros(4), np.zeros((4, 4)))
        with pytest.raises(IndexOutOfRange):
            solve_min_norm_design(g, PureTarget(chosen))
        with pytest.raises(IndexOutOfRange):
            build_margin_constraints(g, PureTarget(chosen), epsilon=1.0)


class TestDualSolver:
    # c_norm of the collision design over the default margin grid, as the
    # former Dykstra solver computed it at dykstra_tol 1e-8
    COLLISION_C_NORMS = (
        2.69495357, 3.72427043, 4.79284416, 5.87957443, 6.97604481,
        8.07831043, 9.18429272, 10.29279706, 11.40308961, 12.51469531,
    )

    def test_structure_matches_margin_constraints(self, rng):
        dims = PlayerDims([1, 4, 2, 7])
        g = Game(dims, 0.1, rng.normal(size=dims.total), np.zeros((14, 14)))
        target = PureTarget([1, 3, 2, 7])
        x_star, star, alt, beta = _margin_structure(g, target, epsilon=1.5)
        cols = np.flatnonzero(x_star)
        cons = build_margin_constraints(g, target, epsilon=1.5)
        assert len(cons) == len(star) == len(alt) == len(beta) == 10
        for c, row_star, row_alt, b in zip(cons, star, alt, beta):
            normal = np.zeros((14, 14))
            normal[row_star, cols] += 1.0
            normal[row_alt, cols] -= 1.0
            assert np.array_equal(c.normal, normal) and c.beta == b

    def test_unequal_blocks_design_is_feasible_and_shortest(self, rng):
        dims = PlayerDims([1, 4, 2, 7])
        g = Game(dims, 0.1, rng.normal(size=dims.total), np.zeros((14, 14)))
        target = PureTarget([int(rng.integers(1, s + 1)) for s in dims.sizes])
        cfg = MinNormConfig(epsilon=2.0)
        result = solve_min_norm_design(g, target, cfg)
        assert result.converged
        cons = build_margin_constraints(g, target, epsilon=2.0)
        assert max_margin_violation(result.C, cons) <= cfg.dykstra_tol
        assert result.max_violation == pytest.approx(max_margin_violation(result.C, cons),
                                                     abs=1e-12)
        assert in_cone(result.C, dims)
        for _ in range(100):
            Y = feasible_point(result.C, dims, target, cons, rng)
            assert in_cone(Y, dims) and max_margin_violation(Y, cons) <= 1e-9
            assert result.c_norm <= np.linalg.norm(Y) + 1e-6

    def test_collision_grid_matches_reference_norms(self):
        game, target = build_collision_game()
        for eps, ref in zip(DEFAULT_EPS_GRID, self.COLLISION_C_NORMS):
            result = solve_min_norm_design(game, target, MinNormConfig(epsilon=eps))
            assert result.converged
            assert result.c_norm == pytest.approx(ref, abs=1e-6)

    def test_memory_is_quadratic_in_m(self, rng):
        # no m x m constraint normal or correction is kept: one m=150 design
        # stays within a few m x m float arrays
        m = 150
        dims = PlayerDims([15] * 10)
        g = Game(dims, 0.1, rng.normal(size=m), np.zeros((m, m)))
        target = PureTarget([int(rng.integers(1, 16)) for _ in range(10)])
        cfg = MinNormConfig(epsilon=2.5)
        tracemalloc.start()
        try:
            result = solve_min_norm_design(g, target, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.converged
        assert peak <= 16 * m * m * 8


RANK_ONE_LAYOUTS = [[3] * 4, [1, 4, 2, 7], [9] * 11, [2, 2]]


class TestClosedFormProjection:
    """The dual projects the rank-one a t^T in closed form, with no eigh."""

    @pytest.mark.parametrize("sizes", RANK_ONE_LAYOUTS)
    def test_matches_eigh_reference(self, rng, sizes):
        dims = PlayerDims(sizes)
        m = dims.total
        for k in range(50):
            t = np.zeros(m)
            t[[off + int(rng.integers(s)) for off, s in zip(dims.offsets, sizes)]] = 1.0
            if k % 2:
                t = rng.normal(size=m)  # the closed form holds for any t
            a = 10.0 ** rng.uniform(-3.0, 3.0) * rng.normal(size=m)
            if k % 10 == 8:
                a = np.zeros(m)  # the dual's first evaluation: exactly C = 0
            if k % 10 == 9:
                a = -rng.uniform(0.1, 5.0) * t  # no positive eigenvalue
            reference = project_cone_sum(np.outer(a, t), dims)
            scale = np.abs(np.outer(a, t)).max()
            assert np.abs(_project_rank_one(a, t, dims) - reference).max() <= 1e-12 * scale

    @staticmethod
    def designs(rng):
        game, target = build_collision_game()
        for eps in DEFAULT_EPS_GRID:
            yield game, target, eps
        dims = PlayerDims([1, 4, 2, 7])
        for _ in range(5):
            g = Game(dims, 0.1, rng.normal(size=dims.total), np.zeros((14, 14)))
            yield g, PureTarget([int(rng.integers(1, s + 1)) for s in dims.sizes]), 2.0

    def test_symmetric_part_has_rank_at_most_one(self, rng):
        for g, target, eps in self.designs(rng):
            result = solve_min_norm_design(g, target, MinNormConfig(epsilon=eps))
            w = np.linalg.eigvalsh(result.C + result.C.T)
            assert result.converged and w[-1] > 0.0
            assert np.abs(w[:-1]).max() <= 1e-12 * w[-1]

    def test_runs_without_an_eigensolver(self, monkeypatch):
        expected = [solve_min_norm_design(g, target, MinNormConfig(epsilon=eps))
                    for g, target, eps in self.designs(np.random.default_rng(7))]

        def refuse(*args, **kwargs):
            raise AssertionError("the min-norm design called an eigensolver")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        # game._eigh and game._eigvalsh call the LAPACK gufuncs behind them
        monkeypatch.setattr(np.linalg._umath_linalg, "eigh_lo", refuse)
        monkeypatch.setattr(np.linalg._umath_linalg, "eigvalsh_lo", refuse)
        for (g, target, eps), ref in zip(self.designs(np.random.default_rng(7)), expected):
            result = solve_min_norm_design(g, target, MinNormConfig(epsilon=eps))
            assert result.converged and np.array_equal(result.C, ref.C)
