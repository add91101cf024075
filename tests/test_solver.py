import numpy as np
import pytest

from qregames import (
    DimensionMismatch,
    Game,
    NonFiniteInput,
    NonPositiveStrategy,
    PlayerDims,
    SolverConfig,
    logit_response,
    response_jacobian,
    simulate_gumbel_choice,
    solve_equilibrium,
    stationarity_residual,
    uniform_strategy,
)
from qregames.experiments import build_collision_game

from conftest import damped_fixed_point, random_certified_game, random_interior_strategy


def single_player_game(b, lam=1.0, C=None):
    dims = PlayerDims([len(b)])
    m = dims.total
    return Game(dims, lam, np.asarray(b, dtype=float), np.zeros((m, m)) if C is None else C)


class TestLogitResponse:
    def test_zero_costs_uniform(self):
        g = single_player_game([0.0, 0.0, 0.0])
        x = logit_response(g, uniform_strategy(g.dims))
        assert np.allclose(x, 1.0 / 3.0, atol=1e-15)

    def test_beeline_dominates(self):
        g = single_player_game([2.0, np.pi, np.pi], lam=0.1)
        x = logit_response(g, uniform_strategy(g.dims))
        assert np.abs(x - np.array([1.0, 0.0, 0.0])).max() < 1e-4

    def test_blockwise_shift_invariance(self, rng):
        g = random_certified_game(rng, [3, 4])
        x = random_interior_strategy(rng, g.dims)
        base = logit_response(g, x)
        for i in range(g.dims.n):
            shift = np.zeros(g.dims.total)
            shift[g.dims.block(i)] = 2.7
            shifted = Game(g.dims, g.lam, g.b + shift, g.C)
            assert np.abs(logit_response(shifted, x) - base).max() <= 1e-12

    def test_blocks_positive_and_normalized(self, rng):
        for _ in range(10):
            g = random_certified_game(rng, [2, 3, 4], lam=0.3)
            x = random_interior_strategy(rng, g.dims)
            p = logit_response(g, x)
            assert np.all(p > 0)
            for i in range(g.dims.n):
                assert abs(p[g.dims.block(i)].sum() - 1.0) <= 1e-12

    def test_large_costs_no_overflow(self):
        # all exponents near -1000: the unshifted form is 0/0
        g = single_player_game([100.0, 100.5, 103.0], lam=0.1)
        p = logit_response(g, uniform_strategy(g.dims))
        assert np.all(np.isfinite(p)) and np.all(p > 0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_nonfinite_cost_raises(self):
        g = single_player_game([np.inf, 0.0])
        with pytest.raises(NonFiniteInput):
            logit_response(g, uniform_strategy(g.dims))


class TestResponseJacobian:
    def test_uniform_block_analytic(self):
        g = single_player_game([0.0, 0.0, 0.0])
        J = response_jacobian(g, uniform_strategy(g.dims))
        expected = np.eye(3) / 3.0 - np.full((3, 3), 1.0 / 9.0)
        assert np.allclose(J, expected, atol=1e-15)

    def test_rows_sum_zero_symmetric_psd(self, rng):
        g = random_certified_game(rng, [3, 2], lam=0.4)
        x = random_interior_strategy(rng, g.dims)
        J = response_jacobian(g, x)
        assert np.abs(J.sum(axis=1)).max() <= 1e-14
        assert np.abs(J - J.T).max() <= 1e-14
        assert np.linalg.eigvalsh(J).min() >= -1e-14

    def test_matches_finite_differences(self, rng):
        from qregames.solver import blockwise_softmax

        for _ in range(5):
            g = random_certified_game(rng, [3, 3], lam=0.7)
            x = random_interior_strategy(rng, g.dims)
            u = -(g.b + g.C @ x) / g.lam
            J = response_jacobian(g, x)
            h = 1e-6
            for k in range(g.dims.total):
                up, um = u.copy(), u.copy()
                up[k] += h
                um[k] -= h
                col = (blockwise_softmax(up, g.dims) - blockwise_softmax(um, g.dims)) / (2 * h)
                assert np.abs(J[:, k] - col).max() <= 1e-6


class TestSolveEquilibrium:
    def test_collision_beeline(self):
        g, _ = build_collision_game()
        out = solve_equilibrium(g)
        assert out.converged and out.residual_sq <= 1e-10
        assert out.certified
        for i in range(4):
            blk = out.x[g.dims.block(i)]
            assert np.abs(blk - np.array([1.0, 0.0, 0.0])).max() < 1e-3

    def test_single_player_is_fixed_point(self):
        g = single_player_game([0.0, 0.0, 0.0])
        out = solve_equilibrium(g)
        assert out.converged
        assert np.allclose(out.x, 1.0 / 3.0, atol=1e-12)
        assert np.abs(out.x - logit_response(g, out.x)).max() <= 1e-10

    def test_matches_damped_fixed_point_oracle(self, rng):
        for _ in range(5):
            g = random_certified_game(rng, [3, 3], lam=0.6)
            out = solve_equilibrium(g)
            assert out.converged
            oracle = damped_fixed_point(g)
            assert np.abs(out.x - oracle).max() <= 1e-6

    def test_unique_from_random_starts(self, rng):
        g = random_certified_game(rng, [3, 3], lam=0.5)
        base = solve_equilibrium(g).x
        for _ in range(10):
            x0 = random_interior_strategy(rng, g.dims)
            out = solve_equilibrium(g, x0=x0)
            assert out.converged
            assert np.abs(out.x - base).max() <= 1e-6

    def test_uncertified_flag(self):
        # violates the certificate (negative definite symmetric part)
        g = single_player_game([0.0, 0.0], C=-np.eye(2))
        out = solve_equilibrium(g)
        assert not out.certified

    def test_singular_jacobian_stops_unconverged(self):
        # uncertified; at x0 both costs are 0.75, so the first iterate is the
        # response (1/2, 1/2), where I + C J_u = [[1, 1], [1, 1]]/2 is exactly
        # singular; its own response is softmax(1/2, 1)
        g = single_player_game([0.5, 0.0], C=-2.0 * np.eye(2))
        out = solve_equilibrium(g, x0=np.array([0.625, 0.375]))
        assert not out.converged and not out.certified
        assert out.iterations == 0
        assert np.array_equal(out.x, [0.5, 0.5])
        assert out.residual_sq == pytest.approx(2 * (0.5 - 1.0 / (1.0 + np.exp(0.5))) ** 2)

    def test_strongly_coupled_game_converges(self):
        # coupling/lambda ~ 130: Gauss-Newton on the strategy, clamped to the
        # simplex, stalls here at residual_sq 0.77
        g = random_certified_game(np.random.default_rng(25), [3, 3, 3, 3], 0.06, 8.0)
        out = solve_equilibrium(g)
        assert out.converged and out.residual_sq <= 1e-10

    def test_saturated_warm_start_converges(self):
        # near-pure warm start, as the design loop passes on: the solve must
        # reach the design loop's inner tolerance, as the cold solve does
        g = random_certified_game(np.random.default_rng(3), [3, 3, 3, 3], lam=0.05, coupling=10.0)
        cfg = SolverConfig(residual_tol=1e-20)
        x0 = np.tile([1.0 - 1e-8, 5e-9, 5e-9], 4)
        warm = solve_equilibrium(g, cfg, x0=x0)
        assert warm.converged and warm.residual_sq <= 1e-20
        cold = solve_equilibrium(g, cfg)
        assert np.abs(warm.x - cold.x).max() <= 1e-9

    def test_wrong_length_start_raises(self):
        g = single_player_game([0.0, 0.0, 0.0])
        with pytest.raises(DimensionMismatch):
            solve_equilibrium(g, x0=np.array([0.5, 0.5]))

    def test_max_iters_returns_best_unconverged(self, rng):
        g = random_certified_game(rng, [4, 4], lam=0.2, coupling=2.0)
        out = solve_equilibrium(g, SolverConfig(residual_tol=1e-30, max_iters=2))
        assert not out.converged
        assert out.iterations == 2
        assert np.isfinite(out.residual_sq)


class TestStationarity:
    def test_uniform_single_player_zero(self):
        g = single_player_game([0.0, 0.0, 0.0])
        assert stationarity_residual(g, uniform_strategy(g.dims)) == pytest.approx(0.0, abs=1e-15)

    def test_converged_solves_near_zero(self, rng):
        for _ in range(5):
            g = random_certified_game(rng, [2, 3], lam=0.8)
            out = solve_equilibrium(g)
            assert out.converged
            assert stationarity_residual(g, out.x) <= 1e-6

    def test_perturbation_detected(self, rng):
        g = random_certified_game(rng, [3, 3], lam=0.5)
        out = solve_equilibrium(g)
        x = out.x.copy()
        x[0] += 1e-2
        x[1] -= 1e-2
        assert stationarity_residual(g, x) > 1e-4

    def test_nonpositive_entries_raise(self):
        g = single_player_game([0.0, 0.0])
        with pytest.raises(NonPositiveStrategy):
            stationarity_residual(g, np.array([1.0, 0.0]))


class TestGumbelChoice:
    def test_symmetric_costs(self):
        freq = simulate_gumbel_choice(np.zeros(3), 1.0, 10**6, seed=7)
        assert np.abs(freq - 1.0 / 3.0).max() < 0.01

    def test_dominant_action(self):
        freq = simulate_gumbel_choice(np.array([2.0, np.pi, np.pi]), 0.1, 10**6, seed=7)
        assert freq[0] >= 0.999

    def test_frequencies_sum_to_one(self, rng):
        cost = rng.normal(size=5)
        freq = simulate_gumbel_choice(cost, 0.5, 1234, seed=0)
        assert freq.sum() == pytest.approx(1.0, abs=0.0)

    def test_deterministic_given_seed(self):
        a = simulate_gumbel_choice(np.array([0.5, 1.0]), 0.3, 50_000, seed=42)
        b = simulate_gumbel_choice(np.array([0.5, 1.0]), 0.3, 50_000, seed=42)
        assert np.array_equal(a, b)

    def test_matches_logit_in_total_variation(self, rng):
        g = single_player_game([0.0] * 4, lam=0.4)
        for _ in range(3):
            cost = rng.normal(size=4)
            gg = single_player_game(cost, lam=0.4)
            p = logit_response(gg, uniform_strategy(gg.dims))
            freq = simulate_gumbel_choice(cost, 0.4, 200_000, seed=11)
            assert 0.5 * np.abs(freq - p).sum() <= 0.01
