import pickle

import numpy as np
import pytest

import qregames.solver
from qregames import (
    DecompositionFailure,
    DimensionMismatch,
    EigendecompositionFailure,
    Game,
    NonFiniteInput,
    NonPositiveLambda,
    NonPositiveStrategy,
    PlayerDims,
    SolverConfig,
    check_assumption,
    kl_objective,
    logit_response,
    pure_to_strategy,
    response_jacobian,
    simulate_gumbel_choice,
    solve_equilibrium,
    solve_min_norm_design,
    stationarity_residual,
    uniform_strategy,
)
from qregames.experiments import bilevel_row, build_collision_game
from qregames.game import _eigh, _eigvalsh, _linear_solve

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
        # b and C are finite and bound every strategy's cost over lambda, as a
        # Game's always do, but x is no strategy and b + C x overflows
        g = single_player_game([1e308, 0.0], C=np.array([[1e308, 1e308], [0.0, 0.0]]), lam=10.0)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteInput):
            logit_response(g, np.array([1.0, 1.0]))

    # x is no strategy, so the cost C x = x is finite while -cost/lambda overflows
    OVERFLOW_GAME = Game(PlayerDims([2]), 0.1, [0, 0], np.eye(2))

    @pytest.mark.parametrize("fn", [logit_response, response_jacobian])
    def test_block_that_overflows_whole_raises(self, fn):
        with pytest.raises(NonFiniteInput, match="^logit response to -cost/lambda has NaN"):
            fn(self.OVERFLOW_GAME, [1e308, 1e308])

    def test_entry_that_overflows_alone_gets_probability_zero(self):
        p = logit_response(self.OVERFLOW_GAME, [1e307, 2e307])
        assert p.tolist() == [1.0, 0.0]

    def test_start_whose_cost_over_lambda_overflows_raises(self):
        with pytest.raises(NonFiniteInput, match="starting cost"):
            solve_equilibrium(self.OVERFLOW_GAME, x0=[1e308, 1e308])


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


class TestStructuredKernels:
    """The block-structured kernels on unequal blocks with a one-action player."""

    DIMS = PlayerDims([1, 4, 2, 7])

    @staticmethod
    def reference_softmax(u, dims):
        out = np.empty_like(u)
        for i in range(dims.n):
            z = u[dims.block(i)]
            e = np.exp(z - z.max())
            out[dims.block(i)] = e / e.sum()
        return out

    def test_softmax_matches_per_block_reference(self, rng):
        from qregames.solver import blockwise_softmax

        lam = 0.1
        for scale in (1.0, 1e3 * lam):
            u = scale * rng.normal(size=self.DIMS.total)
            p = blockwise_softmax(u, self.DIMS)
            assert not np.any(np.isnan(p))
            assert p[0] == 1.0  # the singleton block
            assert np.abs(p - self.reference_softmax(u, self.DIMS)).max() <= 1e-15
            for i in range(self.DIMS.n):
                assert abs(p[self.DIMS.block(i)].sum() - 1.0) <= 1e-15

    def test_softmax_in_place_matches_textbook_bit_for_bit(self, rng):
        from qregames.solver import blockwise_softmax

        dims, starts, owner = self.DIMS, self.DIMS.starts, self.DIMS.owner
        for scale in (1.0, 100.0):
            u = scale * rng.normal(size=dims.total)
            e = np.exp(u - np.maximum.reduceat(u, starts)[owner])
            expected = e / np.add.reduceat(e, starts)[owner]
            before = u.copy()
            assert np.array_equal(blockwise_softmax(u, dims), expected)
            assert np.array_equal(u, before)  # the input is not mutated
            u.setflags(write=False)  # and a read-only input is accepted
            assert np.array_equal(blockwise_softmax(u, dims), expected)

    def test_response_matches_textbook_bit_for_bit(self, rng):
        from qregames.solver import blockwise_softmax

        g = random_certified_game(rng, self.DIMS.sizes, lam=0.3, coupling=2.0)
        for _ in range(5):
            x = random_interior_strategy(rng, g.dims)
            expected = blockwise_softmax(-(g.b + g.C @ x) / g.lam, g.dims)
            assert np.array_equal(logit_response(g, x), expected)

    def test_cost_residual_jacobian_matches_dense(self, rng):
        from qregames.solver import cost_residual_jacobian

        g = random_certified_game(rng, self.DIMS.sizes, lam=0.3, coupling=2.0)
        x0 = random_interior_strategy(rng, g.dims)
        H = cost_residual_jacobian(g, logit_response(g, x0))
        dense = np.eye(g.dims.total) + (1.0 / g.lam) * g.C @ response_jacobian(g, x0)
        assert np.abs(H - dense).max() <= 1e-12

    @pytest.mark.parametrize("sizes", [DIMS.sizes, (1,), (3, 3, 3, 3)])
    def test_cost_residual_jacobian_matches_arange_scatter_bit_for_bit(self, rng, sizes):
        from qregames.solver import cost_residual_jacobian

        g = random_certified_game(rng, sizes, lam=0.3, coupling=2.0)
        dims, m = g.dims, g.dims.total
        for _ in range(5):
            x = logit_response(g, random_interior_strategy(rng, dims))
            W = np.zeros((m, dims.n))
            W[np.arange(m), dims.owner] = x
            expected = (g.C - (g.C @ W).repeat(dims.sizes, axis=1)) * (x / g.lam)
            expected.flat[:: m + 1] += 1.0
            H = cost_residual_jacobian(g, x)
            assert np.array_equal(H, expected)
            assert np.array_equal(np.signbit(H), np.signbit(expected))

    def test_exit_test_matches_logit_response(self, rng):
        # The solver's exit test reuses the cost its residual formed; the
        # reported residual must be exactly what logit_response gives.
        g = random_certified_game(rng, self.DIMS.sizes, lam=0.3, coupling=2.0)
        for x0 in (None, random_interior_strategy(rng, g.dims)):
            out = solve_equilibrium(g, x0=x0)
            assert out.converged
            r = out.x - logit_response(g, out.x)
            assert out.residual_sq == float(r @ r)

    @pytest.mark.parametrize("m", [1, 12, 27, 99])
    def test_linear_solve_matches_numpy_bit_for_bit(self, rng, m):
        # the solver and the implicit gradient call LAPACK's gesv through
        # numpy's gufunc, for H and for the F-ordered view H^T; the cone
        # projection and the certificate call its symmetric eigensolvers
        for _ in range(5):
            H = rng.normal(size=(m, m)) + m * np.eye(m)
            v = rng.normal(size=m)
            assert np.array_equal(_linear_solve(H, v), np.linalg.solve(H, v))
            assert np.array_equal(_linear_solve(H.T, v), np.linalg.solve(H.T, v))
            S = H + H.T
            w, V = _eigh(S)
            w_ref, V_ref = np.linalg.eigh(S)
            assert np.array_equal(w, w_ref)
            assert np.array_equal(V, V_ref)
            assert np.array_equal(_eigvalsh(S), np.linalg.eigvalsh(S))

    def test_linear_solve_of_a_singular_matrix_raises(self):
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            np.linalg.solve(np.ones((2, 2)), np.ones(2))
        with pytest.raises(DecompositionFailure, match="^Singular matrix$"):
            _linear_solve(np.ones((2, 2)), np.ones(2))

    @pytest.mark.parametrize("helper, wrapper", [(_eigh, np.linalg.eigh),
                                                 (_eigvalsh, np.linalg.eigvalsh)],
                             ids=["eigh", "eigvalsh"])
    def test_unconverged_eigensolver_raises(self, helper, wrapper):
        # numpy's wrapper raises LinAlgError on this NaN matrix; the helper
        # raises the typed error with the same message
        S = np.full((3, 3), np.nan)
        with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
            wrapper(S)
        with pytest.raises(EigendecompositionFailure, match="^Eigenvalues did not converge$"):
            helper(S)

    def test_uniform_strategy_is_exact_per_block(self):
        x = uniform_strategy(self.DIMS)
        assert x.shape == (self.DIMS.total,)
        for i, size in enumerate(self.DIMS.sizes):
            assert np.array_equal(x[self.DIMS.block(i)], np.full(size, 1.0 / size))

    def test_response_jacobian_blocks(self, rng):
        g = random_certified_game(rng, self.DIMS.sizes, lam=0.3)
        x0 = random_interior_strategy(rng, g.dims)
        p = logit_response(g, x0)
        J = response_jacobian(g, x0)
        expected = np.zeros_like(J)
        for i in range(g.dims.n):
            blk = g.dims.block(i)
            expected[blk, blk] = np.diag(p[blk]) - np.outer(p[blk], p[blk])
        assert np.abs(J - expected).max() <= 1e-15
        assert np.all(J[0] == 0.0)  # the singleton block has a zero Jacobian


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

    @pytest.mark.parametrize("fn", [logit_response, response_jacobian, stationarity_residual])
    @pytest.mark.parametrize("x", [[0.5, 0.5], [0.25] * 4, [[1 / 3] * 3]])
    def test_entry_points_reject_wrong_length(self, fn, x):
        with pytest.raises(DimensionMismatch):
            fn(single_player_game([0.0, 0.0, 0.0]), np.array(x))

    @pytest.mark.parametrize("fn", [logit_response, response_jacobian, stationarity_residual])
    @pytest.mark.parametrize("x", [[np.nan, 0.5, 0.5], [0.5, 0.5, np.nan]])
    def test_entry_points_reject_nan(self, fn, x):
        with pytest.raises(NonFiniteInput):
            fn(single_player_game([0.0, 0.0, 0.0]), np.array(x))

    @pytest.mark.parametrize("fn", [
        logit_response,
        response_jacobian,
        stationarity_residual,
        lambda g, x: solve_equilibrium(g, x0=x),
    ], ids=["logit_response", "response_jacobian", "stationarity_residual", "solve_equilibrium"])
    @pytest.mark.parametrize("x", [[np.inf, 0.5, 0.5], [0.5, -np.inf, 0.5], [0.5, 0.5, np.nan]])
    def test_non_finite_strategy_rejected_before_the_product(self, fn, x):
        # C x with an infinite entry would warn (0 * inf) before any check on the cost
        with pytest.raises(NonFiniteInput):
            fn(single_player_game([0.0, 0.0, 0.0]), np.array(x))

    def test_max_iters_returns_best_unconverged(self, rng):
        g = random_certified_game(rng, [4, 4], lam=0.2, coupling=2.0)
        out = solve_equilibrium(g, SolverConfig(residual_tol=1e-30, max_iters=2))
        assert not out.converged
        assert out.iterations == 2
        assert np.isfinite(out.residual_sq)


class TestSolverConfig:
    @pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0, -1.0])
    def test_residual_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError):
            SolverConfig(residual_tol=tol)

    @pytest.mark.parametrize("field", ["max_iters"])
    @pytest.mark.parametrize("value", [2.5, True, "3", np.nan])
    def test_counts_must_be_whole(self, field, value):
        with pytest.raises(ValueError):
            SolverConfig(**{field: value})

    def test_whole_float_count_runs(self, rng):
        g = random_certified_game(rng, [4, 4], lam=0.2, coupling=2.0)
        cfg = SolverConfig(residual_tol=1e-30, max_iters=2.0)
        assert cfg.max_iters == 2 and solve_equilibrium(g, cfg).iterations == 2


@pytest.fixture
def certificate_calls(monkeypatch):
    """Count the solver module's calls of check_assumption."""
    calls = []

    def counted(g, *args, **kwargs):
        calls.append(g)
        return check_assumption(g, *args, **kwargs)

    monkeypatch.setattr(qregames.solver, "check_assumption", counted)
    return calls


class TestCertificateOnRead:
    def test_design_routes_never_check(self, certificate_calls):
        game, target = build_collision_game()
        out = solve_equilibrium(game)
        assert out.converged
        design = solve_min_norm_design(game, target)
        assert design.converged
        obj = kl_objective(pure_to_strategy(target, game.dims), game.dims)
        row = bilevel_row(0.01, obj, game, None, None)
        assert row["converged"] and row["outer_iters"] > 1
        assert certificate_calls == []

    def test_first_read_checks_once(self, certificate_calls):
        game, _ = build_collision_game()
        out = solve_equilibrium(game)
        assert out.certified is True
        assert certificate_calls == [game]
        assert out.certified is True
        assert len(certificate_calls) == 1

    @pytest.mark.parametrize("g, x0", [
        (build_collision_game()[0], None),
        (single_player_game([0.0, 0.0], C=-np.eye(2)), None),
        (single_player_game([0.5, 0.0], C=-2.0 * np.eye(2)), np.array([0.625, 0.375])),
    ], ids=["certified", "uncertified", "singular"])
    def test_matches_check_assumption(self, g, x0):
        assert solve_equilibrium(g, x0=x0).certified == check_assumption(g).passed

    @pytest.mark.parametrize("read_first", [True, False])
    def test_pickled_outcome_keeps_value(self, read_first):
        for g in (build_collision_game()[0], single_player_game([0.0, 0.0], C=-np.eye(2))):
            out = solve_equilibrium(g)
            if read_first:
                out.certified
            copy = pickle.loads(pickle.dumps(out))
            assert copy.certified == check_assumption(g).passed
            assert np.array_equal(copy.x, out.x) and copy.iterations == out.iterations

    def test_repr_leaves_out_the_game(self):
        assert "_game" not in repr(solve_equilibrium(build_collision_game()[0]))


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


def error_bound(g: Game, x: np.ndarray) -> float:
    """||Pi_T(b + Cx + lam ln x)||_2 / (2 lam), with Pi_T subtracting each block's mean."""
    r = g.b + g.C @ x + g.lam * np.log(x)
    r -= np.repeat(np.add.reduceat(r, g.dims.starts) / g.dims.sizes, g.dims.sizes)
    return float(np.linalg.norm(r)) / (2.0 * g.lam)


def distinct_equilibria(g: Game, rng, starts: int) -> list[np.ndarray]:
    """The equilibria that tight solves from random interior starts reach."""
    found = []
    for _ in range(starts):
        out = solve_equilibrium(g, SolverConfig(residual_tol=1e-24),
                                x0=random_interior_strategy(rng, g.dims))
        if out.converged and all(np.abs(out.x - x).max() > 1e-6 for x in found):
            found.append(out.x)
    return found


def tangent_basis(dims: PlayerDims) -> np.ndarray:
    """Orthonormal basis of T, the strategy differences whose every block sums to 0."""
    same_block = dims.owner[:, None] == dims.owner
    block_mean = np.where(same_block, 1.0, 0.0) / np.repeat(dims.sizes, dims.sizes)
    w, V = np.linalg.eigh(np.eye(dims.total) - block_mean)
    return V[:, w > 0.5]


class TestErrorBound:
    """On a certified game, b + Cx + lam ln x is strongly monotone with modulus
    2 lam on the product of simplices (Pinsker per block, and ||d||_1^2 >=
    2 ||d||_2^2 for a zero-sum block), so every interior x is within
    `error_bound` of the equilibrium."""

    def test_bound_holds_on_converged_solves(self, rng):
        for _ in range(20):
            sizes = list(rng.integers(2, 5, size=rng.integers(2, 4)))
            g = random_certified_game(rng, sizes, lam=rng.uniform(0.3, 0.6),
                                      coupling=rng.uniform(0.5, 2.0))
            reference = damped_fixed_point(g, tau=0.2, tol=1e-13)
            for tol in (1e-2, 1e-4, 1e-6, 1e-10):
                out = solve_equilibrium(g, SolverConfig(residual_tol=tol))
                assert out.converged
                # 1e-10 covers the reference's own error
                assert np.linalg.norm(out.x - reference) <= error_bound(g, out.x) + 1e-10

    @pytest.mark.parametrize("ratio, count", [(1.9, 1), (2.1, 3)])
    def test_coordination_game_bifurcates_at_k_equal_2_lambda(self, rng, ratio, count):
        """Two players paid k for matching, C12 = C21 = -k I: the symmetric
        part's smallest eigenvalue is -k, so the modulus 2 lam - k stays
        positive, and the equilibrium unique, up to k = 2 lam.  Past it the
        symmetric equilibrium splits in three."""
        k = ratio * 0.1
        C = np.zeros((4, 4))
        C[:2, 2:] = C[2:, :2] = -k * np.eye(2)
        g = Game(PlayerDims([2, 2]), 0.1, np.zeros(4), C)
        assert not check_assumption(g).passed
        found = distinct_equilibria(g, rng, 40)
        assert len(found) == count
        for x in found:
            assert np.abs(x[:2] - x[2:]).max() <= 1e-9  # both players mix alike

    def test_jacobian_stays_nonsingular_past_the_certificate(self, rng):
        """With kappa the smallest eigenvalue of sym(C) on T: J_u <= I/2 with its
        range in T gives sym(I + (1/lam) J_u^1/2 C J_u^1/2) >= (1 + kappa/(2 lam)) I,
        so H = I + (1/lam) C J_u stays nonsingular for -2 lam < kappa < 0, where
        the certificate fails."""
        for _ in range(20):
            sizes = list(rng.integers(2, 5, size=rng.integers(2, 4)))
            lam = rng.uniform(0.05, 0.5)
            g = random_certified_game(rng, sizes, lam=lam, coupling=rng.uniform(0.5, 2.0))
            Q = tangent_basis(g.dims)

            def kappa_of(C):
                return np.linalg.eigvalsh(Q.T @ (0.5 * (C + C.T)) @ Q)[0]

            # lower sym(C) on T only, leaving the diagonal blocks symmetric
            shift = kappa_of(g.C) + rng.uniform(0.05, 0.95) * 2 * lam
            g = g.with_matrix(g.C - shift * (Q @ Q.T))
            kappa = kappa_of(g.C)
            assert -2 * lam < kappa < 0 and not check_assumption(g).passed
            for _ in range(5):
                x = random_interior_strategy(rng, g.dims)
                same_block = g.dims.owner[:, None] == g.dims.owner
                J = np.where(same_block, -np.outer(x, x), 0.0) + np.diag(x)
                w, V = np.linalg.eigh(J)
                root = (V * np.sqrt(np.maximum(w, 0.0))) @ V.T
                M = np.eye(g.dims.total) + root @ g.C @ root / lam
                assert np.linalg.eigvalsh(0.5 * (M + M.T))[0] >= 1 + kappa / (2 * lam) - 1e-12
                H = qregames.solver.cost_residual_jacobian(g, x)
                # measured >= 0.035 over 200 such games and 20 strategies each
                assert np.linalg.svd(H, compute_uv=False)[-1] > 1e-6


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

    def test_nonpositive_or_nan_lambda_raises(self):
        for lam in (-0.5, 0.0, float("nan"), float("inf")):
            with pytest.raises(NonPositiveLambda):
                simulate_gumbel_choice(np.array([0.0, 1.0]), lam, 10_000, seed=0)

    @pytest.mark.parametrize("samples", [2.5, True, "10", 0])
    def test_samples_must_be_a_whole_positive_number(self, samples):
        with pytest.raises(ValueError):
            simulate_gumbel_choice(np.array([0.0, 1.0]), 0.5, samples, seed=0)

    @pytest.mark.parametrize("cost", [np.float64(1.0), np.zeros(0), np.zeros((2, 2))],
                             ids=["0-d", "empty", "2-d"])
    def test_cost_must_be_a_non_empty_vector(self, cost):
        with pytest.raises(DimensionMismatch):
            simulate_gumbel_choice(cost, 0.5, 10, seed=0)

    def test_whole_float_samples_run(self):
        a = simulate_gumbel_choice(np.array([0.0, 1.0]), 0.5, 1000.0, seed=3)
        b = simulate_gumbel_choice(np.array([0.0, 1.0]), 0.5, 1000, seed=3)
        assert np.array_equal(a, b)

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
