import math

import numpy as np
import pytest

from qregames import (
    DimensionMismatch,
    InvalidInput,
    NonFiniteInput,
    NonPositiveStrategy,
    PlayerDims,
    ZeroAreaTotal,
    kl_objective,
    kl_to_pure,
    potential_delay_objective,
    smooth_target,
    uniform_strategy,
)
from qregames.objectives import KL_SMOOTHING_DEFAULT

from conftest import finite_difference_gradient, random_interior_strategy


def kl_direct(x, t, dims):
    """Independent oracle: elementwise summation loop."""
    total = 0.0
    for k in range(dims.total):
        total += x[k] * (math.log(x[k]) - math.log(t[k]))
    return total


class TestKlObjective:
    @pytest.mark.parametrize("target, message", [
        ([1.0, 1.0, 0.0], "block 0 sums to 2.0"),
        ([1.5, -0.5, 0.0], "strategy has negative entries"),
    ], ids=["block-sum", "negative"])
    def test_rejects_target_that_is_not_a_strategy(self, target, message):
        with pytest.raises(DimensionMismatch, match=message):
            kl_objective(np.array(target), PlayerDims([3]))

    def test_zero_at_smoothed_target(self, rng):
        dims = PlayerDims([3, 2])
        target = random_interior_strategy(rng, dims)
        obj = kl_objective(target, dims, smoothing_delta=1e-3)
        smoothed = smooth_target(target, dims, 1e-3)
        assert obj.value(smoothed) == pytest.approx(0.0, abs=1e-14)

    def test_nonnegative_on_interior(self, rng):
        dims = PlayerDims([4, 3])
        target = random_interior_strategy(rng, dims)
        obj = kl_objective(target, dims)
        for _ in range(20):
            assert obj.value(random_interior_strategy(rng, dims)) >= 0.0

    def test_uniform_against_skewed_target(self):
        # single player, delta=0: closed-form (1/3)(ln(2/3) + 2 ln(4/3))
        dims = PlayerDims([3])
        target = np.array([0.5, 0.25, 0.25])
        obj = kl_objective(target, dims, smoothing_delta=0.0)
        x = uniform_strategy(dims)
        expected = (math.log(2.0 / 3.0) + 2.0 * math.log(4.0 / 3.0)) / 3.0
        assert obj.value(x) == pytest.approx(expected, abs=1e-14)
        assert obj.value(x) == pytest.approx(kl_direct(x, target, dims), abs=1e-14)

    def test_gradient_matches_finite_differences(self, rng):
        dims = PlayerDims([3, 4])
        target = random_interior_strategy(rng, dims)
        obj = kl_objective(target, dims)
        for _ in range(5):
            x = random_interior_strategy(rng, dims)
            fd = finite_difference_gradient(obj.value, x)
            g = obj.gradient(x)
            assert np.abs(g - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())

    def test_player_relabeling_symmetry(self, rng):
        dims = PlayerDims([3, 3])
        target = random_interior_strategy(rng, dims)
        x = random_interior_strategy(rng, dims)
        obj = kl_objective(target, dims)
        swap = np.concatenate([target[3:], target[:3]])
        x_swap = np.concatenate([x[3:], x[:3]])
        obj_swap = kl_objective(swap, dims)
        assert obj.value(x) == pytest.approx(obj_swap.value(x_swap), rel=1e-14)

    def test_nonpositive_strategy_raises(self, rng):
        dims = PlayerDims([2])
        obj = kl_objective(np.array([0.5, 0.5]), dims)
        with pytest.raises(NonPositiveStrategy):
            obj.value(np.array([1.0, 0.0]))

    def test_pure_target_needs_smoothing(self):
        dims = PlayerDims([2])
        target = np.array([1.0, 0.0])
        smoothed = kl_objective(target, dims, smoothing_delta=1e-3)
        assert np.isfinite(smoothed.value(np.array([0.9, 0.1])))

    @pytest.mark.parametrize("delta", [0.0, np.float32(0.0)])
    def test_pure_target_rejects_zero_smoothing(self, delta, recwarn):
        with pytest.raises(InvalidInput, match="smoothing_delta"):
            kl_objective(np.array([1.0, 0.0]), PlayerDims([2]), smoothing_delta=delta)
        assert len(recwarn) == 0  # refused before ln 0 is taken

    def test_smoothing_that_underflows_is_rejected(self, recwarn):
        # delta / 3 rounds to 0.0, so the smoothed target keeps its zeros
        with pytest.raises(InvalidInput, match="^smoothing_delta"):
            kl_objective(np.array([1.0, 0.0, 0.0]), PlayerDims([3]), smoothing_delta=5e-324)
        assert len(recwarn) == 0

    def test_in_place_matches_textbook_bit_for_bit(self, rng):
        dims = PlayerDims([1, 4, 2, 7])
        target = random_interior_strategy(rng, dims)
        obj = kl_objective(target, dims)
        log_t = np.log(smooth_target(target, dims, KL_SMOOTHING_DEFAULT))
        for _ in range(5):
            x = random_interior_strategy(rng, dims)
            assert obj.value(x) == float(x @ (np.log(x) - log_t))
            assert np.array_equal(obj.gradient(x), np.log(x) - log_t + 1.0)


class TestSmoothTarget:
    def test_float32_delta_mixes_in_double_precision(self):
        dims, target = PlayerDims([2, 2]), [1.0, 0.0, 1.0, 0.0]
        delta = np.float32(1e-3)
        a = smooth_target(target, dims, delta)
        b = smooth_target(target, dims, float(delta))
        assert a.dtype == np.float64 and a.tobytes() == b.tobytes()

    def test_matches_blockwise_loop_bit_for_bit(self, rng):
        dims = PlayerDims([1, 4, 2, 7])
        for delta in (0.0, KL_SMOOTHING_DEFAULT, 0.3, float(rng.random()), 1.0):
            target = random_interior_strategy(rng, dims)
            loop = target.copy()
            for i in range(dims.n):
                blk = dims.block(i)
                loop[blk] = (1.0 - delta) * loop[blk] + delta / dims.sizes[i]
            assert smooth_target(target, dims, delta).tobytes() == loop.tobytes()

    @pytest.mark.parametrize("target, delta, error", [
        ([1.0, 0.0, 1.0, 0.0], 2.0, InvalidInput),
        ([1.0, 0.0, 1.0, 0.0], -1.0, InvalidInput),
        ([1.0, 0.0, 1.0, 0.0], np.nan, InvalidInput),
        ([1.0, 0.0, 1.0, 0.0], True, InvalidInput),
        ([np.nan, 0.0, 1.0, 0.0], 0.1, NonFiniteInput),
    ], ids=["delta-above-one", "delta-negative", "delta-nan", "delta-bool", "target-nan"])
    def test_rejects_its_own_bad_inputs(self, target, delta, error):
        with pytest.raises(error):
            smooth_target(target, PlayerDims([2, 2]), delta)


class TestKlToPure:
    def test_monotone_toward_target(self):
        target = np.array([0.0, 0.0, 1.0])
        values = [
            kl_to_pure(np.array([(1 - p) / 2, (1 - p) / 2, p]), target)
            for p in (0.2, 0.5, 0.9, 0.999)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] >= 0.0

    def test_empty_target_has_zero_divergence(self):
        assert kl_to_pure(np.array([]), np.array([])) == 0.0


class TestPotentialDelay:
    def test_uniform_value_analytic(self):
        dims = PlayerDims([9, 9, 9])
        obj = potential_delay_objective(dims)
        assert obj.value(uniform_strategy(dims)) == pytest.approx(27.0, abs=1e-12)

    def test_distinct_pure_allocations(self):
        dims = PlayerDims([3, 3, 3])
        obj = potential_delay_objective(dims)
        x = np.zeros(9)
        x[0] = x[4] = x[8] = 1.0  # players cover distinct areas
        assert obj.value(x) == pytest.approx(3.0, abs=1e-14)

    def test_gradient_matches_finite_differences(self, rng):
        dims = PlayerDims([4, 4, 4])
        obj = potential_delay_objective(dims)
        for _ in range(5):
            x = random_interior_strategy(rng, dims)
            fd = finite_difference_gradient(obj.value, x)
            g = obj.gradient(x)
            assert np.abs(g - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())

    def test_zero_area_raises(self):
        dims = PlayerDims([2, 2])
        obj = potential_delay_objective(dims)
        with pytest.raises(ZeroAreaTotal):
            obj.value(np.array([1.0, 0.0, 1.0, 0.0]))

    @pytest.mark.parametrize("total", [1e-320, 1e-160])
    @pytest.mark.parametrize("part", ["value", "gradient"])
    def test_area_total_whose_inverse_square_overflows_raises(self, total, part):
        # 1/total^2 leaves double range below about 7.5e-155: 1/1e-160 is
        # finite but its square is not, and 1/1e-320 overflows alone
        obj = potential_delay_objective(PlayerDims([2, 2]))
        x = np.array([total / 2, 1 - total / 2, total / 2, 1 - total / 2])
        with pytest.raises(ZeroAreaTotal):
            getattr(obj, part)(x)

    def test_smallest_area_total_with_a_finite_gradient(self):
        obj = potential_delay_objective(PlayerDims([1]))
        total = 1.0 / np.sqrt(np.finfo(float).max)
        assert np.isfinite(obj.gradient(np.array([total]))).all()
        with pytest.raises(ZeroAreaTotal):
            obj.gradient(np.array([np.nextafter(total, 0.0)]))

    def test_rejects_mixed_action_counts(self):
        with pytest.raises(ValueError):
            potential_delay_objective(PlayerDims([2, 3]))
