import math

import numpy as np
import pytest

from qregames import (
    DimensionMismatch,
    NonPositiveStrategy,
    PlayerDims,
    ZeroAreaTotal,
    kl_objective,
    kl_to_pure,
    potential_delay_objective,
    smooth_target,
    uniform_strategy,
)

from conftest import finite_difference_gradient, random_interior_strategy


def kl_direct(x, t, dims):
    """Independent oracle: elementwise summation loop."""
    total = 0.0
    for k in range(dims.total):
        total += x[k] * (math.log(x[k]) - math.log(t[k]))
    return total


class TestKlObjective:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_target(self, bad):
        with pytest.raises(DimensionMismatch):
            kl_objective(np.array([bad, 1.0, 0.5, 0.5]), PlayerDims([2, 2]))

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


class TestKlToPure:
    def test_monotone_toward_target(self):
        target = np.array([0.0, 0.0, 1.0])
        values = [
            kl_to_pure(np.array([(1 - p) / 2, (1 - p) / 2, p]), target)
            for p in (0.2, 0.5, 0.9, 0.999)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] >= 0.0


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

    def test_rejects_mixed_action_counts(self):
        with pytest.raises(ValueError):
            potential_delay_objective(PlayerDims([2, 3]))
