"""Performance functions over joint strategies, with analytic gradients."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import InvalidInput, NonPositiveStrategy, ZeroAreaTotal
from .game import PlayerDims, _array, _positive, _real, check_strategy

# Mixing weight toward the uniform strategy when a target has zero entries.
# Without it, the divergence to a pure target is infinite.
KL_SMOOTHING_DEFAULT = 1e-3

# The largest area total whose 1/total^2, in the delay's gradient, is not finite.
_AREA_TOTAL_FLOOR = float(np.nextafter(1.0 / np.sqrt(np.finfo(float).max), 0.0))


@dataclass(frozen=True)
class PerformanceObjective:
    # The built-in objectives are partials of module-level functions, so they pickle.
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    name: str


def smooth_target(target: np.ndarray, dims: PlayerDims, delta: float) -> np.ndarray:
    """Blockwise mix of the target with the uniform strategy, in double
    precision whatever delta's type.  delta must be a real number in [0, 1]
    (InvalidInput), and the target a finite vector that fits dims."""
    t = _array(target, (dims.total,), "target")
    delta = _real(delta, "smoothing_delta", strict=False, high=1.0)
    return (1.0 - delta) * t + delta / np.repeat(dims.sizes, dims.sizes)


def _require_positive(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    x = _array(x, shape, "strategy", finite=False)
    _positive(x, "strategy", NonPositiveStrategy,
              "objective evaluated at a strategy with nonpositive entries")
    return x


def kl_objective(
    target: np.ndarray,
    dims: PlayerDims,
    smoothing_delta: float = KL_SMOOTHING_DEFAULT,
) -> PerformanceObjective:
    """Summed divergence of each player's strategy from a target strategy.

    value(x) = sum_i x_i . (ln x_i - ln t_i) against the smoothed target
    t = (1-delta)*target + delta*uniform per block; gradient is
    ln x - ln t + 1.  Smoothing keeps the value finite for pure targets, so
    every entry of t must be positive (InvalidInput): a target with a zero
    entry needs a delta whose share delta/m_i of each block does not
    underflow to 0.
    """
    check_strategy(target, dims)
    t = smooth_target(target, dims, smoothing_delta)
    _positive(t, "smoothed target", InvalidInput,
              f"smoothing_delta {float(smoothing_delta)!r} leaves a zero entry in the "
              "smoothed target, whose logarithm the divergence takes")
    log_t = np.log(t)
    return PerformanceObjective(
        value=partial(_kl_value, log_t), gradient=partial(_kl_gradient, log_t), name="kl"
    )


def _kl_value(log_t: np.ndarray, x: np.ndarray) -> float:
    x = _require_positive(x, log_t.shape)
    d = np.log(x)
    d -= log_t
    return float(x.dot(d))


def _kl_gradient(log_t: np.ndarray, x: np.ndarray) -> np.ndarray:
    x = _require_positive(x, log_t.shape)
    grad = np.log(x)
    grad -= log_t
    grad += 1.0
    return grad


def kl_to_pure(x: np.ndarray, target: np.ndarray) -> float:
    """Divergence of a pure/interior target from x: -sum over the target's
    support of ln x.  Finite for interior x even when the target has zeros,
    and it decreases monotonically as x concentrates on the target."""
    target = _array(target, None, "target")
    x = _require_positive(x, target.shape)
    support = target > 0
    return float(np.sum(target[support] * (np.log(target[support]) - np.log(x[support]))))


def potential_delay_objective(dims: PlayerDims) -> PerformanceObjective:
    """Fairness objective: sum over areas of the reciprocal aggregate service.

    All players must share one action set (the areas).  value(x) =
    sum_a 1 / (sum_i x_i[a]); the gradient entry for any player at area a is
    -1 / (sum_i x_i[a])^2.  Lower is fairer for a fixed total supply.
    """
    sizes = set(dims.sizes)
    if len(sizes) != 1:
        raise InvalidInput("potential delay needs the same action count for every player")
    k = dims.sizes[0]
    value, gradient = partial(_delay_value, dims.n, k), partial(_delay_gradient, dims.n, k)
    return PerformanceObjective(value=value, gradient=gradient, name="potential_delay")


def _area_totals(n: int, k: int, x: np.ndarray) -> np.ndarray:
    x = _array(x, (n * k,), "strategy", finite=False)
    t = x.reshape(n, k).sum(axis=0)
    # a NaN or infinite entry of x makes its area's total NaN or infinite
    _positive(t, "strategy", ZeroAreaTotal, "an area receives zero aggregate service, or too "
              "little for 1/total^2 to be finite", floor=_AREA_TOTAL_FLOOR)
    return t


def _delay_value(n: int, k: int, x: np.ndarray) -> float:
    return float(np.sum(1.0 / _area_totals(n, k, x)))


def _delay_gradient(n: int, k: int, x: np.ndarray) -> np.ndarray:
    return np.tile(-1.0 / _area_totals(n, k, x) ** 2, n)
