"""Result container shared by both cost-design routes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class DesignResult:
    """A designed cost matrix together with the equilibrium it induces.

    `x` is the equilibrium of `C` from the route's last solve, always a
    converged one for the gradient route.  The min-norm route returns its
    final solve's x even when that solve stops unconverged, and `converged`
    is then false.  `objective_value` is the route's figure of merit at x
    (divergence from the target for the margin route, the performance
    function for the gradient route).  `history`
    holds one (iteration, objective_value, step_norm) triple per outer
    iteration of the gradient route; it is empty for the margin route.
    `max_violation` is the largest margin-constraint violation and is NaN
    for the gradient route, which has no margin constraints.
    """

    C: np.ndarray
    x: np.ndarray
    objective_value: float
    c_norm: float
    outer_iterations: int
    converged: bool
    max_violation: float = float("nan")
    history: tuple[tuple[int, float, float], ...] = ()

    def to_dict(self) -> dict:
        d = {
            "C": self.C.tolist(),
            "x": self.x.tolist(),
            "objective_value": self.objective_value,
            "c_norm": self.c_norm,
            "outer_iterations": self.outer_iterations,
            "converged": self.converged,
        }
        if np.isfinite(self.max_violation):
            d["max_violation"] = self.max_violation
        if self.history:
            d["history"] = [list(h) for h in self.history]
        return d
