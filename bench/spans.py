"""Span tracer for the traced benchmark run.

Times calls into the public functions of each ``qregames`` module by
replacing them, for the duration of a ``with tracer.installed():`` block,
in every ``qregames`` module that holds a reference to them (the package
namespace and each module that imported them by name).  Nothing inside the
package changes: the wrappers live here and are removed on exit.

A span is (name, start, end, parent span, op id).  Spans are kept in
compact in-memory arrays and written once, by ``save``, after the run.
"""

from __future__ import annotations

import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Layers are the modules of src/qregames; these are the functions timed in
# each.  ``objectives`` is timed through the value/gradient callables of the
# objectives the benchmark builds (see ``Tracer.wrap_objective``).
LAYER_FUNCTIONS = (
    "game.check_assumption",
    "solver.solve_equilibrium",
    "solver.logit_response",
    "solver.response_jacobian",
    "projections.project_cone_sum",
    "projections.project_feasible",
    "min_norm.solve_min_norm_design",
    "bilevel.run_projected_gradient",
    "bilevel.implicit_gradient",
)
OBJECTIVE_FUNCTIONS = ("objectives.value", "objectives.gradient")
TRACED_FUNCTIONS = LAYER_FUNCTIONS + OBJECTIVE_FUNCTIONS

# Functions whose latency solve-scale also reports per game size.
PER_SIZE_FUNCTIONS = (
    "game.check_assumption",
    "solver.solve_equilibrium",
    "solver.logit_response",
    "solver.response_jacobian",
    "bilevel.implicit_gradient",
)
PER_SIZE_TIERS = (12, 27, 99, 300)

def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for name in TRACED_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.p50_ms"] = "ms"
    for name in PER_SIZE_FUNCTIONS:
        for m in PER_SIZE_TIERS:
            units[f"{name}.p50_ms.m{m}"] = "ms"
    units.update({
        "solver.solve_equilibrium.gn_iters": "count",
        "solver.solve_equilibrium.unconverged": "count",
        "solver.logit_response.per_gn_iter": "ratio",
        "game.check_assumption.per_solve": "ratio",
        "min_norm.solve_min_norm_design.sweeps": "count",
        "min_norm.sweep_ms": "ms",
        "bilevel.run_projected_gradient.outer_iters": "count",
        "bilevel.run_projected_gradient.budget_exhausted": "count",
        "bilevel.inner_solves_per_outer": "ratio",
        "trace.overhead_s": "s",
    })
    return units


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self) -> None:
        self.names: list[str] = list(TRACED_FUNCTIONS)
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1  # set by the caller before each op
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.gn_iters = 0
        self.unconverged_solves = 0
        self.converged_solves = 0
        self.sweeps = 0
        self.outer_iters = 0
        self.budget_exhausted = 0

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name: str, fn, observe=None):
        nid = self.names.index(name)
        name_id, parent, op = self.name_id, self.parent, self.op
        start, end, stack = self.start, self.end, self._stack

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe_solve(self, outcome) -> None:
        self.gn_iters += outcome.iterations
        if outcome.converged:
            self.converged_solves += 1
        else:
            self.unconverged_solves += 1

    def _observe_min_norm(self, result) -> None:
        self.sweeps += result.outer_iterations

    def _observe_projected_gradient(self, result) -> None:
        self.outer_iters += result.outer_iterations
        if not result.converged:
            self.budget_exhausted += 1

    def wrap_objective(self, obj):
        """Same objective with its value and gradient callables traced."""
        return type(obj)(
            value=self._wrap("objectives.value", obj.value),
            gradient=self._wrap("objectives.gradient", obj.gradient),
            name=obj.name,
        )

    @contextmanager
    def installed(self):
        """Replace each layer function in every qregames module, then restore."""
        observers = {
            "solver.solve_equilibrium": self._observe_solve,
            "min_norm.solve_min_norm_design": self._observe_min_norm,
            "bilevel.run_projected_gradient": self._observe_projected_gradient,
        }
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if key == "qregames" or key.startswith("qregames.")
        ]
        try:
            for name in LAYER_FUNCTIONS:
                module_name, attr = name.split(".")
                original = getattr(sys.modules[f"qregames.{module_name}"], attr)
                wrapper = self._wrap(name, original, observers.get(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            while self._restore:
                mod, key, original = self._restore.pop()
                setattr(mod, key, original)

    # ------------------------------------------------------------- results

    def _arrays(self):
        return (
            np.array(self.name_id, dtype=np.int32),
            np.array(self.parent, dtype=np.int32),
            np.array(self.op, dtype=np.int32),
            np.array(self.start, dtype=float),
            np.array(self.end, dtype=float),
        )

    def layer_metrics(self, op_sizes: list[int]) -> dict[str, float]:
        """Per-layer metrics from the recorded spans.

        ``self_s`` is span time minus the time of its direct child spans;
        ``p50_ms`` is the median inclusive span duration.  A function that
        was never called in the workload reports 0 for every statistic.
        """
        nid, parent, op, start, end = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        self_time = dur - child_time
        sizes = np.asarray(op_sizes, dtype=np.int64)
        span_size = sizes[op]

        out: dict[str, float] = {}
        for k, name in enumerate(self.names):
            mask = nid == k
            calls = int(mask.sum())
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = float(self_time[mask].sum())
            out[f"{name}.p50_ms"] = float(np.median(dur[mask]) * 1e3) if calls else 0.0
            if name in PER_SIZE_FUNCTIONS:
                for m in PER_SIZE_TIERS:
                    sel = mask & (span_size == m)
                    out[f"{name}.p50_ms.m{m}"] = (
                        float(np.median(dur[sel]) * 1e3) if sel.any() else 0.0
                    )

        solve = self.names.index("solver.solve_equilibrium")
        logit = self.names.index("solver.logit_response")
        rpg = self.names.index("bilevel.run_projected_gradient")
        solves = int((nid == solve).sum())
        # A solve calls logit_response directly once to start, once per
        # line-search trial, and twice to polish a converged result.
        parent_is_solve = has_parent & (nid[np.maximum(parent, 0)] == solve)
        direct_logit = int(((nid == logit) & parent_is_solve).sum())
        trials = direct_logit - solves - 2 * self.converged_solves
        out["solver.solve_equilibrium.gn_iters"] = self.gn_iters
        out["solver.solve_equilibrium.unconverged"] = self.unconverged_solves
        out["solver.logit_response.per_gn_iter"] = trials / self.gn_iters if self.gn_iters else 0.0
        out["game.check_assumption.per_solve"] = (
            out["game.check_assumption.calls"] / solves if solves else 0.0
        )
        out["min_norm.solve_min_norm_design.sweeps"] = self.sweeps
        out["min_norm.sweep_ms"] = (
            out["min_norm.solve_min_norm_design.self_s"] * 1e3 / self.sweeps if self.sweeps else 0.0
        )
        out["bilevel.run_projected_gradient.outer_iters"] = self.outer_iters
        out["bilevel.run_projected_gradient.budget_exhausted"] = self.budget_exhausted

        # Spans are numbered in call order, so a parent precedes its children.
        inside = [False] * len(nid)
        for i, (k, p) in enumerate(zip(nid.tolist(), parent.tolist())):
            inside[i] = k == rpg or (p >= 0 and inside[p])
        inner_solves = int(((nid == solve) & np.array(inside, dtype=bool)).sum())
        out["bilevel.inner_solves_per_outer"] = (
            inner_solves / self.outer_iters if self.outer_iters else 0.0
        )
        return out

    def save(self, path) -> None:
        """Write every span once, as arrays in one .npz file."""
        nid, parent, op, start, end = self._arrays()
        np.savez(path, names=np.array(self.names), name_id=nid, parent=parent, op=op,
                 start=start, end=end)
