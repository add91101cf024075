"""The two benchmark scenarios, their design rows and the sweeps over them.

Collision avoidance: four rovers each pick one of three paths (a beeline of
length 2 or one of two semicircles of length pi); with no coupling all four
take the beeline and collide, and the design goal is to move the unique
equilibrium onto the counterclockwise semicircle for everyone.

Fair allocation: three delivery companies spread service over nine city
areas; operating cost is 1.0 in the home area, 1.5 in areas adjacent to
home, 1.8 elsewhere, and the design goal is equal aggregate service.

`sdp_row` and `bilevel_row` turn one design into one CSV row, or into an
`error` row when the design fails.  The sweeps check every grid value, then
run one row per value, in worker processes when `jobs` allows, and sort the
rows by that value; the CLI's `experiment` command runs these sweeps.
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import math
import os
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import replace
from functools import partial

import numpy as np

from .bilevel import BilevelConfig, run_projected_gradient
from .errors import InvalidGeometry, InvalidInput, QreGamesError
from .game import Game, PlayerDims, PureTarget, _real, _whole, pure_to_strategy
from .min_norm import MinNormConfig, solve_min_norm_design
from .objectives import PerformanceObjective, _area_totals, kl_to_pure

COLLISION_LAMBDA = 0.1
COLLISION_PATH_COSTS = (2.0, math.pi, math.pi)
COLLISION_TARGET_ACTION = 3  # the counterclockwise semicircle

FAIR_LAMBDA = 0.1
AREA_NAMES = ("NW", "N", "NE", "W", "C", "E", "SW", "S", "SE")
FAIR_HOMES = ("SW", "SE", "E")
HOME_COST = 1.0
ADJACENT_COST = 1.5
FAR_COST = 1.8

# Areas arranged as a 3x3 grid, adjacency = sharing an edge.  Under this map
# each home leaks enough probability to its 1.5-cost neighbours that the
# small-rho regime no longer concentrates 99% of service at home, so the
# default scenario uses the no-adjacency map below; pass this one explicitly
# to study the graded cost structure.
GRID4_ADJACENCY: dict[str, tuple[str, ...]] = {
    "NW": ("N", "W"),
    "N": ("NW", "NE", "C"),
    "NE": ("N", "E"),
    "W": ("NW", "C", "SW"),
    "C": ("N", "W", "E", "S"),
    "E": ("NE", "C", "SE"),
    "SW": ("W", "S"),
    "S": ("SW", "C", "SE"),
    "SE": ("S", "E"),
}

# Every non-home area at the far cost level.
NO_ADJACENCY: dict[str, tuple[str, ...]] = {name: () for name in AREA_NAMES}

DEFAULT_EPS_GRID = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)
DEFAULT_RHO_GRID = (0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 7.0, 10.0)


def build_collision_game() -> tuple[Game, PureTarget]:
    """Four rovers, three paths each, no coupling, and the semicircle target."""
    dims = PlayerDims([3, 3, 3, 3])
    b = np.tile(COLLISION_PATH_COSTS, dims.n)
    game = Game(dims, COLLISION_LAMBDA, b, np.zeros((dims.total, dims.total)))
    target = PureTarget([COLLISION_TARGET_ACTION] * dims.n)
    return game, target


def build_fair_game(
    adjacency: Mapping[str, Sequence[str]] | None = None,
    homes: Sequence[str] = FAIR_HOMES,
) -> Game:
    """Three companies over the nine areas, costs from the adjacency map.

    Each company pays 1.0 in its home area, 1.5 in areas adjacent to home
    per the given map, and 1.8 everywhere else.  The default map has no
    adjacencies.  The map is a mapping, and `homes` and each neighbour list
    a list or tuple of names, else InvalidInput; a name that is not an area,
    or homes that are not 3 distinct areas, raise InvalidGeometry.
    """
    adjacency = NO_ADJACENCY if adjacency is None else adjacency
    if not (isinstance(adjacency, Mapping)
            and all(isinstance(v, (list, tuple)) for v in adjacency.values())):
        raise InvalidInput(f"adjacency maps area names to lists of names, got {adjacency!r}")
    if not isinstance(homes, (list, tuple)):
        raise InvalidInput(f"homes is a list of area names, got {homes!r}")
    unknown = [h for h in homes if h not in AREA_NAMES]
    if unknown:
        raise InvalidGeometry(f"unknown home areas {unknown!r}")
    if len(homes) != 3 or len(set(homes)) != 3:
        raise InvalidGeometry(f"need 3 distinct home areas, got {homes!r}")
    for area, neighbours in adjacency.items():
        if area not in AREA_NAMES or any(nb not in AREA_NAMES for nb in neighbours):
            raise InvalidGeometry(f"adjacency references unknown areas: {area!r} -> {neighbours!r}")
    blocks = []
    for home in homes:
        neighbours = set(adjacency.get(home, ()))
        blocks.append(
            [
                HOME_COST if a == home else (ADJACENT_COST if a in neighbours else FAR_COST)
                for a in AREA_NAMES
            ]
        )
    dims = PlayerDims([len(AREA_NAMES)] * 3)
    return Game(dims, FAIR_LAMBDA, np.concatenate(blocks), np.zeros((27, 27)))


def area_totals(x: np.ndarray, dims: PlayerDims) -> np.ndarray:
    """Aggregate service per area (players must share the action set), by the
    potential-delay objective's rule: x must fit dims and every total be > 0."""
    return _area_totals(dims.n, dims.sizes[0], x)


def sdp_row(cfg: MinNormConfig) -> dict:
    """Min-norm design of the collision game at one margin, as a CSV row.

    Columns: epsilon, c_norm, kl_smoothed (divergence of the equilibrium from
    the smoothed target), kl_to_target (divergence of the pure target from
    the equilibrium, the finite trade-off quantity), max_violation, sweeps,
    converged.  A failed design gives epsilon and an `error` column instead.
    """
    game, target = build_collision_game()
    row: dict = {"epsilon": float(cfg.epsilon)}
    try:
        result = solve_min_norm_design(game, target, cfg)
    except QreGamesError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row
    row.update(
        c_norm=result.c_norm,
        kl_smoothed=result.objective_value,
        kl_to_target=kl_to_pure(result.x, pure_to_strategy(target, game.dims)),
        max_violation=result.max_violation,
        sweeps=result.outer_iterations,
        converged=result.converged,
    )
    return row


def bilevel_row(rho: float, obj: PerformanceObjective, g: Game, cfg: BilevelConfig | None,
                target: np.ndarray | None) -> dict:
    """Projected-gradient design of g at one feasible-set radius, as a CSV row.

    Columns: rho, psi_value (objective at the returned equilibrium), psi_min
    (lowest objective over the run), c_norm, outer_iters, converged,
    kl_to_target (when a target strategy is supplied), and the per-area
    aggregate service totals for the fairness objective.  The line search
    never lets the objective rise, so the returned iterate is the best and
    psi_min is psi_value; the column is kept so the CSV layout stays the
    same.  A radius that is not finite and > 0 raises InvalidInput; a
    failed design gives rho and an `error` column.
    """
    rho = _real(rho, "rho")
    row: dict = {"rho": rho}
    try:
        result = run_projected_gradient(g, obj, rho, cfg)
    except QreGamesError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row
    row.update(
        psi_value=result.objective_value,
        psi_min=result.objective_value,
        c_norm=result.c_norm,
        outer_iters=result.outer_iterations,
        converged=result.converged,
    )
    if target is not None:
        row["kl_to_target"] = kl_to_pure(result.x, target)
    if obj.name == "potential_delay" and g.dims.sizes[0] == len(AREA_NAMES):
        for name, total in zip(AREA_NAMES, area_totals(result.x, g.dims)):
            row[f"total_{name}"] = float(total)
    return row


def _sweep(row, values: list, jobs: int, key: str) -> list[dict]:
    """row(v) for each value, in up to `jobs` worker processes, sorted by `key`."""
    jobs = _whole(jobs, "jobs", 1)
    # Under fork the pool starts all its processes at the first submit, so
    # never ask for more than there are rows or CPUs this process may use.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(jobs, len(values), cpus or 1)
    if workers <= 1:
        rows = [row(v) for v in values]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(row, values))
    rows.sort(key=lambda r: r[key])
    return rows


def sweep_sdp_epsilon(
    eps_values: Iterable[float] = DEFAULT_EPS_GRID,
    cfg: MinNormConfig | None = None,
    jobs: int = 1,
) -> list[dict]:
    """`sdp_row` per margin value, with the other fields from cfg, by epsilon.

    `jobs` > 1 runs the rows in worker processes, at most one per row and
    one per CPU this process may use; the rows are the same as in-process.
    """
    base = cfg or MinNormConfig()
    # every margin is checked, by its config, before any row runs
    configs = [replace(base, epsilon=eps) for eps in eps_values]
    return _sweep(sdp_row, configs, jobs, "epsilon")


def sweep_bilevel_rho(
    rho_values: Iterable[float],
    obj: PerformanceObjective,
    g: Game,
    cfg: BilevelConfig | None = None,
    target: np.ndarray | None = None,
    jobs: int = 1,
) -> list[dict]:
    """`bilevel_row` per feasible-set radius, by rho; `jobs` as in `sweep_sdp_epsilon`.

    With `jobs` > 1, obj, g, cfg and target are pickled into the workers;
    the built-in objectives pickle.  Every radius is checked before any row runs.
    """
    row = partial(bilevel_row, obj=obj, g=g, cfg=cfg, target=target)
    return _sweep(row, [_real(rho, "rho") for rho in rho_values], jobs, "rho")


def rows_to_csv(rows: Sequence[dict]) -> str:
    """Render sweep rows as CSV with stable column order and full precision.

    Columns appear in first-seen order, a row's missing cells are empty and
    bools are written lower-case.  Floats are written with repr, so re-reading
    reproduces them bit-exactly.
    """
    if not rows:
        return ""
    columns = list(dict.fromkeys(key for row in rows for key in row))
    out = io.StringIO()
    writer = csv.DictWriter(out, columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows({k: str(v).lower() if isinstance(v, bool) else v for k, v in row.items()}
                     for row in rows)
    return out.getvalue()
