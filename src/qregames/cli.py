"""Command-line interface.

Subcommands: solve, check, design-sdp, design-bilevel, simulate, experiment.
Exit codes: 0 success; 2 malformed input or an unsatisfiable request; 3
solver non-convergence (the artifact is still written, flagged
converged=false); 1 internal error.  Errors go to stderr with the prefix
``error:<kind>:``.  All numeric output keeps full double precision, and
identical invocations with the same seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import experiments
from .bilevel import BilevelConfig, run_projected_gradient
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InfeasibleDetected,
    InnerSolveFailure,
    InvalidGeometry,
    InvalidInput,
    NonFiniteInput,
    NonPositiveLambda,
    QreGamesError,
)
from .game import ASSUMPTION_TOL, PureTarget, check_assumption, load_game, pure_to_strategy
from .min_norm import MinNormConfig, solve_min_norm_design
from .objectives import KL_SMOOTHING_DEFAULT, kl_objective, kl_to_pure, potential_delay_objective
from .results import DesignResult
from .solver import SolverConfig, simulate_gumbel_choice, solve_equilibrium, stationarity_residual
from .svgplot import line_chart, stacked_bars

_INPUT_ERRORS = (
    InvalidInput,
    DimensionMismatch,
    NonPositiveLambda,
    IndexOutOfRange,
    NonFiniteInput,
    InvalidGeometry,
    InfeasibleDetected,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # funnel argparse errors through our prefix
        raise InvalidInput(message)


def _load_game_with_overrides(args):
    game = load_game(args.game)
    lam = getattr(args, "lam", None)
    if lam is not None:
        _check_positive(lam, "--lambda")
        game = type(game)(game.dims, lam, game.b, game.C)
    return game


def _write_text(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _write_json(payload: dict, out: str | None) -> None:
    _write_text(json.dumps(payload, indent=1, allow_nan=False) + "\n", out)


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise InvalidInput(f"{flag} expects comma-separated numbers, got {text!r}") from exc
    if not values:
        raise InvalidInput(f"{flag} is empty")
    return values


def _checked(factory, *args, **kwargs):
    """Build a config or objective, reporting a rejected value as bad input."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise InvalidInput(str(exc)) from exc


def _check_positive(value: float, flag: str) -> None:
    if not 0 < value < np.inf:
        raise InvalidInput(f"{flag} must be finite and > 0, got {value!r}")


# ---------------------------------------------------------------- solve ----


def _cmd_solve(args) -> int:
    game = _load_game_with_overrides(args)
    cfg = _checked(SolverConfig, residual_tol=args.residual_tol, max_iters=args.max_iters)
    outcome = solve_equilibrium(game, cfg)
    payload = {
        "x": outcome.x.tolist(),
        "residual_sq": outcome.residual_sq,
        "iterations": outcome.iterations,
        "converged": outcome.converged,
        "certified": outcome.certified,
        # ln 0 is undefined: an entry that underflowed to exactly 0.0 (a
        # choice exponentially far from the best) has no stationarity figure.
        "stationarity_residual": (
            stationarity_residual(game, outcome.x) if np.all(outcome.x > 0) else None
        ),
        "seed": args.seed,
    }
    _write_json(payload, args.out)
    return 0 if outcome.converged else 3


def _cmd_check(args) -> int:
    game = _load_game_with_overrides(args)
    if not 0 <= args.tol < np.inf:
        raise InvalidInput("--tol must be finite and >= 0")
    report = check_assumption(game, tol=args.tol)
    payload = report.to_dict()
    payload["seed"] = args.seed
    _write_json(payload, args.out)
    return 0 if report.passed else 3


# --------------------------------------------------------------- design ----


def _design_payload(result: DesignResult, seed: int, extra: dict | None = None) -> dict:
    payload = result.to_dict()
    payload["seed"] = seed
    if extra:
        payload.update(extra)
    return payload


def _cmd_design_sdp(args) -> int:
    game = _load_game_with_overrides(args)
    target = PureTarget(_parse_floats(args.target, "--target"))
    cfg = _checked(
        MinNormConfig,
        epsilon=args.epsilon, dykstra_tol=args.dykstra_tol, max_sweeps=args.max_sweeps,
    )
    result = solve_min_norm_design(game, target, cfg)
    target_x = pure_to_strategy(target, game.dims)
    payload = _design_payload(result, args.seed, {"kl_to_target": kl_to_pure(result.x, target_x)})
    _write_json(payload, args.out)
    return 0 if result.converged else 3


def _cmd_design_bilevel(args) -> int:
    game = _load_game_with_overrides(args)
    if args.objective == "kl":
        if args.target is None:
            raise InvalidInput("--objective kl requires --target")
        target = PureTarget(_parse_floats(args.target, "--target"))
        target_x = pure_to_strategy(target, game.dims)
        obj = _checked(kl_objective, target_x, game.dims, smoothing_delta=args.delta)
    else:
        target_x = None
        obj = _checked(potential_delay_objective, game.dims)
    cfg = _checked(
        BilevelConfig,
        step_alpha=args.alpha, stop_eps=args.stop_eps, max_outer_iters=args.max_outer,
    )
    _check_positive(args.rho, "--rho")
    result = run_projected_gradient(game, obj, args.rho, cfg)
    extra = {}
    if target_x is not None:
        extra["kl_to_target"] = kl_to_pure(result.x, target_x)
    payload = _design_payload(result, args.seed, extra)
    _write_json(payload, args.out)
    return 0 if result.converged else 3


# ------------------------------------------------------------- simulate ----


def _cmd_simulate(args) -> int:
    cost = np.array(_parse_floats(args.cost, "--cost"))
    _check_positive(args.lam, "--lambda")
    if args.samples < 1:
        raise InvalidInput("--samples must be >= 1")
    freq = simulate_gumbel_choice(cost, args.lam, args.samples, args.seed)
    z = -cost / args.lam
    e = np.exp(z - z.max())
    logit = e / e.sum()
    payload = {
        "cost": cost.tolist(),
        "lambda": args.lam,
        "samples": args.samples,
        "seed": args.seed,
        "frequencies": freq.tolist(),
        "logit_response": logit.tolist(),
        "tv_distance": float(0.5 * np.abs(freq - logit).sum()),
    }
    _write_json(payload, args.out)
    return 0


# ----------------------------------------------------------- experiment ----


def _run_rows(worker, values: list, jobs: int) -> list[dict]:
    # Under fork the pool starts all its processes at the first submit, so
    # never ask for more than there are rows or cores.
    workers = min(jobs, len(values), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(v) for v in values]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, values))


def _fair_adjacency(args):
    if args.adjacency_json is not None:
        try:
            data = json.loads(Path(args.adjacency_json).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidInput(f"cannot read adjacency JSON: {exc}") from exc
        if not isinstance(data, dict) or not all(isinstance(v, list) for v in data.values()):
            raise InvalidInput("adjacency JSON must map area names to lists of area names")
        return {str(k): tuple(v) for k, v in data.items()}
    return experiments.GRID4_ADJACENCY if args.adjacency == "grid4" else experiments.NO_ADJACENCY


def _cmd_experiment(args) -> int:
    if args.scenario == "collision-sdp":
        configs = [
            _checked(MinNormConfig, epsilon=eps, dykstra_tol=args.dykstra_tol,
                     max_sweeps=args.max_sweeps)
            for eps in _parse_floats(args.eps_grid, "--eps-grid")
        ]
        rows = _run_rows(experiments.sdp_row, configs, args.jobs)
        key = "epsilon"
    else:
        if args.scenario == "collision-bilevel":
            game, target = experiments.build_collision_game()
            target_x = pure_to_strategy(target, game.dims)
            obj = _checked(kl_objective, target_x, game.dims, smoothing_delta=args.delta)
        else:
            game = experiments.build_fair_game(_fair_adjacency(args), args.homes.split(","))
            target_x = None
            obj = potential_delay_objective(game.dims)
        rho_grid = _parse_floats(args.rho_grid, "--rho-grid")
        for rho in rho_grid:
            _check_positive(rho, "--rho-grid")
        cfg = _checked(BilevelConfig, step_alpha=args.alpha, stop_eps=args.stop_eps,
                       max_outer_iters=args.max_outer)
        design_row = functools.partial(experiments.bilevel_row, obj=obj, g=game, cfg=cfg,
                                       target=target_x)
        rows = _run_rows(design_row, rho_grid, args.jobs)
        key = "rho"
    rows.sort(key=lambda r: r[key])
    for row in rows:
        row["seed"] = args.seed
    _write_text(experiments.rows_to_csv(rows), args.out)
    if args.plot:
        Path(args.plot).write_text(_sweep_plot(args.scenario, rows))
    return 3 if any("error" in r for r in rows) else 0


def _sweep_plot(scenario: str, rows: list[dict]) -> str:
    good = [r for r in rows if "error" not in r]
    if scenario == "collision-sdp":
        return line_chart(
            [r["epsilon"] for r in good],
            [max(r["kl_to_target"], 1e-16) for r in good],
            "margin epsilon",
            "divergence from target",
            "Min-norm design trade-off",
            log_y=True,
        )
    if scenario == "fair":
        return stacked_bars(
            [repr(r["rho"]) for r in good],
            [[r[f"total_{name}"] for r in good] for name in experiments.AREA_NAMES],
            list(experiments.AREA_NAMES),
            "Service per area as the norm budget grows",
        )
    return line_chart(
        [r["rho"] for r in good],
        [max(r["psi_min"], 1e-16) for r in good],
        "norm budget rho",
        "best objective found",
        "Projected-gradient design trade-off",
        log_y=True,
    )


# ------------------------------------------------------------- parser ------


def _build_parser() -> _Parser:
    parser = _Parser(prog="qregames", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--seed", type=int, default=0, help="RNG seed, echoed into outputs")

    def game_input(p):
        p.add_argument("--game", required=True, help="path to a game JSON file")
        p.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="override the game's noise temperature")

    def min_norm_flags(p):
        p.add_argument("--dykstra-tol", type=float, default=MinNormConfig.dykstra_tol,
                       help="stop when the min-norm dual's projected gradient is at most "
                            "this; it bounds every margin's violation")
        p.add_argument("--max-sweeps", type=int, default=MinNormConfig.max_sweeps,
                       help="cap on min-norm dual iterations")

    def bilevel_flags(p):
        p.add_argument("--delta", type=float, default=KL_SMOOTHING_DEFAULT,
                       help="target smoothing toward uniform")
        p.add_argument("--alpha", type=float, default=BilevelConfig.step_alpha,
                       help="first trial step of the line search")
        p.add_argument("--stop-eps", type=float, default=BilevelConfig.stop_eps)
        p.add_argument("--max-outer", type=int, default=BilevelConfig.max_outer_iters)

    p = sub.add_parser("solve", help="compute the equilibrium of a game JSON")
    game_input(p)
    p.add_argument("--residual-tol", type=float, default=SolverConfig.residual_tol)
    p.add_argument("--max-iters", type=int, default=SolverConfig.max_iters)
    common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check", help="report the uniqueness certificate")
    game_input(p)
    p.add_argument("--tol", type=float, default=ASSUMPTION_TOL)
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("design-sdp", help="min-norm cost design for a pure target")
    game_input(p)
    p.add_argument("--target", required=True, help="comma-separated 1-based action per player")
    p.add_argument("--epsilon", type=float, default=MinNormConfig.epsilon)
    min_norm_flags(p)
    common(p)
    p.set_defaults(func=_cmd_design_sdp)

    p = sub.add_parser("design-bilevel", help="projected-gradient cost design")
    game_input(p)
    p.add_argument("--objective", choices=["kl", "potential-delay"], required=True)
    p.add_argument("--target", default=None, help="needed for --objective kl")
    p.add_argument("--rho", type=float, required=True, help="Frobenius norm budget")
    bilevel_flags(p)
    common(p)
    p.set_defaults(func=_cmd_design_bilevel)

    p = sub.add_parser("simulate", help="Monte Carlo check of the logit response")
    p.add_argument("--cost", required=True, help="comma-separated action costs")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--samples", type=int, default=1_000_000)
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("experiment", help="run a benchmark sweep, emit CSV")
    p.add_argument("scenario", choices=["collision-sdp", "collision-bilevel", "fair"])
    p.add_argument("--eps-grid", default=",".join(map(str, experiments.DEFAULT_EPS_GRID)))
    p.add_argument("--rho-grid", default=",".join(map(str, experiments.DEFAULT_RHO_GRID)))
    min_norm_flags(p)
    bilevel_flags(p)
    p.add_argument("--adjacency", choices=["none", "grid4"], default="none",
                   help="fair scenario area map")
    p.add_argument("--adjacency-json", default=None,
                   help="path to a JSON {area: [neighbours...]} map (overrides --adjacency)")
    p.add_argument("--homes", default=",".join(experiments.FAIR_HOMES))
    p.add_argument("--plot", default=None, help="also write an SVG chart here")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel sweep rows, capped by the row and core counts")
    common(p)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error:{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except InnerSolveFailure as exc:
        print(f"error:InnerSolveFailure: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"error:FileNotFound: {exc}", file=sys.stderr)
        return 2
    except QreGamesError as exc:
        print(f"error:{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - kept for CLI robustness
        print(f"error:Internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
