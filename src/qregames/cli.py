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
import json
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
from .game import PureTarget, check_assumption, game_from_dict, game_to_dict, load_game, pure_to_strategy
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


def _parse_ints(text: str, flag: str) -> list[int]:
    values = _parse_floats(text, flag)
    if not all(v.is_integer() for v in values):
        raise InvalidInput(f"{flag} expects comma-separated integers, got {text!r}")
    return [int(v) for v in values]


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
    target = PureTarget(_parse_ints(args.target, "--target"))
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
        target = PureTarget(_parse_ints(args.target, "--target"))
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


def _sdp_row(task: tuple) -> dict:
    eps, dykstra_tol, max_sweeps = task
    rows = experiments.sweep_sdp_epsilon(
        [eps], MinNormConfig(dykstra_tol=dykstra_tol, max_sweeps=max_sweeps)
    )
    return rows[0]


def _bilevel_row(task: tuple) -> dict:
    rho, game_dict, obj_name, target_chosen, delta, alpha, stop_eps, max_outer = task
    game = game_from_dict(game_dict)
    target_x = None
    if obj_name == "kl":
        target_x = pure_to_strategy(PureTarget(target_chosen), game.dims)
        obj = kl_objective(target_x, game.dims, smoothing_delta=delta)
    else:
        obj = potential_delay_objective(game.dims)
    cfg = BilevelConfig(step_alpha=alpha, stop_eps=stop_eps, max_outer_iters=max_outer)
    rows = experiments.sweep_bilevel_rho([rho], obj, game, cfg, target=target_x)
    return rows[0]


def _run_rows(tasks: list[tuple], worker, jobs: int) -> list[dict]:
    if jobs <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks))


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
        eps_grid = _parse_floats(args.eps_grid, "--eps-grid")
        for eps in eps_grid:
            _checked(MinNormConfig, epsilon=eps, dykstra_tol=args.dykstra_tol,
                     max_sweeps=args.max_sweeps)
        tasks = [(eps, args.dykstra_tol, args.max_sweeps) for eps in eps_grid]
        rows = _run_rows(tasks, _sdp_row, args.jobs)
        rows.sort(key=lambda r: r["epsilon"])
        plot = None
        if args.plot:
            good = [r for r in rows if "error" not in r]
            plot = line_chart(
                [r["epsilon"] for r in good],
                [max(r["kl_to_target"], 1e-16) for r in good],
                "margin epsilon",
                "divergence from target",
                "Min-norm design trade-off",
                log_y=True,
            )
    else:
        if args.scenario == "collision-bilevel":
            game, target = experiments.build_collision_game()
            obj_name, chosen = "kl", target.chosen
            _checked(kl_objective, pure_to_strategy(target, game.dims), game.dims,
                     smoothing_delta=args.delta)
        else:
            game = experiments.build_fair_game(_fair_adjacency(args), args.homes.split(","))
            obj_name, chosen = "potential-delay", None
        rho_grid = _parse_floats(args.rho_grid, "--rho-grid")
        for rho in rho_grid:
            _check_positive(rho, "--rho-grid")
        _checked(BilevelConfig, step_alpha=args.alpha, stop_eps=args.stop_eps,
                 max_outer_iters=args.max_outer)
        tasks = [
            (rho, game_to_dict(game), obj_name, chosen, args.delta, args.alpha,
             args.stop_eps, args.max_outer)
            for rho in rho_grid
        ]
        rows = _run_rows(tasks, _bilevel_row, args.jobs)
        rows.sort(key=lambda r: r["rho"])
        plot = None
        if args.plot:
            good = [r for r in rows if "error" not in r]
            if args.scenario == "fair":
                area_series = [
                    [r[f"total_{name}"] for r in good] for name in experiments.AREA_NAMES
                ]
                plot = stacked_bars(
                    [repr(r["rho"]) for r in good],
                    area_series,
                    list(experiments.AREA_NAMES),
                    "Service per area as the norm budget grows",
                )
            else:
                plot = line_chart(
                    [r["rho"] for r in good],
                    [max(r["psi_min"], 1e-16) for r in good],
                    "norm budget rho",
                    "best objective found",
                    "Projected-gradient design trade-off",
                    log_y=True,
                )
    for row in rows:
        row["seed"] = args.seed
    _write_text(experiments.rows_to_csv(rows), args.out)
    if args.plot and plot is not None:
        Path(args.plot).write_text(plot)
    return 3 if any("error" in r for r in rows) else 0


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

    p = sub.add_parser("solve", help="compute the equilibrium of a game JSON")
    game_input(p)
    p.add_argument("--residual-tol", type=float, default=1e-10)
    p.add_argument("--max-iters", type=int, default=200)
    common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check", help="report the uniqueness certificate")
    game_input(p)
    p.add_argument("--tol", type=float, default=1e-9)
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("design-sdp", help="min-norm cost design for a pure target")
    game_input(p)
    p.add_argument("--target", required=True, help="comma-separated 1-based action per player")
    p.add_argument("--epsilon", type=float, default=3.0)
    p.add_argument("--dykstra-tol", type=float, default=1e-8,
                   help="stop when the min-norm dual's projected gradient is at most "
                        "this; it bounds every margin's violation")
    p.add_argument("--max-sweeps", type=int, default=50_000,
                   help="cap on min-norm dual iterations")
    common(p)
    p.set_defaults(func=_cmd_design_sdp)

    p = sub.add_parser("design-bilevel", help="projected-gradient cost design")
    game_input(p)
    p.add_argument("--objective", choices=["kl", "potential-delay"], required=True)
    p.add_argument("--target", default=None, help="needed for --objective kl")
    p.add_argument("--delta", type=float, default=KL_SMOOTHING_DEFAULT,
                   help="target smoothing toward uniform")
    p.add_argument("--rho", type=float, required=True, help="Frobenius norm budget")
    p.add_argument("--alpha", type=float, default=0.1,
                   help="first trial step of the line search")
    p.add_argument("--stop-eps", type=float, default=1e-6)
    p.add_argument("--max-outer", type=int, default=5000)
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
    p.add_argument("--dykstra-tol", type=float, default=1e-8,
                   help="stop when the min-norm dual's projected gradient is at most "
                        "this; it bounds every margin's violation")
    p.add_argument("--max-sweeps", type=int, default=50_000,
                   help="cap on min-norm dual iterations")
    p.add_argument("--delta", type=float, default=KL_SMOOTHING_DEFAULT)
    p.add_argument("--alpha", type=float, default=0.1,
                   help="first trial step of the line search")
    p.add_argument("--stop-eps", type=float, default=1e-6)
    p.add_argument("--max-outer", type=int, default=5000)
    p.add_argument("--adjacency", choices=["none", "grid4"], default="none",
                   help="fair scenario area map")
    p.add_argument("--adjacency-json", default=None,
                   help="path to a JSON {area: [neighbours...]} map (overrides --adjacency)")
    p.add_argument("--homes", default=",".join(experiments.FAIR_HOMES))
    p.add_argument("--plot", default=None, help="also write an SVG chart here")
    p.add_argument("--jobs", type=int, default=1, help="parallel sweep rows")
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
    except InfeasibleDetected as exc:
        print(f"error:InfeasibleDetected: {exc}", file=sys.stderr)
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
