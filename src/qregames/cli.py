"""Command-line interface.

Subcommands: solve, check, design-sdp, design-bilevel, simulate, experiment.
`experiment` takes a scenario (collision-sdp, collision-bilevel, fair) and
runs that scenario's sweep from `qregames.experiments`; its flags follow the
scenario name, and each scenario accepts only the flags it reads.  `--target`
and `--delta` apply to `design-bilevel --objective kl` only.  Exit codes: 0
success; 3 solver non-convergence (the artifact is still written, flagged
converged=false; `check` exits 3 when the certificate fails, `experiment`
when any row is unconverged or failed); otherwise the first row of `_EXITS`
that matches the error, which the README's exit-code table lists by error
kind.  Errors go to stderr with the prefix ``error:<kind>:``.  All numeric
output keeps full double precision, and identical invocations with the same
seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
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
    NonPositiveStrategy,
    QreGamesError,
    ZeroAreaTotal,
)
from .game import (ASSUMPTION_TOL, PlayerDims, PureTarget, _array, _read_json_object,
                   _real, check_assumption, load_game, pure_to_strategy)
from .min_norm import MinNormConfig, solve_min_norm_design
from .objectives import KL_SMOOTHING_DEFAULT, kl_objective, kl_to_pure, potential_delay_objective
from .solver import (SolverConfig, _response, simulate_gumbel_choice, solve_equilibrium,
                     stationarity_residual)
from .svgplot import line_chart, stacked_bars

# (error types, exit code, error kind) for `main`; the first row that matches wins.
# The kind is formatted with the error's class name.
_EXITS = (
    ((InvalidInput, DimensionMismatch, NonPositiveLambda, IndexOutOfRange, NonFiniteInput,
      InvalidGeometry, InfeasibleDetected,
      # an equilibrium that underflowed to zeros: the request cannot be met in double precision
      NonPositiveStrategy, ZeroAreaTotal), 2, "{}"),
    (InnerSolveFailure, 3, "{}"),
    (FileNotFoundError, 2, "FileNotFound"),
    (QreGamesError, 1, "{}"),
    (Exception, 1, "Internal: {}"),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # funnel argparse errors through our prefix
        raise InvalidInput(message)


def _load_game_with_overrides(args):
    game = load_game(args.game)
    lam = getattr(args, "lam", None)
    if lam is not None:
        _real(lam, "--lambda")
        game = type(game)(game.dims, lam, game.b, game.C)
    return game


def _write_text(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except FileNotFoundError:  # a missing directory is reported as such
        raise
    except OSError as exc:
        raise InvalidInput(f"cannot write {out}: {exc}") from exc


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


def _min_norm_config(args, epsilon: float) -> MinNormConfig:
    return MinNormConfig(epsilon=epsilon, dykstra_tol=args.dykstra_tol, max_sweeps=args.max_sweeps)


def _bilevel_config(args) -> BilevelConfig:
    return BilevelConfig(
        step_alpha=args.alpha, stop_eps=args.stop_eps, max_outer_iters=args.max_outer
    )


def _objective(args, game, target: PureTarget | None):
    """The KL objective toward target, smoothed by --delta, and the target's
    strategy; or, when target is None, the potential-delay objective and None."""
    if target is None:
        return potential_delay_objective(game.dims), None
    target_x = pure_to_strategy(target, game.dims)
    delta = KL_SMOOTHING_DEFAULT if args.delta is None else args.delta
    return kl_objective(target_x, game.dims, smoothing_delta=delta), target_x


def _write_result(args, payload: dict, ok: bool, **extra) -> int:
    """Write payload, then --seed and the extra columns, as JSON to --out; exit
    code 0 when ok (converged, or the certificate passed), else 3."""
    payload["seed"] = args.seed
    payload.update(extra)
    _write_json(payload, args.out)
    return 0 if ok else 3


# ---------------------------------------------------------------- solve ----


def _cmd_solve(args) -> int:
    game = _load_game_with_overrides(args)
    cfg = SolverConfig(residual_tol=args.residual_tol, max_iters=args.max_iters)
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
    }
    return _write_result(args, payload, outcome.converged)


def _cmd_check(args) -> int:
    game = _load_game_with_overrides(args)
    report = check_assumption(game, tol=args.tol)
    return _write_result(args, report.to_dict(), report.passed)


# --------------------------------------------------------------- design ----


def _cmd_design_sdp(args) -> int:
    game = _load_game_with_overrides(args)
    target = PureTarget(_parse_floats(args.target, "--target"))
    cfg = _min_norm_config(args, args.epsilon)
    result = solve_min_norm_design(game, target, cfg)
    target_x = pure_to_strategy(target, game.dims)
    return _write_result(args, result.to_dict(), result.converged,
                         kl_to_target=kl_to_pure(result.x, target_x))


def _cmd_design_bilevel(args) -> int:
    game = _load_game_with_overrides(args)
    if args.objective == "kl" and args.target is None:
        raise InvalidInput("--objective kl requires --target")
    if args.objective != "kl" and (args.target is not None or args.delta is not None):
        raise InvalidInput("--target and --delta apply to --objective kl only")
    target = None if args.target is None else PureTarget(_parse_floats(args.target, "--target"))
    obj, target_x = _objective(args, game, target)
    result = run_projected_gradient(game, obj, args.rho, _bilevel_config(args))
    extra = {} if target_x is None else {"kl_to_target": kl_to_pure(result.x, target_x)}
    return _write_result(args, result.to_dict(), result.converged, **extra)


# ------------------------------------------------------------- simulate ----


def _cmd_simulate(args) -> int:
    cost = _parse_floats(args.cost, "--cost")
    _real(args.lam, "--lambda")
    # simulate_gumbel_choice's cost rule, then the logit column: a column with
    # no value fails before any sample is drawn
    cost = _array(cost, None, "cost")
    logit = _response(cost, args.lam, PlayerDims([cost.size]))
    freq = simulate_gumbel_choice(cost, args.lam, args.samples, args.seed)
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


def _fair_adjacency(args):
    if args.adjacency_json is not None:
        return _read_json_object(args.adjacency_json, "adjacency JSON")
    return experiments.GRID4_ADJACENCY if args.adjacency == "grid4" else experiments.NO_ADJACENCY


def _cmd_experiment(args) -> int:
    if args.scenario == "collision-sdp":
        eps_grid = _parse_floats(args.eps_grid, "--eps-grid")
        cfg = _min_norm_config(args, MinNormConfig.epsilon)  # the sweep sets epsilon per row
        rows = experiments.sweep_sdp_epsilon(eps_grid, cfg, jobs=args.jobs)
    else:
        if args.scenario == "collision-bilevel":
            game, target = experiments.build_collision_game()
        else:
            game = experiments.build_fair_game(_fair_adjacency(args), args.homes.split(","))
            target = None
        obj, target_x = _objective(args, game, target)
        rho_grid = _parse_floats(args.rho_grid, "--rho-grid")
        rows = experiments.sweep_bilevel_rho(rho_grid, obj, game, _bilevel_config(args),
                                             target_x, jobs=args.jobs)
    for row in rows:
        row["seed"] = args.seed
    _write_text(experiments.rows_to_csv(rows), args.out)
    if args.plot:
        _write_text(_sweep_plot(args.scenario, rows), args.plot)
    return 0 if all(r.get("converged", False) for r in rows) else 3


def _sweep_plot(scenario: str, rows: list[dict]) -> str:
    good = [r for r in rows if "error" not in r]
    if scenario == "collision-sdp":
        return line_chart(
            [r["epsilon"] for r in good],
            [r["kl_to_target"] for r in good],
            "margin epsilon",
            "divergence from target",
            "Min-norm design trade-off",
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
        [r["psi_min"] for r in good],
        "norm budget rho",
        "best objective found",
        "Projected-gradient design trade-off",
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
                            "this absolute tolerance; it bounds every margin's violation")
        p.add_argument("--max-sweeps", type=int, default=MinNormConfig.max_sweeps,
                       help="cap on min-norm dual iterations")

    def kl_flags(p):
        p.add_argument("--delta", type=float, default=None,
                       help=f"target smoothing toward uniform (default: {KL_SMOOTHING_DEFAULT})")

    def bilevel_flags(p):
        p.add_argument("--alpha", type=float, default=BilevelConfig.step_alpha,
                       help="gradient step projected once per outer step; the line "
                            "search's first trial is this undamped step P(C - alpha*g), "
                            "and a large one can saturate the equilibrium and stop there")
        p.add_argument("--stop-eps", type=float, default=BilevelConfig.stop_eps)
        p.add_argument("--max-outer", type=int, default=BilevelConfig.max_outer_iters)

    def rho_grid(p):
        p.add_argument("--rho-grid", default=",".join(map(str, experiments.DEFAULT_RHO_GRID)))

    def sweep_flags(p):
        p.add_argument("--plot", default=None, help="also write an SVG chart here")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel sweep rows, capped by the rows and the usable CPUs")
        common(p)

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
    kl_flags(p)
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
    p.set_defaults(func=_cmd_experiment)
    scenarios = p.add_subparsers(dest="scenario", required=True)

    q = scenarios.add_parser("collision-sdp", help="min-norm design over a margin grid")
    q.add_argument("--eps-grid", default=",".join(map(str, experiments.DEFAULT_EPS_GRID)))
    min_norm_flags(q)
    sweep_flags(q)

    q = scenarios.add_parser("collision-bilevel", help="KL design over a norm-budget grid")
    rho_grid(q)
    kl_flags(q)
    bilevel_flags(q)
    sweep_flags(q)

    q = scenarios.add_parser("fair", help="potential-delay design over a norm-budget grid")
    rho_grid(q)
    bilevel_flags(q)
    q.add_argument("--adjacency", choices=["none", "grid4"], default="none",
                   help="fair scenario area map")
    q.add_argument("--adjacency-json", default=None,
                   help="path to a JSON {area: [neighbours...]} map (overrides --adjacency)")
    q.add_argument("--homes", default=",".join(experiments.FAIR_HOMES))
    sweep_flags(q)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except Exception as exc:
        code, kind = next((code, kind) for types, code, kind in _EXITS if isinstance(exc, types))
        print(f"error:{kind.format(type(exc).__name__)}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
