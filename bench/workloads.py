"""The benchmark's three workloads: their seeded inputs, ops and output checks.

Every op calls the public API through the ``qregames`` package namespace at
call time, so the traced run times it through the tracer's wrappers.  The
output checks use the functions bound below when this module is imported,
before any wrapper exists, so they are never traced and never trust a
solver's own flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import qregames as qr
from qregames import experiments
from qregames.bilevel import BilevelConfig
from qregames.game import Game, PlayerDims, PureTarget, check_assumption, pure_to_strategy
from qregames.min_norm import MinNormConfig, build_margin_constraints, max_margin_violation
from qregames.objectives import kl_objective, potential_delay_objective
from qregames.projections import in_feasible_set
from qregames.solver import SolverConfig, logit_response

MARGIN_VIOLATION_TOL = 1e-6


@dataclass
class Op:
    """One benchmark operation: ``run(wrap)`` does the timed work and
    ``check(output)`` returns the problems found in its output.

    ``wrap`` maps each objective the op uses to the one it should call (the
    traced run wraps the objective's callables).  ``counts`` reads the
    figures that traced and untraced runs must agree on from the output.
    A ``traced_only`` op runs in the traced run only: it takes too long to
    repeat within a timed run.
    """

    label: str
    size: int
    run: Callable
    check: Callable
    counts: Callable
    unconverged: Callable
    traced_only: bool = False


# ------------------------------------------------------------ output checks


def fixed_point_problems(g: Game, x: np.ndarray, tol: float) -> list[str]:
    """x must be a strategy whose logit response is x, to the solve tolerance."""
    x = np.asarray(x, dtype=float)
    if x.shape != (g.dims.total,) or not np.all(np.isfinite(x)):
        return ["x is not a finite vector of the game's length"]
    r = x - logit_response(g, x)
    rsq = float(r @ r)
    if not rsq <= tol:
        return [f"x is not a fixed point: residual_sq {rsq:.3e} > {tol:.1e}"]
    return []


def certificate_problems(g: Game) -> list[str]:
    if not np.all(np.isfinite(g.C)):
        return ["C is not finite"]
    report = check_assumption(g)
    if not report.passed:
        return [f"C fails the certificate: min_eig_sym {report.min_eig_sym:.3e}, "
                f"block asymmetry {report.diag_block_asymmetry:.3e}"]
    return []


def min_norm_problems(g: Game, target: PureTarget, epsilon: float, result) -> list[str]:
    designed = g.with_matrix(result.C)
    problems = certificate_problems(designed)
    problems += fixed_point_problems(designed, result.x, SolverConfig().residual_tol)
    violation = max_margin_violation(result.C, build_margin_constraints(g, target, epsilon))
    if not violation <= MARGIN_VIOLATION_TOL:
        problems.append(f"margin violation {violation:.3e} > {MARGIN_VIOLATION_TOL:.0e}")
    return problems


def projected_gradient_problems(g: Game, rho: float, cfg: BilevelConfig, result) -> list[str]:
    designed = g.with_matrix(result.C)
    problems = certificate_problems(designed)
    if not problems and not in_feasible_set(result.C, g.dims, rho):
        problems.append(f"C is outside the feasible set at rho={rho}")
    problems += fixed_point_problems(designed, result.x, cfg.inner.residual_tol)
    return problems


def solve_problems(g: Game, output) -> list[str]:
    cold, warm, report, grad = output
    tol = SolverConfig().residual_tol
    problems = certificate_problems(g)
    if not report.passed:
        problems.append("check_assumption reported a failing certificate")
    problems += fixed_point_problems(g, cold.x, tol)
    problems += ["re-solve: " + p for p in fixed_point_problems(g, warm.x, tol)]
    m = g.dims.total
    if np.shape(grad) != (m, m) or not np.all(np.isfinite(grad)):
        problems.append(f"implicit gradient is not a finite {m}x{m} matrix")
    return problems


# ------------------------------------------------------------- paper-sweeps


def _min_norm_op(g: Game, target: PureTarget, eps: float, label: str) -> Op:
    cfg = MinNormConfig(epsilon=eps)
    return Op(
        label=label,
        size=g.dims.total,
        run=lambda wrap: qr.solve_min_norm_design(g, target, cfg),
        check=lambda out: min_norm_problems(g, target, eps, out),
        counts=lambda out: ("sweeps", out.outer_iterations),
        unconverged=lambda out: not out.converged,
    )


def _projected_gradient_op(g: Game, obj, rho: float, label: str) -> Op:
    cfg = BilevelConfig()
    return Op(
        label=label,
        size=g.dims.total,
        run=lambda wrap: qr.run_projected_gradient(g, wrap(obj), rho, cfg),
        check=lambda out: projected_gradient_problems(g, rho, cfg, out),
        counts=lambda out: ("outer_iters", out.outer_iterations),
        unconverged=lambda out: not out.converged,
        traced_only=label in LONG_ROWS,
    )


# The rows that take more than 1000 outer steps at this commit: collision
# rho=4, 7 and 10 converge after 1215 (~1 s each), and collision rho=2 and
# fair rho=1, 2, 4 and 7 stop at the 5000-step budget unconverged (~10 s
# each, ROADMAP item 2).  A time that long averages the host's other load
# over it: at their fastest of nine passes the sum moved by a sixth from run
# to run.  The 18 other rows take under 0.1 s each and repeat ~60 times in a
# run, so the timed run holds those and these eight run traced only.
LONG_ROWS = frozenset({
    "collision-bilevel rho=2.0", "collision-bilevel rho=4.0", "collision-bilevel rho=7.0",
    "collision-bilevel rho=10.0", "fair rho=1.0", "fair rho=2.0", "fair rho=4.0", "fair rho=7.0",
})


def build_paper_sweeps(seed: int, smoke: bool = False) -> list[Op]:
    """The 26 design rows behind the CLI's three sweeps, at their default
    grids and configs; the ``LONG_ROWS`` are ``traced_only``.  The
    paper's inputs are fixed: the seed changes nothing.  ``smoke`` keeps one
    cheap row of each sweep."""
    eps_grid = experiments.DEFAULT_EPS_GRID
    rho_grid = experiments.DEFAULT_RHO_GRID
    if smoke:
        eps_grid, rho_grid = eps_grid[:1], rho_grid[:1]
    collision, target = experiments.build_collision_game()
    target_x = pure_to_strategy(target, collision.dims)
    kl = kl_objective(target_x, collision.dims)
    fair = experiments.build_fair_game()
    delay = potential_delay_objective(fair.dims)
    ops = [_min_norm_op(collision, target, eps, f"collision-sdp eps={eps}") for eps in eps_grid]
    ops += [_projected_gradient_op(collision, kl, rho, f"collision-bilevel rho={rho}")
            for rho in rho_grid]
    ops += [_projected_gradient_op(fair, delay, rho, f"fair rho={rho}") for rho in rho_grid]
    return ops


# -------------------------------------------------------------- solve-scale

# Player layouts per total size m, and ops per size in one pass.  The counts
# give the Python-overhead sizes (m=12, 27) about a third of a timed pass.
# An m=300 op takes 70-170 ms, long enough that its fastest time over a run
# still follows the host's other load (the same seed's pass moved by 14% over
# five runs), so m=300 runs traced only.  Lambda and coupling keep
# coupling/lambda <= 30: above ~40 Gauss-Newton stalls on about 1% of
# certified games (see bench/DESIGN.md), and the benchmark measures speed on
# inputs that every op solves.
SOLVE_SIZES = {12: ([3] * 4, 64), 27: ([9] * 3, 32), 99: ([11] * 9, 32), 300: ([15] * 20, 8)}
SOLVE_TRACED_ONLY_SIZE = 300
SOLVE_LAMBDA = (0.1, 0.5)
SOLVE_COUPLING = (1.0, 3.0)


def random_certified_game(rng: np.random.Generator, sizes, lam: float, coupling: float) -> Game:
    """Random game satisfying the uniqueness certificate by construction:
    C = A^T A (PSD symmetric) plus a skew part with zeroed diagonal blocks."""
    dims = PlayerDims(sizes)
    m = dims.total
    A = rng.normal(size=(m, m)) / np.sqrt(m)
    sym = A.T @ A
    skew = rng.normal(size=(m, m)) / np.sqrt(m)
    skew = 0.5 * (skew - skew.T)
    for i in range(dims.n):
        blk = dims.block(i)
        skew[blk, blk] = 0.0
    b = rng.normal(size=m)
    return Game(dims, lam, b, coupling * (sym + skew))


def random_interior_strategy(rng: np.random.Generator, dims: PlayerDims) -> np.ndarray:
    x = rng.random(dims.total) + 0.05
    for i in range(dims.n):
        blk = dims.block(i)
        x[blk] /= x[blk].sum()
    return x


def random_pure_target(rng: np.random.Generator, dims: PlayerDims) -> PureTarget:
    return PureTarget([int(rng.integers(1, s + 1)) for s in dims.sizes])


def _log_level(lo: float, hi: float, level: int, levels: int) -> float:
    """Midpoint of one of `levels` equal log-width slices of [lo, hi]."""
    return float(lo * (hi / lo) ** ((level + 0.5) / levels))


def _solve_op(g: Game, x0: np.ndarray, obj) -> Op:
    def run(wrap):
        o = wrap(obj)
        cold = qr.solve_equilibrium(g)
        warm = qr.solve_equilibrium(g, x0=x0)
        report = qr.check_assumption(g)
        grad = qr.implicit_gradient(g, cold.x, o.gradient(cold.x))
        return cold, warm, report, grad

    return Op(
        label=f"solve m={g.dims.total} lam={g.lam:.3f}",
        size=g.dims.total,
        run=run,
        check=lambda out: solve_problems(g, out),
        counts=lambda out: ("gn_iters", out[0].iterations, out[1].iterations),
        unconverged=lambda out: not (out[0].converged and out[1].converged),
        traced_only=g.dims.total >= SOLVE_TRACED_ONLY_SIZE,
    )


def build_solve_scale(seed: int, smoke: bool = False) -> list[Op]:
    """Random certified games on a 4x4 log grid of lambda and coupling.

    Game k of a size takes lambda level k % 4 and coupling level
    (k + k // 4) % 4, so every 16 games cover the grid and 8 cover each
    level twice.  The levels are fixed and only the matrices, b, start and
    target come from the seed: Gauss-Newton's iteration count follows lambda
    and coupling, and drawing them too moved a pass's work from seed to seed.
    ``smoke`` keeps two m=12 games."""
    rng = np.random.default_rng(seed)
    ops = []
    for m, (sizes, count) in SOLVE_SIZES.items():
        if smoke:
            if m != 12:
                continue
            count = 2
        for k in range(count):
            lam = _log_level(*SOLVE_LAMBDA, k % 4, 4)
            coupling = _log_level(*SOLVE_COUPLING, (k + k // 4) % 4, 4)
            g = random_certified_game(rng, sizes, lam, coupling)
            x0 = random_interior_strategy(rng, g.dims)
            target_x = pure_to_strategy(random_pure_target(rng, g.dims), g.dims)
            ops.append(_solve_op(g, x0, kl_objective(target_x, g.dims)))
    return ops


# ---------------------------------------------------------- mindesign-scale

# Player layouts per total size m, and designs per size in one pass.  Margins
# below ~2 make the Dykstra sweep count of one design swing by a third from
# seed to seed, and a pass holds a single m=150 design, so epsilon is drawn
# from [2, 3].
MINDESIGN_SIZES = {27: ([9] * 3, 4), 50: ([10] * 5, 4), 99: ([11] * 9, 2), 150: ([15] * 10, 1)}
MINDESIGN_EPSILON = (2.0, 3.0)
MINDESIGN_LAMBDA = 0.1


def build_mindesign_scale(seed: int, smoke: bool = False) -> list[Op]:
    """Min-norm designs with random b, C=0 and a random pure target.
    ``smoke`` keeps one m=27 design."""
    rng = np.random.default_rng(seed)
    ops = []
    for m, (sizes, count) in MINDESIGN_SIZES.items():
        if smoke:
            if m != 27:
                continue
            count = 1
        for _ in range(count):
            dims = PlayerDims(sizes)
            g = Game(dims, MINDESIGN_LAMBDA, rng.normal(size=m), np.zeros((m, m)))
            target = random_pure_target(rng, dims)
            eps = float(rng.uniform(*MINDESIGN_EPSILON))
            ops.append(_min_norm_op(g, target, eps, f"min-norm m={m} eps={eps:.3f}"))
    return ops


WORKLOADS = {
    "paper-sweeps": build_paper_sweeps,
    "solve-scale": build_solve_scale,
    "mindesign-scale": build_mindesign_scale,
}
