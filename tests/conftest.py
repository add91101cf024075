"""Shared builders and independent oracles used across the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from qregames import (
    Game,
    PlayerDims,
    implicit_gradient,
    kl_objective,
    logit_response,
    potential_delay_objective,
    project_feasible,
    pure_to_strategy,
    run_projected_gradient,
    solve_equilibrium,
    uniform_strategy,
)
from qregames.bilevel import ARMIJO_SIGMA, HALVING, MAX_HALVINGS
from qregames.experiments import DEFAULT_RHO_GRID, build_collision_game, build_fair_game


def make_game(sizes=(3, 3), lam: float = 0.1, b=None, C=None) -> Game:
    """A Game with block sizes `sizes`, and b and C zero unless given."""
    dims = PlayerDims(sizes)
    m = dims.total
    return Game(dims, lam, np.zeros(m) if b is None else b, np.zeros((m, m)) if C is None else C)


def random_certified_game(
    rng: np.random.Generator,
    sizes,
    lam: float = 0.5,
    coupling: float = 1.0,
) -> Game:
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


def damped_fixed_point(
    g: Game,
    tau: float = 0.5,
    tol: float = 1e-12,
    max_iters: int = 200_000,
    x0: np.ndarray | None = None,
) -> np.ndarray:
    """Independent equilibrium oracle: damped best-response iteration run to
    a tight sup-norm fixed-point tolerance."""
    x = uniform_strategy(g.dims) if x0 is None else np.array(x0, dtype=float)
    for _ in range(max_iters):
        f = logit_response(g, x)
        if float(np.abs(x - f).max()) <= tol:
            return x
        x = (1.0 - tau) * x + tau * f
    raise AssertionError("fixed-point oracle did not converge")


def reference_projected_gradient(g0: Game, obj, rho: float, cfg):
    """The monotone projected gradient loop of `run_projected_gradient`,
    written with the public, argument-checking functions only: the same
    floating-point operations in the same order.  Returns (C, x, history)."""
    dims = g0.dims

    def solved(C, warm):
        out = solve_equilibrium(g0.with_matrix(C), cfg.inner, x0=warm)
        assert out.converged
        return out.x

    C = project_feasible(g0.C, dims, rho)
    x = solved(C, None)
    value = obj.value(x)
    history = []
    for iteration in range(1, cfg.max_outer_iters + 1):
        G = implicit_gradient(g0.with_matrix(C), x, obj.gradient(x))
        P = project_feasible(C - cfg.step_alpha * G, dims, rho)
        D = P - C
        step_norm = float(np.linalg.norm(D))
        history.append((iteration, value, step_norm))
        if step_norm <= cfg.stop_eps or iteration == cfg.max_outer_iters:
            break
        slope = ARMIJO_SIGMA * float(np.vdot(G, D))
        C_trial, s = P, 1.0
        for _ in range(MAX_HALVINGS + 1):
            x_trial = solved(C_trial, x)
            value_trial = obj.value(x_trial)
            if value_trial <= value + s * slope:
                break
            s *= HALVING
            C_trial = C + s * D
        else:
            break
        C, x, value = C_trial, x_trial, value_trial
    return C, x, history


def in_cone(C: np.ndarray, dims: PlayerDims, eig_tol: float = 1e-9,
            block_tol: float = 1e-10) -> bool:
    """Independent cone oracle: (C + C^T)/2 PSD up to -eig_tol, and every
    diagonal block symmetric up to block_tol in Frobenius norm."""
    if np.linalg.eigvalsh(0.5 * (C + C.T)).min() < -eig_tol:
        return False
    return all(
        np.linalg.norm(C[dims.block(i), dims.block(i)] - C[dims.block(i), dims.block(i)].T)
        <= block_tol
        for i in range(dims.n)
    )


def finite_difference_gradient(fn, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of a vector."""
    g = np.zeros_like(x)
    for k in range(len(x)):
        xp = x.copy()
        xm = x.copy()
        xp[k] += step
        xm[k] -= step
        g[k] = (fn(xp) - fn(xm)) / (2.0 * step)
    return g


def sample_feasible_matrices(
    rng: np.random.Generator, m: int, dims: PlayerDims, rho: float, count: int
) -> np.ndarray:
    """Batch of random members of the feasible set, built directly from the
    set's definition (batched eigendecomposition, independent of the
    projection code under test)."""
    raw = rng.normal(size=(count, m, m))
    sym = 0.5 * (raw + np.transpose(raw, (0, 2, 1)))
    w, V = np.linalg.eigh(sym)
    w = np.maximum(w, 0.0)
    psd = np.einsum("bij,bj,bkj->bik", V, w, V)
    skew = 0.5 * (raw - np.transpose(raw, (0, 2, 1)))
    for i in range(dims.n):
        blk = dims.block(i)
        skew[:, blk, blk] = 0.0
    out = psd + skew
    norms = np.linalg.norm(out, axis=(1, 2))
    scale = rng.random(count) * rho / np.maximum(norms, 1e-12)
    return out * scale[:, None, None]


def collision_kl():
    """The collision game and the KL objective of its target, as smoothed by default."""
    game, target = build_collision_game()
    return game, kl_objective(pure_to_strategy(target, game.dims), game.dims)


def fair_delay():
    game = build_fair_game()
    return game, potential_delay_objective(game.dims)


@pytest.fixture(scope="session")
def paper_rows():
    """run_projected_gradient with the default config at each radius of
    DEFAULT_RHO_GRID, keyed by (experiment, rho): the runs behind the rows of
    `experiment collision-bilevel` and `experiment fair`."""
    return {(name, rho): run_projected_gradient(*problem(), rho)
            for name, problem in (("collision-bilevel", collision_kl), ("fair", fair_delay))
            for rho in DEFAULT_RHO_GRID}


@pytest.fixture
def rng():
    # function-scoped: every test draws the same stream regardless of order
    return np.random.default_rng(20240817)
