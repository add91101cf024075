"""Problem instances: player dimensions, cost data, strategies, and the
uniqueness certificate.

A game has n players; player i mixes over m_i actions.  Strategies and the
cost vector b live in R^m (m = sum of the m_i) and are read blockwise; the
cost matrix C is m x m with blocks C_ij coupling player i's cost to player
j's strategy.  Actions are numbered from 1 in all public interfaces.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EigendecompositionFailure,
    IndexOutOfRange,
    InvalidInput,
    NonPositiveLambda,
)

ASSUMPTION_TOL = 1e-9
SIMPLEX_TOL = 1e-12


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PlayerDims:
    """Actions per player, with block offsets and index arrays computed once."""

    sizes: tuple[int, ...]

    def __init__(self, sizes: Iterable[int]):
        sizes = tuple(int(s) for s in sizes)
        if len(sizes) < 1 or any(s < 1 for s in sizes):
            raise DimensionMismatch(f"need n >= 1 players with m_i >= 1 actions, got {sizes}")
        object.__setattr__(self, "sizes", sizes)

    def __reduce__(self):  # unpickled cached index arrays would be writable
        return PlayerDims, (self.sizes,)

    @property
    def n(self) -> int:
        return len(self.sizes)

    @property
    def total(self) -> int:
        return sum(self.sizes)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        return tuple(accumulate(self.sizes, initial=0))

    @cached_property
    def starts(self) -> np.ndarray:
        """First flat index of each block, for `np.ufunc.reduceat` (read-only)."""
        return _read_only(np.array(self.offsets[:-1], dtype=np.intp))

    @cached_property
    def owner(self) -> np.ndarray:
        """Player (0-based) of each flat action index (read-only)."""
        return _read_only(np.repeat(np.arange(self.n, dtype=np.intp), self.sizes))

    def block(self, i: int) -> slice:
        off = self.offsets
        return slice(off[i], off[i + 1])

    def split(self, x: np.ndarray) -> list[np.ndarray]:
        if len(x) != self.total:
            raise DimensionMismatch(f"vector length {len(x)} != total actions {self.total}")
        return [x[self.block(i)] for i in range(self.n)]

    def flat_index(self, player: int, action: int) -> int:
        """Flat index of 1-based `action` of 0-based `player`."""
        if not 0 <= player < self.n:
            raise IndexOutOfRange(f"player {player} outside [0, {self.n})")
        if not 1 <= action <= self.sizes[player]:
            raise IndexOutOfRange(
                f"action {action} outside [1, {self.sizes[player]}] for player {player + 1}"
            )
        return self.offsets[player] + action - 1


def _frozen_array(a, shape, what: str) -> np.ndarray:
    arr = np.array(a, dtype=float)
    if arr.shape != shape:
        raise DimensionMismatch(f"{what} has shape {arr.shape}, expected {shape}")
    return _read_only(arr)


@dataclass(frozen=True)
class Game:
    """One problem instance: dimensions, noise temperature, and cost data.

    Immutable after construction; the arrays are copied and marked read-only
    so instances can be shared freely between threads.
    """

    dims: PlayerDims
    lam: float
    b: np.ndarray
    C: np.ndarray

    def __init__(self, dims: PlayerDims, lam: float, b, C):
        m = dims.total
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "lam", float(lam))
        object.__setattr__(self, "b", _frozen_array(b, (m,), "b"))
        object.__setattr__(self, "C", _frozen_array(C, (m, m), "C"))

    def __reduce__(self):  # through __init__, so an unpickled copy stays read-only
        return Game, (self.dims, self.lam, self.b, self.C)

    def with_matrix(self, C) -> "Game":
        """Same game with a different cost matrix."""
        return Game(self.dims, self.lam, self.b, C)


@dataclass(frozen=True)
class PureTarget:
    """One preferred action per player, 1-based."""

    chosen: tuple[int, ...]

    def __init__(self, chosen: Iterable[int]):
        object.__setattr__(self, "chosen", tuple(int(c) for c in chosen))


@dataclass(frozen=True)
class AssumptionReport:
    """Result of the uniqueness certificate check.

    `min_eig_sym` is the smallest eigenvalue of C + C^T, the matrix whose
    positive semidefiniteness the certificate requires.  `passed` implies a
    unique equilibrium exists in the strictly positive orthant.
    """

    min_eig_sym: float
    diag_block_asymmetry: float
    lambda_ok: bool
    passed: bool
    tol: float

    def to_dict(self) -> dict:
        return {
            "min_eig_sym": self.min_eig_sym,
            "diag_block_asymmetry": self.diag_block_asymmetry,
            "lambda_ok": self.lambda_ok,
            "passed": self.passed,
            "tol": self.tol,
        }


def validate_game(g: Game) -> None:
    """Raise unless lambda > 0 (Game's constructor already checks the sizes)."""
    if not g.lam > 0:
        raise NonPositiveLambda(f"lambda must be > 0, got {g.lam}")


def check_assumption(g: Game, tol: float = ASSUMPTION_TOL) -> AssumptionReport:
    """Certify uniqueness of the equilibrium.

    Checks lambda > 0, C + C^T positive semidefinite (up to -tol on the
    smallest eigenvalue), and symmetric diagonal blocks (up to tol in
    Frobenius norm).  All three together guarantee a unique equilibrium.
    """
    validate_game(g)
    sym = g.C + g.C.T
    try:
        eigs = np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionFailure(str(exc)) from exc
    min_eig = float(eigs[0])
    asym = 0.0
    for i in range(g.dims.n):
        blk = g.C[g.dims.block(i), g.dims.block(i)]
        asym = max(asym, float(np.linalg.norm(blk - blk.T)))
    lambda_ok = g.lam > 0
    passed = lambda_ok and min_eig >= -tol and asym <= tol
    return AssumptionReport(
        min_eig_sym=min_eig,
        diag_block_asymmetry=asym,
        lambda_ok=lambda_ok,
        passed=passed,
        tol=tol,
    )


def pure_to_strategy(t: PureTarget, dims: PlayerDims) -> np.ndarray:
    """Joint strategy putting all mass on each player's chosen action."""
    if len(t.chosen) != dims.n:
        raise IndexOutOfRange(f"{len(t.chosen)} chosen actions for {dims.n} players")
    x = np.zeros(dims.total)
    for i, c in enumerate(t.chosen):
        x[dims.flat_index(i, c)] = 1.0
    return x


def uniform_strategy(dims: PlayerDims) -> np.ndarray:
    return np.concatenate([np.full(s, 1.0 / s) for s in dims.sizes])


def check_strategy(x: np.ndarray, dims: PlayerDims, tol: float = SIMPLEX_TOL) -> None:
    """Raise unless every block of x is a probability vector."""
    x = np.asarray(x, dtype=float)
    if x.shape != (dims.total,):
        raise DimensionMismatch(f"strategy length {x.shape}, expected ({dims.total},)")
    if np.any(x < 0):
        raise DimensionMismatch("strategy has negative entries")
    for i in range(dims.n):
        s = float(x[dims.block(i)].sum())
        if abs(s - 1.0) > tol:
            raise DimensionMismatch(f"block {i} sums to {s!r}, expected 1")


# ---------------------------------------------------------------------------
# JSON game format: {"lambda": .., "dims": [..], "b": [..], "C": [[..], ..]}
# C is row-major; lengths are strict; NaN/Inf rejected.
# ---------------------------------------------------------------------------


def _reject_constant(token: str):
    raise InvalidInput(f"non-finite number {token!r} in game JSON")


def game_to_dict(g: Game) -> dict:
    return {
        "lambda": g.lam,
        "dims": list(g.dims.sizes),
        "b": g.b.tolist(),
        "C": g.C.tolist(),
    }


def _is_number(v) -> bool:
    # bool is an int subclass, but JSON's true/false are not numbers
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _is_count(v) -> bool:
    return _is_number(v) and (isinstance(v, numbers.Integral) or float(v).is_integer())


def _holds_bool(v) -> bool:
    return isinstance(v, bool) or (isinstance(v, list) and any(_holds_bool(e) for e in v))


def game_from_dict(d: dict) -> Game:
    for key in ("lambda", "dims", "b", "C"):
        if key not in d:
            raise InvalidInput(f"game JSON missing key {key!r}")
    if not _is_number(d["lambda"]):
        raise InvalidInput(f"lambda must be a number, got {d['lambda']!r}")
    if not isinstance(d["dims"], list) or not all(_is_count(s) for s in d["dims"]):
        raise InvalidInput(f"dims must be a list of whole numbers, got {d['dims']!r}")
    if _holds_bool(d["b"]) or _holds_bool(d["C"]):
        raise InvalidInput("b and C must hold numbers, not true or false")
    try:
        dims = PlayerDims(d["dims"])
        b = np.asarray(d["b"], dtype=float)
        C = np.asarray(d["C"], dtype=float)
        finite = math.isfinite(d["lambda"]) and np.all(np.isfinite(b)) and np.all(np.isfinite(C))
    except (TypeError, ValueError) as exc:  # a string, a ragged list or a scalar in place of a list
        raise InvalidInput(f"malformed game JSON: {exc}") from exc
    m = dims.total
    if b.shape != (m,):
        raise InvalidInput(f"b has length {b.size}, expected {m}")
    if C.shape != (m, m):
        raise InvalidInput(f"C must be {m} rows of {m} numbers")
    if not finite:
        raise InvalidInput("game JSON contains non-finite numbers")
    g = Game(dims, d["lambda"], b, C)
    validate_game(g)
    return g


def load_game(path: str | Path) -> Game:
    try:
        with open(path) as fh:
            data = json.load(fh, parse_constant=_reject_constant)
    except FileNotFoundError:  # reported as such, not as malformed input
        raise
    except OSError as exc:
        raise InvalidInput(f"cannot read game JSON: {exc}") from exc
    except ValueError as exc:  # json.JSONDecodeError, or bytes that are not text
        raise InvalidInput(f"malformed game JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidInput("game JSON must be an object")
    return game_from_dict(data)


def save_game(g: Game, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(game_to_dict(g), fh, indent=1)
        fh.write("\n")
