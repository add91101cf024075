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


def _whole(v, what: str, error: type[Exception]) -> int:
    """v as an int if it is a whole number (2.0 is, True and "2" are not), else raise."""
    if isinstance(v, numbers.Real) and not isinstance(v, bool) and (
        isinstance(v, numbers.Integral) or float(v).is_integer()
    ):
        return int(v)
    raise error(f"{what} must be a whole number, got {v!r}")


def _check_lambda(lam) -> None:
    # float first: with_matrix runs this per design trial, and the ABC test is over 10x slower
    if not isinstance(lam, float) and (isinstance(lam, bool) or not isinstance(lam, numbers.Real)):
        raise InvalidInput(f"lambda must be a real number, got {lam!r}")
    if not 0 < lam < math.inf:
        raise NonPositiveLambda(f"lambda must be finite and > 0, got {lam}")


def _check_length(x: np.ndarray, dims: "PlayerDims", what: str = "strategy") -> None:
    if x.shape != (dims.total,):
        raise DimensionMismatch(f"{what} has shape {x.shape}, expected ({dims.total},)")


@dataclass(frozen=True)
class PlayerDims:
    """Actions per player, with block offsets and index arrays computed once."""

    sizes: tuple[int, ...]

    def __init__(self, sizes: Iterable[int]):
        sizes = tuple(_whole(s, "action count", InvalidInput) for s in sizes)
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

    Valid and immutable once constructed: 0 < lam < inf, b and C fit dims,
    and the arrays are copied and marked read-only so instances can be
    shared freely between threads.
    """

    dims: PlayerDims
    lam: float
    b: np.ndarray
    C: np.ndarray

    def __init__(self, dims: PlayerDims, lam: float, b, C):
        _check_lambda(lam)
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
        chosen = tuple(_whole(c, "chosen action", InvalidInput) for c in chosen)
        object.__setattr__(self, "chosen", chosen)


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
    """Raise unless lambda is finite and > 0; a constructed Game always passes."""
    _check_lambda(g.lam)


def _cone_defects(C: np.ndarray, dims: PlayerDims) -> tuple[float, float]:
    """(smallest eigenvalue of C + C^T, largest Frobenius norm of a diagonal
    block of C - C^T), the two numbers the uniqueness cone bounds."""
    try:
        min_eig = float(np.linalg.eigvalsh(C + C.T)[0])
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionFailure(str(exc)) from exc
    sq = C - C.T
    sq *= sq
    blocks = np.add.reduceat(np.add.reduceat(sq, dims.starts, axis=0), dims.starts, axis=1)
    return min_eig, float(np.sqrt(blocks.diagonal().max()))


def check_assumption(g: Game, tol: float = ASSUMPTION_TOL) -> AssumptionReport:
    """Certify uniqueness of the equilibrium.

    Checks C + C^T positive semidefinite (up to -tol on the smallest
    eigenvalue) and symmetric diagonal blocks (up to tol in Frobenius norm).
    With lambda > 0, which every Game has, the two together guarantee a
    unique equilibrium; `lambda_ok` is therefore always True.
    """
    min_eig, asym = _cone_defects(g.C, g.dims)
    return AssumptionReport(
        min_eig_sym=min_eig,
        diag_block_asymmetry=asym,
        lambda_ok=True,
        passed=min_eig >= -tol and asym <= tol,
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
    _check_length(x, dims)
    if not np.all((x >= 0) & np.isfinite(x)):
        raise DimensionMismatch("strategy has negative or non-finite entries")
    sums = np.add.reduceat(x, dims.starts)
    off = np.flatnonzero(np.abs(sums - 1.0) > tol)
    if off.size:
        raise DimensionMismatch(f"block {off[0]} sums to {float(sums[off[0]])!r}, expected 1")


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


def _holds_bool(v) -> bool:
    return isinstance(v, bool) or (isinstance(v, list) and any(_holds_bool(e) for e in v))


def game_from_dict(d: dict) -> Game:
    for key in ("lambda", "dims", "b", "C"):
        if key not in d:
            raise InvalidInput(f"game JSON missing key {key!r}")
    if not isinstance(d["dims"], list):
        raise InvalidInput(f"dims must be a list, got {d['dims']!r}")
    if _holds_bool(d["b"]) or _holds_bool(d["C"]):  # numpy would read them as 1 and 0
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
    return Game(dims, d["lambda"], b, C)


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
