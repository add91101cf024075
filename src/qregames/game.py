"""Problem instances: player dimensions, cost data, strategies, and the
uniqueness certificate.

A game has n players; player i mixes over m_i actions.  Strategies and the
cost vector b live in R^m (m = sum of the m_i) and are read blockwise; the
cost matrix C is m x m with blocks C_ij coupling player i's cost to player
j's strategy.  Actions are numbered from 1 in all public interfaces.

`_whole` and `_real` hold the library's one rule for a scalar argument's
type and range, and its one message format; every module checks counts,
indices, tolerances, radii and margins through them.  `_array` holds the
one rule for a vector or matrix argument (numbers, then its shape, then
finite entries), and `_positive` the one strict-positivity rule for a
strategy; every module reads its array arguments through them.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    DecompositionFailure,
    DimensionMismatch,
    EigendecompositionFailure,
    IndexOutOfRange,
    InvalidInput,
    NonFiniteInput,
    NonPositiveLambda,
)

ASSUMPTION_TOL = 1e-9
SIMPLEX_TOL = 1e-12


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _whole(v, what: str, least: int | None = None) -> int:
    """v as an int if it is a whole number (2.0 is, True and "2" are not) and at
    least `least` when given, else InvalidInput."""
    if not (isinstance(v, numbers.Real) and not isinstance(v, bool) and (
        isinstance(v, numbers.Integral) or float(v).is_integer()
    )):
        raise InvalidInput(f"{what} must be a whole number, got {v!r}")
    v = int(v)
    if least is not None and v < least:
        raise InvalidInput(f"{what} must be >= {least}, got {v}")
    return v


def _real(v, what: str, *, strict: bool = True, high: float = math.inf,
          error: type[Exception] = InvalidInput) -> float:
    """v as a Python float (a double, even for a float32) if it is a real number
    (True and "1" are not), else InvalidInput; and if it is finite, > 0 (>= 0
    unless strict) and <= high, else `error`."""
    if not isinstance(v, numbers.Real) or isinstance(v, bool):
        raise InvalidInput(f"{what} must be a real number, got {v!r}")
    x = float(v)
    if (0.0 < x if strict else 0.0 <= x) and x <= high and x < math.inf:
        return x
    bound = ("> 0" if strict else ">= 0") + (f" and <= {high:g}" if high < math.inf else "")
    raise error(f"{what} must be finite and {bound}, got {x!r}")


def _check_lambda(lam) -> None:
    _real(lam, "lambda", error=NonPositiveLambda)


def _array(v, shape: tuple[int, ...] | None, what: str, *, finite: bool = True) -> np.ndarray:
    """v as a float array (v itself if it is one) if numpy reads it as one (a string
    such as "abc", a ragged list, a dict or complex entries are not), else
    InvalidInput; if it has `shape` (any shape when None), else DimensionMismatch;
    and if its entries are finite, else NonFiniteInput.  finite=False leaves the
    entries to the caller's `_positive` test, which checks finiteness in the same
    min/max pass as positivity."""
    try:
        arr = np.asarray(v)  # v itself if it is an array, so the dtype test is O(1)
        if arr.dtype.kind != "c":  # the float cast would drop the imaginary part
            arr = np.asarray(arr, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"{what} must hold numbers: {exc}") from exc
    if arr.dtype.kind == "c":
        raise InvalidInput(f"{what} must hold numbers: {arr.dtype} entries are not real")
    if shape is not None and arr.shape != shape:
        raise DimensionMismatch(f"{what} has shape {arr.shape}, expected {shape}")
    if finite and not np.isfinite(arr).all():
        raise NonFiniteInput(f"{what} has NaN or infinite entries")
    return arr


def _positive(v: np.ndarray, what: str, error: type[Exception], message: str,
              floor: float = 0.0) -> None:
    """Raise NonFiniteInput, as `_array` does, on a NaN or infinite entry of the float
    array v, else error(message) on an entry <= floor.  An empty v passes.  A NaN
    minimum fails the first test, so a passing v costs one min and one max pass."""
    if not (floor < v.min(initial=np.inf) and v.max(initial=-np.inf) < np.inf):
        _array(v, None, what)
        raise error(message)


@dataclass(frozen=True)
class PlayerDims:
    """Actions per player, with block offsets and index arrays computed once.

    The index arrays and the off-block mask that the kernels read are computed
    on first use and kept, read-only; they depend on the sizes alone.
    """

    sizes: tuple[int, ...]

    def __init__(self, sizes: Iterable[int]):
        sizes = tuple(_whole(s, "action count") for s in sizes)
        if len(sizes) < 1 or any(s < 1 for s in sizes):
            raise DimensionMismatch(f"need n >= 1 players with m_i >= 1 actions, got {sizes}")
        object.__setattr__(self, "sizes", sizes)

    def __reduce__(self):  # unpickled cached arrays would be writable; rebuilt on first use
        return PlayerDims, (self.sizes,)

    @property
    def n(self) -> int:
        return len(self.sizes)

    @cached_property
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

    @cached_property
    def _size_array(self) -> np.ndarray:
        """The sizes as an array, for `np.repeat` (read-only)."""
        return _read_only(np.array(self.sizes, dtype=np.intp))

    @cached_property
    def _scatter_index(self) -> np.ndarray:
        """Flat index of (k, owner[k]) in a row-major m x n array (read-only)."""
        return _read_only(np.arange(self.total, dtype=np.intp) * self.n + self.owner)

    @cached_property
    def _off_block(self) -> np.ndarray:
        """m x m float mask: 0 on the diagonal blocks, 1 off them (read-only)."""
        return _read_only(np.where(self.owner[:, None] == self.owner, 0.0, 1.0))

    def block(self, i: int) -> slice:
        off = self.offsets
        return slice(off[i], off[i + 1])

    def split(self, x: np.ndarray) -> list[np.ndarray]:
        if len(x) != self.total:
            raise DimensionMismatch(f"vector length {len(x)} != total actions {self.total}")
        return [x[self.block(i)] for i in range(self.n)]

    def flat_index(self, player: int, action: int) -> int:
        """Flat index of 1-based `action` of 0-based `player`."""
        player, action = _whole(player, "player"), _whole(action, "action")
        if not 0 <= player < self.n:
            raise IndexOutOfRange(f"player {player} outside [0, {self.n})")
        if not 1 <= action <= self.sizes[player]:
            raise IndexOutOfRange(
                f"action {action} outside [1, {self.sizes[player]}] for player {player + 1}"
            )
        return self.offsets[player] + action - 1


def _frozen_array(a, shape, what: str) -> np.ndarray:
    return _read_only(np.array(_array(a, shape, what)))


def _check_cost_scale(dims: PlayerDims, lam: float, b: np.ndarray, C: np.ndarray) -> None:
    """Raise NonPositiveLambda unless (max|b| + n max|C|)/lam is finite: it bounds
    |b + C x|/lam for every joint strategy x, whose blocks each sum to one."""
    c_max = max(float(C.max()), -float(C.min()))  # no m x m temporary
    if not math.isfinite(float(np.abs(b).max()) / lam + dims.n * (c_max / lam)):
        raise NonPositiveLambda(f"lambda {lam!r} is too small for this game's costs: "
                                f"(max|b| + n max|C|)/lambda is not finite")


@dataclass(frozen=True, eq=False)
class Game:
    """One problem instance: dimensions, noise temperature, and cost data.

    Valid and immutable once constructed: 0 < lam < inf, b and C fit dims,
    every cost over lam is finite (`_check_cost_scale`), and the arrays are
    copied and marked read-only so instances can be shared freely between
    threads.
    """

    dims: PlayerDims
    lam: float
    b: np.ndarray
    C: np.ndarray

    def __init__(self, dims: PlayerDims, lam: float, b, C):
        _check_lambda(lam)
        m = dims.total
        lam, b, C = float(lam), _frozen_array(b, (m,), "b"), _frozen_array(C, (m, m), "C")
        _check_cost_scale(dims, lam, b, C)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "C", C)

    def __reduce__(self):  # through __init__, so an unpickled copy stays read-only
        return Game, (self.dims, self.lam, self.b, self.C)

    def with_matrix(self, C) -> "Game":
        """Same game with a different cost matrix.

        dims, lam and the read-only b are shared with this game, which has
        already validated them; only C is copied and checked, with lam.
        """
        C = _frozen_array(C, self.C.shape, "C")
        _check_cost_scale(self.dims, self.lam, self.b, C)
        return self._wrapping(C)

    def _wrapping(self, C: np.ndarray) -> "Game":
        """Same game around a read-only view of C, unchecked and uncopied.

        C must be a finite float array of this game's shape that the caller
        made and no longer writes: the design loops wrap each trial matrix
        this way, and C itself stays writable for the caller.
        """
        g = object.__new__(Game)
        g.__dict__.update(dims=self.dims, lam=self.lam, b=self.b, C=_read_only(C.view()))
        return g


@dataclass(frozen=True)
class PureTarget:
    """One preferred action per player, 1-based."""

    chosen: tuple[int, ...]

    def __init__(self, chosen: Iterable[int]):
        chosen = tuple(_whole(c, "chosen action") for c in chosen)
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
        return asdict(self)


def validate_game(g: Game) -> None:
    """Raise unless lambda is finite and > 0; a constructed Game always passes."""
    _check_lambda(g.lam)


# The library's only LAPACK calls.  Each runs the gufunc that np.linalg's solve, eigh or
# eigvalsh runs, from numpy's private `numpy.linalg._umath_linalg` (a numpy release that
# renames it breaks this module alone), under that wrapper's error state, so its results
# are bit-identical; where the wrapper raises LinAlgError, its callback raises the
# library's typed error with the same message.
_LAPACK_ERRSTATE = {"invalid": "call", "over": "ignore", "divide": "ignore", "under": "ignore"}


def _singular(err, flag):
    raise DecompositionFailure("Singular matrix")


def _unconverged(err, flag):
    raise EigendecompositionFailure("Eigenvalues did not converge")


def _linear_solve(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """np.linalg.solve(A, v) for a float m x m A and m-vector v, by `_umath_linalg.solve1`
    (LAPACK gesv); a singular A raises DecompositionFailure("Singular matrix")."""
    with np.errstate(call=_singular, **_LAPACK_ERRSTATE):
        return _umath_linalg.solve1(A, v, signature="dd->d")


def _eigh(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh(S) for a symmetric float S, by `_umath_linalg.eigh_lo` (LAPACK syevd
    on the lower triangle); no convergence raises EigendecompositionFailure("Eigenvalues
    did not converge")."""
    with np.errstate(call=_unconverged, **_LAPACK_ERRSTATE):
        return _umath_linalg.eigh_lo(S, signature="d->dd")


def _eigvalsh(S: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh(S), ascending, by `_umath_linalg.eigvalsh_lo`; no convergence
    raises EigendecompositionFailure, as in `_eigh`."""
    with np.errstate(call=_unconverged, **_LAPACK_ERRSTATE):
        return _umath_linalg.eigvalsh_lo(S, signature="d->d")


def _halves(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(C/2 + C^T/2, C/2 - C^T/2), the symmetric and skew halves of the float
    square array C, as new arrays.  Halving first keeps both finite for every
    finite C; halving is exact above the subnormal range, so they equal
    (C + C^T)/2 and (C - C^T)/2 to the bit there."""
    half = 0.5 * C
    return half + half.T, half - half.T


def _cone_defects(C: np.ndarray, dims: PlayerDims) -> tuple[float, float]:
    """(smallest eigenvalue of C + C^T, largest Frobenius norm of a diagonal
    block of C - C^T), the two numbers the uniqueness cone bounds, read from
    `_halves` and doubled.  NonFiniteInput when either leaves double range."""
    sym, skew = _halves(C)
    min_eig = 2.0 * float(_eigvalsh(sym)[0])
    with np.errstate(over="ignore"):  # an infinite square is rejected below
        skew *= skew
    blocks = np.add.reduceat(np.add.reduceat(skew, dims.starts, axis=0), dims.starts, axis=1)
    asym = 2.0 * math.sqrt(blocks.diagonal().max())
    if not (math.isfinite(min_eig) and math.isfinite(asym)):
        raise NonFiniteInput(f"C + C^T leaves double range: its smallest eigenvalue is "
                             f"{min_eig!r}, and the largest diagonal-block norm of C - C^T "
                             f"is {asym!r}")
    return min_eig, asym


def check_assumption(g: Game, tol: float = ASSUMPTION_TOL) -> AssumptionReport:
    """Certify uniqueness of the equilibrium.

    Checks C + C^T positive semidefinite (up to -tol on the smallest
    eigenvalue) and symmetric diagonal blocks (up to tol in Frobenius norm).
    With lambda > 0, which every Game has, the two together guarantee a
    unique equilibrium; `lambda_ok` is therefore always True.  A NaN,
    infinite or negative tol raises InvalidInput.
    """
    _real(tol, "tol", strict=False)
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
    return 1.0 / np.repeat(dims.sizes, dims.sizes)


def check_strategy(x: np.ndarray, dims: PlayerDims) -> None:
    """Raise unless every block of x is a probability vector."""
    x = _array(x, (dims.total,), "strategy")
    if not np.all(x >= 0):
        raise DimensionMismatch("strategy has negative entries")
    sums = np.add.reduceat(x, dims.starts)
    off = np.flatnonzero(np.abs(sums - 1.0) > SIMPLEX_TOL)
    if off.size:
        raise DimensionMismatch(f"block {off[0]} sums to {float(sums[off[0]])!r}, expected 1")


# ---------------------------------------------------------------------------
# JSON game format: {"lambda": .., "dims": [..], "b": [..], "C": [[..], ..]}
# C is row-major; lengths are strict; NaN/Inf rejected.
# ---------------------------------------------------------------------------


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
    try:
        if _holds_bool(d["b"]) or _holds_bool(d["C"]):  # numpy would read them as 1 and 0
            raise InvalidInput("b and C must hold numbers, not true or false")
        return Game(PlayerDims(d["dims"]), d["lambda"], d["b"], d["C"])
    except InvalidInput:  # already says what is wrong
        raise
    # a string, a ragged list, a scalar in place of a list, an integer too large for a
    # float, lists nested too deep to walk, or a count, shape or entry that Game rejects
    except (TypeError, ValueError, OverflowError, RecursionError,
            DimensionMismatch, NonFiniteInput) as exc:
        raise InvalidInput(f"malformed game JSON: {exc}") from exc


def _read_json_object(path: str | Path, kind: str) -> dict:
    """The JSON object in the file at path.  A missing file raises FileNotFoundError;
    any other fault raises InvalidInput, whose message names the file as `kind`."""

    def reject_constant(token: str):
        raise InvalidInput(f"non-finite number {token!r} in {kind}")

    try:
        with open(path) as fh:
            data = json.load(fh, parse_constant=reject_constant)
    # a missing file is reported as such, and reject_constant's error names its token
    except (FileNotFoundError, InvalidInput):
        raise
    except OSError as exc:
        raise InvalidInput(f"cannot read {kind}: {exc}") from exc
    # json.JSONDecodeError, bytes that are not text, or arrays nested too deep to parse
    except (ValueError, RecursionError) as exc:
        raise InvalidInput(f"malformed {kind}: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidInput(f"{kind} must be an object")
    return data


def load_game(path: str | Path) -> Game:
    return game_from_dict(_read_json_object(path, "game JSON"))


def save_game(g: Game, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(game_to_dict(g), fh, indent=1)
        fh.write("\n")
