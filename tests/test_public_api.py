"""The public surface: the names `qregames` exports, the settable fields of
each config, the fields of a solve and the errors the library raises."""

import ast
import builtins
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qregames
from qregames import solve_equilibrium
from qregames.experiments import build_collision_game, sweep_bilevel_rho, sweep_sdp_epsilon


def _sweep_rho(grid):
    game, _ = build_collision_game()
    return sweep_bilevel_rho(grid, qregames.potential_delay_objective(game.dims), game)


def _margins(epsilon):
    return qregames.build_margin_constraints(*build_collision_game(), epsilon)


def _in_feasible_set(*args, **kwargs):
    return qregames.in_feasible_set(np.eye(2), qregames.PlayerDims([2]), *args, **kwargs)

PUBLIC_NAMES = [
    "AssumptionReport",
    "BilevelConfig",
    "DecompositionFailure",
    "DesignResult",
    "DimensionMismatch",
    "EigendecompositionFailure",
    "Game",
    "IndexOutOfRange",
    "InfeasibleDetected",
    "InnerSolveFailure",
    "InvalidGeometry",
    "InvalidInput",
    "MarginConstraint",
    "MinNormConfig",
    "NonFiniteInput",
    "NonPositiveLambda",
    "NonPositiveStrategy",
    "PerformanceObjective",
    "PlayerDims",
    "PureTarget",
    "QreGamesError",
    "SolveOutcome",
    "SolverConfig",
    "ZeroAreaTotal",
    "build_margin_constraints",
    "check_assumption",
    "check_strategy",
    "game_from_dict",
    "game_to_dict",
    "implicit_gradient",
    "in_feasible_set",
    "kl_objective",
    "kl_to_pure",
    "load_game",
    "logit_response",
    "max_margin_violation",
    "potential_delay_objective",
    "project_cone_sum",
    "project_feasible",
    "pure_to_strategy",
    "response_jacobian",
    "run_projected_gradient",
    "save_game",
    "simulate_gumbel_choice",
    "smooth_target",
    "solve_equilibrium",
    "solve_min_norm_design",
    "stationarity_residual",
    "uniform_strategy",
    "validate_game",
]


def test_exported_names_are_pinned():
    assert qregames.__all__ == PUBLIC_NAMES
    assert all(hasattr(qregames, name) for name in PUBLIC_NAMES)


def test_solve_outcome_fields():
    out = solve_equilibrium(build_collision_game()[0])
    assert isinstance(out, qregames.SolveOutcome)
    assert out.x.shape == (12,)
    assert isinstance(out.residual_sq, float) and isinstance(out.iterations, int)
    assert out.converged is True and out.certified is True


def test_config_fields_are_pinned():
    def names(cls):
        return tuple(f.name for f in dataclasses.fields(cls))

    assert names(qregames.SolverConfig) == ("residual_tol", "max_iters")
    assert names(qregames.MinNormConfig) == ("epsilon", "dykstra_tol", "max_sweeps")
    assert names(qregames.BilevelConfig) == ("step_alpha", "stop_eps", "max_outer_iters")
    assert qregames.BilevelConfig().inner.residual_tol == 1e-20


@pytest.mark.parametrize("call", [
    lambda: qregames.SolverConfig(residual_tol=0.0),
    lambda: qregames.SolverConfig(max_iters=2.5),
    lambda: qregames.MinNormConfig(epsilon=-1.0),
    lambda: qregames.MinNormConfig(max_sweeps=0),
    lambda: qregames.BilevelConfig(step_alpha=np.inf),
    lambda: qregames.BilevelConfig(max_outer_iters=True),
    lambda: qregames.project_feasible(np.eye(2), qregames.PlayerDims([2]), 0.0),
    lambda: qregames.kl_objective(np.array([1.0, 0.0]), qregames.PlayerDims([2]),
                                  smoothing_delta=2.0),
    lambda: qregames.potential_delay_objective(qregames.PlayerDims([2, 3])),
    lambda: qregames.simulate_gumbel_choice(np.zeros(2), 1.0, 0, seed=0),
    # a real-valued argument of the wrong type, bool included
    lambda: qregames.SolverConfig(residual_tol="1e-9"),
    lambda: qregames.MinNormConfig(epsilon=None),
    lambda: qregames.BilevelConfig(step_alpha=None),
    lambda: qregames.BilevelConfig(step_alpha=True),
    lambda: qregames.project_feasible(np.eye(2), qregames.PlayerDims([2]), "1"),
    lambda: qregames.project_feasible(np.eye(2), qregames.PlayerDims([2]), True),
    lambda: qregames.check_assumption(build_collision_game()[0], tol="0"),
    lambda: qregames.kl_objective(np.array([1.0, 0.0]), qregames.PlayerDims([2]),
                                  smoothing_delta="0.1"),
    # a seed or a sweep's job count that is not a whole number in range
    lambda: qregames.simulate_gumbel_choice(np.zeros(2), 1.0, 10, seed=-1),
    lambda: qregames.simulate_gumbel_choice(np.zeros(2), 1.0, 10, seed=1.5),
    lambda: qregames.simulate_gumbel_choice(np.zeros(2), 1.0, 10, seed=True),
    lambda: sweep_sdp_epsilon([1.0], jobs=0),
    lambda: sweep_sdp_epsilon([1.0], jobs=-3),
    lambda: sweep_sdp_epsilon([1.0], jobs=1.5),
    lambda: sweep_sdp_epsilon([1.0], jobs=True),
    # a radius, tolerance, margin, grid value or index of the wrong type or out of range
    lambda: _in_feasible_set("a"),
    lambda: _in_feasible_set(-1),
    lambda: _in_feasible_set(True),
    lambda: _in_feasible_set(1.0, eig_tol=np.nan),
    lambda: _margins("a"),
    lambda: _margins(np.nan),
    lambda: _margins(True),
    lambda: _margins(-5),
    lambda: sweep_sdp_epsilon(["a"]),
    lambda: sweep_sdp_epsilon([True]),
    lambda: _sweep_rho(["a"]),
    lambda: _sweep_rho([True]),
    lambda: qregames.PlayerDims([2]).flat_index(0, 1.5),
    lambda: qregames.PlayerDims([2]).flat_index(0, True),
    lambda: qregames.PlayerDims([2]).flat_index(0.5, 1),
], ids=["solver-tol", "solver-iters", "min-norm-epsilon", "min-norm-sweeps", "bilevel-alpha",
        "bilevel-iters", "rho", "smoothing-delta", "mixed-sizes", "samples",
        "solver-tol-str", "min-norm-epsilon-none", "bilevel-alpha-none", "bilevel-alpha-bool",
        "rho-str", "rho-bool", "tol-str", "smoothing-delta-str",
        "seed-negative", "seed-fractional", "seed-bool",
        "jobs-zero", "jobs-negative", "jobs-fractional", "jobs-bool",
        "feasible-rho-str", "feasible-rho-negative", "feasible-rho-bool", "feasible-eig-tol-nan",
        "margin-str", "margin-nan", "margin-bool", "margin-negative",
        "eps-grid-str", "eps-grid-bool", "rho-grid-str", "rho-grid-bool",
        "action-fractional", "action-bool", "player-fractional"])
def test_rejected_argument_is_invalid_input(call):
    with pytest.raises(qregames.InvalidInput) as info:
        call()
    assert isinstance(info.value, ValueError)  # callers that catch the builtin still do


DIMS = qregames.PlayerDims([2, 2])
GAME = qregames.Game(DIMS, 1.0, np.zeros(4), np.eye(4))
X = qregames.uniform_strategy(DIMS)
PURE = np.array([1.0, 0.0, 1.0, 0.0])


def _extra_axis(v):
    return np.asarray(v, dtype=float)[None]


def _empty(v):
    return np.asarray(v, dtype=float)[..., :0]


def _one_short(v):
    return np.asarray(v, dtype=float)[..., :-1]


def _one_long(v):
    v = np.asarray(v, dtype=float)
    return np.concatenate([v, v[..., :1]], axis=-1)


def _with(first, last=None):
    """The transform that sets v's first entry, and its last when given."""
    def bad(v):
        v = np.array(v, dtype=float)
        v.flat[0] = first
        if last is not None:
            v.flat[-1] = last
        return v
    return bad


_with_nan, _with_inf, _with_neg_inf = _with(np.nan), _with(np.inf), _with(-np.inf)
_nan_beside_zero = _with(0.0, np.nan)  # a NaN is reported before a zero fails positivity


def _non_numeric(v):
    return np.full(np.shape(v), "abc")


def _complex(v):
    return np.asarray(v, dtype=float) + 1j


# (id, call): call(bad) passes bad(valid array) as the one argument under test
ARRAY_ARGUMENTS = [
    ("Game-b", lambda bad: qregames.Game(DIMS, 1.0, bad(np.zeros(4)), np.eye(4))),
    ("Game-C", lambda bad: qregames.Game(DIMS, 1.0, np.zeros(4), bad(np.eye(4)))),
    ("with_matrix", lambda bad: GAME.with_matrix(bad(np.eye(4)))),
    ("logit_response", lambda bad: qregames.logit_response(GAME, bad(X))),
    ("response_jacobian", lambda bad: qregames.response_jacobian(GAME, bad(X))),
    ("solve_equilibrium-x0", lambda bad: qregames.solve_equilibrium(GAME, x0=bad(X))),
    ("stationarity_residual", lambda bad: qregames.stationarity_residual(GAME, bad(X))),
    ("implicit_gradient-x", lambda bad: qregames.implicit_gradient(GAME, bad(X), X)),
    ("implicit_gradient-gradient", lambda bad: qregames.implicit_gradient(GAME, X, bad(X))),
    ("check_strategy", lambda bad: qregames.check_strategy(bad(X), DIMS)),
    ("project_cone_sum", lambda bad: qregames.project_cone_sum(bad(np.eye(4)), DIMS)),
    ("project_feasible", lambda bad: qregames.project_feasible(bad(np.eye(4)), DIMS, 1.0)),
    ("in_feasible_set", lambda bad: qregames.in_feasible_set(bad(np.eye(4)), DIMS, 1.0)),
    ("max_margin_violation", lambda bad: qregames.max_margin_violation(
        bad(np.eye(4)), qregames.build_margin_constraints(GAME, qregames.PureTarget([1, 1]), 1.0))),
    ("smooth_target", lambda bad: qregames.smooth_target(bad(PURE), DIMS, 0.1)),
    ("kl_objective", lambda bad: qregames.kl_objective(bad(PURE), DIMS)),
    ("kl_to_pure-x", lambda bad: qregames.kl_to_pure(bad(X), PURE)),
    ("kl_to_pure-target", lambda bad: qregames.kl_to_pure(X, bad(PURE))),
    ("kl-value", lambda bad: qregames.kl_objective(PURE, DIMS).value(bad(X))),
    ("kl-gradient", lambda bad: qregames.kl_objective(PURE, DIMS).gradient(bad(X))),
    ("delay-value", lambda bad: qregames.potential_delay_objective(DIMS).value(bad(X))),
    ("delay-gradient", lambda bad: qregames.potential_delay_objective(DIMS).gradient(bad(X))),
    ("simulate_gumbel_choice",
     lambda bad: qregames.simulate_gumbel_choice(bad(np.zeros(3)), 1.0, 10, seed=0)),
]


@pytest.mark.parametrize("bad, error", [(_extra_axis, qregames.DimensionMismatch),
                                        (_empty, qregames.DimensionMismatch),
                                        (_with_nan, qregames.NonFiniteInput),
                                        (_with_inf, qregames.NonFiniteInput),
                                        (_with_neg_inf, qregames.NonFiniteInput),
                                        (_nan_beside_zero, qregames.NonFiniteInput),
                                        (_non_numeric, qregames.InvalidInput),
                                        (_complex, qregames.InvalidInput)],
                         ids=["shape", "empty", "nan", "inf", "-inf", "nan-beside-zero",
                              "non-numeric", "complex"])
@pytest.mark.parametrize("call", [c for _, c in ARRAY_ARGUMENTS],
                         ids=[name for name, _ in ARRAY_ARGUMENTS])
def test_rejected_array_argument(call, bad, error):
    """Every vector and matrix argument is read through one rule: entries
    that are not real numbers are InvalidInput, a wrong shape is
    DimensionMismatch and a NaN or infinite entry NonFiniteInput, also
    where a zero entry would fail a positivity rule."""
    with pytest.raises(error):
        call(bad)


# simulate_gumbel_choice takes a cost vector of any non-empty length
FIXED_LENGTH = [(name, call) for name, call in ARRAY_ARGUMENTS
                if name != "simulate_gumbel_choice"]


@pytest.mark.parametrize("bad", [_one_short, _one_long], ids=["one-short", "one-long"])
@pytest.mark.parametrize("call", [c for _, c in FIXED_LENGTH],
                         ids=[name for name, _ in FIXED_LENGTH])
def test_array_argument_of_the_wrong_length(call, bad):
    """One entry short or long on the last axis, with the right number of axes,
    does not fit the game either: the rule compares the whole shape, not only
    the number of axes or emptiness."""
    with pytest.raises(qregames.DimensionMismatch):
        call(bad)


@pytest.mark.parametrize("v", [[[1.0, 2.0], [3.0]], {"a": 1.0}, [10**400],
                               [np.complex128(1j), 0.0]],
                         ids=["ragged", "dict", "huge-int", "complex-scalars"])
def test_array_that_numpy_cannot_read_is_invalid_input(v):
    with pytest.raises(qregames.InvalidInput, match="^b must hold numbers: "):
        qregames.Game(qregames.PlayerDims([2]), 1.0, v, np.eye(2))


def test_rejected_field_is_the_only_one_named():
    with pytest.raises(qregames.InvalidInput) as info:
        qregames.MinNormConfig(max_sweeps=0)
    assert str(info.value) == "max_sweeps must be >= 1, got 0"


def _array_holders():
    game, target = build_collision_game()
    return [game, solve_equilibrium(game), qregames.solve_min_norm_design(game, target),
            qregames.build_margin_constraints(game, target, 1.0)[0]]


@pytest.mark.parametrize("index", range(4),
                         ids=["Game", "SolveOutcome", "DesignResult", "MarginConstraint"])
def test_array_holders_compare_and_hash_by_identity(index):
    a = _array_holders()[index]
    assert a == a
    assert (a == pickle.loads(pickle.dumps(a))) is False
    assert hash(a) == hash(a)


BUILTIN_ERRORS = {name for name, obj in vars(builtins).items()
                  if isinstance(obj, type) and issubclass(obj, BaseException)}


def _raised(node):
    """X at `raise X` or `raise X(...)`; None at any other node, a bare re-raise included."""
    exc = node.exc if isinstance(node, ast.Raise) else None
    target = exc.func if isinstance(exc, ast.Call) else exc
    return target.id if isinstance(target, ast.Name) else None


def _raise_says(error, *phrases):
    """The offence `raise error(...)` with a message that holds one of phrases."""
    def offence(node, module):
        if _raised(node) != error or not isinstance(node.exc, ast.Call):
            return False
        text = "".join(c.value for arg in node.exc.args for c in ast.walk(arg)
                       if isinstance(c, ast.Constant) and isinstance(c.value, str))
        return any(phrase in text for phrase in phrases)
    return offence


def _calls_lapack(node, module):
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and ast.unparse(node.func.value) == "np.linalg"):
        return True
    names = ([a.name for a in node.names] if isinstance(node, ast.ImportFrom)
             else [node.attr] if isinstance(node, ast.Attribute) else [])
    return "_umath_linalg" in names and module != "game.py"


def _calls_softmax(node, module):
    func = node.func if isinstance(node, ast.Call) else None
    return getattr(func, "id", getattr(func, "attr", None)) == "blockwise_softmax"


# (exempt module or None, offence(node, module), id): which module owns each rule.
LAYERING_RULES = [
    # a builtin exception reaches the CLI as exit 1 `error:Internal`; a bare
    # re-raise (such as load_game's FileNotFoundError) passes
    pytest.param(None, lambda node, module: _raised(node) in BUILTIN_ERRORS, id="builtin-raise"),
    # `game._whole`, `game._real` and `game._array` own the one message format
    # of a range rule, of a wrong shape and of a non-finite entry
    pytest.param("game.py", _raise_says("InvalidInput", "must be", "must lie"), id="range-rule"),
    pytest.param("game.py", _raise_says("DimensionMismatch", "has shape"), id="shape-rule"),
    pytest.param("game.py", _raise_says("NonFiniteInput", "NaN or infinite"), id="finite-rule"),
    # no np.linalg call, and numpy's private `_umath_linalg` in game.py alone:
    # `_linear_solve`, `_eigh` and `_eigvalsh` raise the library's typed errors
    pytest.param(None, _calls_lapack, id="lapack"),
    # every other response goes through `solver._response`, the one overflow rule
    pytest.param("solver.py", _calls_softmax, id="softmax"),
]


@pytest.mark.parametrize("exempt, offence", LAYERING_RULES)
def test_layering_rule(exempt, offence):
    """No node of the library's source outside the exempt module is an offence."""
    offenders = [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
                 for path in sorted(Path(qregames.__file__).parent.glob("*.py"))
                 if path.name != exempt
                 for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 if offence(node, path.name)]
    assert offenders == []


def test_import_loads_no_cli_or_sweep_modules():
    """`import qregames` in a fresh interpreter loads neither the CLI, the
    sweeps and the chart writer nor the standard modules only they need."""
    probe = ("import sys, qregames; print(' '.join(m for m in ("
             "'qregames.cli', 'qregames.experiments', 'qregames.svgplot', "
             "'argparse', 'csv', 'concurrent.futures') if m in sys.modules))")
    src = str(Path(qregames.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == []
