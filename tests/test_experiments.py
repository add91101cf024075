import math

import numpy as np
import pytest

from qregames import (
    InvalidGeometry,
    InvalidInput,
    PerformanceObjective,
    ZeroAreaTotal,
    check_assumption,
    kl_objective,
    pure_to_strategy,
    solve_equilibrium,
    stationarity_residual,
)
from qregames import experiments
from qregames.experiments import (
    AREA_NAMES,
    DEFAULT_EPS_GRID,
    DEFAULT_RHO_GRID,
    FAIR_HOMES,
    GRID4_ADJACENCY,
    NO_ADJACENCY,
    area_totals,
    build_collision_game,
    build_fair_game,
    rows_to_csv,
    sweep_bilevel_rho,
    sweep_sdp_epsilon,
)
from qregames.objectives import potential_delay_objective


class TestCollisionScenario:
    def test_costs_and_target(self):
        game, target = build_collision_game()
        assert game.dims.sizes == (3, 3, 3, 3)
        assert game.lam == 0.1
        for i in range(4):
            assert list(game.b[game.dims.block(i)]) == [2.0, math.pi, math.pi]
        assert target.chosen == (3, 3, 3, 3)
        assert np.all(game.C == 0.0)

    def test_zero_matrix_equilibrium_is_beeline(self):
        game, _ = build_collision_game()
        out = solve_equilibrium(game)
        for i in range(4):
            assert out.x[game.dims.block(i)][0] > 0.999

    def test_certificate_holds(self):
        game, _ = build_collision_game()
        assert check_assumption(game).passed


class TestFairScenario:
    def test_grid_adjacency_costs(self):
        # southwest company: home 1.0, edge-sharing areas at 1.5, rest 1.8
        game = build_fair_game(GRID4_ADJACENCY, FAIR_HOMES)
        b_sw = game.b[game.dims.block(0)]
        by_area = dict(zip(AREA_NAMES, b_sw))
        assert by_area["SW"] == 1.0
        assert by_area["W"] == 1.5 and by_area["S"] == 1.5
        assert all(by_area[a] == 1.8 for a in AREA_NAMES if a not in ("SW", "W", "S"))

    def test_exactly_one_home_cost_per_company(self):
        for adjacency in (GRID4_ADJACENCY, NO_ADJACENCY):
            game = build_fair_game(adjacency, FAIR_HOMES)
            for i in range(3):
                block = game.b[game.dims.block(i)]
                assert np.sum(block == 1.0) == 1
                assert set(np.unique(block)) <= {1.0, 1.5, 1.8}

    def test_default_concentrates_on_homes(self):
        game = build_fair_game()
        out = solve_equilibrium(game)
        for i, home in enumerate(FAIR_HOMES):
            assert out.x[game.dims.block(i)][AREA_NAMES.index(home)] >= 0.99

    def test_geometry_validation(self):
        with pytest.raises(InvalidGeometry):
            build_fair_game(homes=("SW", "SW", "E"))
        with pytest.raises(InvalidGeometry):
            build_fair_game(homes=("SW", "SE", "Mars"))
        with pytest.raises(InvalidGeometry):
            build_fair_game(adjacency={"Mars": ("SW",)})
        with pytest.raises(InvalidGeometry):
            build_fair_game(adjacency={"SW": ("Mars",)})

    @pytest.mark.parametrize("kwargs", [
        {"adjacency": {"SW": "NW"}},  # a string is not read as its letters
        {"adjacency": {"SW": None}},
        {"adjacency": {"SW": 5}},
        {"adjacency": 5},
        {"homes": "SWE"},
        {"homes": None},
    ], ids=["neighbours-str", "neighbours-none", "neighbours-int", "adjacency-int",
            "homes-str", "homes-none"])
    def test_area_map_takes_lists_of_names(self, kwargs):
        with pytest.raises(InvalidInput):
            build_fair_game(**kwargs)


class TestSweeps:
    def test_sdp_sweep_rows(self):
        rows = sweep_sdp_epsilon([3.0, 0.5])
        assert [r["epsilon"] for r in rows] == [0.5, 3.0]  # sorted by parameter
        for row in rows:
            assert row["converged"]
            assert row["max_violation"] <= 1e-6
            assert row["c_norm"] > 0.0
        assert rows[1]["c_norm"] >= rows[0]["c_norm"]
        assert rows[1]["kl_to_target"] <= rows[0]["kl_to_target"]

    def test_sdp_sweep_deterministic(self):
        a = sweep_sdp_epsilon([1.0, 2.0])
        b = sweep_sdp_epsilon([1.0, 2.0])
        assert a == b

    def test_worker_processes_give_the_serial_rows(self):
        assert sweep_sdp_epsilon([1, 2, 3], jobs=2) == sweep_sdp_epsilon([1, 2, 3])
        game = build_fair_game()
        obj = potential_delay_objective(game.dims)
        serial = sweep_bilevel_rho([0.01, 1.0], obj, game)
        assert sweep_bilevel_rho([0.01, 1.0], obj, game, jobs=2) == serial

    def test_bilevel_sweep_rows_fair(self):
        game = build_fair_game()
        obj = potential_delay_objective(game.dims)
        rows = sweep_bilevel_rho([0.01, float(DEFAULT_RHO_GRID[-1])], obj, game)
        assert [r["rho"] for r in rows] == [0.01, DEFAULT_RHO_GRID[-1]]
        for row in rows:
            assert "error" not in row
            assert {f"total_{a}" for a in AREA_NAMES} <= set(row)
            totals = [row[f"total_{a}"] for a in AREA_NAMES]
            assert sum(totals) == pytest.approx(3.0, abs=1e-9)
        assert rows[1]["psi_min"] <= rows[0]["psi_min"] + 1e-6

    def test_failed_design_gives_an_error_row(self):
        def no_service(x):
            raise ZeroAreaTotal("no service")

        game, _ = build_collision_game()
        obj = PerformanceObjective(value=no_service, gradient=no_service, name="failing")
        rows = sweep_bilevel_rho([2, 1], obj, game)
        assert rows == [{"rho": 1.0, "error": "ZeroAreaTotal: no service"},
                        {"rho": 2.0, "error": "ZeroAreaTotal: no service"}]

    def test_rejected_radius_raises_before_any_row(self, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "run_projected_gradient",
                            lambda *args: calls.append(args))
        game = build_fair_game()
        with pytest.raises(InvalidInput, match=r"^rho must be finite and > 0, got 0\.0$"):
            sweep_bilevel_rho([1.0, 0.0], potential_delay_objective(game.dims), game)
        assert calls == []

    def test_bilevel_rows_satisfy_stationarity(self):
        game, target = build_collision_game()
        from qregames import kl_objective, pure_to_strategy

        obj = kl_objective(pure_to_strategy(target, game.dims), game.dims)
        rows = sweep_bilevel_rho([0.5], obj, game, target=pure_to_strategy(target, game.dims))
        assert "kl_to_target" in rows[0]
        assert rows[0]["converged"]

    def test_equilibria_pass_stationarity(self):
        game, _ = build_collision_game()
        out = solve_equilibrium(game)
        assert stationarity_residual(game, out.x) <= 1e-6

    def test_sweep_row_equilibria_pass_stationarity(self):
        # same computation the sweeps run per row, checked at the source
        from qregames import (
            BilevelConfig,
            MinNormConfig,
            kl_objective,
            pure_to_strategy,
            run_projected_gradient,
            solve_min_norm_design,
        )

        game, target = build_collision_game()
        for eps in (0.5, 3.0):
            result = solve_min_norm_design(game, target, MinNormConfig(epsilon=eps))
            assert stationarity_residual(game.with_matrix(result.C), result.x) <= 1e-6
        obj = kl_objective(pure_to_strategy(target, game.dims), game.dims)
        result = run_projected_gradient(game, obj, rho=1.0)
        assert stationarity_residual(game.with_matrix(result.C), result.x) <= 1e-6


# psi_value of each default `experiment collision-bilevel` and `fair` row when
# this ratchet was set, by rho.  One-sided: a row may improve on its value.
PINNED_PSI = {
    "collision-bilevel": {
        0.01: 32.0238495312203, 0.1: 32.02096417550693, 0.5: 27.90792352680625,
        1.0: 22.156805977913397, 2.0: 4.097521769904222, 4.0: 9.028146757005486e-10,
        7.0: 9.028146757005486e-10, 10.0: 9.028146757005486e-10,
    },
    "fair": {
        0.01: 5379.530971699104, 0.1: 2087.5341599775775, 0.5: 88.16309865608032,
        1.0: 34.282980335809405, 2.0: 27.000000000031875, 4.0: 27.000000000000746,
        7.0: 27.00000000000049, 10.0: 27.000000000000178,
    },
}


@pytest.fixture(scope="module")
def default_bilevel_rows():
    game, target = build_collision_game()
    target_x = pure_to_strategy(target, game.dims)
    collision = sweep_bilevel_rho(DEFAULT_RHO_GRID, kl_objective(target_x, game.dims), game,
                                  target=target_x)
    fair_game = build_fair_game()
    fair = sweep_bilevel_rho(DEFAULT_RHO_GRID, potential_delay_objective(fair_game.dims),
                             fair_game)
    return {"collision-bilevel": collision, "fair": fair}


@pytest.mark.parametrize("scenario", sorted(PINNED_PSI))
def test_bilevel_rows_never_lose_ground(default_bilevel_rows, scenario):
    """Each default row stays converged, with psi at most its pinned value
    plus 1e-9 max(1, |psi|)."""
    rows = default_bilevel_rows[scenario]
    assert [r["rho"] for r in rows] == list(PINNED_PSI[scenario])
    for row in rows:
        pinned = PINNED_PSI[scenario][row["rho"]]
        assert row["converged"] is True, row
        assert row["psi_value"] <= pinned + 1e-9 * max(1.0, abs(pinned)), row


# c_norm of each default `experiment collision-sdp` row when this ratchet was
# set, by epsilon.  One-sided: a row may find a smaller design.
PINNED_C_NORM = {
    0.5: 2.6949535978976447, 1.0: 3.7242704607575616, 1.5: 4.792844189269256,
    2.0: 5.87957445960562, 2.5: 6.976044837422674, 3.0: 8.078310459653894,
    3.5: 9.184292751620104, 4.0: 10.29279709361196, 4.5: 11.40308964685031,
    5.0: 12.51469533442068,
}


def test_sdp_rows_never_lose_ground():
    """Each default min-norm row stays converged, with c_norm at most its
    pinned value plus 1e-9 max(1, c_norm)."""
    rows = sweep_sdp_epsilon(DEFAULT_EPS_GRID)
    assert [r["epsilon"] for r in rows] == list(PINNED_C_NORM)
    for row in rows:
        pinned = PINNED_C_NORM[row["epsilon"]]
        assert row["converged"] is True, row
        assert row["c_norm"] <= pinned + 1e-9 * max(1.0, pinned), row


class TestCsv:
    def test_column_order_and_quoting(self):
        rows = [
            {"epsilon": 1.0, "c_norm": 2.5},
            {"epsilon": 2.0, "error": "InfeasibleDetected: margin, stayed at 1e-3"},
        ]
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "epsilon,c_norm,error"
        assert lines[1] == "1.0,2.5,"
        assert lines[2].startswith('2.0,,"InfeasibleDetected')
        assert '""' not in lines[2]

    def test_floats_roundtrip(self):
        value = 0.1 + 0.2  # 0.30000000000000004
        text = rows_to_csv([{"x": value}])
        parsed = float(text.strip().split("\n")[1])
        assert parsed == value

    def test_no_rows_no_text(self):
        assert rows_to_csv([]) == ""

    def test_area_totals_helper(self):
        game = build_fair_game()
        x = np.full(27, 1.0 / 9.0)
        totals = area_totals(x, game.dims)
        assert np.allclose(totals, 1.0 / 3.0)
        x[::9] = 0.0  # no company serves NW: the objectives' rule refuses it
        with pytest.raises(ZeroAreaTotal):
            area_totals(x, game.dims)
