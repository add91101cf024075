import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qregames
from qregames import cli, experiments
from qregames.cli import main
from qregames.experiments import build_collision_game, build_fair_game
from qregames.game import game_to_dict, save_game
from qregames.svgplot import line_chart


@pytest.fixture
def collision_path(tmp_path):
    game, _ = build_collision_game()
    path = tmp_path / "collision.json"
    save_game(game, path)
    return str(path)


@pytest.fixture
def fair_path(tmp_path):
    path = tmp_path / "fair.json"
    save_game(build_fair_game(), path)
    return str(path)


class TestSolveCommand:
    def test_collision_solve(self, collision_path, tmp_path, capsys):
        out = tmp_path / "solution.json"
        assert main(["solve", "--game", collision_path, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["converged"] and data["residual_sq"] <= 1e-10
        assert data["seed"] == 0
        x = np.array(data["x"])
        assert np.abs(x[:3] - np.array([1.0, 0.0, 0.0])).max() < 1e-3
        assert data["stationarity_residual"] <= 1e-6

    def test_solve_to_stdout(self, collision_path, capsys):
        assert main(["solve", "--game", collision_path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["certified"] is True

    def test_uncertified_game_reported(self, tmp_path, capsys):
        # C + C^T = -2I fails the certificate; the solve still converges
        path = tmp_path / "uncertified.json"
        path.write_text(json.dumps({"lambda": 1.0, "dims": [2], "b": [0, 0], "C": [[-1, 0], [0, -1]]}))
        assert main(["solve", "--game", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["certified"] is False and data["converged"] is True

    def test_lambda_override(self, collision_path, capsys):
        assert main(["solve", "--game", collision_path, "--lambda", "10"]) == 0
        x = json.loads(capsys.readouterr().out)["x"]
        assert max(x[:3]) < 0.5  # high temperature spreads the strategy out

    def test_lambda_override_must_be_positive(self, collision_path, capsys):
        assert main(["solve", "--game", collision_path, "--lambda", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error:InvalidInput:")

    def test_underflowed_equilibrium_has_null_stationarity(self, tmp_path):
        # x_2 = exp(-1000) rounds to 0.0, so ln x_2 is undefined
        path = tmp_path / "underflow.json"
        path.write_text(json.dumps(
            {"lambda": 0.01, "dims": [2, 2], "b": [0, 10, 0, 10], "C": [[0] * 4] * 4}
        ))
        out = tmp_path / "s.json"
        assert main(["solve", "--game", str(path), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["converged"] is True
        assert data["x"] == [1.0, 0.0, 1.0, 0.0]
        assert data["stationarity_residual"] is None

    def test_nonconvergence_exit_code(self, tmp_path):
        # coupled, so no Gauss-Newton step lands exactly on the equilibrium
        game, _ = build_collision_game()
        m = game.dims.total
        path = tmp_path / "coupled.json"
        save_game(game.with_matrix(np.eye(m) + 0.5 * np.ones((m, m))), path)
        out = tmp_path / "s.json"
        code = main(["solve", "--game", str(path), "--residual-tol", "1e-300",
                     "--max-iters", "3", "--out", str(out)])
        assert code == 3
        assert json.loads(out.read_text())["converged"] is False  # artifact still written


class TestCheckCommand:
    def test_passing_game(self, collision_path, capsys):
        assert main(["check", "--game", collision_path]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_failing_game(self, tmp_path, capsys):
        from qregames import Game, PlayerDims

        bad = Game(PlayerDims([2]), 0.5, np.zeros(2), -np.eye(2))
        path = tmp_path / "bad.json"
        save_game(bad, path)
        assert main(["check", "--game", str(path)]) == 3
        assert json.loads(capsys.readouterr().out)["passed"] is False


class TestDesignCommands:
    def test_design_sdp(self, collision_path, tmp_path):
        out = tmp_path / "design.json"
        code = main(["design-sdp", "--game", collision_path, "--target", "3,3,3,3",
                     "--epsilon", "3", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["converged"]
        assert data["max_violation"] <= 1e-6
        assert data["kl_to_target"] <= 1e-6
        x = np.array(data["x"])
        assert all(x[3 * i + 2] >= 0.9 for i in range(4))

    def test_design_bilevel_kl(self, collision_path, tmp_path):
        out = tmp_path / "bd.json"
        code = main(["design-bilevel", "--game", collision_path, "--objective", "kl",
                     "--target", "3,3,3,3", "--rho", "7", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["converged"]
        assert data["c_norm"] <= 7.0 + 1e-9
        assert "history" in data

    def test_design_bilevel_requires_target_for_kl(self, collision_path, capsys):
        code = main(["design-bilevel", "--game", collision_path, "--objective", "kl",
                     "--rho", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:InvalidInput:")

    def test_design_bilevel_kl_pure_target_needs_smoothing(self, collision_path, capsys,
                                                           recwarn):
        code = main(["design-bilevel", "--game", collision_path, "--objective", "kl",
                     "--target", "3,3,3,3", "--delta", "0", "--rho", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:InvalidInput: smoothing_delta")
        assert len(recwarn) == 0

    @pytest.mark.parametrize("target", ["3,3", "3,3,3,3,3", "3,3,3,4"])
    def test_design_sdp_target_must_fit_dims(self, collision_path, target, capsys):
        assert main(["design-sdp", "--game", collision_path, "--target", target]) == 2
        assert capsys.readouterr().err.startswith("error:IndexOutOfRange:")


class TestSimulateCommand:
    def test_frequencies(self, tmp_path):
        out = tmp_path / "sim.json"
        code = main(["simulate", "--cost", "2,3.141592653589793,3.141592653589793",
                     "--lambda", "0.1", "--samples", "100000", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["frequencies"][0] >= 0.999
        assert sum(data["frequencies"]) == pytest.approx(1.0, abs=0.0)
        assert data["tv_distance"] <= 0.01

    def test_bad_lambda(self, capsys):
        assert main(["simulate", "--cost", "1,2", "--lambda", "0"]) == 2
        assert capsys.readouterr().err.startswith("error:InvalidInput:")
        assert main(["simulate", "--cost", "1,2", "--lambda", "nan"]) == 2
        assert capsys.readouterr().err.startswith("error:InvalidInput:")

    def test_infinite_lambda(self, capsys):
        assert main(["simulate", "--cost", "1,2", "--lambda", "inf"]) == 2
        assert capsys.readouterr().err.startswith("error:InvalidInput:")

    def test_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "sim.json"
        argv = ["simulate", "--cost", "1,2", "--lambda", "0.5", "--seed", "-1", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:InvalidInput:")
        assert not out.exists()

    @pytest.mark.parametrize("cost, lam", [("1,2", "1e-320"), ("1e308", "0.1")])
    def test_overflowing_logit_column(self, cost, lam, tmp_path, capsys):
        # -cost/lambda overflows to -inf in every entry, so the softmax has no value
        out = tmp_path / "sim.json"
        argv = ["simulate", "--cost", cost, "--lambda", lam, "--samples", "10", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:NonFiniteInput:")
        assert not out.exists()

    def test_logit_column_fails_before_any_sample(self, monkeypatch, capsys):
        def no_sampling(*args):
            raise AssertionError("sampled")
        monkeypatch.setattr(cli, "simulate_gumbel_choice", no_sampling)
        assert main(["simulate", "--cost", "1e308", "--lambda", "0.1"]) == 2
        assert capsys.readouterr().err == (
            "error:NonFiniteInput: logit response to -cost/lambda has NaN or infinite entries\n")

    def test_logit_column_with_one_overflowing_entry(self, tmp_path):
        out = tmp_path / "sim.json"
        argv = ["simulate", "--cost", "1,1e308", "--lambda", "0.1", "--samples", "10",
                "--out", str(out)]
        assert main(argv) == 0
        assert json.loads(out.read_text())["logit_response"] == [1.0, 0.0]


class TestExperimentCommand:
    def test_fair_csv(self, tmp_path):
        out = tmp_path / "fair.csv"
        code = main(["experiment", "fair", "--rho-grid", "0.01,10", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "rho" and "psi_value" in header and "seed" in header
        assert len(lines) == 3

    def test_collision_sdp_csv_and_plot(self, tmp_path):
        out = tmp_path / "sdp.csv"
        svg = tmp_path / "sdp.svg"
        code = main(["experiment", "collision-sdp", "--eps-grid", "1,3",
                     "--out", str(out), "--plot", str(svg)])
        assert code == 0
        assert svg.read_text().startswith("<svg ")
        header = out.read_text().split("\n")[0].split(",")
        assert header[:4] == ["epsilon", "c_norm", "kl_smoothed", "kl_to_target"]

    def test_plot_of_a_sweep_whose_rows_all_fail(self, tmp_path):
        out, svg = tmp_path / "rows.csv", tmp_path / "rows.svg"
        code = main(["experiment", "collision-bilevel", "--rho-grid", "1000", "--alpha", "1000",
                     "--out", str(out), "--plot", str(svg)])
        assert code == 3
        assert "error" in out.read_text().split("\n")[0].split(",")
        assert svg.read_text().startswith("<svg ") and "<circle" not in svg.read_text()

    def test_collision_bilevel_needs_smoothing(self, tmp_path, capsys, recwarn):
        out = tmp_path / "rows.csv"
        code = main(["experiment", "collision-bilevel", "--rho-grid", "1", "--delta", "0",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:InvalidInput: smoothing_delta")
        assert len(recwarn) == 0 and not out.exists()

    def test_fair_plot_gives_each_area_its_own_fill(self, tmp_path):
        svgs = [tmp_path / "a.svg", tmp_path / "b.svg"]
        for svg in svgs:
            assert main(["experiment", "fair", "--rho-grid", "0.01,10",
                         "--out", str(tmp_path / "fair.csv"), "--plot", str(svg)]) == 0
        assert svgs[0].read_bytes() == svgs[1].read_bytes()
        text = svgs[0].read_text()
        legend = re.findall(r'width="12" height="12" fill="([^"]+)"/><text [^>]*>([^<]+)<', text)
        assert [name for _, name in legend] == list(experiments.AREA_NAMES)
        fills = [fill for fill, _ in legend]
        assert len(set(fills)) == 9
        bars = re.findall(r'width="[0-9]+\.[0-9]+" height="[^"]*" fill="([^"]+)"', text)
        assert bars == fills * 2  # one bar per rho, one slice per area in legend order

    def test_failed_row_is_written_and_exits_3(self, tmp_path):
        # at epsilon 1e30 the designed equilibrium underflows to exact zeros
        out = tmp_path / "rows.csv"
        code = main(["experiment", "collision-sdp", "--eps-grid", "1e30,2", "--out", str(out)])
        assert code == 3
        header, *lines = out.read_text().strip().split("\n")
        rows = {row["epsilon"]: row for row in
                (dict(zip(header.split(","), line.split(","))) for line in lines)}
        assert rows["1e+30"]["error"] == (
            "NonPositiveStrategy: objective evaluated at a strategy with nonpositive entries")
        assert rows["2.0"]["converged"] == "true" and rows["2.0"]["error"] == ""

    def test_log_chart_plots_zero_at_the_floor(self):
        def chart(y):
            return line_chart([1.0, 2.0, 3.0], y, "x", "y", "t")
        assert chart([0.0, 1e-3, 1.0]) == chart([1e-16, 1e-3, 1.0])
        assert chart([0.0, 1e-3, 1.0]) != chart([2e-16, 1e-3, 1.0])

    def test_unconverged_row_exits_3(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(["experiment", "collision-sdp", "--eps-grid", "0", "--max-sweeps", "1",
                     "--out", str(out)])
        assert code == 3
        header, row = out.read_text().strip().split("\n")
        assert dict(zip(header.split(","), row.split(",")))["converged"] == "false"

    @pytest.mark.parametrize("argv", [
        ["collision-sdp", "--eps-grid", "1,2,3"],
        ["collision-bilevel", "--rho-grid", "0.01,1"],
        ["fair", "--rho-grid", "0.01,1"],
    ], ids=lambda argv: argv[0])
    def test_jobs_parallel_matches_serial(self, argv, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["experiment"] + argv + ["--out", str(a), "--jobs", "1"]) == 0
        assert main(["experiment"] + argv + ["--out", str(b), "--jobs", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("jobs, cores, workers", [
        (5000, 8, 2),  # capped by the two rows
        (5000, 1, None),  # one core: no pool
        (5000, None, None),  # core count unknown: no pool
        (1, 8, None),
    ])
    def test_jobs_capped_by_rows_and_cores(self, jobs, cores, workers, monkeypatch, tmp_path):
        started = []

        class SerialPool:  # records the pool size and starts no process
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, values):
                return map(fn, values)

        monkeypatch.setattr(experiments.concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cores)
        out = tmp_path / "rows.csv"
        assert main(["experiment", "collision-sdp", "--eps-grid", "1,2", "--jobs", str(jobs),
                     "--out", str(out)]) == 0
        assert started == ([] if workers is None else [workers])
        assert len(out.read_text().strip().split("\n")) == 3


class TestDeterminismAndErrors:
    def test_identical_invocations_byte_identical(self, collision_path, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert main(["solve", "--game", collision_path, "--seed", "5",
                         "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["solve", "--game", "GAME"],
        ["experiment", "collision-sdp", "--eps-grid", "1"],
    ], ids=["solve", "experiment"])
    def test_output_into_a_missing_directory(self, argv, collision_path, tmp_path, capsys):
        argv = [collision_path if a == "GAME" else a for a in argv]
        assert main(argv + ["--out", str(tmp_path / "missing" / "out")]) == 2
        assert capsys.readouterr().err.startswith("error:FileNotFound:")
        assert not (tmp_path / "missing").exists()

    def test_missing_file(self, capsys):
        assert main(["solve", "--game", "/nonexistent/game.json"]) == 2
        assert capsys.readouterr().err.startswith("error:FileNotFound:")

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve", "--game", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:InvalidInput:")

    @pytest.mark.parametrize("content", [
        json.dumps({"lambda": "0.1", "dims": [2], "b": [0, 1], "C": [[0, 0]] * 2}).encode(),
        b"\xff\xfe not text",
        None,
        json.dumps({"lambda": 0.1, "dims": [2.7], "b": [0, 1], "C": [[0, 0]] * 2}).encode(),
        json.dumps({"lambda": 0.1, "dims": ["2"], "b": [0, 1], "C": [[0, 0]] * 2}).encode(),
        json.dumps({"lambda": 0.1, "dims": [True], "b": [0], "C": [[0]]}).encode(),
        json.dumps({"lambda": True, "dims": [2], "b": [0, 1], "C": [[0, 0]] * 2}).encode(),
        json.dumps({"lambda": 0.1, "dims": [2], "b": [True, 1], "C": [[0, 0]] * 2}).encode(),
        json.dumps({"lambda": 10**400, "dims": [2], "b": [0, 1], "C": [[0, 0]] * 2}).encode(),
        json.dumps({"lambda": 0.1, "dims": [2], "b": [10**400, 1], "C": [[0, 0]] * 2}).encode(),
        b'{"lambda": 0.1, "dims": [2], "b": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    ], ids=["string-lambda", "binary", "directory", "fractional-dims", "string-dims",
            "bool-dims", "bool-lambda", "bool-b", "huge-int-lambda", "huge-int-b",
            "deep-nesting"])
    def test_malformed_game_file(self, content, tmp_path, capsys):
        path = tmp_path / "game.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        assert main(["solve", "--game", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:InvalidInput:")

    def test_nonpositive_lambda_rejected(self, tmp_path, capsys):
        game, _ = build_collision_game()
        d = game_to_dict(game)
        d["lambda"] = 0.0
        path = tmp_path / "zl.json"
        path.write_text(json.dumps(d))
        assert main(["solve", "--game", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:NonPositiveLambda:")

    def test_overflowing_lambda_rejected(self, tmp_path, capsys):
        path = tmp_path / "inf.json"
        path.write_text('{"lambda": 1e999, "dims": [2], "b": [0, 1], "C": [[0, 0], [0, 0]]}')
        assert main(["solve", "--game", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:NonPositiveLambda:")

    def test_bad_flag_value(self, capsys):
        assert main(["experiment", "fair", "--rho-grid", "abc"]) == 2
        assert capsys.readouterr().err.startswith("error:InvalidInput:")

    @pytest.mark.parametrize("argv", [
        ["design-sdp", "--target", "3,3,3,3", "--max-sweeps", "0"],
        ["design-sdp", "--target", "3,3,3,3", "--dykstra-tol", "nan"],
        ["design-sdp", "--target", "3,3,3,3", "--epsilon", "nan"],
        ["design-sdp", "--target", "3,3,3,3", "--epsilon", "inf"],
        ["design-sdp", "--target", "1.5,3,3,3"],
        ["design-sdp", "--target", "nan,3,3,3"],
        ["design-bilevel", "--objective", "kl", "--target", "3,3,3,3", "--rho", "nan"],
        ["design-bilevel", "--objective", "kl", "--target", "3,3,3,3", "--rho", "1",
         "--alpha", "nan"],
        ["solve", "--max-iters", "0"],
        ["design-bilevel", "--objective", "kl", "--target", "3,3,3,3", "--rho", "1",
         "--alpha", "inf"],
        ["design-bilevel", "--objective", "kl", "--target", "3,3,3,3", "--rho", "1",
         "--stop-eps", "inf"],
        ["solve", "--lambda", "inf"],
        ["design-sdp", "--target", "3,3,3,3", "--lambda", "inf"],
        ["check", "--tol", "nan"],
        ["check", "--tol", "inf"],
        ["check", "--tol", "-1"],
        ["design-bilevel", "--objective", "kl", "--target", "3,3,3,3", "--rho", "inf"],
        ["solve", "--residual-tol", "inf"],
        ["design-bilevel", "--objective", "potential-delay", "--rho", "1",
         "--target", "3,3,3,3"],
        ["design-bilevel", "--objective", "potential-delay", "--rho", "1", "--delta", "0.5"],
    ])
    def test_bad_design_flag_value(self, collision_path, argv, capsys):
        assert main(argv[:1] + ["--game", collision_path] + argv[1:]) == 2
        assert capsys.readouterr().err.startswith("error:InvalidInput:")

    @pytest.mark.parametrize("argv", [
        ["collision-sdp", "--eps-grid", "-1"],
        ["collision-sdp", "--eps-grid", "1,nan"],
        ["collision-sdp", "--eps-grid", "1", "--max-sweeps", "0"],
        ["fair", "--rho-grid", "nan"],
        ["collision-bilevel", "--rho-grid", "1", "--delta", "2"],
        ["fair", "--rho-grid", "0.01,1", "--alpha", "inf"],
        ["collision-bilevel", "--rho-grid", "1", "--stop-eps", "inf"],
        ["fair", "--rho-grid", "1,inf"],
        ["fair", "--rho-grid", "1", "--jobs", "0"],
        ["collision-sdp", "--eps-grid", "1", "--jobs", "-3"],
        ["fair", "--rho-grid", ","],
    ])
    def test_bad_experiment_flag_value(self, argv, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        assert main(["experiment"] + argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:InvalidInput:")
        assert not out.exists()

    # Valid values of the flags that belong to another scenario.
    FOREIGN_FLAGS = {
        "collision-sdp": [["--rho-grid", "1"], ["--delta", "0.5"], ["--alpha", "0.1"],
                          ["--stop-eps", "1e-6"], ["--max-outer", "10"],
                          ["--adjacency", "grid4"], ["--adjacency-json", "map.json"],
                          ["--homes", "SW,SE,E"]],
        "collision-bilevel": [["--eps-grid", "1"], ["--dykstra-tol", "1e-8"],
                              ["--max-sweeps", "10"], ["--adjacency", "grid4"],
                              ["--adjacency-json", "map.json"], ["--homes", "SW,SE,E"]],
        "fair": [["--eps-grid", "1"], ["--dykstra-tol", "1e-8"], ["--max-sweeps", "10"],
                 ["--delta", "0.5"]],
    }
    OWN_GRID = {"collision-sdp": ["--eps-grid", "1"], "collision-bilevel": ["--rho-grid", "0.01"],
                "fair": ["--rho-grid", "0.01"]}

    @pytest.mark.parametrize("scenario, flag", [
        (scenario, flag) for scenario, flags in FOREIGN_FLAGS.items() for flag in flags
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_scenario_rejects_foreign_flag(self, scenario, flag, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        argv = ["experiment", scenario] + self.OWN_GRID[scenario] + flag + ["--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:InvalidInput:")
        assert not out.exists()

    def test_readme_cli_lines_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("qregames ")]
        assert len(lines) >= 9
        parser = cli._build_parser()
        for line in lines:
            parser.parse_args(shlex.split(line)[1:])

    @pytest.mark.parametrize("adjacency", [
        ["SW", "S"],
        {"SW": 5},
        pytest.param('{"SW": ' + "[" * 100_000 + "]" * 100_000 + "}", id="deep-nesting"),
        pytest.param(b"\xff\xfe{", id="not-utf8"),
        pytest.param('{"SW": [NaN]}', id="nan-neighbour"),
    ])
    def test_malformed_adjacency_json(self, adjacency, tmp_path, capsys):
        path = tmp_path / "adjacency.json"
        if isinstance(adjacency, bytes):
            path.write_bytes(adjacency)
        else:
            path.write_text(adjacency if isinstance(adjacency, str) else json.dumps(adjacency))
        out = tmp_path / "rows.csv"
        argv = ["experiment", "fair", "--rho-grid", "1", "--adjacency-json", str(path)]
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:InvalidInput:")
        assert not out.exists()

    def test_adjacency_json_matches_the_built_in_map(self, tmp_path):
        path = tmp_path / "grid4.json"
        path.write_text(json.dumps({k: list(v) for k, v in experiments.GRID4_ADJACENCY.items()}))
        outs = [tmp_path / "built-in.csv", tmp_path / "json.csv"]
        base = ["experiment", "fair", "--rho-grid", "0.5"]
        assert main(base + ["--adjacency", "grid4", "--out", str(outs[0])]) == 0
        assert main(base + ["--adjacency-json", str(path), "--out", str(outs[1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_missing_adjacency_json(self, tmp_path, capsys):
        argv = ["experiment", "fair", "--rho-grid", "1",
                "--adjacency-json", str(tmp_path / "missing.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:FileNotFound:")

    @pytest.mark.parametrize("argv", [
        ["check", "--game", "GAME", "--out"],
        ["experiment", "collision-sdp", "--eps-grid", "1", "--out"],
        ["experiment", "collision-sdp", "--eps-grid", "1", "--plot"],
    ], ids=["check-out", "experiment-out", "experiment-plot"])
    def test_output_path_that_is_a_directory(self, argv, collision_path, tmp_path, capsys):
        argv = [collision_path if a == "GAME" else a for a in argv] + [str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:InvalidInput:")

    def test_potential_delay_needs_equal_blocks(self, tmp_path, capsys):
        path = tmp_path / "unequal.json"
        path.write_text(json.dumps(
            {"lambda": 0.5, "dims": [2, 3], "b": [0, 1, 0, 1, 2], "C": [[0] * 5] * 5}
        ))
        argv = ["design-bilevel", "--game", str(path), "--objective", "potential-delay",
                "--rho", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:InvalidInput:")

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2


def _coupling_game(lam):
    """PlayerDims([2, 2]) with C[0, 2] = C[2, 0] = 1e308: C + C^T leaves double range."""
    C = [[0.0] * 4 for _ in range(4)]
    C[0][2] = C[2][0] = 1e308
    return {"lambda": lam, "dims": [2, 2], "b": [0.0] * 4, "C": C}


EDGE_GAMES = {
    "EYE": {"lambda": 10.0, "dims": [2], "b": [0.0, 0.0], "C": [[1e308, 0.0], [0.0, 1e308]]},
    "COUPLING_0.1": _coupling_game(0.1),
    "COUPLING_10": _coupling_game(10.0),
    "FULL_1E308": {"lambda": 10.0, "dims": [2, 2], "b": [0.0] * 4, "C": [[1e308] * 4] * 4},
}

BILEVEL_KL = ["--objective", "kl", "--target", "3,3,3,3", "--rho", "1"]
POTENTIAL_DELAY = ["--objective", "potential-delay", "--rho", "1"]


class TestEdgeOfDoubleRange:
    """Finite inputs at the edge of double range: each command ends before its
    timeout, exits 0, or 2 or 3 with a typed error, never 1, and prints no numpy
    warning.  A subprocess, so a hang fails the row and stderr is the CLI's own
    (`design-sdp --epsilon 1e308` used to halve a NaN line-search trial forever)."""

    @pytest.mark.parametrize("argv, code, kind", [
        (["check", "--game", "EYE"], 2, "NonFiniteInput"),
        (["solve", "--game", "COLLISION", "--lambda", "1e-320"], 2, "NonPositiveLambda"),
        (["solve", "--game", "COLLISION", "--lambda", "5e-324"], 2, "NonPositiveLambda"),
        (["design-sdp", "--game", "COLLISION", "--target", "3,3,3,3", "--epsilon", "1e30"],
         2, "NonPositiveStrategy"),
        (["design-sdp", "--game", "COLLISION", "--target", "3,3,3,3", "--epsilon", "1e308"],
         3, None),
        (["design-bilevel", "--game", "COLLISION", *BILEVEL_KL, "--lambda", "1e-5"],
         2, "NonPositiveStrategy"),
        (["design-bilevel", "--game", "FAIR", *POTENTIAL_DELAY, "--lambda", "1e-5"],
         2, "ZeroAreaTotal"),
        (["check", "--game", "COUPLING_0.1"], 2, "NonPositiveLambda"),
        (["check", "--game", "COUPLING_10"], 2, "NonFiniteInput"),
        (["design-bilevel", "--game", "COUPLING_0.1", *POTENTIAL_DELAY], 2, "NonPositiveLambda"),
        (["design-bilevel", "--game", "COUPLING_10", *POTENTIAL_DELAY], 3, None),
        (["check", "--game", "HUGE_INT"], 2, "InvalidInput"),
        (["design-bilevel", "--game", "FULL_1E308", *POTENTIAL_DELAY], 0, None),
    ], ids=["check-C-1e308", "solve-lambda-1e-320", "solve-lambda-5e-324",
            "design-sdp-epsilon-1e30", "design-sdp-epsilon-1e308",
            "design-bilevel-kl-lambda-1e-5", "design-bilevel-fair-lambda-1e-5",
            "check-coupling-lambda-0.1", "check-coupling-lambda-10",
            "design-bilevel-coupling-lambda-0.1", "design-bilevel-coupling-lambda-10",
            "check-integer-beyond-float", "design-bilevel-cone-projection-beyond-double"])
    def test_ends_typed_without_warnings(self, argv, code, kind, collision_path, fair_path,
                                         tmp_path):
        paths = {"COLLISION": collision_path, "FAIR": fair_path}
        for name, game in EDGE_GAMES.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(game))
        paths["HUGE_INT"] = tmp_path / "huge_int.json"
        paths["HUGE_INT"].write_text(
            '{"lambda": 1, "dims": [2], "b": [0, 0], "C": [[1' + "0" * 400 + ", 0], [0, 1]]}")
        out = tmp_path / "out.json"
        src = str(Path(qregames.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "qregames.cli", *(str(paths.get(a, a)) for a in argv),
             "--out", str(out)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == code, proc.stderr
        assert "Warning" not in proc.stderr
        if kind is None:
            assert proc.stderr == ""
            assert json.loads(out.read_text())["converged"] is (code == 0)
        else:
            assert proc.stderr.startswith(f"error:{kind}:")


EXIT_ROWS = [
    (qregames.InvalidInput("boom"), 2, "error:InvalidInput: boom"),
    (qregames.DimensionMismatch("boom"), 2, "error:DimensionMismatch: boom"),
    (qregames.NonPositiveLambda("boom"), 2, "error:NonPositiveLambda: boom"),
    (qregames.IndexOutOfRange("boom"), 2, "error:IndexOutOfRange: boom"),
    (qregames.NonFiniteInput("boom"), 2, "error:NonFiniteInput: boom"),
    (qregames.InvalidGeometry("boom"), 2, "error:InvalidGeometry: boom"),
    (qregames.InfeasibleDetected("boom", 1.0), 2, "error:InfeasibleDetected: boom"),
    (qregames.NonPositiveStrategy("boom"), 2, "error:NonPositiveStrategy: boom"),
    (qregames.ZeroAreaTotal("boom"), 2, "error:ZeroAreaTotal: boom"),
    (FileNotFoundError("boom"), 2, "error:FileNotFound: boom"),
    (qregames.InnerSolveFailure("boom"), 3, "error:InnerSolveFailure: boom"),
    (qregames.EigendecompositionFailure("boom"), 1, "error:EigendecompositionFailure: boom"),
    (qregames.DecompositionFailure("boom"), 1, "error:DecompositionFailure: boom"),
    (qregames.QreGamesError("boom"), 1, "error:QreGamesError: boom"),
    (RuntimeError("boom"), 1, "error:Internal: RuntimeError: boom"),
]


class TestExitTable:
    """Each error family maps to one exit code and one `error:<kind>:` prefix, and
    each command writes its JSON keys in one order."""

    @pytest.mark.parametrize("exc, code, prefix", EXIT_ROWS,
                             ids=[type(row[0]).__name__ for row in EXIT_ROWS])
    def test_exit_code_and_prefix(self, exc, code, prefix, collision_path, monkeypatch, capsys):
        def raise_exc(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "solve_equilibrium", raise_exc)
        assert main(["solve", "--game", collision_path]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == prefix + "\n"

    @pytest.mark.parametrize("argv, keys", [
        (["solve", "--game", "COLLISION"],
         ["x", "residual_sq", "iterations", "converged", "certified", "stationarity_residual",
          "seed"]),
        (["check", "--game", "COLLISION"],
         ["min_eig_sym", "diag_block_asymmetry", "lambda_ok", "passed", "tol", "seed"]),
        (["design-sdp", "--game", "COLLISION", "--target", "3,3,3,3", "--epsilon", "2"],
         ["C", "x", "objective_value", "c_norm", "outer_iterations", "converged",
          "max_violation", "seed", "kl_to_target"]),
        (["design-bilevel", "--game", "COLLISION", *BILEVEL_KL, "--max-outer", "2"],
         ["C", "x", "objective_value", "c_norm", "outer_iterations", "converged", "history",
          "seed", "kl_to_target"]),
        (["design-bilevel", "--game", "FAIR", *POTENTIAL_DELAY, "--max-outer", "2"],
         ["C", "x", "objective_value", "c_norm", "outer_iterations", "converged", "history",
          "seed"]),
        (["simulate", "--cost", "1,2", "--lambda", "1", "--samples", "10"],
         ["cost", "lambda", "samples", "seed", "frequencies", "logit_response", "tv_distance"]),
    ], ids=["solve", "check", "design-sdp", "design-bilevel-kl",
            "design-bilevel-potential-delay", "simulate"])
    def test_json_key_order(self, argv, keys, collision_path, fair_path, capsys):
        paths = {"COLLISION": collision_path, "FAIR": fair_path}
        assert main([paths.get(a, a) for a in argv]) in (0, 3)
        assert list(json.loads(capsys.readouterr().out)) == keys
