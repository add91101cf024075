import json

import numpy as np
import pytest

from qregames import cli
from qregames.cli import main
from qregames.experiments import build_collision_game, build_fair_game
from qregames.game import game_to_dict, save_game


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

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
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
    ], ids=["string-lambda", "binary", "directory", "fractional-dims", "string-dims",
            "bool-dims", "bool-lambda", "bool-b"])
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
    ])
    def test_bad_experiment_flag_value(self, argv, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        assert main(["experiment"] + argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:InvalidInput:")
        assert not out.exists()

    @pytest.mark.parametrize("adjacency", [["SW", "S"], {"SW": 5}])
    def test_malformed_adjacency_json(self, adjacency, tmp_path, capsys):
        path = tmp_path / "adjacency.json"
        path.write_text(json.dumps(adjacency))
        out = tmp_path / "rows.csv"
        argv = ["experiment", "fair", "--rho-grid", "1", "--adjacency-json", str(path)]
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:InvalidInput:")
        assert not out.exists()

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
