import json
import pickle

import numpy as np
import pytest

from qregames import (
    DimensionMismatch,
    Game,
    IndexOutOfRange,
    InvalidInput,
    NonPositiveLambda,
    PlayerDims,
    PureTarget,
    check_assumption,
    check_strategy,
    game_from_dict,
    game_to_dict,
    load_game,
    pure_to_strategy,
    save_game,
    validate_game,
)


def make_game(sizes=(3, 3), lam=0.1, b=None, C=None):
    dims = PlayerDims(sizes)
    m = dims.total
    return Game(
        dims,
        lam,
        np.zeros(m) if b is None else b,
        np.zeros((m, m)) if C is None else C,
    )


class TestValidateGame:
    def test_consistent_game_passes(self):
        validate_game(make_game())

    def test_wrong_b_length(self):
        with pytest.raises(DimensionMismatch):
            Game(PlayerDims([3, 3]), 0.1, np.zeros(5), np.zeros((6, 6)))

    def test_wrong_c_shape(self):
        with pytest.raises(DimensionMismatch):
            Game(PlayerDims([3, 3]), 0.1, np.zeros(6), np.zeros((6, 5)))

    def test_zero_lambda(self):
        with pytest.raises(NonPositiveLambda):
            validate_game(make_game(lam=0.0))


class TestConstructorsReject:
    @pytest.mark.parametrize("sizes", [[2.7], [True], ["2"], [2, np.nan]])
    def test_non_whole_counts(self, sizes):
        with pytest.raises(InvalidInput):
            PlayerDims(sizes)

    def test_whole_float_count_accepted(self):
        assert PlayerDims([2.0, np.int64(3)]).sizes == (2, 3)

    @pytest.mark.parametrize("chosen", [[2.7], [False], ["1"]])
    def test_non_whole_target(self, chosen):
        with pytest.raises(InvalidInput):
            PureTarget(chosen)

    @pytest.mark.parametrize("lam", [True, "0.1", None])
    def test_lambda_not_a_number(self, lam):
        with pytest.raises(InvalidInput):
            make_game(lam=lam)

    @pytest.mark.parametrize("lam", [0, -1.0, np.inf, np.nan])
    def test_lambda_out_of_range(self, lam):
        with pytest.raises(NonPositiveLambda):
            make_game(lam=lam)

    def test_constructed_game_passes_validation(self):
        g = make_game(lam=np.float64(0.25))
        validate_game(g)
        assert type(g.lam) is float


class TestCheckAssumption:
    def test_identity_passes(self):
        rep = check_assumption(make_game(C=np.eye(6), lam=1.0))
        assert rep.passed and rep.lambda_ok
        assert rep.min_eig_sym == pytest.approx(2.0)
        assert rep.diag_block_asymmetry == 0.0

    def test_negative_identity_fails(self):
        rep = check_assumption(make_game(C=-np.eye(6)))
        assert not rep.passed
        assert rep.min_eig_sym == pytest.approx(-2.0)

    def test_skew_diagonal_blocks(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(6, 6))
        skew = 0.5 * (raw - raw.T)
        # nonzero diagonal blocks: fails on block asymmetry
        rep = check_assumption(make_game(C=skew))
        assert not rep.passed and rep.diag_block_asymmetry > 0
        # zeroed diagonal blocks: C + C^T = 0 is PSD, so it passes
        skew[0:3, 0:3] = 0.0
        skew[3:6, 3:6] = 0.0
        rep = check_assumption(make_game(C=skew))
        assert rep.passed

    def test_eigenvalue_scale_consistency(self, rng):
        C = rng.normal(size=(6, 6))
        base = check_assumption(make_game(C=C)).min_eig_sym
        for s in (0.5, 2.0, 7.5):
            scaled = check_assumption(make_game(C=s * C)).min_eig_sym
            assert scaled == pytest.approx(s * base, rel=1e-12)

    @pytest.mark.parametrize("sizes", [[1], [6], [1, 4, 2, 7], [3, 3, 3, 3], [5, 1, 1]])
    def test_matches_per_block_reference(self, rng, sizes):
        dims = PlayerDims(sizes)
        m = dims.total
        for _ in range(5):
            C = rng.normal(size=(m, m))
            rep = check_assumption(Game(dims, 0.1, np.zeros(m), C))
            assert rep.min_eig_sym == float(np.linalg.eigvalsh(C + C.T)[0])
            asym = max(
                np.linalg.norm(C[dims.block(i), dims.block(i)] - C[dims.block(i), dims.block(i)].T)
                for i in range(dims.n)
            )
            assert rep.diag_block_asymmetry == pytest.approx(asym, rel=1e-14, abs=1e-300)
            assert rep.lambda_ok


class TestPureToStrategy:
    def test_collision_target(self):
        dims = PlayerDims([3, 3, 3, 3])
        x = pure_to_strategy(PureTarget([3, 3, 3, 3]), dims)
        for i in range(4):
            assert list(x[dims.block(i)]) == [0.0, 0.0, 1.0]
        check_strategy(x, dims)

    def test_first_action(self):
        x = pure_to_strategy(PureTarget([1]), PlayerDims([2]))
        assert list(x) == [1.0, 0.0]

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            pure_to_strategy(PureTarget([5]), PlayerDims([2]))
        with pytest.raises(IndexOutOfRange):
            pure_to_strategy(PureTarget([0]), PlayerDims([2]))

    def test_always_valid_strategy(self, rng):
        for _ in range(20):
            sizes = rng.integers(1, 6, size=rng.integers(1, 5))
            dims = PlayerDims(sizes)
            chosen = [int(rng.integers(1, s + 1)) for s in sizes]
            check_strategy(pure_to_strategy(PureTarget(chosen), dims), dims)


class TestCheckStrategy:
    @pytest.mark.parametrize("x", [
        [np.nan, 1.0, 0.5, 0.5],
        [np.inf, 1.0, 0.5, 0.5],
        [-np.inf, 1.0, 0.5, 0.5],
        [-0.5, 1.5, 0.5, 0.5],
        [1.0, 0.0, 0.5, 0.6],
        [1.0, 0.0, 0.5],
    ])
    def test_rejects(self, x):
        with pytest.raises(DimensionMismatch):
            check_strategy(np.array(x), PlayerDims([2, 2]))

    def test_accepts_probability_blocks(self):
        check_strategy(np.array([1.0, 0.25, 0.25, 0.5, 1.0]), PlayerDims([1, 3, 1]))


class TestBlocks:
    def test_split_roundtrip(self, rng):
        for sizes in ([1], [2, 3], [4, 1, 2], [3, 3, 3, 3]):
            dims = PlayerDims(sizes)
            x = rng.normal(size=dims.total)
            assert np.array_equal(np.concatenate(dims.split(x)), x)

    def test_offsets_strictly_increasing(self):
        dims = PlayerDims([2, 5, 1])
        off = dims.offsets
        assert off == (0, 2, 7, 8)
        assert all(off[i] + dims.sizes[i] == off[i + 1] for i in range(dims.n))

    def test_index_arrays_read_only(self):
        dims = PlayerDims([1, 4, 2, 7])
        assert dims.starts.tolist() == [0, 1, 5, 7]
        assert dims.owner.tolist() == [0, 1, 1, 1, 1, 2, 2, 3, 3, 3, 3, 3, 3, 3]
        copy = pickle.loads(pickle.dumps(dims))  # pickled after the arrays were cached
        for arr in (dims.starts, dims.owner, copy.starts, copy.owner):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 5


class TestGameJson:
    def test_roundtrip_bitwise(self, tmp_path, rng):
        dims = PlayerDims([2, 3])
        g = Game(dims, 0.37, rng.normal(size=5), rng.normal(size=(5, 5)))
        path = tmp_path / "g.json"
        save_game(g, path)
        g2 = load_game(path)
        assert g2.lam == g.lam
        assert np.array_equal(g2.b, g.b)
        assert np.array_equal(g2.C, g.C)

    def test_missing_key(self):
        with pytest.raises(InvalidInput):
            game_from_dict({"lambda": 0.1, "dims": [2], "b": [0, 0]})

    def test_strict_lengths(self):
        d = game_to_dict(make_game())
        d["b"] = d["b"][:-1]
        with pytest.raises(InvalidInput):
            game_from_dict(d)
        d = game_to_dict(make_game())
        d["C"][0] = d["C"][0][:-1]
        with pytest.raises(InvalidInput):
            game_from_dict(d)

    @pytest.mark.parametrize("key, value", [
        ("b", ["x", 1]),
        ("dims", "ab"),
        ("C", 5),
        ("lambda", "0.1"),
        ("C", [[0, 0], [0, "y"]]),
        ("dims", [2.7]),
        ("dims", ["2"]),
        ("dims", [True, 1]),
        ("lambda", True),
        ("b", [True, 1]),
        ("C", [[0, False], [0, 0]]),
    ])
    def test_rejects_malformed_values(self, key, value):
        d = game_to_dict(make_game(sizes=(2,)))
        d[key] = value
        with pytest.raises(InvalidInput):
            game_from_dict(d)

    def test_accepts_whole_float_dims(self):
        d = game_to_dict(make_game(sizes=(2,)))
        d["dims"] = [2.0]
        assert game_from_dict(d).dims.sizes == (2,)

    def test_rejects_nan_and_inf(self, tmp_path):
        d = game_to_dict(make_game(sizes=(2,)))
        text = json.dumps(d).replace("0.0", "NaN", 1)
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(InvalidInput):
            load_game(path)
        path.write_text(json.dumps(d).replace("0.0", "Infinity", 1))
        with pytest.raises(InvalidInput):
            load_game(path)

    def test_game_arrays_immutable(self):
        g = make_game()
        for game in (g, pickle.loads(pickle.dumps(g))):
            with pytest.raises(ValueError):
                game.b[0] = 1.0
            with pytest.raises(ValueError):
                game.C[0, 0] = 1.0
