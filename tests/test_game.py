import functools
import json
import pickle

import numpy as np
import pytest

from qregames import (
    DimensionMismatch,
    Game,
    IndexOutOfRange,
    InvalidInput,
    NonFiniteInput,
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

from conftest import make_game


class TestValidateGame:
    def test_consistent_game_passes(self):
        validate_game(make_game())

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

    def test_lambda_too_small_for_the_costs(self):
        # (max|b| + n max|C|)/lambda = 2e308/lambda: finite at 10, not at 0.1
        C = np.zeros((4, 4))
        C[0, 2] = C[2, 0] = 1e308
        assert make_game(sizes=(2, 2), lam=10.0, C=C).lam == 10.0
        with pytest.raises(NonPositiveLambda, match="lambda 0.1 is too small"):
            make_game(sizes=(2, 2), lam=0.1, C=C)
        with pytest.raises(NonPositiveLambda, match="lambda 5e-324 is too small"):
            make_game(sizes=(2, 2), lam=5e-324, b=np.array([0.0, 1.0, 0.0, 0.0]))
        with pytest.raises(NonPositiveLambda, match="lambda 0.1 is too small"):
            make_game(sizes=(2, 2), lam=0.1).with_matrix(C)

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

    def test_doubled_numbers_beyond_double_range_raise(self):
        # C + C^T = 2e308 I: its eigenvalue is not a double
        with pytest.raises(NonFiniteInput, match=r"C \+ C\^T leaves double range"):
            check_assumption(make_game(sizes=(2,), lam=10.0, C=1e308 * np.eye(2)))
        C = np.zeros((4, 4))
        C[0, 1] = 1e308  # a diagonal block's asymmetry squared overflows
        with pytest.raises(NonFiniteInput, match=r"C \+ C\^T leaves double range"):
            check_assumption(make_game(sizes=(2, 2), lam=10.0, C=C))

    def test_skew_coupling_near_double_max_passes(self):
        # C - C^T overflows off the diagonal blocks, which the certificate never reads
        C = np.zeros((4, 4))
        C[0, 2], C[2, 0] = 1e308, -1e308
        rep = check_assumption(make_game(sizes=(2, 2), lam=10.0, C=C))
        assert rep.passed and rep.min_eig_sym == 0.0 and rep.diag_block_asymmetry == 0.0

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(InvalidInput):
            check_assumption(make_game(C=np.eye(6)), tol=tol)

    def test_accepts_zero_tol(self):
        assert check_assumption(make_game(C=np.eye(6)), tol=0.0).passed


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
        # a NaN or infinite entry is reported as such, before the simplex tests
        error = DimensionMismatch if np.isfinite(x).all() else NonFiniteInput
        with pytest.raises(error):
            check_strategy(np.array(x), PlayerDims([2, 2]))

    def test_accepts_probability_blocks(self):
        check_strategy(np.array([1.0, 0.25, 0.25, 0.5, 1.0]), PlayerDims([1, 3, 1]))


class TestBlocks:
    def test_split_roundtrip(self, rng):
        for sizes in ([1], [2, 3], [4, 1, 2], [3, 3, 3, 3]):
            dims = PlayerDims(sizes)
            x = rng.normal(size=dims.total)
            assert np.array_equal(np.concatenate(dims.split(x)), x)

    def test_split_rejects_wrong_length(self):
        with pytest.raises(DimensionMismatch):
            PlayerDims([2]).split(np.zeros(3))

    def test_flat_index_rejects_missing_player(self):
        with pytest.raises(IndexOutOfRange, match="player 1 outside"):
            PlayerDims([2]).flat_index(1, 1)

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

    @pytest.mark.parametrize("sizes", [[1, 4, 2, 7], [1], [3, 3]])
    def test_block_structure_arrays(self, sizes):
        dims = PlayerDims(sizes)
        m, n, owner = dims.total, dims.n, dims.owner
        same = owner[:, None] == owner[None, :]
        cached = (dims._off_block, dims._scatter_index, dims._size_array)
        copy = pickle.loads(pickle.dumps(dims))  # pickled after the arrays were cached
        rebuilt = (copy._off_block, copy._scatter_index, copy._size_array)
        for arrays in (cached, rebuilt):
            off_block, scatter_index, size_array = arrays
            assert np.array_equal(off_block, np.where(same, 0.0, 1.0))
            W = np.zeros((m, n))
            W.ravel()[scatter_index] = 1.0
            assert np.array_equal(W, np.eye(n)[owner])
            assert size_array.tolist() == list(sizes)
            for arr in arrays:
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 1


class TestWithMatrix:
    def test_copies_only_the_new_matrix(self, rng):
        g = make_game(sizes=(1, 4, 2), b=rng.normal(size=7))
        C = rng.normal(size=(7, 7))
        h = g.with_matrix(C)
        expected = C.copy()
        C[0, 0] += 1.0  # the game holds a copy
        assert np.array_equal(h.C, expected)
        assert h.dims is g.dims and h.lam == g.lam and np.array_equal(h.b, g.b)
        for arr in (h.b, h.C):
            assert not arr.flags.writeable
        copy = pickle.loads(pickle.dumps(h))
        assert np.array_equal(copy.C, expected) and not copy.C.flags.writeable


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
        pytest.param("b", functools.reduce(lambda v, _: [v], range(100_000), 0), id="deep-b"),
        pytest.param("b", [np.inf, 1.0], id="inf-b"),  # Game's kinds, reported as bad input
        pytest.param("dims", [0], id="zero-dims"),
    ])
    def test_rejects_malformed_values(self, key, value):
        d = game_to_dict(make_game(sizes=(2,)))
        d[key] = value
        with pytest.raises(InvalidInput):
            game_from_dict(d)

    @pytest.mark.parametrize("lam", [np.inf, np.nan, 0.0])
    def test_non_finite_lambda_is_non_positive(self, lam):
        d = game_to_dict(make_game(sizes=(2,)))
        d["lambda"] = lam
        with pytest.raises(NonPositiveLambda):
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
