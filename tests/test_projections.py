import itertools
import math

import numpy as np
import pytest

from qregames import (
    Game,
    PlayerDims,
    check_assumption,
    in_feasible_set,
    project_cone_sum,
    project_feasible,
)
from qregames.game import _halves
from qregames.projections import _norm

from conftest import in_cone, sample_feasible_matrices


def textbook_cone_sum(C, dims):
    """The cone projection as written out: eigenvalues clamped, blocks zeroed."""
    w, V = np.linalg.eigh(0.5 * (C + C.T))
    skew = 0.5 * (C - C.T)
    for i in range(dims.n):
        skew[dims.block(i), dims.block(i)] = 0.0
    return (V * np.maximum(w, 0.0)) @ V.T + skew


def textbook_asymmetry(C, dims):
    """The largest Frobenius norm of a diagonal block of C - C^T, as written out."""
    sq = (C - C.T) ** 2
    blocks = np.add.reduceat(np.add.reduceat(sq, dims.starts, axis=0), dims.starts, axis=1)
    return float(np.sqrt(blocks.diagonal().max()))


class TestHalvesAndNorm:
    @pytest.mark.parametrize("scale", [1e-5, 1e-3, 1e-1, 1.0, 1e1, 1e3, 1e5])
    def test_match_the_textbook_bit_for_bit(self, rng, scale):
        dims = PlayerDims([1, 4, 2, 7])
        m = dims.total
        for _ in range(20):
            C = scale * rng.normal(size=(m, m))
            sym, skew = _halves(C)
            assert np.array_equal(sym, (C + C.T) / 2)
            assert np.array_equal(skew, (C - C.T) / 2)
            assert np.array_equal(np.signbit(skew), np.signbit((C - C.T) / 2))
            assert np.array_equal(project_cone_sum(C, dims), textbook_cone_sum(C, dims))
            rep = check_assumption(Game(dims, 1.0, np.zeros(m), C))
            assert rep.min_eig_sym == float(np.linalg.eigvalsh(C + C.T)[0])
            assert rep.diag_block_asymmetry == textbook_asymmetry(C, dims)
            assert _norm(C) == np.linalg.norm(C)
            assert _norm(C[3]) == np.linalg.norm(C[3])

    def test_norm_of_non_finite_and_empty_arrays(self):
        assert _norm(np.array([1.0, np.inf, -1e308])) == math.inf
        assert math.isnan(_norm(np.array([np.inf, np.nan, 1e308])))
        assert _norm(np.zeros(0)) == 0.0

    @pytest.mark.parametrize("signs", list(itertools.product([1.0, -1.0], repeat=3)))
    def test_entries_near_double_max(self, signs):
        # C + C^T or C - C^T overflows at the coupling pair, whatever the signs,
        # but C itself, its cone projection and their norms are finite, with no
        # numpy warning (the suite's pytest settings make warnings errors)
        dims = PlayerDims([2, 2])
        C = np.zeros((4, 4))
        C[0, 2], C[2, 0], C[1, 0] = (s * 1e308 for s in signs)
        norm = _norm(C)
        assert norm == pytest.approx(math.sqrt(3.0) * 1e308, rel=1e-15)
        P = project_cone_sum(C, dims)
        assert np.isfinite(P).all()
        assert _norm(P) <= norm * (1.0 + 1e-12)  # the cone's apex is 0: nonexpansive
        assert in_cone(P * 2.0 ** -1020, dims)  # the cone is scale-invariant
        F = project_feasible(C, dims, 1.0)  # the ball rescales by rho/norm, not rho/inf
        assert _norm(F) == pytest.approx(1.0, rel=1e-12)
        assert in_feasible_set(F, dims, 1.0)

    def test_projection_whose_eigenvalue_leaves_double_range(self):
        # C + C^T's largest eigenvalue, 8e308, overflows inside the eigensolver,
        # but C is in the cone, so its projection is C itself
        dims = PlayerDims([2, 2])
        C = np.full((4, 4), 1e308)
        P = project_cone_sum(C, dims)
        assert np.isfinite(P).all()
        assert _norm(P - C) <= 1e-15 * _norm(C)
        F = project_feasible(C, dims, 1.0)
        assert in_feasible_set(F, dims, 1.0)


class TestProjectConeSum:
    def test_member_unchanged(self, rng):
        dims = PlayerDims([2, 2])
        Y = sample_feasible_matrices(rng, 4, dims, rho=10.0, count=1)[0]
        assert np.abs(project_cone_sum(Y, dims) - Y).max() <= 1e-10

    def test_negative_definite_maps_to_zero(self):
        dims = PlayerDims([2])
        P = project_cone_sum(-2.0 * np.eye(2), dims)
        assert np.abs(P).max() <= 1e-15

    def test_output_in_cone(self, rng):
        dims = PlayerDims([2, 3])
        for _ in range(20):
            P = project_cone_sum(rng.normal(size=(5, 5)), dims)
            assert in_cone(P, dims)

    def test_variational_inequality_optimality(self, rng):
        # P is the projection of C iff <C - P, Y - P> <= 0 for all feasible Y
        dims = PlayerDims([2, 2])
        for _ in range(5):
            C = 2.0 * rng.normal(size=(4, 4))
            P = project_cone_sum(C, dims)
            Y = sample_feasible_matrices(rng, 4, dims, rho=20.0, count=10_000)
            inner = np.einsum("ij,bij->b", C - P, Y - P)
            assert inner.max() <= 1e-8

    @pytest.mark.parametrize("sizes", [[1, 4, 2, 7], [1], [3, 3, 3, 3]])
    @pytest.mark.parametrize("kind", ["random", "negative-definite", "pure-skew", "zero"])
    def test_one_pass_skew_matches_textbook_with_zero_signs(self, rng, sizes, kind):
        # the skew part is (C - C^T) times 0.5 or 0, not zeroed through a mask;
        # the values and the sign of every zero must not change, nor the input
        dims = PlayerDims(sizes)
        m = dims.total
        for _ in range(10):
            A = rng.normal(size=(m, m))
            C = {"random": A, "negative-definite": -(A @ A.T) - np.eye(m),
                 "pure-skew": A - A.T, "zero": np.zeros((m, m))}[kind]
            before = C.copy()
            P, expected = project_cone_sum(C, dims), textbook_cone_sum(C, dims)
            assert np.array_equal(P, expected)
            assert np.array_equal(np.signbit(P), np.signbit(expected))
            assert np.array_equal(C, before)

    def test_idempotent(self, rng):
        dims = PlayerDims([3, 2])
        for _ in range(10):
            P = project_cone_sum(rng.normal(size=(5, 5)), dims)
            assert np.abs(project_cone_sum(P, dims) - P).max() <= 1e-10

    def test_nonexpansive(self, rng):
        dims = PlayerDims([2, 3])
        for _ in range(20):
            A = rng.normal(size=(5, 5))
            B = rng.normal(size=(5, 5))
            dist = np.linalg.norm(project_cone_sum(A, dims) - project_cone_sum(B, dims))
            assert dist <= np.linalg.norm(A - B) + 1e-12


class TestProjectFeasible:
    def test_member_unchanged(self, rng):
        dims = PlayerDims([2, 2])
        Y = sample_feasible_matrices(rng, 4, dims, rho=3.0, count=1)[0]
        assert np.abs(project_feasible(Y, dims, 3.0) - Y).max() <= 1e-10

    def test_scaling_analytic(self):
        # 3I is already in the cone; only the ball rescale acts
        dims = PlayerDims([2])
        P = project_feasible(3.0 * np.eye(2), dims, rho=1.0)
        assert np.allclose(P, np.eye(2) / np.sqrt(2.0), atol=1e-12)

    def test_membership_and_sampled_optimality(self, rng):
        dims = PlayerDims([2, 2])
        for _ in range(5):
            C = 3.0 * rng.normal(size=(4, 4))
            rho = float(rng.random() * 4 + 0.2)
            P = project_feasible(C, dims, rho)
            assert in_feasible_set(P, dims, rho)
            Y = sample_feasible_matrices(rng, 4, dims, rho, count=10_000)
            d_p = np.linalg.norm(P - C)
            d_y = np.linalg.norm(Y - C, axis=(1, 2))
            assert np.all(d_y >= d_p - 1e-8)

    def test_membership_matches_per_block_reference(self, rng):
        dims = PlayerDims([1, 3, 2])
        for _ in range(20):
            C = project_feasible(rng.normal(size=(6, 6)), dims, rho=2.0)
            C += rng.choice([0.0, 1e-8]) * rng.normal(size=(6, 6))
            for rho in (1.0, 2.0, 3.0):
                got = in_feasible_set(C, dims, rho)
                assert type(got) is bool
                assert got == (in_cone(C, dims) and np.linalg.norm(C) <= rho + 1e-9)

    def test_idempotent(self, rng):
        dims = PlayerDims([3, 3])
        for _ in range(10):
            P = project_feasible(rng.normal(size=(6, 6)), dims, rho=1.5)
            P2 = project_feasible(P, dims, rho=1.5)
            assert np.abs(P2 - P).max() <= 1e-10

    @pytest.mark.parametrize("inside", [True, False], ids=["norm<=rho", "norm>rho"])
    def test_in_place_matches_textbook_bit_for_bit(self, rng, inside):
        dims = PlayerDims([1, 4, 2, 7])
        for _ in range(10):
            C = rng.normal(size=(dims.total, dims.total))
            A = textbook_cone_sum(C, dims)
            norm = float(np.linalg.norm(A))
            rho = 1.5 * norm if inside else 0.5 * norm
            C.setflags(write=False)
            P = project_feasible(C, dims, rho)
            assert np.array_equal(P, (rho / max(rho, norm)) * A)
            assert not np.shares_memory(P, C)

    def test_radius_equal_to_norm_leaves_the_cone_projection(self, rng):
        dims = PlayerDims([2, 3])
        C = rng.normal(size=(5, 5))
        A = textbook_cone_sum(C, dims)
        assert np.array_equal(project_feasible(C, dims, float(np.linalg.norm(A))), A)

    def test_float32_radius_scales_in_double_precision(self):
        rho = np.float32(3.3)
        P = project_feasible(10.0 * np.eye(4), PlayerDims([2, 2]), rho)
        assert abs(np.linalg.norm(P) - float(rho)) <= np.spacing(float(rho))

    def test_rejects_bad_radius(self):
        for rho in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                project_feasible(np.eye(2), PlayerDims([2]), rho=rho)
