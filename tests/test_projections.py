import numpy as np
import pytest

from qregames import PlayerDims, in_feasible_set, project_cone_sum, project_feasible

from conftest import sample_feasible_matrices


def cone_member(C, dims, eig_tol=1e-9, block_tol=1e-10):
    if np.linalg.eigvalsh(0.5 * (C + C.T)).min() < -eig_tol:
        return False
    for i in range(dims.n):
        blk = C[dims.block(i), dims.block(i)]
        if np.linalg.norm(blk - blk.T) > block_tol:
            return False
    return True


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
            assert cone_member(P, dims)

    def test_variational_inequality_optimality(self, rng):
        # P is the projection of C iff <C - P, Y - P> <= 0 for all feasible Y
        dims = PlayerDims([2, 2])
        for _ in range(5):
            C = 2.0 * rng.normal(size=(4, 4))
            P = project_cone_sum(C, dims)
            Y = sample_feasible_matrices(rng, 4, dims, rho=20.0, count=10_000)
            inner = np.einsum("ij,bij->b", C - P, Y - P)
            assert inner.max() <= 1e-8

    def test_matches_per_block_zeroing(self, rng):
        from qregames.projections import project_psd

        dims = PlayerDims([1, 4, 2, 7])
        C = rng.normal(size=(dims.total, dims.total))
        skew = 0.5 * (C - C.T)
        for i in range(dims.n):
            skew[dims.block(i), dims.block(i)] = 0.0
        assert np.array_equal(project_cone_sum(C, dims), project_psd(0.5 * (C + C.T)) + skew)

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

    def test_idempotent(self, rng):
        dims = PlayerDims([3, 3])
        for _ in range(10):
            P = project_feasible(rng.normal(size=(6, 6)), dims, rho=1.5)
            P2 = project_feasible(P, dims, rho=1.5)
            assert np.abs(P2 - P).max() <= 1e-10

    def test_rejects_bad_radius(self):
        for rho in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                project_feasible(np.eye(2), PlayerDims([2]), rho=rho)
