import numpy as np
import pytest

from mdmest import (
    NoAnnihilator,
    Tolerance,
    kron,
    left_null_space,
    numerical_rank,
    replication_matrix,
    unification_matrix,
    unvec,
    vec,
)
from mdmest.linalg import block_diag, swap_permutation, sym_pair_indices


class TestKron:
    def test_scalar_identity(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(kron([[1.0]], m), m)

    def test_identity_times_scalar(self):
        assert np.array_equal(kron(np.eye(2), [[5.0]]), np.diag([5.0, 5.0]))

    def test_hand_expansion(self):
        out = kron([[1.0, 2.0]], [[3.0], [4.0]])
        assert np.array_equal(out, [[3.0, 6.0], [4.0, 8.0]])

    def test_mixed_product_property(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((2, 5))
        c = rng.standard_normal((4, 2))
        d = rng.standard_normal((5, 3))
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


class TestBlockDiag:
    def test_matches_scipy(self, rng):
        import scipy.linalg
        shapes = [(2, 3), (1, 1), (3, 0), (0, 2), (4, 2)]
        blocks = [rng.standard_normal(s) for s in shapes]
        for k in range(1, len(blocks) + 1):
            assert np.array_equal(block_diag(*blocks[:k]),
                                  scipy.linalg.block_diag(*blocks[:k]))

    def test_no_blocks(self):
        assert block_diag().shape == (0, 0)


class TestVec:
    def test_column_wise(self):
        assert np.array_equal(vec([[1.0, 3.0], [2.0, 4.0]]), [1.0, 2.0, 3.0, 4.0])

    def test_unvec_inverse(self):
        assert np.array_equal(unvec([1.0, 2.0, 3.0, 4.0], 2, 2),
                              [[1.0, 3.0], [2.0, 4.0]])

    def test_zero_matrix(self):
        assert np.array_equal(vec(np.zeros((2, 3))), np.zeros(6))

    def test_round_trip_exact(self, rng):
        for _ in range(20):
            r, c = rng.integers(1, 7, size=2)
            m = rng.standard_normal((r, c))
            assert np.array_equal(unvec(vec(m), r, c), m)

    def test_unvec_dim_mismatch(self):
        with pytest.raises(ValueError):
            unvec([1.0, 2.0, 3.0], 2, 2)


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(3)) == 3

    def test_repeated_column(self):
        assert numerical_rank([[1.0, 1.0], [1.0, 1.0]]) == 1

    def test_zero(self):
        assert numerical_rank(np.zeros((4, 4))) == 0


class TestLeftNullSpace:
    def test_two_equal_rows(self):
        n = left_null_space([[1.0], [1.0]])
        assert n.shape == (1, 2)
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert min(np.max(np.abs(n[0] - expected)),
                   np.max(np.abs(n[0] + expected))) < 1e-12

    def test_zero_matrix(self):
        n = left_null_space(np.zeros((3, 2)))
        assert n.shape == (3, 3)
        assert np.max(np.abs(n @ n.T - np.eye(3))) < 1e-12

    def test_random_rank_two(self, rng):
        base = rng.standard_normal((5, 2))
        m = base @ rng.standard_normal((2, 2))
        n = left_null_space(m)
        assert n.shape == (3, 5)
        assert np.max(np.abs(n @ m)) < 1e-10

    def test_orthonormal_rows_and_rank_sum(self, rng):
        for _ in range(10):
            rows, cols = rng.integers(2, 8, size=2)
            rank = int(rng.integers(0, min(rows - 1, cols) + 1))
            m = (rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
                 if rank else np.zeros((rows, cols)))
            n = left_null_space(m)
            assert n.shape[0] + numerical_rank(m) == rows
            assert np.max(np.abs(n @ n.T - np.eye(n.shape[0]))) < 1e-10
            assert np.max(np.abs(n @ m)) <= 1e-8 * (1.0 + np.max(np.abs(m)))

    def test_full_row_rank_raises(self, rng):
        m = rng.standard_normal((3, 5))
        with pytest.raises(NoAnnihilator):
            left_null_space(m)


class TestUnificationReplication:
    def test_n2_selects_unique(self):
        s = np.array([[1.5, -2.0], [-2.0, 7.0]])
        out = unification_matrix(2) @ vec(s)
        assert np.array_equal(out, [1.5, -2.0, 7.0])

    def test_n1(self):
        assert np.array_equal(unification_matrix(1), [[1.0]])
        assert np.array_equal(replication_matrix(1), [[1.0]])

    def test_n3_rows_are_distinct_basis_rows(self):
        xi = unification_matrix(3)
        assert xi.shape == (6, 9)
        assert np.all(xi.sum(axis=1) == 1.0)
        positions = np.argmax(xi, axis=1)
        assert len(set(positions.tolist())) == 6

    def test_replication_n2(self):
        psi = replication_matrix(2)
        assert np.array_equal(psi @ np.array([1.0, 2.0, 3.0]),
                              [1.0, 2.0, 2.0, 3.0])

    def test_psi_xi_identity_on_symmetric(self, rng):
        for n in range(1, 7):
            xi = unification_matrix(n)
            psi = replication_matrix(n)
            m = rng.standard_normal((n, n))
            s = m + m.T
            assert np.array_equal(psi @ (xi @ vec(s)), vec(s))
            if n >= 2:
                assert not np.array_equal(psi @ xi, np.eye(n * n))

    def test_pair_index_order(self):
        i_idx, j_idx = sym_pair_indices(3)
        assert list(zip(i_idx.tolist(), j_idx.tolist())) == [
            (0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2)]


class TestSwapPermutation:
    def test_matches_commutation(self, rng):
        n = 3
        perm = swap_permutation(n)
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        assert np.array_equal(np.kron(x, y)[perm], np.kron(y, x))


class TestTolerance:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Tolerance(rank_tol=-1.0)

    @pytest.mark.parametrize("field", ["rank_tol", "zero_tol"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, field, bad):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            Tolerance(**{field: bad})
