import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mdmest import Tolerance
from mdmest.linalg import block_diag, group_index, groups, indefinite, svd_rank, sym_pair_indices

from conftest import replication_matrix, swap_permutation, unification_matrix, vec

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mdmest"


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


@pytest.mark.bitwise
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=4),
       st.lists(st.integers(0, 3), max_size=2), st.integers(0, 2**32 - 1))
def test_stacked_block_diag_is_scipy_per_matrix(shapes, lead, seed):
    """Stacks (..., r, c) sharing one leading shape give, matrix by matrix,
    scipy.linalg.block_diag's bits, -0.0 entries and zero-size blocks
    included."""
    import scipy.linalg
    rng = np.random.default_rng(seed)
    blocks = []
    for r, c in shapes:
        b = rng.standard_normal((*lead, r, c))
        b[rng.random(b.shape) < 0.2] = -0.0
        blocks.append(b)
    got = block_diag(*blocks)
    rows, cols = (sum(dim) for dim in zip(*shapes))
    assert got.shape == (*lead, rows, cols)
    for index in np.ndindex(*lead):
        want = scipy.linalg.block_diag(*(b[index] for b in blocks))
        assert got[index].shape == want.shape
        assert got[index].tobytes() == want.tobytes()


@pytest.mark.bitwise
@given(st.integers(0, 30), st.integers(0, 3), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_groups_partition_the_positions_by_sorted_key(n, width, values, seed):
    """``groups`` covers every position exactly once, each group in
    increasing order and of one key, the groups in sorted key order (rows
    compared element by element); keys (n,) for width 0, else (n, width)."""
    keys = np.random.default_rng(seed).integers(0, values, (n, width) if width else n)
    found = groups(keys)
    assert np.array_equal(np.sort(np.concatenate(found + [np.zeros(0, int)])), np.arange(n))
    index = group_index(keys)
    for g, idx in enumerate(found):
        assert np.array_equal(np.flatnonzero(index == g), idx)
    firsts = []
    for idx in found:
        assert idx.size and np.all(np.diff(idx) > 0)
        assert (keys[idx] == keys[idx[0]]).all()
        firsts.append(tuple(np.atleast_1d(keys[idx[0]]).tolist()))
    assert firsts == sorted(set(firsts))


def test_groups_of_equal_and_of_no_keys():
    assert [g.tolist() for g in groups(np.full((4, 2), 3))] == [[0, 1, 2, 3]]
    assert groups(np.zeros(0, int)) == [] and groups(np.zeros((0, 3), int)) == []
    assert [g.tolist() for g in groups([2, 1, 2, 0])] == [[3], [1], [0, 2]]
    assert group_index([2, 1, 2, 0]).tolist() == [2, 1, 2, 0]
    assert group_index(np.full((4, 2), 3)).tolist() == [0, 0, 0, 0]
    assert group_index(np.zeros((0, 3), int)).shape == (0,)


class TestVec:
    def test_column_wise(self):
        assert np.array_equal(vec([[1.0, 3.0], [2.0, 4.0]]), [1.0, 2.0, 3.0, 4.0])

    def test_zero_matrix(self):
        assert np.array_equal(vec(np.zeros((2, 3))), np.zeros(6))

    def test_round_trip_exact(self, rng):
        for _ in range(20):
            r, c = rng.integers(1, 7, size=2)
            m = rng.standard_normal((r, c))
            assert np.array_equal(vec(m).reshape((c, r)).T, m)


def rank(m):
    return svd_rank(m)[3]


def left_null_rows(m):
    """The rows of u[:, rank:].T from ``svd_rank(m, full_matrices=True)``,
    the left null space ``build_design`` takes each annihilator from."""
    u, _, _, r, _ = svd_rank(m, full_matrices=True)
    return u[:, r:].T


class TestSvdRank:
    def test_identity(self):
        assert rank(np.eye(3)) == 3

    def test_repeated_column(self):
        assert rank([[1.0, 1.0], [1.0, 1.0]]) == 1

    def test_zero(self):
        assert rank(np.zeros((4, 4))) == 0


@pytest.mark.bitwise
@given(st.lists(st.integers(1, 3), max_size=2), st.integers(1, 6), st.integers(0, 6),
       st.integers(0, 2**32 - 1), st.floats(-12, 12), st.sampled_from([0.0, 1e-10, 1e-3, 0.5]))
def test_svd_threshold_is_the_floor(stack, rows, cols, seed, log_scale, rank_tol):
    """``svd_rank``'s threshold is ``Tolerance.floor`` of sigma_max and
    max(rows, cols), bit for bit, on a matrix or a stack of them (0 without
    columns), and the rank counts the singular values above it."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((*stack, rows, cols)) * 10.0 ** log_scale
    tol = Tolerance(rank_tol=rank_tol)
    _, s, _, r, thr = svd_rank(m, tol)
    want = (tol.floor(s[..., 0], max(rows, cols)) if cols
            else np.zeros(tuple(stack)) if stack else 0.0)
    assert np.shape(thr) == np.shape(want)
    assert np.asarray(thr).tobytes() == np.asarray(want, dtype=float).tobytes()
    assert np.array_equal(r, np.count_nonzero(s > np.expand_dims(thr, -1), axis=-1))


def rank_tol_products(tree):
    """Line numbers of the multiplications in ``tree`` with ``rank_tol`` in
    an operand, outside ``Tolerance.floor``."""
    inside_floor = {id(n) for cls in ast.walk(tree)
                    if isinstance(cls, ast.ClassDef) and cls.name == "Tolerance"
                    for f in cls.body if isinstance(f, ast.FunctionDef) and f.name == "floor"
                    for n in ast.walk(f)}
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mult):
            operands = (node.target, node.value)
        else:
            continue
        if id(node) not in inside_floor and any(
                isinstance(n, ast.Attribute) and n.attr == "rank_tol"
                or isinstance(n, ast.Name) and n.id == "rank_tol"
                for operand in operands for n in ast.walk(operand)):
            yield node.lineno


def unique_calls(tree, allowed: str | None = None):
    """Line numbers of the ``unique`` calls (np.unique and the like) in
    ``tree``, outside the function named ``allowed``."""
    inside = {id(n) for f in ast.walk(tree)
              if isinstance(f, ast.FunctionDef) and f.name == allowed
              for n in ast.walk(f)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in inside:
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr == "unique"
                    or isinstance(f, ast.Name) and f.id == "unique"):
                yield node.lineno


class TestOneGroupingRule:
    def test_unique_is_called_only_by_group_index(self):
        found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
                 for line in unique_calls(ast.parse(path.read_text()),
                                          "group_index" if path.name == "linalg.py"
                                          else None)]
        assert found == []

    def test_the_check_sees_a_grouping(self):
        """The check finds a spelled-out grouping, and finds the one call
        of ``linalg.group_index`` when nothing is allowed."""
        code = ("import numpy as np\n"
                "def f(key):\n"
                "    return [np.flatnonzero(key == v) for v in np.unique(key)]\n")
        assert list(unique_calls(ast.parse(code))) == [3]
        linalg = ast.parse((PACKAGE / "linalg.py").read_text())
        assert len(list(unique_calls(linalg))) == 1
        assert list(unique_calls(linalg, "group_index")) == []


class TestOneFormula:
    def test_rank_tol_is_multiplied_only_by_floor(self):
        found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
                 for line in rank_tol_products(ast.parse(path.read_text()))]
        assert found == []

    def test_the_check_sees_a_product(self):
        """The check finds a spelled-out rule, and finds none in floor."""
        code = "def f(tol, s, n):\n    x = tol.rank_tol * s * n\n    x *= rank_tol\n"
        assert sorted(rank_tol_products(ast.parse(code))) == [2, 2, 3]
        linalg = ast.parse((PACKAGE / "linalg.py").read_text())
        assert "self.rank_tol * scale * size" in ast.unparse(linalg)
        assert list(rank_tol_products(linalg)) == []


class TestSvdRankLeftNullSpace:
    def test_two_equal_rows(self):
        n = left_null_rows([[1.0], [1.0]])
        assert n.shape == (1, 2)
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert min(np.max(np.abs(n[0] - expected)),
                   np.max(np.abs(n[0] + expected))) < 1e-12

    def test_zero_matrix(self):
        n = left_null_rows(np.zeros((3, 2)))
        assert n.shape == (3, 3)
        assert np.max(np.abs(n @ n.T - np.eye(3))) < 1e-12

    def test_random_rank_two(self, rng):
        base = rng.standard_normal((5, 2))
        m = base @ rng.standard_normal((2, 2))
        n = left_null_rows(m)
        assert n.shape == (3, 5)
        assert np.max(np.abs(n @ m)) < 1e-10

    def test_orthonormal_rows_and_rank_sum(self, rng):
        for _ in range(10):
            rows, cols = rng.integers(2, 8, size=2)
            r = int(rng.integers(0, min(rows - 1, cols) + 1))
            m = (rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols))
                 if r else np.zeros((rows, cols)))
            n = left_null_rows(m)
            assert n.shape[0] + rank(m) == rows
            assert np.max(np.abs(n @ n.T - np.eye(n.shape[0]))) < 1e-10
            assert np.max(np.abs(n @ m)) <= 1e-8 * (1.0 + np.max(np.abs(m)))

    def test_full_row_rank_has_none(self, rng):
        m = rng.standard_normal((3, 5))
        assert rank(m) == 3
        assert left_null_rows(m).shape == (0, 3)


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


class TestIndefinite:
    def test_floor_is_the_rank_rule(self):
        """The floor is -floor(max(1, scale), n): -3e-10 for a 3 x 3 matrix
        of scale below 1, -6e-8 at scale 200; a value on it is not below
        it."""
        floor = -1e-10 * 3
        assert not indefinite(floor, 3, 0.5)
        assert indefinite(np.nextafter(floor, -1.0), 3, 0.5)
        assert not indefinite(-5e-8, 3, 200.0)
        assert indefinite(-7e-8, 3, 200.0)
        assert not indefinite(-7e-8, 3, 200.0, Tolerance(rank_tol=1e-9))

    def test_stack(self):
        lows = np.array([-1e-9, -1e-9, 0.0, -1e-12])
        scales = np.array([1.0, 100.0, 0.0, 1e-17])
        assert indefinite(lows, 2, scales).tolist() == [True, False, False, False]


class TestTolerance:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Tolerance(rank_tol=-1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            Tolerance(rank_tol=bad)

    def test_rank_tol_is_the_one_tolerance(self):
        with pytest.raises(TypeError):
            Tolerance(zero_tol=1e-8)
