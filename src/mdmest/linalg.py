"""Dense matrix utilities underlying the identification algebra.

Block-diagonal assembly, column-wise vectorisation, the one SVD rank rule
(``svd_rank``: a singular value counts when it exceeds
rank_tol * sigma_max * max(rows, cols)), and the 0/1 unification
(unique-element selection) and replication matrices for vectorised
symmetric matrices.  A matrix's rank is ``svd_rank(m)[3]``, and with
``full_matrices=True`` the rows of u[:, rank:].T are its left null space,
the annihilator the estimator takes.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "block_diag",
    "vec",
    "svd_rank",
    "sym_pair_indices",
    "unification_matrix",
    "replication_matrix",
    "swap_permutation",
]


@dataclass(frozen=True)
class Tolerance:
    """Thresholds for rank decisions and zero assertions.

    ``rank_tol`` is relative: a singular value counts towards the rank when
    it exceeds rank_tol * sigma_max * max(rows, cols).  ``zero_tol`` is the
    absolute scale for "is numerically zero" checks.  Both must be finite
    and nonnegative.
    """

    rank_tol: float = 1e-10
    zero_tol: float = 1e-8

    def __post_init__(self):
        if not all(0.0 <= t < np.inf for t in (self.rank_tol, self.zero_tol)):
            raise ValueError("tolerances must be finite and nonnegative, got "
                             f"rank_tol={self.rank_tol}, zero_tol={self.zero_tol}")


DEFAULT_TOL = Tolerance()


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def block_diag(*blocks: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix of the 2-D float ``blocks``, in order.

    Blocks with zero rows or columns still shift the placement of the next
    one; no blocks give a 0 x 0 matrix.
    """
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def vec(m) -> np.ndarray:
    """Column-wise stacking of a matrix into a vector."""
    return _as_matrix(m).ravel(order="F")


def svd_rank(m, tol: Tolerance = DEFAULT_TOL, full_matrices: bool = False):
    """``np.linalg.svd(m, full_matrices)`` plus (rank, threshold) by the shared rule.

    Returns (u, s, vt, rank, threshold).  ``m`` may be a stack
    (..., rows, cols); rank and threshold are then arrays over the stack,
    and each matrix gets exactly the factors and rank it gets alone; the
    threshold of a matrix without columns is 0.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of matrices, got ndim={m.ndim}")
    u, s, vt = np.linalg.svd(m, full_matrices=full_matrices)
    if s.shape[-1] == 0:
        thr = np.zeros(s.shape[:-1]) if s.ndim > 1 else 0.0
    else:
        thr = tol.rank_tol * s[..., 0] * max(m.shape[-2:])
    rank = np.count_nonzero(s > np.expand_dims(thr, -1), axis=-1)
    return u, s, vt, (int(rank) if s.ndim == 1 else rank), thr


def sym_pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i <= j, scanning columns j then rows i.

    This is the fixed element order used by ``unification_matrix``: the
    unique entries of a symmetric n x n matrix S are S[i_arr, j_arr].
    """
    i_idx = np.concatenate([np.arange(j + 1) for j in range(n)]) if n else np.zeros(0, int)
    j_idx = np.repeat(np.arange(n), np.arange(1, n + 1)) if n else np.zeros(0, int)
    return i_idx, j_idx


def unification_matrix(n: int) -> np.ndarray:
    """0/1 selector of the unique elements of a vectorised symmetric matrix.

    Xi has shape (n(n+1)/2, n^2); for symmetric S, Xi @ vec(S) lists each
    unique element exactly once, in the ``sym_pair_indices`` order.
    """
    if n < 1:
        raise ValueError("unification_matrix requires n >= 1")
    i_idx, j_idx = sym_pair_indices(n)
    xi = np.zeros((n * (n + 1) // 2, n * n))
    xi[np.arange(i_idx.size), j_idx * n + i_idx] = 1.0
    return xi


def replication_matrix(n: int) -> np.ndarray:
    """0/1 right inverse of the unification matrix on symmetric vecs.

    Psi has shape (n^2, n(n+1)/2) and satisfies
    Psi @ Xi @ vec(S) == vec(S) for every symmetric S.
    """
    if n < 1:
        raise ValueError("replication_matrix requires n >= 1")
    psi = np.zeros((n * n, n * (n + 1) // 2))
    for col in range(n):
        for row in range(n):
            i, j = min(row, col), max(row, col)
            psi[col * n + row, j * (j + 1) // 2 + i] = 1.0
    return psi


def swap_permutation(n: int) -> np.ndarray:
    """Permutation p with (x kron y)[p] == (y kron x) for length-n vectors.

    Equivalently, for the n^2 x n^2 commutation matrix K it holds
    M @ K == M[:, p] for any matrix M with n^2 columns.
    """
    a, b = np.divmod(np.arange(n * n), n)
    return b * n + a
