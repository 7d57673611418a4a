"""Dense matrix utilities underlying the identification algebra.

The one grouping rule (``groups``, which batches the windows, steps and
window pairs that share a shape or rank), block-diagonal assembly of
matrices or stacks of them (``block_diag``), the one rank rule
(``Tolerance.floor`` = rank_tol * scale * size, whose docstring lists each
caller's scale and size; ``svd_rank`` counts a singular value above its
floor) and its PSD test (``indefinite``), and the order of a symmetric
matrix's unique entries (``sym_pair_indices``).  A matrix's rank is
``svd_rank(m)[3]``, and with ``full_matrices=True`` the rows of
u[:, rank:].T are its left null space, the annihilator the estimator takes.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "block_diag",
    "groups",
    "svd_rank",
    "indefinite",
    "sym_pair_indices",
]


@dataclass(frozen=True)
class Tolerance:
    """The one rank rule: a value counts when it exceeds ``floor(scale,
    size)``, relative to its own scale and size.  The callers and theirs:

    * ``svd_rank``: sigma_max and max(rows, cols);
    * ``indefinite`` (an eigenvalue below -floor): max(1, max |eig|) and n;
    * the shared rows' pair SVD: sqrt(1 + c) and max(rows, cols);
    * the equilibrated SVD's dust columns: the largest column norm and 1;
    * the weighted solve's full-rank shift: max diag P and m; its
      negativity floor: max(max diag P, ||design||_2^2) and 1; and the
      dense branch's pivot tolerance: max diag T and m.

    ``rank_tol`` must be finite and nonnegative.
    """

    rank_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 <= self.rank_tol < np.inf:
            raise ValueError("tolerances must be finite and nonnegative, got "
                             f"rank_tol={self.rank_tol}")

    def floor(self, scale, size):
        """rank_tol * scale * size, in this order: ``svd_rank`` reports it."""
        return self.rank_tol * scale * size


DEFAULT_TOL = Tolerance()


def block_diag(*blocks: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix of the float ``blocks``, in order: 2-D
    matrices, or stacks (..., r, c) that share one leading shape, each
    matrix of the stack placed alone.

    Blocks with zero rows or columns still shift the placement of the next
    one; no blocks give a 0 x 0 matrix.
    """
    lead = blocks[0].shape[:-2] if blocks else ()
    out = np.zeros(lead + (sum(b.shape[-2] for b in blocks),
                           sum(b.shape[-1] for b in blocks)))
    r = c = 0
    for b in blocks:
        out[..., r:r + b.shape[-2], c:c + b.shape[-1]] = b
        r += b.shape[-2]
        c += b.shape[-1]
    return out


def groups(keys) -> list[np.ndarray]:
    """The positions of each distinct key of ``keys`` ((n,) or (n, width),
    one per item) as increasing index arrays, in sorted key order (rows
    compare element by element): equal keys give one group, no keys none."""
    keys = np.asarray(keys)
    if not len(keys):
        return []
    if (keys == keys[0]).all():
        return [np.arange(len(keys))]
    # numpy 2.0 shapes the inverse like the keys; ravel restores (n,)
    inverse = np.unique(keys, axis=0, return_inverse=True)[1].ravel()
    return [np.flatnonzero(inverse == g) for g in range(inverse.max() + 1)]


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
        thr = tol.floor(s[..., 0], max(m.shape[-2:]))
    rank = np.count_nonzero(s > np.expand_dims(thr, -1), axis=-1)
    return u, s, vt, (int(rank) if s.ndim == 1 else rank), thr


def indefinite(low, n: int, scale, tol: Tolerance = DEFAULT_TOL):
    """Whether a symmetric n x n matrix whose smallest eigenvalue is ``low``
    is indefinite: low < -tol.floor(max(1, scale), n).  ``low`` and
    ``scale`` may be arrays over a stack of matrices.
    """
    return low < -tol.floor(np.maximum(1.0, scale), n)


def sym_pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i <= j, scanning columns j then rows i.

    This is the fixed order of the unique entries S[i_arr, j_arr] of a
    symmetric n x n matrix S: a window's squared residues, and its rows of
    the design, are its residue products in this order.
    """
    j_idx, i_idx = np.tril_indices(n)
    return i_idx, j_idx
