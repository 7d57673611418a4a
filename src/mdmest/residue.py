"""Per-window matrices of the residue construction.

For a window of L consecutive measurements starting at time k, the augmented
measurement vector satisfies

    Z_k = O_k x_k + Gamma_k (scriptG_k U_k + scriptE_k W_k) + scriptD_k V_k

where O_k stacks H_{k+i} times the state transition products, Gamma_k is the
strictly block-lower-triangular impulse-response matrix of the window, and
scriptG/scriptE/scriptD are block diagonals of G/E/D.  Multiplying by an
annihilator N of O_k (or of [O_k, Gamma_k scriptG_k] when the input is
unknown) removes the state (and input), leaving the residue

    ztilde_k = N (Z_k - Gamma_k scriptG_k U_k) = A_k C_k [W_k; V_k]

a pure linear function of the noises.  Squaring and selecting unique entries
turns each window into one block of a linear regression for alpha; the
estimator module builds the annihilators, residues and regression blocks
from the window matrices assembled here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import DataError
from .linalg import block_diag
from .model import LtvModel

__all__ = ["WindowBlocks", "window_blocks"]


@dataclass
class WindowBlocks:
    """The window matrices of the windows starting at ``ks``, which share one
    shape (the same n_z and n_u sequences), stacked on a leading window axis;
    one window is a stack of one.
    """

    ks: np.ndarray         # (n,) window start times
    L: int
    O: np.ndarray          # (n, n_zkL, n_x) stacked observation map
    Gamma: np.ndarray      # (n, n_zkL, (L-1) n_x) strictly block lower triangular
    scriptG: np.ndarray    # (n, (L-1) n_x, n_ukL) blkdiag of G_k..G_{k+L-2}
    scriptE: np.ndarray    # (n, (L-1) n_x, (L-1) n_w) blkdiag of E_k..E_{k+L-2}
    scriptD: np.ndarray    # (n, n_zkL, L n_v) blkdiag of D_k..D_{k+L-1}

    @property
    def C(self) -> np.ndarray:
        """blkdiag(scriptE, scriptD) per window: the noises enter Z_k as
        [Gamma_k, I] C_k [W_k; V_k]."""
        return _stacked_block_diag([self.scriptE, self.scriptD], self.ks.size)


def _stacked_block_diag(blocks: list[np.ndarray], n: int) -> np.ndarray:
    """Block diagonals of n windows at once; blocks[i] has shape (n, r_i, c_i)."""
    rows = sum(b.shape[1] for b in blocks)
    cols = sum(b.shape[2] for b in blocks)
    # in (row, column, window) order each block is one 2-D r_i x (c_i n)
    # block, so a single 2-D block_diag places every window's copy
    flat = block_diag(*(b.transpose(1, 2, 0).reshape(b.shape[1], b.shape[2] * n)
                        for b in blocks))
    return np.ascontiguousarray(flat.reshape(rows, cols, n).transpose(2, 0, 1))


def _window_group(model: LtvModel, ks: np.ndarray, L: int) -> WindowBlocks:
    n_x, lg, n = model.n_x, L - 1, ks.size
    h = [model.H.take(ks + i) for i in range(L)]
    f = [model.F.take(ks + j) for j in range(lg)]
    row_off = list(accumulate((m.shape[1] for m in h), initial=0))

    obs = np.zeros((n, row_off[-1], n_x))
    gamma = np.zeros((n, row_off[-1], lg * n_x))
    for i in range(L):
        rows = slice(row_off[i], row_off[i + 1])
        # t holds H_{k+i} Phi(k+j+1 -> k+i); built right to left over j
        t = h[i].copy()
        for j in range(i - 1, -1, -1):
            gamma[:, rows, j * n_x:(j + 1) * n_x] = t
            t = t @ f[j]
        obs[:, rows] = t

    # an L=1 window has no steps between measurements: scriptG and scriptE
    # are 0 x 0 and Gamma has no columns
    return WindowBlocks(
        ks=ks, L=L, O=obs, Gamma=gamma,
        scriptG=_stacked_block_diag([model.G.take(ks + i) for i in range(lg)], n),
        scriptE=_stacked_block_diag([model.E.take(ks + i) for i in range(lg)], n),
        scriptD=_stacked_block_diag([model.D.take(ks + i) for i in range(L)], n),
    )


def window_blocks(model: LtvModel, ks, L: int) -> list[WindowBlocks]:
    """The window matrices of the windows [k, k+L-1], k in ``ks``.

    Windows are grouped by shape (their n_z and n_u sequences), one
    WindowBlocks per group.  The work loops over the L^2 block positions of
    a window, never over windows, and each window's matrices are bitwise
    the ones it gets on its own.
    """
    if L < 1:
        raise ValueError("window length L must be >= 1")
    ks = np.asarray(ks, dtype=int).ravel()
    over = (ks < 0) | (ks + L - 1 > model.tau)
    if over.any():
        raise DataError(
            f"window k={ks[np.argmax(over)]}, L={L} overruns the model "
            f"horizon tau={model.tau}"
        )
    if ks.size > 1:
        steps = ks[:, None] + np.arange(L)
        shape = np.hstack([model.n_z_steps()[steps], model.n_u_steps()[steps[:, :-1]]])
        if (shape != shape[0]).any():
            _, group = np.unique(shape, axis=0, return_inverse=True)
            group = group.ravel()
            return [_window_group(model, ks[group == g], L)
                    for g in range(group.max() + 1)]
    return [_window_group(model, ks, L)]


def build_augmented_block(model: LtvModel, k: int, L: int) -> WindowBlocks:
    """``window_blocks(model, [k], L)[0]``: the stack of the one window
    [k, k+L-1].

    Not exported: only the perfbench traced replay imports it from here, and
    it goes with that replay's move to ``window_blocks`` (the API trim on
    ROADMAP.md).
    """
    return window_blocks(model, [k], L)[0]

