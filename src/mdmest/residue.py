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

import numpy as np

from .errors import DataError
from .linalg import block_diag
from .model import LtvModel, MeasurementData, Trajectory

__all__ = ["AugmentedBlock", "build_augmented_block", "stack_measurements"]


@dataclass
class AugmentedBlock:
    """The five window matrices for one starting time k."""

    k: int
    L: int
    O: np.ndarray          # (n_zkL, n_x) stacked observation map
    Gamma: np.ndarray      # (n_zkL, (L-1) n_x) strictly block lower triangular
    scriptG: np.ndarray    # ((L-1) n_x, n_ukL) blkdiag of G_k..G_{k+L-2}
    scriptE: np.ndarray    # ((L-1) n_x, (L-1) n_w) blkdiag of E_k..E_{k+L-2}
    scriptD: np.ndarray    # (n_zkL, L n_v) blkdiag of D_k..D_{k+L-1}


def build_augmented_block(model: LtvModel, k: int, L: int) -> AugmentedBlock:
    """Assemble O, Gamma, scriptG, scriptE, scriptD for window [k, k+L-1]."""
    if L < 1:
        raise ValueError("window length L must be >= 1")
    if k < 0 or k + L - 1 > model.tau:
        raise DataError(
            f"window k={k}, L={L} overruns the model horizon tau={model.tau}"
        )
    n_x = model.n_x
    lg = L - 1

    h_list = [model.H[k + i] for i in range(L)]
    n_z_steps = [h.shape[0] for h in h_list]
    n_zkL = sum(n_z_steps)
    row_off = np.concatenate(([0], np.cumsum(n_z_steps)))

    obs = np.zeros((n_zkL, n_x))
    gamma = np.zeros((n_zkL, lg * n_x))
    for i in range(L):
        h = h_list[i]
        rows = slice(row_off[i], row_off[i + 1])
        # t holds H_{k+i} Phi(k+j+1 -> k+i); built right to left over j
        t = h.copy()
        for j in range(i - 1, -1, -1):
            gamma[rows, j * n_x:(j + 1) * n_x] = t
            t = t @ model.F[k + j]
        obs[rows, :] = t

    # an L=1 window has no steps between measurements: scriptG and scriptE
    # are 0 x 0 and Gamma has no columns
    script_g = block_diag(*(model.G[k + i] for i in range(lg)))
    script_e = block_diag(*(model.E[k + i] for i in range(lg)))
    script_d = block_diag(*(model.D[k + i] for i in range(L)))
    return AugmentedBlock(k=k, L=L, O=obs, Gamma=gamma, scriptG=script_g,
                          scriptE=script_e, scriptD=script_d)


def stack_measurements(data, k: int, L: int):
    """Concatenate z_k..z_{k+L-1} and, when available, u_k..u_{k+L-2}.

    Accepts a Trajectory or MeasurementData.  Returns (Z, U) with U None when
    the data carries no inputs.
    """
    if isinstance(data, Trajectory):
        data = MeasurementData.from_trajectory(data)
    if k < 0 or k + L - 1 >= len(data.zs):
        raise DataError(f"records k={k}..{k + L - 1} not all present")
    z = np.concatenate([np.atleast_1d(data.zs[k + i]) for i in range(L)])
    u = None
    if data.us is not None:
        parts = [np.atleast_1d(data.us[k + i]) for i in range(L - 1)]
        u = np.concatenate(parts) if parts else np.zeros(0)
    return z, u
