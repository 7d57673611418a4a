"""Stacked regression assembly and the ordinary / weighted LS solvers.

Every usable window contributes rows

    obs_k = design_k @ alpha + noisemap_k @ eta_k

where obs_k selects the unique entries of the squared residue and eta_k is
the zero-mean deviation of the squared stacked noise from its expectation.
The ordinary solver ignores the eta covariance; the weighted solver builds
it (under a Gaussian assumption, from a first-pass ordinary estimate) and
solves the generalised LS problem, falling back to a constrained LS form
when the weight matrix is singular.
"""

from __future__ import annotations

import logging
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .errors import (
    DataError,
    IndefiniteWeight,
    MdmError,
    NoAnnihilator,
    NotPositiveSemidefinite,
    RankDeficientDesign,
)
from .linalg import (
    Tolerance,
    DEFAULT_TOL,
    numerical_rank,
    svd_rank,
    swap_permutation,
    sym_pair_indices,
    vec,
)
from .model import (
    KNOWN_INPUT,
    UNKNOWN_INPUT,
    LtvModel,
    MeasurementData,
    NoiseStructure,
    Trajectory,
    assemble_qr,
    defining_replication,
)
from .residue import build_augmented_block

__all__ = [
    "WindowGeometry",
    "StackedSystem",
    "EtaCovariances",
    "Estimate",
    "IdentifiabilityReport",
    "build_design",
    "build_stacked_system",
    "ordinary_mdm",
    "gaussian_eta_covariances",
    "assemble_p",
    "weighted_mdm",
    "weighted_pipeline",
    "identifiability_report",
    "min_feasible_window",
]

logger = logging.getLogger(__name__)

# dense eta-weight assembly above this row count is refused (use ordinary MDM
# or a shorter horizon instead)
P_DENSE_MAX_ROWS = 8000


@dataclass
class WindowGeometry:
    """Data-independent quantities of one window (shared across MC runs)."""

    n_a: int
    annihilator: np.ndarray            # N, (n_a, n_zkL)
    gamma_g: np.ndarray | None         # Gamma @ scriptG for the known-input correction
    ac: np.ndarray                     # N [Gamma, I] blkdiag(scriptE, scriptD), (n_a, n_eps)
    sel_i: np.ndarray                  # unique-pair index arrays of length n_rows
    sel_j: np.ndarray
    design_block: np.ndarray           # (n_rows, n_alpha)
    noisemap_block: np.ndarray         # (n_rows, n_eps^2)

    @property
    def n_rows(self) -> int:
        return self.sel_i.size


@dataclass
class StackedSystem:
    """The full regression: obs = design @ alpha + blkdiag(noisemap blocks) @ eta.

    ``obs`` is None for design-only systems; ``with_data`` attaches data.
    ``windows`` carries the per-window geometry; for LTI models all entries
    reference one shared object.  The design facts below are computed once,
    by ``build_design``, from one SVD and one thin QR of design / scale.
    """

    obs: np.ndarray | None
    design: np.ndarray
    row_offsets: np.ndarray
    L: int
    mode: str
    windows: list[WindowGeometry]
    n_eps: int
    model: LtvModel
    scale: np.ndarray                  # column scale: design == (design / scale) * scale
    rank: int                          # numerical rank of design / scale
    rank_threshold: float
    cond: float
    null_basis: np.ndarray | None      # (n_alpha, deficiency), orthonormal columns
    q: np.ndarray                      # thin QR of design / scale
    r: np.ndarray

    @property
    def n_alpha(self) -> int:
        return self.design.shape[1]

    @property
    def n_rows(self) -> int:
        return int(self.row_offsets[-1])

    @property
    def n_windows(self) -> int:
        return len(self.windows)

    def with_data(self, data) -> "StackedSystem":
        """This design with the squared residues of ``data`` (a Trajectory or
        MeasurementData holding exactly the records the windows span) as obs.

        Raises DataError for records that do not fit the model or give a
        non-finite residue.
        """
        if isinstance(data, Trajectory):
            data = MeasurementData.from_trajectory(data)
        zs, us = _checked_records(self.model, data, self.mode)
        L = self.L
        n_records = self.n_windows + L - 1
        if len(zs) != n_records:
            raise DataError(
                f"data has {len(zs)} records but the design's {self.n_windows} "
                f"windows of length L={L} span {n_records}"
            )
        parts = []
        for k, w in enumerate(self.windows):
            z = np.concatenate(zs[k:k + L])
            if us is not None and w.gamma_g is not None:
                z = z - w.gamma_g @ np.concatenate(us[k:k + L - 1])
            zt = w.annihilator @ z
            parts.append(zt[w.sel_i] * zt[w.sel_j])
        obs = np.concatenate(parts)
        finite = np.isfinite(obs)
        if not finite.all():
            window = int(np.searchsorted(self.row_offsets, np.argmin(finite),
                                         side="right")) - 1
            raise DataError(f"record k={_first_nonfinite(zs, us, window, L)}: "
                            "measurement or residue is not finite")
        return replace(self, obs=obs)


@dataclass
class Estimate:
    """A parameter estimate with identifiability and solver diagnostics."""

    alpha_hat: np.ndarray
    cov: np.ndarray | None
    method: str
    rank: int
    rank_threshold: float
    diagnostics: dict = field(default_factory=dict)


@dataclass
class IdentifiabilityReport:
    rank: int
    n_alpha: int
    threshold: float
    null_basis: np.ndarray | None        # (n_alpha, deficiency), orthonormal columns
    participation: np.ndarray | None     # per-parameter weight in the null space


def _annihilated_target(block, mode: str) -> np.ndarray:
    """O, or [O, Gamma scriptG] when an unknown input must be cancelled too."""
    if mode == UNKNOWN_INPUT and block.scriptG.shape[1] > 0:
        return np.hstack([block.O, block.Gamma @ block.scriptG])
    return block.O


def _annihilator(target: np.ndarray, k: int, tol: Tolerance) -> np.ndarray:
    u, s, _, rank, thr = svd_rank(target, tol, full_matrices=True)
    if thr > 0.0:
        near = np.count_nonzero((s > thr / 10.0) & (s < thr * 10.0))
        if near:
            logger.warning(
                "window k=%d: %d singular value(s) within a decade of the rank "
                "threshold %.3e; keeping rank %d", k, near, thr, rank,
            )
    if rank >= target.shape[0]:
        raise NoAnnihilator(rows=target.shape[0], rank=rank, k=k)
    return u[:, rank:].T


def _window_geometry(model: LtvModel, k: int, L: int, mode: str,
                     upsilon: np.ndarray, tol: Tolerance) -> WindowGeometry:
    block = build_augmented_block(model, k, L)
    n = _annihilator(_annihilated_target(block, mode), k, tol)
    gamma_g = None
    if mode == KNOWN_INPUT and block.scriptG.shape[1] > 0:
        gamma_g = block.Gamma @ block.scriptG
    c_mat = scipy.linalg.block_diag(block.scriptE, block.scriptD)
    ac = np.hstack([n @ block.Gamma, n]) @ c_mat
    sel_i, sel_j = sym_pair_indices(n.shape[0])
    noisemap = np.einsum("ta,tb->tab", ac[sel_j], ac[sel_i]).reshape(sel_i.size, -1)
    return WindowGeometry(
        n_a=n.shape[0], annihilator=n, gamma_g=gamma_g, ac=ac,
        sel_i=sel_i, sel_j=sel_j,
        design_block=noisemap @ upsilon, noisemap_block=noisemap,
    )


def min_feasible_window(model: LtvModel, mode: str, tol: Tolerance = DEFAULT_TOL,
                        l_max: int | None = None, n_records: int | None = None,
                        structure: NoiseStructure | None = None) -> int | None:
    """Smallest L whose annihilator exists for every window, or None.

    The existence condition is that the stacked measurement dimension exceed
    the rank of the annihilated matrix at every k.  When ``structure`` is
    given, the window must additionally yield a full-column-rank design (an
    annihilator can exist at an L too short to carry any state-noise
    information, e.g. single-step windows).  ``l_max`` defaults to
    max(n_x + 2, 12); no L above ``n_records`` is tried.
    """
    if n_records is None:
        n_records = model.tau + 1
    if l_max is None:
        l_max = max(model.n_x + 2, 12)
    l_max = min(l_max, n_records)
    for L in range(1, l_max + 1):
        n_windows = n_records - L + 1
        ks = (0,) if model.is_lti else range(n_windows)
        targets = (_annihilated_target(build_augmented_block(model, k, L), mode)
                   for k in ks)
        if not all(numerical_rank(t, tol) < t.shape[0] for t in targets):
            continue
        if structure is not None:
            sys0 = build_design(model, structure, L, mode, tol,
                                n_windows=n_windows)
            if sys0.rank < structure.n_alpha:
                continue
        return L
    return None


def build_design(model: LtvModel, structure: NoiseStructure, L: int, mode: str,
                 tol: Tolerance = DEFAULT_TOL, n_windows: int | None = None) -> StackedSystem:
    """Assemble the design matrix only; ``with_data`` attaches measurements."""
    if n_windows is None:
        n_windows = model.tau + 2 - L
    if n_windows < 1:
        raise DataError(f"horizon too short: no full window of length L={L}")
    upsilon = defining_replication(structure, L)
    try:
        if model.is_lti:
            windows = [_window_geometry(model, 0, L, mode, upsilon, tol)] * n_windows
        else:
            windows = [_window_geometry(model, k, L, mode, upsilon, tol)
                       for k in range(n_windows)]
    except NoAnnihilator as exc:
        try:
            exc.minimal_feasible_l = min_feasible_window(model, mode, tol)
        except MdmError:
            pass
        raise
    row_offsets = np.concatenate(
        ([0], np.cumsum([w.n_rows for w in windows]))
    ).astype(int)
    design = np.vstack([w.design_block for w in windows])
    d, scale = _equilibrated(design, tol)
    _, s, vt, rank, thr = svd_rank(d, tol)
    null_basis = None
    if rank < design.shape[1]:
        # re-orthonormalise after undoing the column scaling
        null_basis, _ = np.linalg.qr(vt[rank:].T / scale[:, None])
    q, r = scipy.linalg.qr(d, mode="economic")
    return StackedSystem(
        obs=None, design=design, row_offsets=row_offsets, L=L, mode=mode,
        windows=windows, n_eps=(L - 1) * model.n_w + L * model.n_v, model=model,
        scale=scale, rank=rank, rank_threshold=thr,
        cond=float(s[0] / s[-1]) if s.size and s[-1] > 0 else np.inf,
        null_basis=null_basis, q=q, r=r,
    )


def _records(kind: str, values, expected) -> list[np.ndarray]:
    """``values`` as 1-D arrays; record k must have length ``expected(k)``."""
    records = [np.atleast_1d(v) for v in values]
    for k, v in enumerate(records):
        if v.shape[0] != expected(k):
            raise DataError(
                f"record k={k}: {kind} has length {v.shape[0]}, model expects {expected(k)}"
            )
    return records


def _checked_records(model: LtvModel, data: MeasurementData, mode: str):
    """The z records and, for a known input, the u records (else None)."""
    if len(data) > model.tau + 1:
        raise DataError(
            f"data has {len(data)} records but the model horizon is tau={model.tau}"
        )
    zs = _records("z", data.zs, model.n_z)
    if mode != KNOWN_INPUT:
        return zs, None
    if data.us is None:
        if any(np.any(model.G[k]) for k in range(len(model.G))):
            logger.warning("data carries no input records; assuming zero input")
        return zs, None
    return zs, _records("u", data.us, model.n_u)


def _first_nonfinite(zs, us, window: int, L: int) -> int:
    """First record of ``window`` whose z or u is not finite, else its first."""
    for k in range(window, window + L):
        u = us[k] if us is not None and k < len(us) else 0.0
        if not (np.all(np.isfinite(zs[k])) and np.all(np.isfinite(u))):
            return k
    return window


def build_stacked_system(model: LtvModel, structure: NoiseStructure, data,
                         L: int, mode: str = KNOWN_INPUT,
                         tol: Tolerance = DEFAULT_TOL) -> StackedSystem:
    """Assemble the full regression from measurement data.

    ``data`` may be a Trajectory or MeasurementData; windows run over every
    full length-L span of the records, in time order.  This is
    ``build_design`` for those windows followed by ``with_data``.
    """
    if isinstance(data, Trajectory):
        data = MeasurementData.from_trajectory(data)
    n_windows = len(data) - L + 1
    if n_windows < 1:
        raise DataError(
            f"horizon too short: {len(data)} records cannot hold a window of length L={L}"
        )
    return build_design(model, structure, L, mode, tol,
                        n_windows=n_windows).with_data(data)


def _equilibrated(design: np.ndarray,
                  tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Column-equilibrated copy of the design plus the scales used.

    Columns whose norm is negligible against the largest column are left
    unscaled: they are cancellation dust (e.g. the state-noise columns of a
    G == E model), and normalising them would disguise rank deficiency.
    """
    scale = np.linalg.norm(design, axis=0)
    dust = scale <= tol.rank_tol * (np.max(scale) if scale.size else 0.0)
    scale[dust] = 1.0
    return design / scale, scale


def _ls_with_cov(a: np.ndarray, b: np.ndarray, tol: Tolerance):
    """Column-equilibrated thin-QR least squares with (A^T A)^{-1}."""
    d, scale = _equilibrated(a, tol)
    q, r = scipy.linalg.qr(d, mode="economic")
    diag = np.abs(np.diag(r))
    if diag.size == 0 or np.min(diag) <= tol.rank_tol * max(d.shape) * np.max(diag):
        raise RankDeficientDesign(int(np.count_nonzero(
            diag > tol.rank_tol * max(d.shape) * np.max(diag))), a.shape[1])
    beta = scipy.linalg.solve_triangular(r, q.T @ b)
    r_inv = scipy.linalg.solve_triangular(r, np.eye(r.shape[0]))
    cov_beta = r_inv @ r_inv.T
    return beta / scale, cov_beta / np.outer(scale, scale)


def ordinary_mdm(sys: StackedSystem, tol: Tolerance = DEFAULT_TOL) -> Estimate:
    """Unweighted LS solution of the stacked regression.

    Solved with the thin QR of the column-equilibrated design that
    ``build_design`` computed (the clock benchmark spans 19 decades across
    parameters); no covariance is reported.  The rank decision is the one
    ``build_design`` made with its tolerance, so ``tol`` is not used here.
    """
    if sys.obs is None:
        raise ValueError("system carries no observations")
    t0 = time.perf_counter()
    if sys.rank < sys.n_alpha:
        raise RankDeficientDesign(sys.rank, sys.n_alpha)
    beta = scipy.linalg.solve_triangular(sys.r, sys.q.T @ sys.obs)
    return Estimate(
        alpha_hat=beta / sys.scale, cov=None, method="ordinary",
        rank=sys.rank, rank_threshold=sys.rank_threshold,
        diagnostics={"design_cond": sys.cond, "runtime_s": time.perf_counter() - t0},
    )


def _shift_matrix(m: int, j: int) -> np.ndarray:
    return np.eye(m, k=-j) if m > 0 else np.zeros((0, 0))


@dataclass
class EtaCovariances:
    """Second moments of the eta process, stored compactly per band offset.

    For offsets j = 0..L-1 the band matrix E[eta_k eta_{k+j}^T] follows from
    the Gaussian fourth-moment factorisation; ``band(j)`` materialises it as
    an n_eps^2 x n_eps^2 matrix (zero for j >= L, where the stacked noise
    vectors share no components).
    """

    L: int
    n_eps: int
    r_e2: np.ndarray                     # vectorised stacked-noise covariance
    sigma_tops: list[np.ndarray]         # per-j marginal of the earlier stack
    sigma_bots: list[np.ndarray]         # per-j marginal of the later stack
    crosses: list[np.ndarray]            # per-j cross covariance C_j
    repaired: bool

    def band(self, j: int) -> np.ndarray:
        n = self.n_eps
        if j >= self.L:
            return np.zeros((n * n, n * n))
        c = self.crosses[j]
        base = np.kron(c, c)
        band = base + base[:, swap_permutation(n)]
        if self.repaired:
            # eta subtracts r_e2 while the repaired stack has mean vec(sigma)
            band = band + np.outer(vec(self.sigma_tops[j]) - self.r_e2,
                                   vec(self.sigma_bots[j]) - self.r_e2)
        return band

    @property
    def bands(self) -> list[np.ndarray]:
        return [self.band(j) for j in range(self.L)]


def gaussian_eta_covariances(structure: NoiseStructure, alpha, L: int,
                             tol: Tolerance = DEFAULT_TOL,
                             repair: bool = False) -> EtaCovariances:
    """Band covariances of eta for Gaussian noises with Q(alpha), R(alpha).

    The stacked noise of a window is [w_k..w_{k+L-2}; v_k..v_{k+L-1}], so two
    stacks at lag j share components and E[eta_k eta_{k+j}^T] has entries
    C(p,r) C(q,s) + C(p,s) C(q,r) with C the lag-j cross covariance (the
    fourth-moment expansion of zero-mean jointly Gaussian variables, with the
    squared means cancelled against the subtracted expectation).

    With ``repair=True`` an indefinite Q or R (as can happen for a raw LS
    estimate) has the negative eigenvalues of the implied joint covariance
    clipped to zero, with a warning; otherwise it raises.
    """
    q, r = assemble_qr(structure, alpha)
    lam_q = np.linalg.eigvalsh((q + q.T) / 2.0) if q.size else np.zeros(0)
    lam_r = np.linalg.eigvalsh((r + r.T) / 2.0) if r.size else np.zeros(0)
    scale = max(1.0, *(np.max(np.abs(lam)) for lam in (lam_q, lam_r) if lam.size))
    psd_ok = all(lam.size == 0 or lam[0] >= -tol.zero_tol * scale
                 for lam in (lam_q, lam_r))
    if not psd_ok and not repair:
        raise NotPositiveSemidefinite("Q(alpha) or R(alpha) is indefinite")

    lg = L - 1
    n_eps = lg * structure.n_w + L * structure.n_v
    sigma = scipy.linalg.block_diag(np.kron(np.eye(lg), q), np.kron(np.eye(L), r))
    r_e2 = vec(sigma)

    tops, bots, crosses = [], [], []
    repaired = False
    for j in range(L):
        c_j = scipy.linalg.block_diag(
            np.kron(_shift_matrix(lg, j), q), np.kron(_shift_matrix(L, j), r))
        if psd_ok:
            tops.append(sigma)
            bots.append(sigma)
            crosses.append(c_j)
            continue
        if j == 0:
            joint = sigma
        else:
            joint = np.block([[sigma, c_j], [c_j.T, sigma]])
        lam, v = np.linalg.eigh((joint + joint.T) / 2.0)
        rep = (v * np.clip(lam, 0.0, None)) @ v.T
        if j == 0:
            tops.append(rep)
            bots.append(rep)
            crosses.append(rep)
        else:
            tops.append(rep[:n_eps, :n_eps])
            bots.append(rep[n_eps:, n_eps:])
            crosses.append(rep[:n_eps, n_eps:])
        repaired = True
    if repaired:
        warnings.warn(
            "Q/R estimate is indefinite; clipped negative eigenvalues of the "
            "joint noise covariance before the fourth-moment expansion",
            RuntimeWarning, stacklevel=2,
        )
    return EtaCovariances(L=L, n_eps=n_eps, r_e2=r_e2, sigma_tops=tops,
                          sigma_bots=bots, crosses=crosses, repaired=repaired)


def _select_unique(mat: np.ndarray, w: WindowGeometry) -> np.ndarray:
    return mat[w.sel_i, w.sel_j]


def assemble_p(sys: StackedSystem, etas: EtaCovariances) -> np.ndarray:
    """Covariance of the stacked noise term, block banded with bandwidth L-1.

    Block (r, r+j) equals noisemap_r @ band(j) @ noisemap_{r+j}^T; it is
    computed in the factored form using G = ac_r @ C_j @ ac_{r+j}^T, which
    never materialises the n_eps^2-sized band matrices.
    """
    if etas.L != sys.L:
        raise ValueError(f"band count {etas.L} does not match system L={sys.L}")
    if etas.n_eps != sys.n_eps:
        raise ValueError(
            f"band dimension n_eps={etas.n_eps} does not match system n_eps={sys.n_eps}"
        )
    m = sys.n_rows
    if m > P_DENSE_MAX_ROWS:
        raise MdmError(
            f"weight matrix of size {m} exceeds the dense assembly limit "
            f"{P_DENSE_MAX_ROWS}; use the ordinary method or a shorter horizon"
        )
    offs = sys.row_offsets
    n_windows = sys.n_windows
    rm = None
    if etas.repaired:
        rm = etas.r_e2.reshape((etas.n_eps, etas.n_eps), order="F")
    p = np.zeros((m, m))
    for j in range(sys.L):
        c_j = etas.crosses[j]
        for r in range(n_windows - j):
            wr = sys.windows[r]
            wc = sys.windows[r + j]
            g = wr.ac @ c_j @ wc.ac.T
            blk = (g[np.ix_(wr.sel_j, wc.sel_j)] * g[np.ix_(wr.sel_i, wc.sel_i)]
                   + g[np.ix_(wr.sel_j, wc.sel_i)] * g[np.ix_(wr.sel_i, wc.sel_j)])
            if etas.repaired:
                u_r = _select_unique(wr.ac @ (etas.sigma_tops[j] - rm) @ wr.ac.T, wr)
                u_c = _select_unique(wc.ac @ (etas.sigma_bots[j] - rm) @ wc.ac.T, wc)
                blk = blk + np.outer(u_r, u_c)
            p[offs[r]:offs[r + 1], offs[r + j]:offs[r + j + 1]] = blk
            if j > 0:
                p[offs[r + j]:offs[r + j + 1], offs[r]:offs[r + 1]] = blk.T
    return p


def weighted_mdm(sys: StackedSystem, p_hat: np.ndarray,
                 tol: Tolerance = DEFAULT_TOL, branch: str = "auto") -> Estimate:
    """Weighted LS solution with the eta covariance estimate as weight.

    A numerically full-rank weight is factored by Cholesky and the whitened
    problem solved by QR; a rank-deficient weight takes the constrained LS
    form built from the pseudo-inverse of (P + design design^T), whose
    reported covariance subtracts the identity.  ``branch`` may force either
    path ("full-rank" / "constrained") for verification.
    """
    if sys.obs is None:
        raise ValueError("system carries no observations")
    t0 = time.perf_counter()
    if sys.rank < sys.n_alpha:
        raise RankDeficientDesign(sys.rank, sys.n_alpha)

    p = 0.5 * (p_hat + p_hat.T)
    lam = np.linalg.eigvalsh(p)
    lam_max = float(lam[-1]) if lam.size else 0.0
    # negativity floor uses the regression scale ||design||_2^2 too, so a
    # numerically-zero weight (all-dust eigenvalues) falls through to the
    # constrained branch; design == q @ (r * scale) gives the norm from r
    design_scale = float(np.linalg.norm(sys.r * sys.scale, 2)) ** 2
    floor = tol.rank_tol * max(lam_max, design_scale)
    if lam.size and lam[0] < -floor:
        raise IndefiniteWeight(
            f"weight matrix has eigenvalue {lam[0]:.3e} below -{floor:.3e}"
        )
    full_rank = lam_max > 0.0 and lam[0] > tol.rank_tol * lam_max
    if branch == "full-rank" and not full_rank:
        raise IndefiniteWeight("full-rank branch forced but the weight is singular")
    use_full = full_rank if branch == "auto" else branch == "full-rank"

    if use_full:
        chol = scipy.linalg.cholesky(p, lower=True, check_finite=False)
        a_t = scipy.linalg.solve_triangular(chol, sys.design, lower=True,
                                            check_finite=False)
        b_t = scipy.linalg.solve_triangular(chol, sys.obs, lower=True,
                                            check_finite=False)
        alpha, cov = _ls_with_cov(a_t, b_t, tol)
        method = "weighted-full-rank"
    else:
        w_base = p + sys.design @ sys.design.T
        lam2, v2 = np.linalg.eigh(w_base)
        thr2 = tol.rank_tol * max(float(lam2[-1]), 0.0) * w_base.shape[0]
        inv_sqrt = np.where(lam2 > thr2, 1.0 / np.sqrt(np.where(lam2 > thr2, lam2, 1.0)), 0.0)
        half = (v2 * inv_sqrt).T
        alpha, cov = _ls_with_cov(half @ sys.design, half @ sys.obs, tol)
        cov = cov - np.eye(sys.n_alpha)
        method = "weighted-constrained"
    return Estimate(
        alpha_hat=alpha, cov=cov, method=method, rank=sys.rank,
        rank_threshold=sys.rank_threshold,
        diagnostics={"design_cond": sys.cond, "weight_eig_min": float(lam[0]) if lam.size else 0.0,
                     "weight_eig_max": lam_max, "runtime_s": time.perf_counter() - t0},
    )


def weighted_pipeline(sys: StackedSystem, structure: NoiseStructure,
                      tol: Tolerance = DEFAULT_TOL) -> Estimate:
    """Ordinary estimate, Gaussian eta covariances from it, weighted solve.

    ``sys`` must carry observations (``build_stacked_system`` or
    ``with_data``); the first-pass estimate is kept in the diagnostics.
    """
    est_o = ordinary_mdm(sys, tol)
    etas = gaussian_eta_covariances(structure, est_o.alpha_hat, sys.L,
                                    tol=tol, repair=True)
    p_hat = assemble_p(sys, etas)
    est_w = weighted_mdm(sys, p_hat, tol)
    est_w.diagnostics["alpha_ordinary"] = est_o.alpha_hat
    est_w.diagnostics["eta_repaired"] = etas.repaired
    est_w.diagnostics["runtime_s"] += est_o.diagnostics["runtime_s"]
    return est_w


def identifiability_report(sys: StackedSystem,
                           tol: Tolerance = DEFAULT_TOL) -> IdentifiabilityReport:
    """Numerical rank of the design and, if deficient, the blind directions.

    The design depends on the known model and structure matrices only, so
    this needs no measurement data.  The rank decision and null basis are
    the ones ``build_design`` made with its tolerance; ``tol`` is not used.
    """
    participation = None
    if sys.null_basis is not None:
        participation = np.linalg.norm(sys.null_basis, axis=1)
    return IdentifiabilityReport(rank=sys.rank, n_alpha=sys.n_alpha,
                                 threshold=sys.rank_threshold,
                                 null_basis=sys.null_basis,
                                 participation=participation)
