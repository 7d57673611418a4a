"""Stacked regression assembly and the ordinary / weighted LS solvers.

Every usable window contributes rows

    obs_k = design_k @ alpha + noisemap_k @ eta_k

where obs_k selects the unique entries of the squared residue and eta_k is
the zero-mean deviation of the squared stacked noise from its expectation.
The ordinary solver ignores the eta covariance; the weighted solver builds
it (under a Gaussian assumption, from a first-pass ordinary estimate) as a
band matrix and solves the generalised LS problem by banded Cholesky,
falling back to a constrained LS form when the weight matrix is singular.
"""

from __future__ import annotations

import logging
import operator
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

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
    block_diag,
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
from .residue import window_blocks

__all__ = [
    "WindowGeometry",
    "StackedSystem",
    "EtaCovariances",
    "Estimate",
    "IdentifiabilityReport",
    "build_design",
    "build_stacked_system",
    "feasible_design",
    "ordinary_mdm",
    "gaussian_eta_covariances",
    "assemble_p",
    "weighted_mdm",
    "weighted_pipeline",
    "identifiability_report",
    "min_feasible_window",
]

logger = logging.getLogger(__name__)


@dataclass
class WindowGeometry:
    """Data-independent quantities of one window (shared across MC runs).

    ``build_design`` computes them for many windows at once; the arrays are
    views into those stacks (``ac`` into ``StackedSystem.ac``).
    """

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
    reference one shared object.  ``ac`` stacks every window's ``ac``,
    zero-padded at the bottom to the widest window's rows (a broadcast view
    for LTI models).  The design facts below are computed once, by
    ``build_design``, from one SVD and one thin QR of design / scale.
    """

    obs: np.ndarray | None
    design: np.ndarray
    row_offsets: np.ndarray
    L: int
    mode: str
    windows: list[WindowGeometry]
    ac: np.ndarray                     # (n_windows, max n_a, n_eps)
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
        z, z_off, u, u_off = _checked_records(self.model, data, self.mode)
        L = self.L
        n_records = self.n_windows + L - 1
        if z_off.size - 1 != n_records:
            raise DataError(
                f"data has {z_off.size - 1} records but the design's {self.n_windows} "
                f"windows of length L={L} span {n_records}"
            )
        finite = np.isfinite(z)
        if not finite.all():
            raise DataError(f"record k={_record_of(z_off, np.argmin(finite))}: "
                            "measurement or residue is not finite")
        z_off = z_off.tolist()
        u_off = u_off.tolist() if u is not None else None
        # one residue stack per residue size; the annihilator is applied
        # window by window, which batched products do not match bitwise
        windows, offs = self.windows, self.row_offsets
        rows = np.diff(offs)
        obs = np.empty(self.n_rows)
        for n_rows in np.unique(rows).tolist():
            ks = np.flatnonzero(rows == n_rows)
            first = windows[ks[0]]
            zt = np.empty((ks.size, first.n_a))
            for p, k in enumerate(ks.tolist()):
                w = windows[k]
                zk = z[z_off[k]:z_off[k + L]]
                if u is not None and w.gamma_g is not None:
                    zk = zk - w.gamma_g @ u[u_off[k]:u_off[k + L - 1]]
                zt[p] = w.annihilator @ zk
            obs[offs[ks, None] + np.arange(n_rows)] = (zt[:, first.sel_i]
                                                       * zt[:, first.sel_j])
        finite = np.isfinite(obs)
        if not finite.all():
            # finite measurements whose residue overflows
            window = _record_of(self.row_offsets, np.argmin(finite))
            raise DataError(f"record k={window}: measurement or residue is not finite")
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


def _annihilated_target(blocks, mode: str) -> np.ndarray:
    """O, or [O, Gamma scriptG] when an unknown input must be cancelled too;
    per window for a WindowBlocks stack."""
    if mode == UNKNOWN_INPUT and blocks.scriptG.shape[-1] > 0:
        return np.concatenate([blocks.O, blocks.Gamma @ blocks.scriptG], axis=-1)
    return blocks.O


def _all_window_blocks(model: LtvModel, L: int, n_windows: int):
    """Window matrices of windows 0..n_windows-1, or of window 0 alone for an
    LTI model, whose windows all share it."""
    return window_blocks(model, np.arange(1 if model.is_lti else n_windows), L)


def _warn_near_threshold(factored) -> None:
    """One warning for every window with singular values within a decade of
    its rank threshold: how many windows, and the closest call."""
    count, closest = 0, None
    for b, _, s, rank, thr in factored:
        t = thr[:, None]
        near = (t > 0.0) & (s > t / 10.0) & (s < t * 10.0)
        if not near.any():
            continue
        count += int(np.count_nonzero(near.any(axis=1)))
        ratio = np.where(near, s / np.where(t > 0.0, t, 1.0), 1.0)
        dist = np.where(near, np.abs(np.log(ratio)), np.inf)
        w, i = np.unravel_index(np.argmin(dist), dist.shape)
        if closest is None or dist[w, i] < closest[0]:
            closest = (dist[w, i], ratio[w, i], int(b.ks[w]), int(rank[w]))
    if count:
        _, ratio, k, rank = closest
        logger.warning(
            "%d window(s) have singular values within a decade of the rank "
            "threshold; closest: sigma/threshold = %.3g at window k=%d, rank %d kept",
            count, ratio, k, rank,
        )


def _window_geometries(blocks, mode: str, upsilon: np.ndarray,
                       tol: Tolerance) -> tuple[list[WindowGeometry], np.ndarray]:
    """The geometry of the windows in ``blocks``, indexed by window start,
    and their ``ac`` stacked as ``StackedSystem.ac`` holds it.

    One SVD call per shape group gives every window's annihilator by the
    shared rank rule; the windows are then regrouped by rank and their
    products computed in stacks.  Each window's arrays are views into those
    stacks, bitwise equal to the same steps taken for one window alone.
    """
    factored = []
    for b in blocks:
        u, s, _, rank, thr = svd_rank(_annihilated_target(b, mode), tol,
                                      full_matrices=True)
        factored.append((b, u, s, rank, thr))
    _warn_near_threshold(factored)
    failed = [(int(b.ks[w]), u.shape[1], int(rank[w]))
              for b, u, _, rank, _ in factored
              for w in np.flatnonzero(rank >= u.shape[1])[:1]]
    if failed:
        k, rows, rank = min(failed)
        raise NoAnnihilator(rows=rows, rank=rank, k=k)

    windows = [None] * sum(b.ks.size for b in blocks)
    n_a_max = max(u.shape[1] - int(np.min(rank)) for _, u, _, rank, _ in factored)
    n_eps = blocks[0].scriptE.shape[-1] + blocks[0].scriptD.shape[-1]
    ac_all = np.zeros((len(windows), n_a_max, n_eps))
    for b, u, _, rank, _ in factored:
        gamma_g = None
        if mode == KNOWN_INPUT and b.scriptG.shape[-1] > 0:
            gamma_g = b.Gamma @ b.scriptG
        c_mat = b.C
        for r in np.unique(rank).tolist():
            idx = np.flatnonzero(rank == r)
            n = u[idx][:, :, r:].transpose(0, 2, 1)
            ac = np.concatenate([n @ b.Gamma[idx], n], axis=2) @ c_mat[idx]
            ac_all[b.ks[idx], :n.shape[1]] = ac
            sel_i, sel_j = sym_pair_indices(n.shape[1])
            noisemap = np.einsum("wta,wtb->wtab", ac[:, sel_j], ac[:, sel_i]
                                 ).reshape(idx.size, sel_i.size, -1)
            design = noisemap @ upsilon
            for p, w in enumerate(idx.tolist()):
                windows[b.ks[w]] = WindowGeometry(
                    n_a=n.shape[1], annihilator=n[p],
                    gamma_g=None if gamma_g is None else gamma_g[w],
                    ac=ac_all[b.ks[w], :n.shape[1]],
                    sel_i=sel_i, sel_j=sel_j,
                    design_block=design[p], noisemap_block=noisemap[p],
                )
    return windows, ac_all


def _feasible_windows(model: LtvModel, mode: str, tol: Tolerance,
                      l_max: int | None, n_records: int):
    """(L, window matrices) for each L up to ``l_max`` whose every window has
    an annihilator, by increasing L."""
    if l_max is None:
        l_max = max(model.n_x + 2, 12)
    for L in range(1, min(l_max, n_records) + 1):
        blocks = _all_window_blocks(model, L, n_records - L + 1)
        targets = (_annihilated_target(b, mode) for b in blocks)
        if all((numerical_rank(t, tol) < t.shape[1]).all() for t in targets):
            yield L, blocks


def min_feasible_window(model: LtvModel, mode: str, tol: Tolerance = DEFAULT_TOL,
                        l_max: int | None = None, n_records: int | None = None,
                        structure: NoiseStructure | None = None) -> int | None:
    """Smallest L whose annihilator exists for every window, or None.

    The existence condition is that the stacked measurement dimension exceed
    the rank of the annihilated matrix at every k.  When ``structure`` is
    given, the window must additionally yield a full-column-rank design (an
    annihilator can exist at an L too short to carry any state-noise
    information, e.g. single-step windows); this is the L of
    ``feasible_design``.  ``l_max`` defaults to max(n_x + 2, 12); no L above
    ``n_records`` is tried.
    """
    if structure is not None:
        design = feasible_design(model, structure, mode, tol, l_max, n_records)
        return None if design is None else design.L
    if n_records is None:
        n_records = model.tau + 1
    return next((L for L, _ in _feasible_windows(model, mode, tol, l_max, n_records)),
                None)


def feasible_design(model: LtvModel, structure: NoiseStructure, mode: str,
                    tol: Tolerance = DEFAULT_TOL, l_max: int | None = None,
                    n_records: int | None = None) -> StackedSystem | None:
    """The design at the L that ``min_feasible_window`` picks with ``structure``.

    None when no L up to ``l_max`` gives every window an annihilator and the
    design full column rank.  Each candidate L's window matrices are built
    once and serve both its rank scan and its design; ``with_data`` attaches
    the ``n_records`` measurements.
    """
    if n_records is None:
        n_records = model.tau + 1
    for L, blocks in _feasible_windows(model, mode, tol, l_max, n_records):
        design = _design(model, structure, L, mode, tol, n_records - L + 1, blocks)
        if design.rank >= structure.n_alpha:
            return design
    return None


def build_design(model: LtvModel, structure: NoiseStructure, L: int, mode: str,
                 tol: Tolerance = DEFAULT_TOL, n_windows: int | None = None) -> StackedSystem:
    """Assemble the design matrix only; ``with_data`` attaches measurements."""
    if n_windows is None:
        n_windows = model.tau + 2 - L
    if n_windows < 1:
        raise DataError(f"horizon too short: no full window of length L={L}")
    return _design(model, structure, L, mode, tol, n_windows,
                   _all_window_blocks(model, L, n_windows))


def _design(model: LtvModel, structure: NoiseStructure, L: int, mode: str,
            tol: Tolerance, n_windows: int, blocks) -> StackedSystem:
    upsilon = defining_replication(structure, L)
    try:
        windows, ac = _window_geometries(blocks, mode, upsilon, tol)
    except NoAnnihilator as exc:
        try:
            exc.minimal_feasible_l = min_feasible_window(model, mode, tol)
        except MdmError:
            pass
        raise
    if model.is_lti:
        windows = windows * n_windows
        ac = np.broadcast_to(ac, (n_windows,) + ac.shape[1:])
    row_offsets = np.concatenate(
        ([0], np.cumsum([w.n_rows for w in windows]))
    ).astype(int)
    design = np.concatenate([w.design_block for w in windows])
    d, scale = _equilibrated(design, tol)
    _, s, vt, rank, thr = svd_rank(d, tol)
    null_basis = None
    if rank < design.shape[1]:
        # re-orthonormalise after undoing the column scaling
        null_basis, _ = np.linalg.qr(vt[rank:].T / scale[:, None])
    q, r = scipy.linalg.qr(d, mode="economic")
    return StackedSystem(
        obs=None, design=design, row_offsets=row_offsets, L=L, mode=mode,
        windows=windows, ac=ac, n_eps=(L - 1) * model.n_w + L * model.n_v,
        model=model, scale=scale, rank=rank, rank_threshold=thr,
        cond=float(s[0] / s[-1]) if s.size and s[-1] > 0 else np.inf,
        null_basis=null_basis, q=q, r=r,
    )


def _record_of(offsets: np.ndarray, pos) -> int:
    """The record (or window) whose slice offsets[k]:offsets[k+1] holds ``pos``."""
    return int(np.searchsorted(offsets, pos, side="right")) - 1


_SIZE = operator.attrgetter("size")


def _flat_records(kind: str, values, expected: np.ndarray):
    """``values`` concatenated, and offsets: record k is flat[off[k]:off[k+1]].

    Record k must have length ``expected[k]`` (records past the end of
    ``expected`` are not checked).
    """
    try:
        lengths = np.fromiter(map(_SIZE, values), dtype=int, count=len(values))
    except AttributeError:
        # records given as Python sequences or scalars
        lengths = np.fromiter(map(np.size, values), dtype=int, count=len(values))
    bad = np.flatnonzero(lengths[:expected.size] != expected[:lengths.size])
    if bad.size:
        k = int(bad[0])
        raise DataError(
            f"record k={k}: {kind} has length {lengths[k]}, model expects {expected[k]}"
        )
    flat = np.concatenate(values, axis=None, dtype=float) if values else np.zeros(0)
    return flat, np.concatenate(([0], np.cumsum(lengths)))


def _checked_records(model: LtvModel, data: MeasurementData, mode: str):
    """(z, z offsets, u, u offsets) of the records, flat; u and its offsets
    are None unless a known input is given."""
    if len(data) > model.tau + 1:
        raise DataError(
            f"data has {len(data)} records but the model horizon is tau={model.tau}"
        )
    z, z_off = _flat_records("z", data.zs, model.n_z_steps())
    if mode != KNOWN_INPUT:
        return z, z_off, None, None
    if data.us is None:
        if any(np.any(model.G[k]) for k in range(len(model.G))):
            logger.warning("data carries no input records; assuming zero input")
        return z, z_off, None, None
    u, u_off = _flat_records("u", data.us, model.n_u_steps())
    # checked before the input correction, whose product would warn
    finite = np.isfinite(u)
    if not finite.all():
        raise DataError(f"record k={_record_of(u_off, np.argmin(finite))}: "
                        "input is not finite")
    return z, z_off, u, u_off


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
    vectors share no components).  ``projection`` holds, for Q and R, the
    most negative eigenvalue relative to the largest |eigenvalue| when they
    were projected onto the PSD cone first, and (0, 0) when they were not.
    """

    L: int
    n_eps: int
    r_e2: np.ndarray                     # vectorised stacked-noise covariance
    crosses: list[np.ndarray]            # per-j cross covariance C_j
    projection: tuple[float, float]

    @property
    def repaired(self) -> bool:
        """Whether Q and R were projected onto the PSD cone."""
        return any(self.projection)

    def band(self, j: int) -> np.ndarray:
        n = self.n_eps
        if j >= self.L:
            return np.zeros((n * n, n * n))
        c = self.crosses[j]
        base = np.kron(c, c)
        return base + base[:, swap_permutation(n)]


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
    estimate) is projected onto the PSD cone, with a warning: one
    eigendecomposition each, negative eigenvalues clipped to zero.  The
    bands are then the exact moments of noises with the projected
    covariances.  Otherwise it raises.
    """
    q, r = assemble_qr(structure, alpha)
    eigs = [np.linalg.eigh((m + m.T) / 2.0) for m in (q, r)]
    tops = [np.max(np.abs(lam), initial=0.0) for lam, _ in eigs]
    scale = max(1.0, *tops)
    projection = (0.0, 0.0)
    if any(lam.size and lam[0] < -tol.zero_tol * scale for lam, _ in eigs):
        if not repair:
            raise NotPositiveSemidefinite("Q(alpha) or R(alpha) is indefinite")
        q, r = ((v * np.clip(lam, 0.0, None)) @ v.T for lam, v in eigs)
        projection = tuple(float(min(lam[0], 0.0) / top) if top > 0.0 else 0.0
                           for (lam, _), top in zip(eigs, tops))
        warnings.warn(
            "Q/R estimate is indefinite; projected it onto the positive "
            "semidefinite cone before the fourth-moment expansion",
            RuntimeWarning, stacklevel=2,
        )

    lg = L - 1
    sigma = block_diag(np.kron(np.eye(lg), q), np.kron(np.eye(L), r))
    crosses = [block_diag(np.kron(_shift_matrix(lg, j), q),
                          np.kron(_shift_matrix(L, j), r)) for j in range(L)]
    return EtaCovariances(L=L, n_eps=lg * structure.n_w + L * structure.n_v,
                          r_e2=vec(sigma), crosses=crosses, projection=projection)


def assemble_p(sys: StackedSystem, etas: EtaCovariances) -> np.ndarray:
    """Covariance P of the stacked noise term, in LAPACK lower band storage.

    P is block banded: block (r, r+j) is noisemap_r @ band(j) @
    noisemap_{r+j}^T for j < L and zero beyond.  Each lag's blocks are
    computed for all windows at once in the factored form
    G_r = ac_r @ C_j @ ac_{r+j}^T, which never materialises the
    n_eps^2-sized band matrices.  The result ``ab`` has shape (b+1, m) with
    ab[i-c, c] == P[i, c] for c <= i <= c+b, b the widest row span of L
    consecutive windows minus one (L*s - 1 for windows of s rows); entries
    past the end of a diagonal are 0.  The dense P is never formed.

    ``sys.ac`` pads a window with fewer residue rows at the bottom, so its
    unique pairs are a prefix of the widest window's (``sym_pair_indices``
    runs column by column) and the padded entries of every product are 0.
    """
    if etas.L != sys.L:
        raise ValueError(f"band count {etas.L} does not match system L={sys.L}")
    if etas.n_eps != sys.n_eps:
        raise ValueError(
            f"band dimension n_eps={etas.n_eps} does not match system n_eps={sys.n_eps}"
        )
    n_windows, offs = sys.n_windows, sys.row_offsets
    span_end = offs[np.minimum(np.arange(n_windows) + sys.L, n_windows)]
    ab = np.zeros((int(np.max(span_end - offs[:-1])), sys.n_rows))
    ac = sys.ac
    ac_t = ac.transpose(0, 2, 1)
    si, sj = sym_pair_indices(ac.shape[1])
    pos = np.arange(si.size)
    rows_of = np.diff(offs)
    for j in range(min(sys.L, n_windows)):
        n = n_windows - j
        g = ac[:n] @ etas.crosses[j] @ ac_t[j:]
        blk = (g[:, sj[:, None], sj] * g[:, si[:, None], si]
               + g[:, sj[:, None], si] * g[:, si[:, None], sj])
        # blk[r, a, b] = P[offs[r] + a, offs[r+j] + b], stored from the lower
        # triangle as P[offs[r+j] + b, offs[r] + a]
        col = offs[:n, None, None] + pos[:, None]
        row = offs[j:n_windows, None, None] + pos
        keep = ((pos[:, None] < rows_of[:n, None, None])
                & (pos < rows_of[j:, None, None]))
        if j == 0:
            # a diagonal block is symmetric up to roundoff; store its mean
            blk = 0.5 * (blk + blk.transpose(0, 2, 1))
            keep &= pos[:, None] <= pos
        col = np.broadcast_to(col, keep.shape)[keep]
        ab[np.broadcast_to(row, keep.shape)[keep] - col, col] = blk[keep]
    return ab


# The constrained branch forms P + design design^T densely, O(m^2) memory,
# and factors it by pivoted Cholesky, O(m^2 r) for its rank r; it is refused
# above this row count (use ordinary MDM or a shorter horizon instead).
P_DENSE_MAX_ROWS = 8000


def _check_weight_rows(m: int) -> None:
    if m > P_DENSE_MAX_ROWS:
        raise MdmError(
            f"weight matrix of size {m} exceeds the dense assembly limit "
            f"{P_DENSE_MAX_ROWS}; use the ordinary method or a shorter horizon"
        )


def _factors_shifted(ab: np.ndarray, shift: float) -> bool:
    """Whether P + shift * I, P in lower band storage, has a banded Cholesky
    factor."""
    shifted = ab.copy()
    shifted[0] += shift
    return scipy.linalg.lapack.dpbtrf(shifted, lower=1)[1] == 0


def weighted_mdm(sys: StackedSystem, p_hat: np.ndarray,
                 tol: Tolerance = DEFAULT_TOL, branch: str = "auto") -> Estimate:
    """Weighted LS solution with the eta covariance estimate as weight.

    ``p_hat`` is the symmetric weight P in LAPACK lower band storage, as
    ``assemble_p`` returns it: shape (b+1, m), p_hat[i-c, c] == P[i, c], and
    zeros past the end of each diagonal (np.ones((1, m)) is the identity).
    Two shifted banded Cholesky factorisations, O(m b^2) each, decide the
    branch.  With d = max diag P, P is numerically full rank when
    P - rank_tol d I factors; P is indefinite, and IndefiniteWeight raised,
    when P + rank_tol max(d, ||design||_2^2) I does not.  A full-rank weight
    is factored by banded Cholesky and the whitened problem solved by QR;
    the diagnostics then carry the fit statistic J = r^T P^{-1} r of the
    residual r and its degrees of freedom m - n_alpha.  A singular weight
    takes Rao's unified LS form with a g-inverse of T = P + design design^T
    from its pivoted Cholesky factor; the reported covariance subtracts the
    identity.  ``branch`` may force either path ("full-rank" /
    "constrained") for verification.
    """
    if sys.obs is None:
        raise ValueError("system carries no observations")
    t0 = time.perf_counter()
    if sys.rank < sys.n_alpha:
        raise RankDeficientDesign(sys.rank, sys.n_alpha)
    m = sys.n_rows
    ab = np.asarray(p_hat, dtype=float)
    if ab.ndim != 2 or not 1 <= ab.shape[0] <= m or ab.shape[1] != m:
        raise ValueError(f"weight must be in band storage of shape (b+1, {m}), "
                         f"got {ab.shape}")
    if np.any(ab[np.arange(m) >= m - np.arange(ab.shape[0])[:, None]]):
        raise ValueError("weight band storage has entries past the end of a diagonal")
    _check_weight_rows(m)

    d = float(np.max(ab[0]))
    full_rank = d > 0.0 and _factors_shifted(ab, -tol.rank_tol * d)
    if not full_rank:
        # the negativity floor uses the regression scale ||design||_2^2 too,
        # so a numerically-zero weight falls through to the constrained
        # branch; design == q @ (r * scale) gives the norm from r
        design_scale = float(np.linalg.norm(sys.r * sys.scale, 2)) ** 2
        floor = tol.rank_tol * max(d, design_scale)
        if not _factors_shifted(ab, floor):
            lam_min = float(scipy.linalg.eigvals_banded(
                ab, lower=True, select="i", select_range=(0, 0))[0])
            raise IndefiniteWeight(
                f"weight matrix has eigenvalue {lam_min:.3e} below -{floor:.3e}"
            )
    if branch == "full-rank" and not full_rank:
        raise IndefiniteWeight("full-rank branch forced but the weight is singular")
    use_full = full_rank if branch == "auto" else branch == "full-rank"

    fit_j = fit_dof = None
    if use_full:
        chol, info = scipy.linalg.lapack.dpbtrf(ab, lower=1)
        if info == 0:
            whitened, info = scipy.linalg.lapack.dtbtrs(
                chol, np.column_stack([sys.design, sys.obs]), uplo="L")
        if info != 0:
            raise IndefiniteWeight(
                f"banded Cholesky whitening of the weight failed (LAPACK info {info})")
        a_t, b_t = whitened[:, :-1], whitened[:, -1]
        alpha, cov = _ls_with_cov(a_t, b_t, tol)
        resid = b_t - a_t @ alpha
        fit_j, fit_dof = float(resid @ resid), m - sys.n_alpha
        method = "weighted-full-rank"
    else:
        # T = P + design design^T, of which pstrf reads the lower triangle;
        # the transpose of the symmetric product is Fortran-ordered, so T is
        # built and factored in place
        t = (sys.design @ sys.design.T).T
        for j in range(ab.shape[0]):
            i = np.arange(j, m)
            t[i, i - j] += ab[j, :m - j]
        # the shared rank rule, with max diag T standing for sigma_max
        thr = tol.rank_tol * float(np.max(np.diag(t))) * m
        c, piv, rank, _ = scipy.linalg.lapack.dpstrf(t, tol=thr, lower=1,
                                                     overwrite_a=1)
        # T[piv][:, piv] = F F^T, F = c[:, :rank] lower; with F_11 its leading
        # block, the pivot rows whitened by F_11 give the g-inverse form
        rows = piv[:rank] - 1
        whitened = scipy.linalg.solve_triangular(
            c[:rank, :rank], np.column_stack([sys.design[rows], sys.obs[rows]]),
            lower=True)
        alpha, cov = _ls_with_cov(whitened[:, :-1], whitened[:, -1], tol)
        cov = cov - np.eye(sys.n_alpha)
        method = "weighted-constrained"
    return Estimate(
        alpha_hat=alpha, cov=cov, method=method, rank=sys.rank,
        rank_threshold=sys.rank_threshold,
        diagnostics={"design_cond": sys.cond, "fit_j": fit_j, "fit_dof": fit_dof,
                     "runtime_s": time.perf_counter() - t0},
    )


def weighted_pipeline(sys: StackedSystem, structure: NoiseStructure,
                      tol: Tolerance = DEFAULT_TOL) -> Estimate:
    """Ordinary estimate, Gaussian eta covariances from it, weighted solve.

    ``sys`` must carry observations (``build_stacked_system`` or
    ``with_data``); the first-pass estimate and the size of its PSD
    projection (``EtaCovariances.projection``) are kept in the diagnostics.
    """
    est_o = ordinary_mdm(sys, tol)
    etas = gaussian_eta_covariances(structure, est_o.alpha_hat, sys.L,
                                    tol=tol, repair=True)
    # refuse a weight the solve would refuse before assembling its band
    _check_weight_rows(sys.n_rows)
    p_hat = assemble_p(sys, etas)
    est_w = weighted_mdm(sys, p_hat, tol)
    est_w.diagnostics["alpha_ordinary"] = est_o.alpha_hat
    est_w.diagnostics["eta_projection"] = etas.projection
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
