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
from functools import cached_property

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
    "ordinary_estimates",
    "gaussian_eta_covariances",
    "assemble_p",
    "weighted_mdm",
    "weighted_estimates",
    "weighted_pipeline",
    "WeightedRuns",
    "BRANCHES",
    "identifiability_report",
    "min_feasible_window",
]

logger = logging.getLogger(__name__)


@dataclass
class WindowGeometry:
    """Data-independent quantities of one window (shared across MC runs).

    ``build_design`` computes them for many windows at once; the arrays are
    views into those stacks (``ac`` into ``StackedSystem.ac``, the
    annihilator and ``gamma_g`` into the window's ``ResidueGroup``).
    """

    n_a: int
    annihilator: np.ndarray            # N, (n_a, n_zkL)
    gamma_g: np.ndarray | None         # Gamma @ scriptG for the known-input correction
    ac: np.ndarray                     # N [Gamma, I] blkdiag(scriptE, scriptD), (n_a, n_eps)
    sel_i: np.ndarray                  # unique-pair index arrays of length n_rows
    sel_j: np.ndarray
    design_block: np.ndarray           # (n_rows, n_alpha)

    @property
    def n_rows(self) -> int:
        return self.sel_i.size


@dataclass
class ResidueGroup:
    """Windows whose residues N (Z - Gamma scriptG U) are one stacked product.

    ``annihilator`` and ``gamma_g`` are the stacks ``build_design`` computed,
    of which each window's ``WindowGeometry`` arrays are views: every matrix
    keeps its own strides, and an LTI model's one window is broadcast with
    stride 0.  np.matmul over such a stack makes, matrix by matrix, the
    BLAS call the window's own product makes, so the residues are bitwise
    the per-window ones; a re-laid-out copy (C- or F-contiguous, padded or
    np.stack-ed) changes the call and the last bits.  Window ``windows[p]``
    reads the concatenated records at z[z_index[p]] and u[u_index[p]].
    """

    windows: np.ndarray                # (g,) window indices
    annihilator: np.ndarray            # (g, n_a, n_zkL)
    gamma_g: np.ndarray | None         # (g, n_zkL, n_ukL); None without an input
    z_index: np.ndarray                # (g, n_zkL)
    u_index: np.ndarray | None         # (g, n_ukL)


@dataclass
class RowReduction:
    """The independent rows of the stacked regression.

    Window k may share residue directions with window k-1: measurement
    functionals that both annihilators produce.  With window k's residue
    basis rotated to [shared | new], a product row of two shared directions
    is a combination of window k-1's product rows, in design, observations
    and eta alike; the kept rows are the products that involve a new
    direction.  ``transforms[kinds[k]]`` maps window k's product rows
    (zero-padded to the widest window) to its kept rows, first; a window
    that shares nothing keeps its rows by the identity.
    """

    kinds: np.ndarray                  # (n_windows,) index into transforms
    transforms: np.ndarray             # (n_kinds, max rows, max rows)
    row_offsets: np.ndarray            # window k keeps row_offsets[k]:row_offsets[k+1]

    @property
    def n_rows(self) -> int:
        return int(self.row_offsets[-1])

    def apply(self, x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """The kept rows of x, whose window k has rows offsets[k]:offsets[k+1]."""
        t = self.transforms[self.kinds]
        pos = np.arange(t.shape[-1])
        padded = np.zeros((self.kinds.size, pos.size, x.shape[1]))
        padded[pos < np.diff(offsets)[:, None]] = x
        return (t @ padded)[pos < np.diff(self.row_offsets)[:, None]]


@dataclass
class StackedSystem:
    """The full regression: obs = design @ alpha + blkdiag(noisemap blocks) @ eta.

    ``obs`` is None for design-only systems; ``with_data`` attaches data.
    ``windows`` carries the per-window geometry; for LTI models all entries
    reference one shared object.  ``ac`` stacks every window's ``ac``,
    zero-padded at the bottom to the widest window's rows (a broadcast view
    for LTI models).  ``residue_groups`` cover every window once and give
    ``with_data`` one stacked product per group.  The design facts below
    are computed once, by ``build_design``, from one SVD of design / scale,
    which ordinary LS reuses; ``reduction`` is None when no window shares a
    residue direction with its predecessor.
    """

    obs: np.ndarray | None
    design: np.ndarray
    row_offsets: np.ndarray
    L: int
    mode: str
    windows: list[WindowGeometry]
    residue_groups: list[ResidueGroup]
    ac: np.ndarray                     # (n_windows, max n_a, n_eps)
    n_eps: int
    model: LtvModel
    scale: np.ndarray                  # column scale: design == (design / scale) * scale
    rank: int                          # numerical rank of design / scale
    rank_threshold: float
    null_basis: np.ndarray | None      # (n_alpha, deficiency), orthonormal columns
    u: np.ndarray                      # thin SVD design / scale = u diag(s) vt
    s: np.ndarray
    vt: np.ndarray
    reduction: RowReduction | None

    @property
    def n_alpha(self) -> int:
        return self.design.shape[1]

    @property
    def cond(self) -> float:
        """Condition number of design / scale."""
        return float(self.s[0] / self.s[-1]) if self.s.size and self.s[-1] > 0 else np.inf

    @property
    def n_rows(self) -> int:
        return int(self.row_offsets[-1])

    @property
    def n_windows(self) -> int:
        return len(self.windows)

    @property
    def band_rows(self) -> int:
        """Rows of the weight's lower band storage (``assemble_p``): the
        widest row span of L consecutive windows."""
        return _band_rows(self.row_offsets, self.L)

    @cached_property
    def _design_norm2(self) -> float:
        """||design||_2^2, from design == u diag(s) vt diag(scale)."""
        return float(np.linalg.norm(self.s[:, None] * self.vt * self.scale, 2) ** 2)

    def with_data(self, data) -> "StackedSystem":
        """This design with the squared residues of ``data`` (a Trajectory or
        MeasurementData holding exactly the records the windows span) as obs.

        Raises DataError for records that do not fit the model or give a
        non-finite residue.  The residues are ``residues`` of one run.
        """
        if isinstance(data, Trajectory):
            data = MeasurementData.from_trajectory(data)
        z, z_off, u = _checked_records(self.model, data, self.mode)
        L = self.L
        n_records = self.n_windows + L - 1
        if z_off.size - 1 != n_records:
            raise DataError(
                f"data has {z_off.size - 1} records but the design's {self.n_windows} "
                f"windows of length L={L} span {n_records}"
            )
        return replace(self, obs=self.residues(z[None], None if u is None else u[None])[0])

    def residues(self, z: np.ndarray, u: np.ndarray | None = None) -> np.ndarray:
        """The squared residues (obs rows) of runs of data on this design.

        ``z`` is (runs, n): each run's measurement records z_0, z_1, ...
        end to end, exactly those the windows span.  ``u`` is None or
        (runs, n_u) (or (1, n_u) for an input the runs share): the input
        records end to end, at least as far as the windows read them; any
        other shape raises DataError.  Returns (runs, n_rows).  The first
        run whose measurements or residues are not finite raises DataError
        naming, as ``run``, its index and its first non-finite measurement
        record, or else the window of its first non-finite residue.

        One stacked product per residue group over the (runs, windows)
        axes: np.matmul over the stored stacks, broadcast over the runs,
        makes each window's own BLAS call (see ResidueGroup), so every
        residue is bitwise the per-window annihilator @ z of its run.
        """
        n_z = self.model.n_z_steps()[:self.n_windows + self.L - 1]
        z_off = np.concatenate(([0], np.cumsum(n_z)))
        if z.ndim != 2 or z.shape[1] != z_off[-1]:
            raise DataError(f"measurement records of shape {z.shape}; the design's "
                            f"windows span (runs, {z_off[-1]})")
        if u is not None:
            n_u = max((int(g.u_index.max()) + 1 for g in self.residue_groups
                       if g.u_index is not None), default=0)
            if u.ndim != 2 or u.shape[0] not in (1, z.shape[0]) or u.shape[1] < n_u:
                raise DataError(f"input records of shape {u.shape}; the design's "
                                f"windows read ({z.shape[0]} or 1, {n_u})")
        obs = np.empty((z.shape[0], self.n_rows))
        # a measurement or residue that is not finite is reported below, not
        # warned of
        with np.errstate(over="ignore", invalid="ignore"):
            for g in self.residue_groups:
                # np.take lays the gathered records out run by run (z[:, idx]
                # would put the run axis innermost, and a run's vectors at a
                # stride that BLAS does not take)
                zw = np.take(z, g.z_index, axis=1)
                if u is not None and g.gamma_g is not None:
                    uw = np.take(u, g.u_index, axis=1)
                    zw = zw - np.matmul(g.gamma_g, uw[..., None])[..., 0]
                zt = np.matmul(g.annihilator, zw[..., None])[..., 0]
                sel_i, sel_j = sym_pair_indices(zt.shape[-1])
                rows = self.row_offsets[g.windows, None] + np.arange(sel_i.size)
                obs[:, rows] = zt[..., sel_i] * zt[..., sel_j]
        finite_z, finite_obs = np.isfinite(z), np.isfinite(obs)
        bad = np.flatnonzero(~(finite_z.all(axis=1) & finite_obs.all(axis=1)))
        if not bad.size:
            return obs
        run = int(bad[0])
        if finite_z[run].all():
            # finite measurements whose residue overflows
            record = _record_of(self.row_offsets, np.argmin(finite_obs[run]))
        else:
            record = _record_of(z_off, np.argmin(finite_z[run]))
        raise DataError(f"record k={record}: measurement or residue is not finite",
                        run=run)


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


def _window_geometries(blocks, mode: str, upsilon: np.ndarray, tol: Tolerance):
    """The geometry of the windows in ``blocks``, indexed by window start,
    their ``ac`` stacked as ``StackedSystem.ac`` holds it, their
    annihilators stacked the same way (zero-padded at the bottom and right),
    and per shape-and-rank group (window starts, annihilators, gamma_g).

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
    ann_all = np.zeros((len(windows), n_a_max, max(b.O.shape[1] for b in blocks)))
    groups = []
    for b, u, _, rank, _ in factored:
        gamma_g = None
        if mode == KNOWN_INPUT and b.scriptG.shape[-1] > 0:
            gamma_g = b.Gamma @ b.scriptG
        c_mat = b.C
        for r in np.unique(rank).tolist():
            idx = np.flatnonzero(rank == r)
            n = u[idx][:, :, r:].transpose(0, 2, 1)
            g_g = None if gamma_g is None else gamma_g[idx]
            groups.append((b.ks[idx], n, g_g))
            ac = np.concatenate([n @ b.Gamma[idx], n], axis=2) @ c_mat[idx]
            ac_all[b.ks[idx], :n.shape[1]] = ac
            ann_all[b.ks[idx], :n.shape[1], :n.shape[2]] = n
            sel_i, sel_j = sym_pair_indices(n.shape[1])
            design = np.einsum("wta,wtb->wtab", ac[:, sel_j], ac[:, sel_i]
                               ).reshape(idx.size, sel_i.size, -1) @ upsilon
            for p, w in enumerate(idx.tolist()):
                windows[b.ks[w]] = WindowGeometry(
                    n_a=n.shape[1], annihilator=n[p],
                    gamma_g=None if g_g is None else g_g[p],
                    ac=ac_all[b.ks[w], :n.shape[1]],
                    sel_i=sel_i, sel_j=sel_j,
                    design_block=design[p],
                )
    return windows, ac_all, ann_all, groups


def _residue_groups(model: LtvModel, n_windows: int, groups) -> list[ResidueGroup]:
    """``_window_geometries``' groups with their record indices; an LTI
    model's one window stands for all ``n_windows``, by stride-0 broadcast."""
    z_start = np.concatenate(([0], np.cumsum(model.n_z_steps())))
    u_start = np.concatenate(([0], np.cumsum(model.n_u_steps())))
    out = []
    for ks, ann, gamma_g in groups:
        if model.is_lti:
            ks = np.arange(n_windows)
            ann = np.broadcast_to(ann, (n_windows,) + ann.shape[1:])
            if gamma_g is not None:
                gamma_g = np.broadcast_to(gamma_g, (n_windows,) + gamma_g.shape[1:])
        out.append(ResidueGroup(
            windows=ks, annihilator=ann, gamma_g=gamma_g,
            z_index=z_start[ks, None] + np.arange(ann.shape[2]),
            u_index=None if gamma_g is None
            else u_start[ks, None] + np.arange(gamma_g.shape[2]),
        ))
    return out


def _kept_pair_transforms(q: np.ndarray, d: int) -> np.ndarray:
    """(g, kept, rows) maps from the unique residue products of g windows to
    the products of their rotated residues q^T ztilde that involve one of
    the directions q[:, d:]: pair (i, j), i <= j, is kept when j >= d, a
    suffix of the ``sym_pair_indices`` order."""
    si, sj = sym_pair_indices(q.shape[-1])
    ki, kj = si[d * (d + 1) // 2:], sj[d * (d + 1) // 2:]
    qi, qj = q[:, si], q[:, sj]
    # (q^T z)_a (q^T z)_b = sum over p <= r of z_p z_r (q_pa q_rb + q_ra q_pb),
    # the second term absent for p == r
    m = qi[:, :, ki] * qj[:, :, kj] + (si != sj)[:, None] * qj[:, :, ki] * qi[:, :, kj]
    return m.transpose(0, 2, 1)


def _row_reduction(model: LtvModel, L: int, windows: list[WindowGeometry],
                   ann: np.ndarray, tol: Tolerance) -> RowReduction | None:
    """The rows the weighted solve keeps, or None when no window shares a
    residue direction with its predecessor.

    ``ann`` stacks the annihilators of the windows built (window 0 alone
    for an LTI model, whose pairs all share one geometry).  The directions
    windows k-1 and k share are the left null space of [N_{k-1}, 0; 0, N_k]
    over the records the pair spans, by the shared rank rule.  The rows of
    N are orthonormal, so that matrix has singular values sqrt(1 +- c_i)
    with c_i those of the overlap N_{k-1} N_k^T; a pair whose overlap has
    Frobenius norm c with sqrt(1 - c) well above the rank threshold shares
    nothing, and its SVD is skipped.
    """
    n_windows = len(windows)
    if L == 1 or n_windows == 1:
        return None
    lti = model.is_lti
    ks = np.arange(1, 2 if lti else n_windows)
    prev, cur = (ks * 0, ks * 0) if lti else (ks - 1, ks)
    n_a = np.array([w.n_a for w in windows[:ann.shape[0]]])
    n_z = model.n_z_steps()
    cum = np.concatenate(([0], np.cumsum(n_z)))
    key = np.column_stack([n_a[prev], n_a[cur], n_z[ks - 1],
                           cum[ks - 1 + L] - cum[ks - 1], cum[ks + L] - cum[ks]])
    group = np.zeros(ks.size, dtype=int)
    if (key != key[0]).any():
        group = np.unique(key, axis=0, return_inverse=True)[1].ravel()
    found = []                          # (windows, shared count, rotations)
    for g in range(group.max() + 1):
        idx = np.flatnonzero(group == g)
        n_prev, n_cur, first, c_prev, c_cur = key[idx[0]].tolist()
        a = ann[prev[idx], :n_prev, :c_prev]
        b = ann[cur[idx], :n_cur, :c_cur]
        rows, cols = n_prev + n_cur, first + c_cur
        c = np.linalg.norm(a[:, :, first:] @ b[:, :, :c_prev - first].transpose(0, 2, 1),
                           axis=(1, 2))
        thr = tol.rank_tol * np.sqrt(1.0 + c) * max(rows, cols)
        maybe = 1.0 - c <= np.maximum(1e-6, (2.0 * thr) ** 2)
        if not maybe.any():
            continue
        idx = idx[maybe]
        pair = np.zeros((idx.size, rows, cols))
        pair[:, :n_prev, :c_prev] = a[maybe]
        pair[:, n_prev:, first:] = b[maybe]
        u, _, _, rank, _ = svd_rank(pair, tol, full_matrices=True)
        for r in np.unique(rank[rank < rows]).tolist():
            sel = rank == r
            # window k's halves of the null vectors span the shared
            # directions; a complete QR appends the new ones
            q = np.linalg.qr(u[sel, n_prev:, r:], mode="complete")[0]
            found.append((ks[idx[sel]], rows - r, q))
    if not found:
        return None

    n_rows = np.array([w.n_rows for w in windows[:ann.shape[0]]])
    kinds = np.minimum(np.arange(n_windows), 1) if lti else np.arange(n_windows)
    kind_rows = n_rows[[0, 0]] if lti else n_rows
    width = int(n_rows.max())
    transforms = np.zeros((kind_rows.size, width, width))
    kept = kind_rows.copy()
    for win, d, q in found:
        kind = kinds[win]
        kept[kind] -= d * (d + 1) // 2
        transforms[kind, :kept[kind[0]], :kind_rows[kind[0]]] = _kept_pair_transforms(q, d)
    plain = np.flatnonzero(kept == kind_rows)
    pos = np.arange(width)
    transforms[plain[:, None], pos, pos] = pos < kept[plain, None]
    return RowReduction(kinds=kinds, transforms=transforms,
                        row_offsets=np.concatenate(([0], np.cumsum(kept[kinds]))))


def _candidate_lengths(model: LtvModel, l_max: int | None, n_records: int) -> range:
    if l_max is None:
        l_max = max(model.n_x + 2, 12)
    return range(1, min(l_max, n_records) + 1)


def _annihilated_blocks(model: LtvModel, mode: str, tol: Tolerance, L: int,
                        n_records: int):
    """The window matrices at L when every window has an annihilator, else None."""
    blocks = _all_window_blocks(model, L, n_records - L + 1)
    targets = (_annihilated_target(b, mode) for b in blocks)
    if all((numerical_rank(t, tol) < t.shape[1]).all() for t in targets):
        return blocks
    return None


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
    return next((L for L in _candidate_lengths(model, l_max, n_records)
                 if _annihilated_blocks(model, mode, tol, L, n_records) is not None),
                None)


def feasible_design(model: LtvModel, structure: NoiseStructure, mode: str,
                    tol: Tolerance = DEFAULT_TOL, l_max: int | None = None,
                    n_records: int | None = None,
                    fallback: bool = False) -> StackedSystem | None:
    """The design at the L that ``min_feasible_window`` picks with ``structure``.

    None when no L up to ``l_max`` gives every window an annihilator and the
    design full column rank.  A candidate L at which the replication
    Upsilon (``defining_replication``) has a zero column is skipped unbuilt:
    that column is a zero column of the design.  Each other candidate's
    window matrices are built once and serve both its annihilator check and
    its design; ``with_data`` attaches the ``n_records`` measurements.

    With ``fallback``, when no L gives full rank, the result is instead the
    (rank-deficient) design at the smallest L with an annihilator, and None
    only when no L has one; no L's geometry is built twice.
    """
    if n_records is None:
        n_records = model.tau + 1
    first, skipped = None, []
    for L in _candidate_lengths(model, l_max, n_records):
        upsilon = defining_replication(structure, L)
        if not upsilon.any(axis=0).all():
            skipped.append(L)
            continue
        blocks = _annihilated_blocks(model, mode, tol, L, n_records)
        if blocks is None:
            continue
        design = _design(model, upsilon, L, mode, tol, n_records - L + 1, blocks)
        if design.rank >= structure.n_alpha:
            return design
        if first is None:
            first = design
    if not fallback:
        return None
    for L in skipped:
        if first is not None and L > first.L:
            break
        blocks = _annihilated_blocks(model, mode, tol, L, n_records)
        if blocks is not None:
            return _design(model, defining_replication(structure, L), L, mode, tol,
                           n_records - L + 1, blocks)
    return first


def build_design(model: LtvModel, structure: NoiseStructure, L: int, mode: str,
                 tol: Tolerance = DEFAULT_TOL, n_windows: int | None = None) -> StackedSystem:
    """Assemble the design matrix only; ``with_data`` attaches measurements."""
    if n_windows is None:
        n_windows = model.tau + 2 - L
    if n_windows < 1:
        raise DataError(f"horizon too short: no full window of length L={L}")
    return _design(model, defining_replication(structure, L), L, mode, tol, n_windows,
                   _all_window_blocks(model, L, n_windows))


def _design(model: LtvModel, upsilon: np.ndarray, L: int, mode: str,
            tol: Tolerance, n_windows: int, blocks) -> StackedSystem:
    try:
        windows, ac, ann, groups = _window_geometries(blocks, mode, upsilon, tol)
    except NoAnnihilator as exc:
        try:
            exc.minimal_feasible_l = min_feasible_window(model, mode, tol)
        except MdmError:
            pass
        raise
    if model.is_lti:
        windows = windows * n_windows
        ac = np.broadcast_to(ac, (n_windows,) + ac.shape[1:])
    reduction = _row_reduction(model, L, windows, ann, tol)
    row_offsets = np.concatenate(
        ([0], np.cumsum([w.n_rows for w in windows]))
    ).astype(int)
    design = np.concatenate([w.design_block for w in windows])
    (u, s, vt, rank, scale), thr = _equilibrated_svd(design, tol)
    null_basis = None
    if rank < design.shape[1]:
        # re-orthonormalise after undoing the column scaling
        null_basis, _ = np.linalg.qr(vt[rank:].T / scale[:, None])
    return StackedSystem(
        obs=None, design=design, row_offsets=row_offsets, L=L, mode=mode,
        windows=windows, residue_groups=_residue_groups(model, n_windows, groups),
        ac=ac, n_eps=(L - 1) * model.n_w + L * model.n_v,
        model=model, scale=scale, rank=rank, rank_threshold=thr,
        null_basis=null_basis, u=u, s=s, vt=vt, reduction=reduction,
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
    """(z, z offsets, u) of the records, flat; u is None unless a known
    input is given."""
    if len(data) > model.tau + 1:
        raise DataError(
            f"data has {len(data)} records but the model horizon is tau={model.tau}"
        )
    z, z_off = _flat_records("z", data.zs, model.n_z_steps())
    if mode != KNOWN_INPUT:
        return z, z_off, None
    if data.us is None:
        if any(np.any(model.G[k]) for k in range(len(model.G))):
            logger.warning("data carries no input records; assuming zero input")
        return z, z_off, None
    if len(data.us) < len(data) - 1:
        raise DataError(f"data has {len(data.us)} input records but its "
                        f"{len(data)} measurement records need {len(data) - 1}")
    u, u_off = _flat_records("u", data.us, model.n_u_steps())
    # checked before the input correction, whose product would warn
    finite = np.isfinite(u)
    if not finite.all():
        raise DataError(f"record k={_record_of(u_off, np.argmin(finite))}: "
                        "input is not finite")
    return z, z_off, u


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


def _equilibrated_svd(a: np.ndarray, tol: Tolerance):
    """((u, s, vt, rank, scale), threshold): ``svd_rank`` of the column-
    equilibrated a / scale, and the column scales.

    Columns whose norm is negligible against the largest column are left
    unscaled: they are cancellation dust (e.g. the state-noise columns of a
    G == E model), and normalising them would disguise rank deficiency.
    """
    scale = np.linalg.norm(a, axis=-2)
    dust = scale <= tol.rank_tol * np.max(scale, axis=-1, keepdims=True, initial=0.0)
    scale[dust] = 1.0
    u, s, vt, rank, thr = svd_rank(a / scale[..., None, :], tol)
    return (u, s, vt, rank, scale), thr


def _ls_solve(factors, b: np.ndarray):
    """LS solution of a x = b and (a^T a)^{-1} = W W^T, W = diag(1/scale)
    V diag(1/s), from ``_equilibrated_svd(a)``; W W^T is exactly symmetric.
    ``b`` is (m,) or (runs, m), one solution per run; for a stack of
    matrices a (runs, m, n) and their factors, (runs, m).  Raises
    RankDeficientDesign when rank < columns (or rows < columns).

    W (U^T b) is a stacked np.matmul of matrix-vector products, so a run's
    solution has the bits of its own; W @ (U^T @ B) on the (m, runs) matrix
    B would not.
    """
    u, s, vt, rank, scale = factors
    if np.min(rank) < scale.shape[-1]:
        raise RankDeficientDesign(int(np.min(rank)), scale.shape[-1])
    w = vt.swapaxes(-1, -2) / s[..., None, :] / scale[..., :, None]
    return (np.matmul(w, np.matmul(u.swapaxes(-1, -2), b[..., None]))[..., 0],
            w @ w.swapaxes(-1, -2))


def ordinary_estimates(sys: StackedSystem, obs: np.ndarray) -> np.ndarray:
    """``ordinary_mdm``'s alpha_hat for each row of ``obs`` ((runs, n_rows),
    as ``StackedSystem.residues`` gives them; (n_rows,) for one run).

    ``obs`` of another shape raises DataError, a design without full rank
    RankDeficientDesign, and then the first run with a squared residue that
    is not finite DataError naming its window and, as ``run``, its index
    (None for one run given as (n_rows,)).
    """
    obs = np.asarray(obs, dtype=float)
    if obs.ndim not in (1, 2) or obs.shape[-1] != sys.n_rows:
        raise DataError(f"squared residues of shape {obs.shape}; the design "
                        f"has {sys.n_rows} rows")
    if sys.rank < sys.n_alpha:
        raise RankDeficientDesign(sys.rank, sys.n_alpha)
    finite = np.isfinite(obs).reshape(-1, sys.n_rows)
    bad = np.flatnonzero(~finite.all(axis=1))
    if bad.size:
        run = int(bad[0])
        raise DataError(f"record k={_record_of(sys.row_offsets, np.argmin(finite[run]))}"
                        ": squared residue is not finite",
                        run=run if obs.ndim == 2 else None)
    return _ls_solve((sys.u, sys.s, sys.vt, sys.rank, sys.scale), obs)[0]


def ordinary_mdm(sys: StackedSystem, tol: Tolerance = DEFAULT_TOL) -> Estimate:
    """Unweighted LS solution of the stacked regression.

    Solved with the SVD of the column-equilibrated design that
    ``build_design`` computed (the clock benchmark spans 19 decades across
    parameters); no covariance is reported.  The rank decision is the one
    ``build_design`` made with its tolerance, so ``tol`` is not used here.
    """
    if sys.obs is None:
        raise ValueError("system carries no observations")
    t0 = time.perf_counter()
    alpha = ordinary_estimates(sys, sys.obs)
    return Estimate(
        alpha_hat=alpha, cov=None, method="ordinary",
        rank=sys.rank, rank_threshold=sys.rank_threshold,
        diagnostics={"design_cond": sys.cond, "runtime_s": time.perf_counter() - t0},
    )


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


@dataclass
class WeightedRuns:
    """Weighted estimates of a batch of runs, row r for run r
    (``weighted_estimates``; ``weighted_mdm`` and ``weighted_pipeline`` are
    its one-run case).

    ``branch`` names the solve each run took: banded Cholesky of the
    full-rank weight ("full-rank") or of its kept rows ("kept-row"), or the
    dense g-inverse ("dense").  ``weight_rows`` are the rows solved on (the
    pivoted rank on the dense branch) and ``fit_j`` the fit statistic of a
    banded solve (NaN on the dense branch).  ``alpha_ordinary``,
    ``projection`` and ``repaired`` are the first pass, its PSD projection
    (``EtaCovariances.projection``) and whether it was applied; None when
    the weight was given.
    """

    alpha_hat: np.ndarray                # (runs, n_alpha)
    cov: np.ndarray                      # (runs, n_alpha, n_alpha)
    branch: np.ndarray                   # (runs,) of BRANCHES
    weight_rows: np.ndarray              # (runs,)
    fit_j: np.ndarray                    # (runs,)
    alpha_ordinary: np.ndarray | None = None
    projection: np.ndarray | None = None  # (runs, 2)
    repaired: np.ndarray | None = None    # (runs,)


BRANCHES = ("full-rank", "kept-row", "dense")

_PROJECTED = ("Q/R estimate is indefinite; projected it onto the positive "
              "semidefinite cone before the fourth-moment expansion")


# what a run's own values can make its solve raise: the package's errors,
# scipy's refusal of non-finite input and LAPACK failing to converge
_RUN_ERRORS = (MdmError, ValueError, np.linalg.LinAlgError)


def _eta_crosses(structure: NoiseStructure, alphas: np.ndarray, L: int,
                 tol: Tolerance):
    """(crosses, projection, repaired) of ``gaussian_eta_covariances`` for
    each row of ``alphas`` (runs, n_alpha): crosses[r, j] is run r's C_j,
    projection[r] its ``EtaCovariances.projection`` and repaired[r]
    whether it was applied.

    Q and R come from one row-vector product per run
    (``NoiseStructure.covariances``), one stacked eigh each tests them,
    and the runs that need it are projected together.  C_j is filled by
    block slices: blkdiag(S_j kron Q, S_j kron R), S_j the shift by j.
    """
    q, r = structure.covariances(alphas)
    eigs = [np.linalg.eigh((m + m.swapaxes(-1, -2)) / 2.0) for m in (q, r)]
    runs = len(alphas)
    tops = [np.max(np.abs(lam), axis=-1, initial=0.0) for lam, _ in eigs]
    floor = -tol.zero_tol * np.maximum(1.0, np.maximum(*tops))
    lows = [lam[:, 0] if lam.shape[-1] else np.zeros(runs) for lam, _ in eigs]
    repaired = (lows[0] < floor) | (lows[1] < floor)
    projection = np.zeros((runs, 2))
    fix = np.flatnonzero(repaired)
    if fix.size:
        q[fix], r[fix] = (np.matmul(v[fix] * np.clip(lam[fix], 0.0, None)[:, None, :],
                                    v[fix].swapaxes(-1, -2)) for lam, v in eigs)
        for i, (low, top) in enumerate(zip(lows, tops)):
            # min(low, 0) / top, 0 where top is 0
            low, top = np.where(low[fix] > 0.0, 0.0, low[fix]), top[fix]
            projection[fix, i] = np.where(top > 0.0,
                                          low / np.where(top > 0.0, top, 1.0), 0.0)

    lg = L - 1
    n_eps = lg * q.shape[-1] + L * r.shape[-1]
    crosses = np.zeros((runs, L, n_eps, n_eps))
    for j in range(L):
        for m, count, off in ((q, lg - j, 0), (r, L - j, lg * q.shape[-1])):
            n = m.shape[-1]
            for i in range(count):
                crosses[:, j, off + (i + j) * n:off + (i + j + 1) * n,
                        off + i * n:off + (i + 1) * n] = m
    return crosses, projection, repaired


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
    covariances.  Otherwise it raises.  This is the one-run case of
    ``weighted_estimates``' eta stage.
    """
    crosses, projection, repaired = _eta_crosses(
        structure, np.asarray(alpha, dtype=float).reshape(1, -1), L, tol)
    if repaired[0]:
        if not repair:
            raise NotPositiveSemidefinite("Q(alpha) or R(alpha) is indefinite")
        warnings.warn(_PROJECTED, RuntimeWarning, stacklevel=2)
    return EtaCovariances(L=L, n_eps=crosses.shape[-1], r_e2=vec(crosses[0, 0]),
                          crosses=list(crosses[0]),
                          projection=tuple(float(p) for p in projection[0]))


def assemble_p(sys: StackedSystem, etas: EtaCovariances) -> np.ndarray:
    """Covariance P of the stacked noise term, in LAPACK lower band storage.

    P is block banded: block (r, r+j) is noisemap_r @ band(j) @
    noisemap_{r+j}^T for j < L and zero beyond.  Each lag's blocks are
    computed for all windows at once in the factored form
    G_r = ac_r @ C_j @ ac_{r+j}^T, which never materialises the
    n_eps^2-sized band matrices.  The result ``ab`` has shape (b+1, m) with
    ab[i-c, c] == P[i, c] for c <= i <= c+b, b + 1 = ``sys.band_rows``
    (L*s for windows of s rows); entries past the end of a diagonal are 0.
    The dense P is never formed.  This is the one-run case of
    ``weighted_estimates``' band stage.

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
    return _assemble_bands(sys, np.stack(etas.crosses)[None])[0]


def _assemble_bands(sys: StackedSystem, crosses: np.ndarray) -> np.ndarray:
    """``assemble_p``'s band of each run, (runs, b+1, m), from the runs' lag
    crosses (runs, L, n_eps, n_eps).

    The lag loop runs on ac[None, :n] @ C[:, None] @ ac_t[None, j:]: per
    (run, window) it is the per-window product of one run, and so its bits.
    The scatter positions are computed once per batch, not per run.
    """
    runs = crosses.shape[0]
    ab = np.zeros((runs, sys.band_rows, sys.n_rows))
    if not runs:
        return ab
    ac = sys.ac[None]
    ac_t = ac.swapaxes(-1, -2)
    si, sj = sym_pair_indices(sys.ac.shape[1])
    for j in range(min(sys.L, sys.n_windows)):
        n = sys.n_windows - j
        g = ac[:, :n] @ crosses[:, j, None] @ ac_t[:, j:]
        blk = (g[..., sj[:, None], sj] * g[..., si[:, None], si]
               + g[..., sj[:, None], si] * g[..., si[:, None], sj])
        if j == 0:
            # a diagonal block is symmetric up to roundoff; store its mean
            blk = 0.5 * (blk + blk.swapaxes(-1, -2))
        _scatter_blocks(ab, blk, sys.row_offsets, j)
    return ab


def _band_rows(offsets: np.ndarray, L: int) -> int:
    """Rows of the lower band storage of a matrix whose blocks (r, r+j),
    j < L, between windows with rows offsets[r]:offsets[r+1] may be nonzero:
    the widest row span of L consecutive windows."""
    n_windows = offsets.size - 1
    span_end = offsets[np.minimum(np.arange(n_windows) + L, n_windows)]
    return int(np.max(span_end - offsets[:-1]))


def _block_index(offsets: np.ndarray, width: int, j: int, shape: tuple[int, int],
                 mirror: bool) -> np.ndarray:
    """Flat positions, in lower band storage of the given shape, of the
    lag-j blocks blk[r, a, b] = P[offsets[r] + a, offsets[r+j] + b] between
    windows with rows offsets[r]:offsets[r+1], zero-padded to ``width``.

    Entries outside either window's rows or outside the band get the
    position shape[0] * shape[1], one past the storage, as do those of a
    diagonal block (j == 0) below its diagonal unless ``mirror``.
    """
    n = offsets.size - 1 - j
    # laid out (a, b, r), so that the long window axis is the inner loop
    a, b = (x.ravel()[:, None] for x in np.indices((width, width)))
    rows_of = np.diff(offsets)
    col = offsets[:n] + a
    row = offsets[j:j + n] + b
    diag = row - col
    if mirror:
        col = np.minimum(col, row)
        diag = np.abs(diag)
    keep = ((a < rows_of[:n]) & (b < rows_of[j:]) & (diag >= 0) & (diag < shape[0]))
    idx = np.where(keep, diag * shape[1] + col, shape[0] * shape[1])
    return idx.T.reshape(n, width, width)


def _scatter_blocks(ab: np.ndarray, blk: np.ndarray, offsets: np.ndarray, j: int) -> None:
    """Store the lag-j blocks ``blk`` in the band ``ab``, a diagonal block
    by its upper triangle (the lower triangle of P); both may lead with a
    run axis."""
    idx = _block_index(offsets, blk.shape[-1], j, ab.shape[-2:], mirror=False)
    idx = idx.ravel()
    src = np.flatnonzero(idx < ab.shape[-2] * ab.shape[-1])
    lead = ab.shape[:-2]
    ab.reshape(lead + (-1,))[..., idx[src]] = blk.reshape(lead + (-1,))[..., src]


def _gather_blocks(ab: np.ndarray, offsets: np.ndarray, width: int, j: int) -> np.ndarray:
    """The lag-j blocks of the symmetric matrix in band storage ``ab``,
    zero-padded to ``width``: the inverse of ``_scatter_blocks``."""
    padded = np.append(ab, 0.0)
    return padded[_block_index(offsets, width, j, ab.shape, mirror=True)]


def _reduced_band(sys: StackedSystem, ab: np.ndarray) -> np.ndarray:
    """M P M^T in lower band storage for the row map M of ``sys.reduction``
    and P given by its band ``ab``, computed block by block."""
    red, offs = sys.reduction, sys.row_offsets
    t = red.transforms[red.kinds]
    t_t = t.transpose(0, 2, 1)
    ab_r = np.zeros((_band_rows(red.row_offsets, sys.L), red.n_rows))
    for j in range(min(sys.L, sys.n_windows)):
        blk = _gather_blocks(ab, offs, t.shape[-1], j)
        _scatter_blocks(ab_r, t[:blk.shape[0]] @ blk @ t_t[j:], red.row_offsets, j)
    return ab_r


# The dense constrained branch forms P + design design^T, O(m^2) memory, and
# factors it by pivoted Cholesky, O(m^2 r) for its rank r; it is refused
# above this row count (use ordinary MDM or a shorter horizon instead).  A
# weight's band storage gets the same memory budget, P_DENSE_MAX_ROWS**2
# entries.
P_DENSE_MAX_ROWS = 8000


def _factors_shifted(ab: np.ndarray, shift: float) -> bool:
    """Whether P + shift * I, P in lower band storage, has a banded Cholesky
    factor."""
    shifted = ab.copy()
    shifted[0] += shift
    return scipy.linalg.lapack.dpbtrf(shifted, lower=1)[1] == 0


def _rank_floor(diag: np.ndarray, tol: Tolerance) -> float:
    # the shared rank rule, with max diag standing for sigma_max
    return tol.rank_tol * float(np.max(diag)) * diag.size


def _full_rank(band: np.ndarray, tol: Tolerance) -> bool:
    """Whether the weight in lower band storage ``band`` is numerically
    full rank: P - rank_tol max(diag P) m I factors."""
    return np.max(band[0]) > 0.0 and _factors_shifted(band, -_rank_floor(band[0], tol))


def _whiten_run(sys: StackedSystem, ab: np.ndarray, xyt: np.ndarray, tol: Tolerance,
                branch: str):
    """One run's branch tests and whitened problem: (branch, w, balance).

    ``ab`` is the run's weight band and ``xyt`` its [design | obs],
    transposed: (n_alpha+1, m), C-ordered, so that xyt.T is the
    Fortran-ordered matrix LAPACK takes; the full-rank branch whitens it in
    place.  ``w`` is the whitened [design | obs], transposed the same way
    (LAPACK returns it Fortran-ordered), and ``balance`` the dense
    branch's c (1 on the banded ones).
    """
    m = sys.n_rows
    is_full = _full_rank(ab, tol)
    if not is_full:
        # the negativity floor uses the regression scale ||design||_2^2 too,
        # so a numerically-zero weight falls through to the constrained branch
        floor = tol.rank_tol * max(float(np.max(ab[0])), sys._design_norm2)
        if not _factors_shifted(ab, floor):
            lam_min = float(scipy.linalg.eigvals_banded(
                ab, lower=True, select="i", select_range=(0, 0))[0])
            raise IndefiniteWeight(
                f"weight matrix has eigenvalue {lam_min:.3e} below -{floor:.3e}"
            )
    if branch == "full-rank" and not is_full:
        raise IndefiniteWeight("full-rank branch forced but the weight is singular")
    use_full = is_full if branch == "auto" else branch == "full-rank"

    band = None
    if use_full:
        band, xy = ab, xyt.T
    elif (branch == "auto" and sys.reduction is not None
          and ab.shape[0] <= sys.band_rows):
        # (a wider band would couple windows L or more apart)
        ab_r = _reduced_band(sys, ab)
        if _full_rank(ab_r, tol):
            band, xy = ab_r, sys.reduction.apply(xyt.T, sys.row_offsets)
    if band is not None:
        chol, info = scipy.linalg.lapack.dpbtrf(band, lower=1)
        if info == 0:
            whitened, info = scipy.linalg.lapack.dtbtrs(chol, xy, uplo="L",
                                                        overwrite_b=1)
        if info != 0:
            raise IndefiniteWeight(
                f"banded Cholesky whitening of the weight failed (LAPACK info {info})")
        return ("full-rank" if use_full else "kept-row"), whitened.T, 1.0
    if m > P_DENSE_MAX_ROWS:
        raise MdmError(
            f"weight matrix of size {m} exceeds the dense assembly limit "
            f"{P_DENSE_MAX_ROWS}; use the ordinary method or a shorter horizon"
        )
    # T = c P + design design^T, of which pstrf reads the lower triangle;
    # the transpose of the symmetric product is Fortran-ordered, so T is
    # built and factored in place.  c (``balance``) = ||design||_2^2 /
    # max diag P balances the two terms, so that P is not lost below
    # design design^T; the estimate does not depend on c, the
    # covariance scales with it
    d_max = float(np.max(ab[0]))
    balance = sys._design_norm2 / d_max if d_max > 0.0 else 1.0
    t = (sys.design @ sys.design.T).T
    for j in range(ab.shape[0]):
        i = np.arange(j, m)
        t[i, i - j] += balance * ab[j, :m - j]
    c, piv, rank, _ = scipy.linalg.lapack.dpstrf(
        t, tol=_rank_floor(np.diag(t), tol), lower=1, overwrite_a=1)
    # T[piv][:, piv] = F F^T, F = c[:, :rank] lower; with F_11 its leading
    # block, the pivot rows whitened by F_11 give the g-inverse form
    whitened = scipy.linalg.solve_triangular(
        c[:rank, :rank], xyt.T[piv[:rank] - 1], lower=True)
    return "dense", whitened.T, balance


def _weighted_solves(sys: StackedSystem, obs: np.ndarray, ab: np.ndarray,
                     tol: Tolerance, branch: str) -> WeightedRuns:
    """``weighted_mdm``'s solve of each run: run r's squared residues
    obs[r], its weight band ab[r].  Bands that are not finite raise
    MdmError before any factorisation.

    The branch tests, factorisations and whitening are per run (LAPACK has
    no batched banded routines).  The whitened problems of the runs that
    took one branch on as many rows are then solved together, by one
    stacked equilibrated SVD and solve.  Each run's slice of that stack
    keeps the Fortran order LAPACK gave it (the stack is (runs,
    n_alpha+1, rows), transposed), so every run gets the bits of its own
    solve.
    """
    if not np.isfinite(ab).all():
        raise MdmError("weight matrix is not finite")
    k, m = sys.n_alpha, sys.n_rows
    runs = len(obs)
    xyt = np.empty((runs, k + 1, m))
    xyt[:, :k] = sys.design.T
    xyt[:, k] = obs
    groups = {}
    for r in range(runs):
        name, w, balance = _whiten_run(sys, ab[r], xyt[r], tol, branch)
        groups.setdefault((name, w.shape[1]), []).append((r, w, balance))

    out = WeightedRuns(alpha_hat=np.empty((runs, k)), cov=np.empty((runs, k, k)),
                       branch=np.empty(runs, dtype=object),
                       weight_rows=np.zeros(runs, dtype=int),
                       fit_j=np.full(runs, np.nan))
    for (name, rows), members in groups.items():
        idx = [r for r, _, _ in members]
        wt = np.stack([w for _, w, _ in members]).swapaxes(1, 2)
        a_w, b_w = wt[..., :-1], wt[..., -1]
        alpha, cov = _ls_solve(_equilibrated_svd(a_w, tol)[0], b_w)
        if name == "dense":
            balance = np.array([b for _, _, b in members])
            cov = (cov - np.eye(k)) / balance[:, None, None]
        else:
            resid = b_w - np.matmul(a_w, alpha[..., None])[..., 0]
            out.fit_j[idx] = np.matmul(resid[:, None, :], resid[..., None])[:, 0, 0]
        out.alpha_hat[idx], out.cov[idx] = alpha, cov
        out.branch[idx], out.weight_rows[idx] = name, rows
    if logger.isEnabledFor(logging.INFO):
        for name, rows in zip(out.branch, out.weight_rows):
            if name == "dense":
                logger.info("weighted solve: dense g-inverse of the singular weight, "
                            "pivoted rank %d of %d rows", rows, m)
            else:
                logger.info("weighted solve: banded Cholesky of the %s weight on "
                            "%d of %d rows", name, rows, m)
    return out


def _weighted_estimate(sys: StackedSystem, runs: WeightedRuns, t0: float) -> Estimate:
    """The Estimate of the one run of ``runs``."""
    banded = runs.branch[0] != "dense"
    rows = int(runs.weight_rows[0]) if banded else None
    return Estimate(
        alpha_hat=runs.alpha_hat[0], cov=runs.cov[0], rank=sys.rank,
        method="weighted-full-rank" if runs.branch[0] == "full-rank"
        else "weighted-constrained",
        rank_threshold=sys.rank_threshold,
        diagnostics={"design_cond": sys.cond,
                     "fit_j": float(runs.fit_j[0]) if banded else None,
                     "fit_dof": rows - sys.n_alpha if banded else None,
                     "weight_rows": rows,
                     "runtime_s": time.perf_counter() - t0},
    )


def weighted_mdm(sys: StackedSystem, p_hat: np.ndarray,
                 tol: Tolerance = DEFAULT_TOL, branch: str = "auto") -> Estimate:
    """Weighted LS solution with the eta covariance estimate as weight.

    ``p_hat`` is the symmetric weight P in LAPACK lower band storage, as
    ``assemble_p`` returns it: shape (b+1, m), p_hat[i-c, c] == P[i, c], and
    zeros past the end of each diagonal (np.ones((1, m)) is the identity).
    Two shifted banded Cholesky factorisations, O(m b^2) each, decide the
    branch.  With d = max diag P, P is numerically full rank when
    P - rank_tol d m I factors; P is indefinite, and IndefiniteWeight raised,
    when P + rank_tol max(d, ||design||_2^2) I does not.  A full-rank weight
    is factored by banded Cholesky.

    A singular weight takes Rao's unified LS estimator.  When the design has
    shared rows (``StackedSystem.reduction``), that estimator is GLS on the
    kept rows: their weight M P M^T is mapped block by block from the band,
    and when it passes the full-rank test on its own m_r rows it is factored
    by banded Cholesky, O(m_r b_r^2).  Otherwise (P singular beyond the
    shared rows, no shared rows, or ``branch="constrained"``) the
    estimator uses a g-inverse of T = c P + design design^T from its dense
    pivoted Cholesky factor (pivot tolerance rank_tol max(diag T) m), with
    c = ||design||_2^2 / max diag P (1 when P == 0) balancing the terms; the
    reported covariance subtracts the identity and divides by c.  This
    branch alone is refused above P_DENSE_MAX_ROWS rows.  Every whitened
    problem is solved like the ordinary one.  A banded solve reports the fit statistic
    J = r^T P^+ r of the residual r, its degrees of freedom (rows solved on
    minus n_alpha) and those rows (``weight_rows``); the dense branch
    reports None.  ``branch`` ("full-rank" / "constrained") forces a path.
    This is the one-run case of ``weighted_estimates``' solve.
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
    if branch not in ("auto", "full-rank", "constrained"):
        raise ValueError(f"unknown branch {branch!r}; choose 'auto', 'full-rank' "
                         "or 'constrained'")
    runs = _weighted_solves(sys, sys.obs[None], ab[None], tol, branch)
    return _weighted_estimate(sys, runs, t0)


def weighted_estimates(sys: StackedSystem, obs: np.ndarray, structure: NoiseStructure,
                       tol: Tolerance = DEFAULT_TOL) -> WeightedRuns:
    """``weighted_pipeline``'s estimates for each row of ``obs`` ((runs,
    n_rows) squared residues, as ``StackedSystem.residues`` gives them).

    The stages run over the run axis, and each run gets the bits of its
    own pipeline: one ``ordinary_estimates`` call gives the first passes;
    Q and R are one row-vector product per run and one stacked eigh tests
    them, the runs that need it projected onto the PSD cone; one lag loop
    assembles every run's weight band (``assemble_p``); the branch tests
    and banded factorisations are per run, and one stacked equilibrated
    SVD per branch and row count solves the whitened problems
    (``weighted_mdm``).  Every run whose first pass is projected onto the
    PSD cone warns.

    A design without full rank, or a weight whose band storage would
    exceed P_DENSE_MAX_ROWS**2 entries, fails every run and is raised
    first, with ``run`` None; ``ordinary_estimates``' refusals of ``obs``
    come next.  When a later stage fails, the runs are solved again one
    at a time, as their one-run case, and the first failing run's error
    is raised with its index as ``run``, after the warnings one run at a
    time gives up to and including that run.
    """
    obs = np.asarray(obs, dtype=float)
    if obs.ndim != 2:
        raise DataError(f"squared residues of shape {obs.shape}; weighted_estimates "
                        f"takes (runs, {sys.n_rows})")
    if sys.rank < sys.n_alpha:
        raise RankDeficientDesign(sys.rank, sys.n_alpha)
    if sys.band_rows * sys.n_rows > P_DENSE_MAX_ROWS ** 2:
        raise MdmError(
            f"weight band of {sys.band_rows} x {sys.n_rows} entries exceeds the "
            f"assembly limit {P_DENSE_MAX_ROWS ** 2}; use the ordinary method "
            "or a shorter horizon"
        )
    alphas = ordinary_estimates(sys, obs)
    try:
        crosses, projection, repaired = _eta_crosses(structure, alphas, sys.L, tol)
        runs = _weighted_solves(sys, obs, _assemble_bands(sys, crosses), tol, "auto")
    except _RUN_ERRORS:
        for r in range(len(obs)):
            one = slice(r, r + 1)
            try:
                crosses, _, repaired = _eta_crosses(structure, alphas[one], sys.L, tol)
                _warn_projected(repaired)
                _weighted_solves(sys, obs[one], _assemble_bands(sys, crosses), tol,
                                 "auto")
            except _RUN_ERRORS as exc:
                exc.run = r
                raise exc from None
        raise
    _warn_projected(repaired)
    runs.alpha_ordinary, runs.projection, runs.repaired = alphas, projection, repaired
    return runs


def _warn_projected(repaired: np.ndarray) -> None:
    """One warning per run whose first pass was projected, at the caller
    of ``weighted_estimates``."""
    for _ in range(np.count_nonzero(repaired)):
        warnings.warn(_PROJECTED, RuntimeWarning, stacklevel=3)


def weighted_pipeline(sys: StackedSystem, structure: NoiseStructure,
                      tol: Tolerance = DEFAULT_TOL) -> Estimate:
    """Ordinary estimate, Gaussian eta covariances from it, weighted solve:
    the one-run case of ``weighted_estimates``.

    ``sys`` must carry observations (``build_stacked_system`` or
    ``with_data``); the first-pass estimate and the size of its PSD
    projection (``EtaCovariances.projection``) are kept in the diagnostics.
    A weight whose band storage would exceed P_DENSE_MAX_ROWS**2 entries is
    refused before it is assembled.
    """
    if sys.obs is None:
        raise ValueError("system carries no observations")
    t0 = time.perf_counter()
    runs = weighted_estimates(sys, sys.obs[None], structure, tol)
    est = _weighted_estimate(sys, runs, t0)
    est.diagnostics["alpha_ordinary"] = runs.alpha_ordinary[0]
    est.diagnostics["eta_projection"] = tuple(float(p) for p in runs.projection[0])
    return est


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
