"""Stacked regression assembly and the ordinary / weighted LS solvers.

Every usable window contributes rows

    obs_k = design_k @ alpha + noisemap_k @ eta_k

where obs_k selects the unique entries of the squared residue and eta_k is
the zero-mean deviation of the squared stacked noise from its expectation.
The ordinary solver ignores the eta covariance; the weighted solver builds
it (under a Gaussian assumption, from a first-pass ordinary estimate) as a
band matrix on the independent rows and solves the generalised LS problem
by banded Cholesky, falling back to a constrained LS form when the weight
matrix is singular.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import logging
import os
import sys as _sys  # ``sys`` names a StackedSystem throughout this module
import warnings
from dataclasses import dataclass, field, replace
from functools import cache, cached_property

import numpy as np

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
    group_index,
    groups,
    indefinite,
    svd_rank,
    sym_pair_indices,
)
from .model import (
    KNOWN_INPUT,
    UNKNOWN_INPUT,
    LtvModel,
    MeasurementData,
    NoiseStructure,
    defining_replication,
    window_noise_covariance,
)
from .residue import window_blocks

__all__ = [
    "StackedSystem",
    "EtaCovariances",
    "Estimate",
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
    "min_feasible_window",
]

logger = logging.getLogger(__name__)


@dataclass
class ResidueGroup:
    """Windows whose residues N (Z - Gamma scriptG U) are one stacked product.

    ``annihilator`` and ``gamma_g`` are the stacks ``build_design`` computed
    the windows' kinds' products with, and the only copy of them: every
    matrix keeps the strides of its own one-window product, and a kind of
    several windows is one matrix, broadcast with stride 0 over them.
    np.matmul over such a stack makes, matrix by matrix, the BLAS call the
    window's own product makes, so the residues are bitwise the per-window
    ones; a re-laid-out copy (C- or F-contiguous, padded or np.stack-ed)
    changes the call and the last bits.  Window ``windows[p]`` reads the
    concatenated records at z[z_index[p]] and u[u_index[p]].
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
    direction.  ``transforms[c]`` maps the product rows of a window of kind
    c (``StackedSystem.kinds``; zero-padded to the widest kind) to its kept
    rows, first; a kind that shares nothing keeps its rows by the identity.
    With M the map of all windows, the design's weighted problem is
    (M design, M obs, M P M^T).
    """

    transforms: np.ndarray             # (n_kinds, max rows, max rows)
    row_offsets: np.ndarray            # window k keeps row_offsets[k]:row_offsets[k+1]

    def apply(self, x: np.ndarray, kinds: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """The kept rows of x, whose window k, of kind kinds[k], has rows
        offsets[k]:offsets[k+1]."""
        t = self.transforms[kinds]
        pos = np.arange(t.shape[-1])
        padded = np.zeros((kinds.size, pos.size, x.shape[1]))
        padded[pos < np.diff(offsets)[:, None]] = x
        return (t @ padded)[pos < np.diff(self.row_offsets)[:, None]]


@dataclass
class StackedSystem:
    """The full regression: obs = design @ alpha + blkdiag(noisemap blocks) @ eta.

    ``obs`` is None for design-only systems; ``with_data`` attaches data.
    Window k is of kind kinds[k], a contiguous range of windows: each of an
    LTV model's windows, or an LTI model's window 0 and the rest.  A kind's
    geometry is stored once: its regression block at kind_design[
    kind_offsets[c]:kind_offsets[c+1]], its n_a x n_eps map from the noises
    to its residue at ac[c, :n_a] (zero-padded at the bottom to the widest
    kind's rows), its kept-row transform in ``reduction``, and its
    annihilator and known-input correction in the ``ResidueGroup`` of its
    windows.  ``design``, all rows, is built when first read: window k's
    are row_offsets[k]:row_offsets[k+1].  ``residue_groups`` cover every
    window once and give ``residues`` one stacked product per group.  The
    design facts below are computed once, by ``build_design``, from one SVD
    of the kinds' blocks stacked with weights sqrt(count), over ``scale``:
    the Gram matrix of all rows, whose rank floor is sized by ``n_rows``,
    which ordinary LS reuses.  ``reduction`` is None when no window shares
    a residue direction with its predecessor.  ``structure`` and ``tol``
    are those it was built with, for every stage.

    The design is also its own identifiability report, which needs no
    data: ``rank`` of ``n_alpha`` parameters at ``rank_threshold``, the
    unidentifiable directions ``null_basis`` and their ``participation``,
    and ``near_threshold``, how close the annihilators' rank decisions came
    to theirs: (count, sigma/threshold, k, rank kept) of the windows with a
    singular value within a decade of their threshold, how many and the
    closest call, or None when there are none.
    """

    obs: np.ndarray | None
    kinds: np.ndarray                  # (n_windows,) window k is of kind kinds[k]
    kind_design: np.ndarray            # (kind_offsets[-1], n_alpha)
    kind_offsets: np.ndarray           # kind c's block: kind_offsets[c]:kind_offsets[c+1]
    row_offsets: np.ndarray
    L: int
    mode: str
    residue_groups: list[ResidueGroup]
    ac: np.ndarray                     # (n_kinds, max n_a, n_eps)
    model: LtvModel
    structure: NoiseStructure
    tol: Tolerance
    scale: np.ndarray                  # column scale of the stacked kinds
    rank: int                          # numerical rank of design / scale
    rank_threshold: float
    null_basis: np.ndarray | None      # (n_alpha, deficiency), orthonormal columns
    u: np.ndarray                      # thin SVD of the stacked kinds / scale = u diag(s) vt
    s: np.ndarray
    vt: np.ndarray
    reduction: RowReduction | None
    near_threshold: tuple | None

    @property
    def n_alpha(self) -> int:
        return self.kind_design.shape[1]

    @cached_property
    def design(self) -> np.ndarray:
        """All rows, (n_rows, n_alpha): window k's are its kind's block."""
        shift = self.kind_offsets[self.kinds] - self.row_offsets[:-1]
        return self.kind_design[np.arange(self.n_rows)
                                + np.repeat(shift, np.diff(self.row_offsets))]

    @property
    def participation(self) -> np.ndarray | None:
        """Each parameter's weight in the unidentifiable directions: the
        row norms of ``null_basis``; None at full rank."""
        return None if self.null_basis is None else np.linalg.norm(self.null_basis, axis=1)

    @property
    def n_rows(self) -> int:
        return int(self.row_offsets[-1])

    @property
    def n_windows(self) -> int:
        return self.row_offsets.size - 1

    @property
    def n_kinds(self) -> int:
        return self.kind_offsets.size - 1

    @property
    def n_eps(self) -> int:
        """Length of a window's stacked noise [W_k; V_k]."""
        return self.ac.shape[-1]

    @property
    def band_rows(self) -> int:
        """Rows of the lower band storage of the weight on all rows, the
        widest row span of L consecutive windows: the assembly budget's
        band, also when the weight is the kept rows' (``weight_band_shape``)."""
        return _band_rows(self.row_offsets, self.L)

    @cached_property
    def _weight_offsets(self) -> np.ndarray:
        """Window row offsets of the weighted problem: the kept rows' if reduced."""
        return self.row_offsets if self.reduction is None else self.reduction.row_offsets

    @cached_property
    def weight_band_shape(self) -> tuple[int, int]:
        """Shape (b+1, m) of ``assemble_p``'s band, the weighted problem's weight."""
        return _band_rows(self._weight_offsets, self.L), int(self._weight_offsets[-1])

    @cached_property
    def _design_norm2(self) -> float:
        """||design||_2^2 of the weighted problem: of the kept rows with a
        ``reduction``, else from s, vt and scale."""
        if self.reduction is not None:
            kept = self.reduction.apply(self.design, self.kinds, self.row_offsets)
            return float(np.linalg.norm(kept, 2) ** 2)
        return float(np.linalg.norm(self.s[:, None] * self.vt * self.scale, 2) ** 2)

    @cached_property
    def _sum_slices(self) -> list[tuple[int, int, int]]:
        """(start, stop, count) of the slices of obs ``_kind_sums`` reads: a
        run of kinds of one window each, or one kind of ``count`` windows."""
        counts = np.bincount(self.kinds)
        multi = counts > 1
        starts = np.flatnonzero(multi | np.concatenate(([True], multi[:-1])))
        edges = self.row_offsets[np.append((np.cumsum(counts) - counts)[starts],
                                           self.n_windows)].tolist()
        return list(zip(edges, edges[1:], counts[starts].tolist()))

    def _kind_sums(self, obs: np.ndarray) -> np.ndarray:
        """The stacked kinds' right-hand side of ``obs`` (..., n_rows), each
        kind's sum of its windows' rows over sqrt(count): X^T y of all rows.
        Kinds of one window each give their rows of obs back exactly; no
        row is gathered."""
        # a sum that overflows is refused by the solve, not warned of
        with np.errstate(over="ignore", invalid="ignore"):
            parts = [obs[..., a:b] if c == 1 else
                     obs[..., a:b].reshape(obs.shape[:-1] + (c, -1)).sum(axis=-2) / np.sqrt(c)
                     for a, b, c in self._sum_slices]
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)

    def with_data(self, data) -> "StackedSystem":
        """This design with the squared residues of ``data`` (MeasurementData
        holding exactly the records the windows span) as obs.

        Raises DataError for records that do not fit the model or give a
        non-finite residue.  The residues are ``residues`` of one run.
        """
        z, u = _checked_records(self.model, data, self.mode)
        L = self.L
        n_records = self.n_windows + L - 1
        if len(data) != n_records:
            raise DataError(
                f"data has {len(data)} records but the design's {self.n_windows} "
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
    """A parameter estimate with its solver diagnostics.  ``method`` is
    "ordinary" or "weighted-" and the weighted solve's branch
    (``BRANCHES``)."""

    alpha_hat: np.ndarray
    cov: np.ndarray | None
    method: str
    diagnostics: dict = field(default_factory=dict)


def _annihilated_target(blocks, mode: str) -> np.ndarray:
    """O, or [O, Gamma scriptG] when an unknown input must be cancelled too;
    per window for a WindowBlocks stack."""
    if mode == UNKNOWN_INPUT and blocks.scriptG.shape[-1] > 0:
        return np.concatenate([blocks.O, blocks.Gamma @ blocks.scriptG], axis=-1)
    return blocks.O


def _window_kinds(model: LtvModel, n_windows: int) -> np.ndarray:
    """``StackedSystem.kinds`` of ``n_windows`` windows, by a key that grows
    with k: the window itself for an LTV model; for an LTI model, whose
    windows share their matrices, whether it has a predecessor (window 0
    keeps all its rows)."""
    k = np.arange(n_windows)
    return group_index(np.minimum(k, 1) if model.is_lti else k)


def _near_threshold(factored, counts: np.ndarray, kinds: np.ndarray):
    """``StackedSystem.near_threshold`` of the windows whose kinds' first
    windows are ``factored``: a kind's windows count as its count."""
    count, closest = 0, None
    for b, _, s, rank, thr in factored:
        t = thr[:, None]
        near = (t > 0.0) & (s > t / 10.0) & (s < t * 10.0)
        if not near.any():
            continue
        count += int(counts[kinds[b.ks[near.any(axis=1)]]].sum())
        ratio = np.where(near, s / np.where(t > 0.0, t, 1.0), 1.0)
        dist = np.where(near, np.abs(np.log(ratio)), np.inf)
        w, i = np.unravel_index(np.argmin(dist), dist.shape)
        if closest is None or dist[w, i] < closest[0]:
            closest = (dist[w, i], ratio[w, i], int(b.ks[w]), int(rank[w]))
    return (count,) + closest[1:] if count else None


def _warned(design: StackedSystem) -> StackedSystem:
    """``design``, after the one warning of its ``near_threshold``: a
    builder logs it for the design it returns, never for one it rejects."""
    if design.near_threshold is not None:
        logger.warning(
            "%d window(s) have singular values within a decade of the rank "
            "threshold; closest: sigma/threshold = %.3g at window k=%d, rank %d kept",
            *design.near_threshold,
        )
    return design


def _annihilators(blocks, mode: str, tol: Tolerance) -> list:
    """(b, u, s, rank, threshold) of every shape group ``b`` of ``blocks``:
    one full SVD of the group's annihilated targets by the shared rank rule,
    whose last rows - rank left singular vectors are each window's
    annihilator.

    This is the one annihilator test: the first window (smallest k) whose
    target has full row rank raises NoAnnihilator.  It logs nothing.
    """
    factored = []
    for b in blocks:
        u, s, _, rank, thr = svd_rank(_annihilated_target(b, mode), tol,
                                      full_matrices=True)
        factored.append((b, u, s, rank, thr))
    failed = [(int(b.ks[w]), u.shape[1], int(rank[w]))
              for b, u, _, rank, _ in factored
              for w in np.flatnonzero(rank >= u.shape[1])[:1]]
    if failed:
        k, rows, rank = min(failed)
        raise NoAnnihilator(rows=rows, rank=rank, k=k)
    return factored


def _window_geometries(model: LtvModel, factored, kinds: np.ndarray, mode: str,
                       upsilon: np.ndarray):
    """The geometry of the windows of ``kinds`` from the matrices and
    annihilator SVDs ``factored`` (``_annihilators``) of each kind's first
    window: (ac, ann, n_a, residue_groups, kind_design, kind_offsets).

    ``ac`` stacks each kind's ``ac`` as ``StackedSystem.ac`` holds it;
    ``ann`` stacks the kinds' annihilators the same way (zero-padded at the
    bottom and right) and ``n_a`` counts their rows.  ``kind_design`` holds
    kind c's regression block at rows kind_offsets[c]:kind_offsets[c+1].
    ``residue_groups`` are the ``ResidueGroup``s: the kinds of one window
    each that share a rank, and each kind of several windows alone.

    The kinds are regrouped by rank and their products computed in
    stacks, bitwise equal to the same steps taken for one window alone.
    """
    blocks = [b for b, *_ in factored]
    counts = np.bincount(kinds)
    n_a = np.empty(counts.size, dtype=int)
    for b, u, _, rank, _ in factored:
        n_a[kinds[b.ks]] = u.shape[1] - rank
    kind_offsets = np.concatenate(([0], np.cumsum(n_a * (n_a + 1) // 2)))
    n_eps = blocks[0].scriptE.shape[-1] + blocks[0].scriptD.shape[-1]
    ac_all = np.zeros((counts.size, n_a.max(), n_eps))
    ann_all = np.zeros((counts.size, n_a.max(), max(b.O.shape[1] for b in blocks)))
    kind_design = np.empty((kind_offsets[-1], upsilon.shape[1]))
    z_start = np.concatenate(([0], np.cumsum(model.n_z_steps())))
    u_start = np.concatenate(([0], np.cumsum(model.n_u_steps())))
    residue_groups = []
    for b, u, _, rank, _ in factored:
        gamma_g = None
        if mode == KNOWN_INPUT and b.scriptG.shape[-1] > 0:
            gamma_g = b.Gamma @ b.scriptG
        c_mat, kind = b.C, kinds[b.ks]
        # a kind of several windows is a group alone, its one matrix
        # broadcast over them with stride 0
        for idx in groups(np.column_stack([rank, np.where(counts[kind] > 1, kind, -1)])):
            r, kk = int(rank[idx[0]]), kind[idx]
            n = u[idx][:, :, r:].transpose(0, 2, 1)
            g_g = None if gamma_g is None else gamma_g[idx]
            ac = np.concatenate([n @ b.Gamma[idx], n], axis=2) @ c_mat[idx]
            ac_all[kk, :n.shape[1]] = ac
            ann_all[kk, :n.shape[1], :n.shape[2]] = n
            sel_i, sel_j = sym_pair_indices(n.shape[1])
            kind_design[kind_offsets[kk, None] + np.arange(sel_i.size)] = np.einsum(
                "wta,wtb->wtab", ac[:, sel_j], ac[:, sel_i]
            ).reshape(idx.size, sel_i.size, -1) @ upsilon
            ks = (b.ks[idx, None] + np.arange(counts[kk[0]])).ravel()
            n = np.broadcast_to(n, (ks.size,) + n.shape[1:])
            if g_g is not None:
                g_g = np.broadcast_to(g_g, (ks.size,) + g_g.shape[1:])
            residue_groups.append(ResidueGroup(
                windows=ks, annihilator=n, gamma_g=g_g,
                z_index=z_start[ks, None] + np.arange(n.shape[2]),
                u_index=None if g_g is None
                else u_start[ks, None] + np.arange(g_g.shape[2]),
            ))
    return ac_all, ann_all, n_a, residue_groups, kind_design, kind_offsets


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


def _row_reduction(model: LtvModel, L: int, kinds: np.ndarray, n_a: np.ndarray,
                   ann: np.ndarray, tol: Tolerance) -> RowReduction | None:
    """The rows the weighted solve keeps among those of the windows of
    ``kinds``, or None when no window shares a residue direction with its
    predecessor.

    ``ann`` stacks the kinds' annihilators, zero-padded, and ``n_a`` counts
    their rows, as ``_window_geometries`` gives them.  A kind's windows
    keep the rows its first window k (window 0's kind: all) keeps of the
    directions it shares with window k-1.  Those are the left null space of
    [N_{k-1}, 0; 0, N_k] over the records the pair spans, by the shared
    rank rule.  The rows of N are orthonormal, so that matrix has singular
    values sqrt(1 +- c_i) with c_i those of the overlap N_{k-1} N_k^T; a
    pair whose overlap has Frobenius norm c with sqrt(1 - c) well above the
    rank threshold shares nothing, and its SVD is skipped.
    """
    if L == 1 or kinds.size == 1:
        return None
    ks = np.flatnonzero(np.diff(kinds)) + 1      # each kind's first window but 0
    prev, cur = kinds[ks - 1], kinds[ks]
    n_z = model.n_z_steps()
    cum = np.concatenate(([0], np.cumsum(n_z)))
    key = np.column_stack([n_a[prev], n_a[cur], n_z[ks - 1],
                           cum[ks - 1 + L] - cum[ks - 1], cum[ks + L] - cum[ks]])
    found = []                          # (kinds, shared count, rotations)
    for idx in groups(key):
        n_prev, n_cur, first, c_prev, c_cur = key[idx[0]].tolist()
        a = ann[prev[idx], :n_prev, :c_prev]
        b = ann[cur[idx], :n_cur, :c_cur]
        rows, cols = n_prev + n_cur, first + c_cur
        c = np.linalg.norm(a[:, :, first:] @ b[:, :, :c_prev - first].transpose(0, 2, 1),
                           axis=(1, 2))
        thr = tol.floor(np.sqrt(1.0 + c), max(rows, cols))
        maybe = 1.0 - c <= np.maximum(1e-6, (2.0 * thr) ** 2)
        if not maybe.any():
            continue
        idx = idx[maybe]
        pair = np.zeros((idx.size, rows, cols))
        pair[:, :n_prev, :c_prev] = a[maybe]
        pair[:, n_prev:, first:] = b[maybe]
        u, _, _, rank, _ = svd_rank(pair, tol, full_matrices=True)
        # each block's rows are orthonormal, so the pair has rank at least
        # max(n_prev, n_cur); a rank_tol so loose that it finds less is held
        # to that, and no window shares more directions than it has
        rank = np.maximum(rank, max(n_prev, n_cur))
        for sel in groups(rank):
            r = int(rank[sel[0]])
            if r == rows:               # no null vector: nothing shared
                continue
            # window k's halves of the null vectors span the shared
            # directions; a complete QR appends the new ones
            q = np.linalg.qr(u[sel, n_prev:, r:], mode="complete")[0]
            found.append((cur[idx[sel]], rows - r, q))
    if not found:
        return None

    n_rows = n_a * (n_a + 1) // 2
    width = int(n_rows.max())
    transforms = np.zeros((n_rows.size, width, width))
    kept = n_rows.copy()
    for kind, d, q in found:
        kept[kind] -= d * (d + 1) // 2
        transforms[kind, :kept[kind[0]], :n_rows[kind[0]]] = _kept_pair_transforms(q, d)
    plain = np.flatnonzero(kept == n_rows)
    pos = np.arange(width)
    transforms[plain[:, None], pos, pos] = pos < kept[plain, None]
    return RowReduction(transforms=transforms,
                        row_offsets=np.concatenate(([0], np.cumsum(kept[kinds]))))


def _check_mode(mode: str) -> None:
    modes = (KNOWN_INPUT, UNKNOWN_INPUT)
    if mode not in modes:
        raise ValueError(f"unknown input mode {mode!r}; choose from {modes}")


def _check_horizon(model: LtvModel, n_records: int) -> None:
    """DataError unless the model has a step for each of ``n_records`` records."""
    if n_records > model.tau + 1:
        raise DataError(
            f"data has {n_records} records but the model horizon is tau={model.tau}"
        )


def _candidate_lengths(model: LtvModel, mode: str, n_records: int) -> range:
    """The L a search tries for ``n_records`` records, checked as by ``build_design``."""
    _check_mode(mode)
    _check_horizon(model, n_records)
    return range(1, min(max(model.n_x + 2, 12), n_records) + 1)


def _scan(model: LtvModel, structure: NoiseStructure, mode: str, tol: Tolerance,
          n_records: int, lengths: range):
    """The design of the ``--L auto`` search, or None when no L has an
    annihilator; ``feasible_design`` says which design."""
    best, skipped = None, []
    for L in lengths:
        upsilon = defining_replication(structure, L)
        zero = np.flatnonzero(~upsilon.any(axis=0))
        if zero.size:
            logger.info("L=%d passed over: Upsilon has a zero column for %s", L,
                        ", ".join(f"alpha_{j + 1}" for j in zero.tolist()))
            skipped.append(L)
            continue
        try:
            built = _design(model, structure, upsilon, L, mode, tol, n_records - L + 1)
        except NoAnnihilator as exc:
            logger.info("L=%d passed over: window k=%d has no annihilator "
                        "(rank %d of %d rows)", L, exc.k, exc.rank, exc.rows)
            continue
        if built.rank >= structure.n_alpha:
            return built
        logger.info("L=%d passed over: the design has rank %d of %d", L, built.rank,
                    structure.n_alpha)
        if best is None or built.rank > best.rank:
            best = built
    for L in skipped if best is None else ():
        try:
            return _design(model, structure, defining_replication(structure, L), L,
                           mode, tol, n_records - L + 1)
        except NoAnnihilator:
            continue
    return best


def min_feasible_window(model: LtvModel, mode: str, tol: Tolerance = DEFAULT_TOL,
                        n_records: int | None = None,
                        structure: NoiseStructure | None = None) -> int | None:
    """Smallest L whose annihilator exists for every window, or None.

    The existence condition is that the stacked measurement dimension exceed
    the rank of the annihilated matrix at every k; it is tested by the SVD
    that ``build_design`` takes the annihilators from, so an L passes here
    exactly when ``build_design`` accepts it for the windows of
    ``n_records`` records (default tau + 1).  With ``structure``, it is the
    L of ``feasible_design`` when that design has full column rank (an
    annihilator can exist at an L too short to carry state noise, e.g.
    single-step windows), else None, with no near-threshold warning.  L runs
    up to max(n_x + 2, 12) and ``n_records``, checked with ``mode`` as by
    ``build_design``.
    """
    n_records = model.tau + 1 if n_records is None else n_records
    lengths = _candidate_lengths(model, mode, n_records)
    if structure is not None:
        found = _scan(model, structure, mode, tol, n_records, lengths)
        if found is None or found.rank < structure.n_alpha:
            return None
        return _warned(found).L
    for L in lengths:
        counts = np.bincount(_window_kinds(model, n_records - L + 1))
        try:
            _annihilators(window_blocks(model, np.cumsum(counts) - counts, L), mode, tol)
        except NoAnnihilator:
            continue
        return L
    return None


def feasible_design(model: LtvModel, structure: NoiseStructure, mode: str,
                    tol: Tolerance = DEFAULT_TOL,
                    n_records: int | None = None) -> StackedSystem:
    """The design ``--L auto`` identifies with, for ``n_records`` records
    (default tau + 1) checked with ``mode`` as by ``build_design``.

    L runs over 1, 2, ... up to max(n_x + 2, 12) and ``n_records``, and the
    first L whose design has full column rank is taken.  Failing that, the
    highest-rank design built is (the smallest L among equal ranks); failing
    that, the smallest skipped L with an annihilator; failing that, MdmError.
    An L at which the replication Upsilon (``defining_replication``) has a
    zero column is skipped unbuilt: that is a zero column of the design.
    Each other L is built once, its geometry making the annihilator test.
    Each L passed over logs one INFO line with its reason, a rank-deficient
    result one more; only the design returned logs its near-threshold warning.
    """
    n_records = model.tau + 1 if n_records is None else n_records
    lengths = _candidate_lengths(model, mode, n_records)
    design = _scan(model, structure, mode, tol, n_records, lengths)
    if design is None:
        raise MdmError(f"no window length up to L={len(lengths)} has an "
                       f"annihilator for {n_records} records")
    if design.rank < structure.n_alpha:
        logger.info("no L up to %d gives full rank; L=%d, rank %d of %d, is kept",
                    len(lengths), design.L, design.rank, structure.n_alpha)
    return _warned(design)


def build_design(model: LtvModel, structure: NoiseStructure, L: int, mode: str,
                 tol: Tolerance = DEFAULT_TOL, n_windows: int | None = None) -> StackedSystem:
    """Assemble the design matrix of ``n_windows`` windows (default all of
    the model's tau + 1 records); ``with_data`` attaches measurements.

    A window without an annihilator raises NoAnnihilator, carrying as
    ``minimal_feasible_l`` the smallest L at which every window of the same
    n_windows + L - 1 records has one (``min_feasible_window``), or None.
    ``mode`` is KNOWN_INPUT or UNKNOWN_INPUT (else ValueError, first).
    Windows over more records than the model's tau + 1 steps raise the
    DataError ``with_data`` gives for such data, before any is built.
    """
    _check_mode(mode)
    if n_windows is None:
        n_windows = model.tau + 2 - L
    if n_windows < 1:
        raise DataError(f"horizon too short: no full window of length L={L}")
    _check_horizon(model, n_windows + L - 1)
    try:
        design = _design(model, structure, defining_replication(structure, L),
                         L, mode, tol, n_windows)
    except NoAnnihilator as exc:
        exc.minimal_feasible_l = min_feasible_window(model, mode, tol,
                                                     n_records=n_windows + L - 1)
        raise
    return _warned(design)


def _design(model: LtvModel, structure: NoiseStructure, upsilon: np.ndarray, L: int,
            mode: str, tol: Tolerance, n_windows: int):
    """The design, upsilon the ``defining_replication`` of structure and L;
    the builder that returns it logs its ``near_threshold`` (``_warned``)."""
    kinds = _window_kinds(model, n_windows)
    counts = np.bincount(kinds)
    # a kind's first window stands for its windows
    factored = _annihilators(window_blocks(model, np.cumsum(counts) - counts, L), mode, tol)
    ac, ann, n_a, residue_groups, kind_design, kind_offsets = _window_geometries(
        model, factored, kinds, mode, upsilon)
    row_offsets = np.concatenate(([0], np.cumsum(np.diff(kind_offsets)[kinds])))
    reduction = _row_reduction(model, L, kinds, n_a, ann, tol)
    # the kinds' blocks with weights sqrt(count) have the Gram matrix of all
    # rows; zero rows up to n_alpha keep vt square
    m, n_alpha = kind_design.shape
    stacked = np.zeros((max(m, n_alpha), n_alpha))
    stacked[:m] = kind_design * np.repeat(np.sqrt(counts), np.diff(kind_offsets))[:, None]
    (u, s, vt, rank, scale), thr = _equilibrated_svd(stacked, tol, rows=int(row_offsets[-1]))
    null_basis = None
    if rank < n_alpha:
        # re-orthonormalise after undoing the column scaling
        null_basis, _ = np.linalg.qr(vt[rank:].T / scale[:, None])
    return StackedSystem(
        obs=None, kinds=kinds, kind_design=kind_design, kind_offsets=kind_offsets,
        row_offsets=row_offsets, L=L, mode=mode, residue_groups=residue_groups, ac=ac,
        model=model, structure=structure, tol=tol, scale=scale, rank=rank,
        rank_threshold=thr, null_basis=null_basis, u=u[:m], s=s, vt=vt,
        reduction=reduction, near_threshold=_near_threshold(factored, counts, kinds),
    )


def _record_of(offsets: np.ndarray, pos) -> int:
    """The record (or window) whose slice offsets[k]:offsets[k+1] holds ``pos``."""
    return int(np.searchsorted(offsets, pos, side="right")) - 1


def _check_lengths(kind: str, lengths: np.ndarray, expected: np.ndarray) -> None:
    """DataError naming the first record k whose length is not expected[k]
    (records past the end of ``expected`` are not checked)."""
    bad = np.flatnonzero(lengths[:expected.size] != expected[:lengths.size])
    if bad.size:
        k = int(bad[0])
        raise DataError(
            f"record k={k}: {kind} has length {lengths[k]}, model expects {expected[k]}"
        )


def _checked_records(model: LtvModel, data: MeasurementData, mode: str):
    """(z, u) of the records, end to end; u is None unless a known input
    is given."""
    _check_horizon(model, len(data))
    _check_lengths("z", data.n_z, model.n_z_steps())
    if mode != KNOWN_INPUT:
        return data.z, None
    if data.u is None:
        if any(np.any(model.G[k]) for k in range(len(model.G))):
            logger.warning("data carries no input records; assuming zero input")
        return data.z, None
    if data.n_u.size < len(data) - 1:
        raise DataError(f"data has {data.n_u.size} input records but its "
                        f"{len(data)} measurement records need {len(data) - 1}")
    _check_lengths("u", data.n_u, model.n_u_steps())
    # checked before the input correction, whose product would warn
    finite = np.isfinite(data.u)
    if not finite.all():
        k = np.searchsorted(np.cumsum(data.n_u), np.argmin(finite), side="right")
        raise DataError(f"record k={k}: input is not finite")
    return data.z, data.u


def build_stacked_system(model: LtvModel, structure: NoiseStructure, data,
                         L: int, mode: str = KNOWN_INPUT,
                         tol: Tolerance = DEFAULT_TOL) -> StackedSystem:
    """Assemble the full regression from measurement data.

    ``data`` is MeasurementData (a Trajectory is one); windows run over
    every full length-L span of its records, in time order.  This is
    ``build_design`` for those windows followed by ``with_data``.
    """
    return build_design(model, structure, L, mode, tol,
                        n_windows=len(data) - L + 1).with_data(data)


def _equilibrated_svd(a: np.ndarray, tol: Tolerance, rows: int | None = None):
    """((u, s, vt, rank, scale), threshold): ``svd_rank`` of the column-
    equilibrated a / scale, its floor sized by ``rows`` (default a's), and
    the column scales.

    Columns whose norm is negligible against the largest column are left
    unscaled: they are cancellation dust (e.g. the state-noise columns of a
    G == E model), and normalising them would disguise rank deficiency.
    """
    scale = np.linalg.norm(a, axis=-2)
    dust = scale <= tol.floor(np.max(scale, axis=-1, keepdims=True, initial=0.0), 1)
    scale[dust] = 1.0
    u, s, vt, rank, thr = svd_rank(a / scale[..., None, :], tol, rows=rows)
    return (u, s, vt, rank, scale), thr


def _ls_solve(factors, b: np.ndarray):
    """LS solution of a x = b and (a^T a)^{-1} = W W^T, W = diag(1/scale)
    V diag(1/s), from ``_equilibrated_svd(a)``; W W^T is exactly symmetric.
    ``b`` is (m,) or (runs, m), one solution per run; for a stack of
    matrices a (runs, m, n) and their factors, (runs, m).  Raises
    RankDeficientDesign when rank < columns (or rows < columns), and a
    DataError naming, as ``run``, the first row of b whose solve overflows.

    W (U^T b) is a stacked np.matmul of matrix-vector products, so a run's
    solution has the bits of its own; W @ (U^T @ B) on the (m, runs) matrix
    B would not.
    """
    u, s, vt, rank, scale = factors
    if np.min(rank) < scale.shape[-1]:
        raise RankDeficientDesign(int(np.min(rank)), scale.shape[-1])
    w = vt.swapaxes(-1, -2) / s[..., None, :] / scale[..., :, None]
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.matmul(w, np.matmul(u.swapaxes(-1, -2), b[..., None]))[..., 0]
    finite = np.isfinite(x).all(axis=-1)
    if not finite.all():
        raise DataError("squared residues overflow the least-squares solve",
                        run=int(np.argmin(finite)) if b.ndim == 2 else None)
    return x, w @ w.swapaxes(-1, -2)


def _refuse_obs(sys: StackedSystem, obs: np.ndarray) -> None:
    """``ordinary_estimates``' refusals of ``obs``, in order: DataError for a
    shape other than (runs, n_rows) or (n_rows,), RankDeficientDesign, and
    DataError naming the window and, as ``run``, the index (None for one run
    given as (n_rows,)) of the first run with a non-finite squared residue."""
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


def ordinary_estimates(sys: StackedSystem, obs: np.ndarray) -> np.ndarray:
    """``ordinary_mdm``'s alpha_hat for each row of ``obs`` ((runs, n_rows),
    as ``StackedSystem.residues`` gives them; (n_rows,) for one run).

    ``_refuse_obs`` refuses ``obs`` first, and then ``_ls_solve`` the
    first run whose squared residues overflow the solve.
    """
    obs = np.asarray(obs, dtype=float)
    _refuse_obs(sys, obs)
    return _ls_solve((sys.u, sys.s, sys.vt, sys.rank, sys.scale), sys._kind_sums(obs))[0]


def ordinary_mdm(sys: StackedSystem, tol: Tolerance = DEFAULT_TOL) -> Estimate:
    """Unweighted LS solution of the stacked regression.

    Solved with the SVD of the column-equilibrated, stacked window kinds
    that ``build_design`` computed (the clock benchmark spans 19 decades
    across parameters), whose normal equations are all rows'; no
    covariance is reported.  The rank decision is the one
    ``build_design`` made with ``sys.tol``; the ``tol`` argument is unused.
    """
    if sys.obs is None:
        raise ValueError("system carries no observations")
    return Estimate(alpha_hat=ordinary_estimates(sys, sys.obs), cov=None,
                    method="ordinary")


@dataclass
class EtaCovariances:
    """Second moments of the eta process, stored compactly per band offset.

    ``crosses`` is the (L, n_eps, n_eps) array whose j-th entry is the
    lag-j cross covariance C_j = ``window_noise_covariance`` of the stacked
    noise, j = 0..L-1, whose C_0 has vec Upsilon alpha (windows L or more
    apart share no noise); L and n_eps are read from its shape.  The band
    matrix E[eta_k eta_{k+j}^T] follows from C_j by the Gaussian fourth-moment
    factorisation, which ``assemble_p`` applies through the windows' noise
    maps without forming it.  ``projection`` holds, for Q and R, the
    most negative eigenvalue relative to the largest |eigenvalue| when they
    were projected onto the PSD cone first, and (0, 0) when they were not.
    They are projected when either is indefinite by the rank rule
    (``linalg.indefinite``: an n x n matrix's smallest eigenvalue below
    -floor(max(1, scale), n), the scale the larger of Q's and R's largest
    |eigenvalue|).
    """

    crosses: np.ndarray                  # (L, n_eps, n_eps), C_j at [j]
    projection: tuple[float, float]

    @property
    def L(self) -> int:
        return self.crosses.shape[0]

    @property
    def n_eps(self) -> int:
        return self.crosses.shape[-1]

    @property
    def repaired(self) -> bool:
        """Whether Q and R were projected onto the PSD cone."""
        return any(self.projection)


@dataclass
class WeightedRuns:
    """Weighted estimates of a batch of runs, row r for run r
    (``weighted_estimates``; ``weighted_mdm`` and ``weighted_pipeline`` are
    its one-run case).

    ``branch`` names the solve each run took: banded Cholesky of the
    full-rank weight ("full-rank") or of its kept rows ("kept-row"), or the
    dense g-inverse ("dense").  ``weight_rows`` are the rows solved on (the
    pivoted rank on the dense branch) and ``fit_j`` the fit statistic of a
    banded solve (NaN on the dense branch).  ``alpha_ordinary`` and
    ``projection`` are the first pass and its PSD projection
    (``EtaCovariances.projection``), reported here and not warned of
    (``weighted_pipeline`` alone warns); None when the weight was given.
    """

    alpha_hat: np.ndarray                # (runs, n_alpha)
    cov: np.ndarray                      # (runs, n_alpha, n_alpha)
    branch: np.ndarray                   # (runs,) of BRANCHES
    weight_rows: np.ndarray              # (runs,)
    fit_j: np.ndarray                    # (runs,)
    alpha_ordinary: np.ndarray | None = None
    projection: np.ndarray | None = None  # (runs, 2)

    @property
    def repaired(self) -> np.ndarray | None:
        """(runs,) ``EtaCovariances.repaired`` of each run's first pass."""
        return None if self.projection is None else self.projection.any(axis=1)


BRANCHES = ("full-rank", "kept-row", "dense")

_PROJECTED = ("Q/R estimate is indefinite; projected it onto the positive "
              "semidefinite cone before the fourth-moment expansion")


# what a run's own values can make its solve raise: the package's errors
# (non-finite squared residues or weights among them), ValueError from numpy
# or a LAPACK wrapper refusing its arguments, and LAPACK failing to converge
_RUN_ERRORS = (MdmError, ValueError, np.linalg.LinAlgError)


def _eta_crosses(structure: NoiseStructure, alphas: np.ndarray, L: int,
                 tol: Tolerance):
    """(crosses, projection) of ``gaussian_eta_covariances`` for each row
    of ``alphas`` (runs, n_alpha): crosses[r, j] is run r's C_j and
    projection[r] its ``EtaCovariances.projection``, nonzero exactly for
    the runs that were projected.

    Q and R come from one row-vector product per run
    (``NoiseStructure.covariances``), one stacked eigh each tests them
    (``indefinite``, with the larger of Q's and R's largest |eigenvalue|
    as scale), and the runs that need it are projected together.  C_j is
    ``window_noise_covariance``'s lag j at the (projected) Q and R, the
    lags 0..L-1 of the covariance whose lag 0 is the design's Upsilon alpha.
    """
    q, r = structure.covariances(alphas)
    eigs = [np.linalg.eigh((m + m.swapaxes(-1, -2)) / 2.0) for m in (q, r)]
    runs = len(alphas)
    tops = [np.max(np.abs(lam), axis=-1, initial=0.0) for lam, _ in eigs]
    scale = np.maximum(*tops)
    lows = [lam[:, 0] if lam.shape[-1] else np.zeros(runs) for lam, _ in eigs]
    projection = np.zeros((runs, 2))
    fix = np.flatnonzero(indefinite(lows[0], q.shape[-1], scale, tol)
                         | indefinite(lows[1], r.shape[-1], scale, tol))
    if fix.size:
        q[fix], r[fix] = (np.matmul(v[fix] * np.clip(lam[fix], 0.0, None)[:, None, :],
                                    v[fix].swapaxes(-1, -2)) for lam, v in eigs)
        for i, (low, top) in enumerate(zip(lows, tops)):
            # min(low, 0) / top, 0 where top is 0
            low, top = np.where(low[fix] > 0.0, 0.0, low[fix]), top[fix]
            projection[fix, i] = np.where(top > 0.0,
                                          low / np.where(top > 0.0, top, 1.0), 0.0)
    crosses = np.stack([window_noise_covariance(q, r, L, j) for j in range(L)], axis=1)
    return crosses, projection


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
    crosses, projection = _eta_crosses(
        structure, np.asarray(alpha, dtype=float).reshape(1, -1), L, tol)
    etas = EtaCovariances(crosses=crosses[0],
                          projection=tuple(float(p) for p in projection[0]))
    if etas.repaired:
        if not repair:
            raise NotPositiveSemidefinite("Q(alpha) or R(alpha) is indefinite")
        warnings.warn(_PROJECTED, RuntimeWarning, stacklevel=2)
    return etas


def assemble_p(sys: StackedSystem, etas: EtaCovariances) -> np.ndarray:
    """Covariance P of the stacked noise term, or M P M^T on the kept rows
    of a design with a ``reduction`` (M its row map), in LAPACK lower band
    storage: the weight of the weighted problem.

    P is block banded: block (r, r+j) is noisemap_r @ B_j @
    noisemap_{r+j}^T, with B_j = E[eta_r eta_{r+j}^T] the band matrix of
    ``EtaCovariances``, for j < L and zero beyond.  Each lag's blocks are
    computed for all windows at once in the factored form
    G_r = ac_r @ C_j @ ac_{r+j}^T, which never materialises the
    n_eps^2-sized band matrices, and mapped to t_r @ block @ t_{r+j}^T by
    the windows' transforms when there is a reduction.  The result ``ab``
    has shape (b+1, m) with ab[i-c, c] == P[i, c] for c <= i <= c+b, b + 1
    the widest row span of L consecutive windows (L*s for windows of s
    rows); entries past the end of a diagonal are 0.  Neither the dense
    matrix nor the full-row band of a reduced design is formed.  This is
    the one-run case of ``weighted_estimates``' band stage.

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
    return _assemble_bands(sys, etas.crosses[None])[0]


def _assemble_bands(sys: StackedSystem, crosses: np.ndarray) -> np.ndarray:
    """``assemble_p``'s band of each run, (runs, b+1, m), from the runs' lag
    crosses (runs, L, n_eps, n_eps).

    The lag loop runs on ac[None, :n] @ C[:, None] @ ac_t[None, j:], and
    the kept-row map on t[None, :n] @ blk @ t_t[None, j:]: per (run,
    window) each is the per-window product of one run, and so its bits.
    The scatter positions are computed once per call, not per run.
    """
    runs = crosses.shape[0]
    red, offsets = sys.reduction, sys._weight_offsets
    ab = np.zeros((runs,) + sys.weight_band_shape)
    if not runs:
        return ab
    ac = sys.ac[sys.kinds][None]
    ac_t = ac.swapaxes(-1, -2)
    if red is not None:
        t = red.transforms[sys.kinds][None]
        t_t = t.swapaxes(-1, -2)
    si, sj = sym_pair_indices(sys.ac.shape[1])
    # a band that is not finite is refused by the solve, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(min(sys.L, sys.n_windows)):
            n = sys.n_windows - j
            g = ac[:, :n] @ crosses[:, j, None] @ ac_t[:, j:]
            blk = (g[..., sj[:, None], sj] * g[..., si[:, None], si]
                   + g[..., sj[:, None], si] * g[..., si[:, None], sj])
            if j == 0:
                # a diagonal block is symmetric up to roundoff; store its mean
                blk = 0.5 * (blk + blk.swapaxes(-1, -2))
            if red is not None:
                blk = t[:, :n] @ blk @ t_t[:, j:]
            _scatter_blocks(ab, blk, offsets, j)
    return ab


def _band_rows(offsets: np.ndarray, L: int) -> int:
    """Rows of the lower band storage of a matrix whose blocks (r, r+j),
    j < L, between windows with rows offsets[r]:offsets[r+1] may be nonzero:
    the widest row span of L consecutive windows."""
    n_windows = offsets.size - 1
    span_end = offsets[np.minimum(np.arange(n_windows) + L, n_windows)]
    return int(np.max(span_end - offsets[:-1]))


def _block_index(offsets: np.ndarray, width: int, j: int,
                 shape: tuple[int, int]) -> np.ndarray:
    """Flat positions, in lower band storage of the given shape, of the
    lag-j blocks blk[r, a, b] = P[offsets[r] + a, offsets[r+j] + b] between
    windows with rows offsets[r]:offsets[r+1], zero-padded to ``width``.

    Entries outside either window's rows or outside the band get the
    position shape[0] * shape[1], one past the storage, as do those of a
    diagonal block (j == 0) below its diagonal.
    """
    n = offsets.size - 1 - j
    # laid out (a, b, r), so that the long window axis is the inner loop
    a, b = (x.ravel()[:, None] for x in np.indices((width, width)))
    rows_of = np.diff(offsets)
    col = offsets[:n] + a
    diag = offsets[j:j + n] + b - col
    keep = ((a < rows_of[:n]) & (b < rows_of[j:]) & (diag >= 0) & (diag < shape[0]))
    idx = np.where(keep, diag * shape[1] + col, shape[0] * shape[1])
    return idx.T.reshape(n, width, width)


def _scatter_blocks(ab: np.ndarray, blk: np.ndarray, offsets: np.ndarray, j: int) -> None:
    """Store the lag-j blocks ``blk`` in the band ``ab``, a diagonal block
    by its upper triangle (the lower triangle of P); both may lead with a
    run axis."""
    idx = _block_index(offsets, blk.shape[-1], j, ab.shape[-2:]).ravel()
    src = np.flatnonzero(idx < ab.shape[-2] * ab.shape[-1])
    lead = ab.shape[:-2]
    ab.reshape(lead + (-1,))[..., idx[src]] = blk.reshape(lead + (-1,))[..., src]


# The dense constrained branch forms c P + design design^T on the m rows of
# the weighted problem, O(m^2) memory, and factors it by pivoted Cholesky,
# O(m^2 r) for its rank r; it is refused above this row count (use ordinary
# MDM or a shorter horizon instead).  A design's full-row weight band gets
# the same memory budget, P_DENSE_MAX_ROWS**2 entries.
P_DENSE_MAX_ROWS = 8000


@cache
def _lapack():
    """SciPy's LAPACK wrappers: the f2py module ``scipy.linalg._flapack``,
    whose functions ``scipy.linalg.lapack`` exports, loaded from its file
    without running ``scipy.linalg``'s package import.

    That import clones numpy's namespace (numpy.f2py, numpy.testing,
    numpy.ma) and costs about half a cold weighted identify; the extension
    alone loads in a few ms.  It is registered in sys.modules under its own
    name, so a later ``import scipy.linalg`` reuses this module rather than
    load a second copy.  The package then lacks a ``_flapack`` attribute,
    which SciPy never reads: it imports the name.
    """
    name = "scipy.linalg._flapack"
    if name in _sys.modules:
        return _sys.modules[name]
    root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    paths = [os.path.join(root, "linalg", "_flapack" + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    spec = importlib.util.spec_from_file_location(
        name, next(filter(os.path.isfile, paths), paths[0]))
    module = _sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _factors_shifted(ab: np.ndarray, shift: float) -> bool:
    """Whether P + shift * I, P in lower band storage, has a banded Cholesky
    factor."""
    shifted = ab.copy()
    shifted[0] += shift
    return _lapack().dpbtrf(shifted, lower=1)[1] == 0


def _lowest_eigenvalue(ab: np.ndarray) -> float:
    """The smallest eigenvalue of P, in lower band storage, by dsbevx with
    the arguments ``scipy.linalg.eigvals_banded(ab, lower=True,
    select="i", select_range=(0, 0))`` passes, and so its bits."""
    lapack = _lapack()
    w, _, _, _, info = lapack.dsbevx(ab, 0.0, 1.0, 1, 1, compute_v=0, mmax=1,
                                     range=2, lower=1, overwrite_ab=0,
                                     abstol=2 * lapack.dlamch("s"))
    if info != 0:
        raise np.linalg.LinAlgError(f"banded eigenvalue solver failed (LAPACK info {info})")
    return float(w[0])


def _solve_lower(f: np.ndarray, b: np.ndarray) -> np.ndarray:
    """F^-1 b for a lower-triangular F, by dtrtrs with the arguments
    ``scipy.linalg.solve_triangular(f, b, lower=True)`` passes, and so its
    bits: F itself when it is Fortran-contiguous, else F^T as an upper
    factor solved transposed.  A zero on F's diagonal raises LinAlgError."""
    if f.flags.f_contiguous:
        x, info = _lapack().dtrtrs(f, b, lower=1)
    else:
        x, info = _lapack().dtrtrs(f.T, b, lower=0, trans=1)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}")
    return x


def _whiten_run(sys: StackedSystem, ab: np.ndarray, xyt: np.ndarray, branch: str):
    """One run's branch tests and whitened problem: (branch, w, balance).

    ``ab`` is the run's weight band and ``xyt`` its [design | obs] on all
    rows, transposed: (n_alpha+1, n_rows), C-ordered, so that xyt.T is the
    Fortran-ordered matrix LAPACK takes; a ``reduction`` keeps its rows, and
    the banded branch whitens the problem in place.  ``w`` is the whitened
    problem, transposed the same way, and ``balance`` the dense branch's c
    (1 on the banded one).
    """
    # LAPACK is reached through ``_lapack``, SciPy's wrappers without
    # scipy.linalg, loaded by the first weighted solve, not by ``import mdmest``
    if sys.reduction is None:
        design, xy = sys.design, xyt.T
    else:
        xy = sys.reduction.apply(xyt.T, sys.kinds, sys.row_offsets)
        design = xy[:, :-1]
    m, tol, d_max = xy.shape[0], sys.tol, float(np.max(ab[0]))
    # P is numerically full rank when P - floor(max diag P, m) I factors
    is_full = d_max > 0.0 and _factors_shifted(ab, -tol.floor(d_max, m))
    if not is_full:
        # the negativity floor uses the regression scale ||design||_2^2 too,
        # so a numerically-zero weight falls through to the constrained branch
        floor = tol.floor(max(d_max, sys._design_norm2), 1)
        if not _factors_shifted(ab, floor):
            lam_min = _lowest_eigenvalue(ab)
            raise IndefiniteWeight(
                f"weight matrix has eigenvalue {lam_min:.3e} below -{floor:.3e}"
            )
    if branch == "full-rank" and not is_full:
        raise IndefiniteWeight("full-rank branch forced but the weight is singular")

    if is_full and branch != "constrained":
        chol, info = _lapack().dpbtrf(ab, lower=1)
        if info == 0:
            whitened, info = _lapack().dtbtrs(chol, xy, uplo="L", overwrite_b=1)
        if info != 0:
            raise IndefiniteWeight(
                f"banded Cholesky whitening of the weight failed (LAPACK info {info})")
        return ("full-rank" if sys.reduction is None else "kept-row"), whitened.T, 1.0
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
    balance = sys._design_norm2 / d_max if d_max > 0.0 else 1.0
    t = (design @ design.T).T
    for j in range(ab.shape[0]):
        i = np.arange(j, m)
        t[i, i - j] += balance * ab[j, :m - j]
    c, piv, rank, _ = _lapack().dpstrf(
        t, tol=tol.floor(float(np.max(np.diag(t))), m), lower=1, overwrite_a=1)
    # T[piv][:, piv] = F F^T, F = c[:, :rank] lower; with F_11 its leading
    # block, the pivot rows whitened by F_11 give the g-inverse form
    whitened = _solve_lower(c[:rank, :rank], xy[piv[:rank] - 1])
    return "dense", whitened.T, balance


def _weighted_solves(sys: StackedSystem, obs: np.ndarray, ab: np.ndarray,
                     branch: str) -> WeightedRuns:
    """``weighted_mdm``'s solve of each run: run r's squared residues
    obs[r], its weight band ab[r].  Squared residues that are not finite
    raise ``ordinary_estimates``' DataError, and then bands that are not
    finite MdmError, before any factorisation.

    The branch tests, factorisations and whitening are per run (LAPACK has
    no batched banded routines).  The whitened problems of the runs that
    took one branch on as many rows are then solved together, by one
    stacked equilibrated SVD and solve.  Each run's slice of that stack
    keeps the Fortran order LAPACK gave it (the stack is (runs,
    n_alpha+1, rows), transposed), so every run gets the bits of its own
    solve.
    """
    _refuse_obs(sys, obs)
    if not np.isfinite(ab).all():
        raise MdmError("weight matrix is not finite")
    k, runs = sys.n_alpha, len(obs)
    xyt = np.empty((runs, k + 1, sys.n_rows))
    xyt[:, :k] = sys.design.T
    xyt[:, k] = obs
    batches = {}
    for r in range(runs):
        name, w, balance = _whiten_run(sys, ab[r], xyt[r], branch)
        batches.setdefault((name, w.shape[1]), []).append((r, w, balance))

    out = WeightedRuns(alpha_hat=np.empty((runs, k)), cov=np.empty((runs, k, k)),
                       branch=np.empty(runs, dtype=object),
                       weight_rows=np.zeros(runs, dtype=int),
                       fit_j=np.full(runs, np.nan))
    for (name, rows), members in batches.items():
        idx = [r for r, _, _ in members]
        wt = np.stack([w for _, w, _ in members]).swapaxes(1, 2)
        a_w, b_w = wt[..., :-1], wt[..., -1]
        alpha, cov = _ls_solve(_equilibrated_svd(a_w, sys.tol)[0], b_w)
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
                            "pivoted rank %d of %d rows", rows, sys.weight_band_shape[1])
            else:
                logger.info("weighted solve: banded Cholesky of the %s weight on "
                            "%d of %d rows", name, rows, sys.n_rows)
    return out


def _weighted_estimate(sys: StackedSystem, runs: WeightedRuns) -> Estimate:
    """The Estimate of the one run of ``runs``."""
    banded = runs.branch[0] != "dense"
    rows = int(runs.weight_rows[0]) if banded else None
    return Estimate(
        alpha_hat=runs.alpha_hat[0], cov=runs.cov[0],
        method="weighted-" + runs.branch[0],
        diagnostics={"fit_j": float(runs.fit_j[0]) if banded else None,
                     "fit_dof": rows - sys.n_alpha if banded else None,
                     "weight_rows": rows},
    )


def weighted_mdm(sys: StackedSystem, p_hat: np.ndarray,
                 tol: Tolerance = DEFAULT_TOL, branch: str = "auto") -> Estimate:
    """Weighted LS solution with the eta covariance estimate as weight.

    The weighted problem is (design, obs, P) on all m rows or, with shared
    rows (``StackedSystem.reduction``, row map M), (M design, M obs,
    M P M^T) on the m kept rows: P is then singular by construction, and
    GLS on the kept rows is Rao's unified LS estimator.  ``p_hat`` is the
    problem's weight in LAPACK lower band storage, as ``assemble_p``
    returns it: shape (b+1, m), p_hat[i-c, c] == P[i, c], zeros past the
    end of each diagonal (np.ones((1, m)) is the identity).  With
    d = max diag P, P is numerically full rank when P - floor(d, m) I has
    a banded Cholesky factor (``Tolerance.floor``), which then whitens the
    problem ("full-rank", or "kept-row" on kept rows); P is indefinite, and
    IndefiniteWeight raised, when P + floor(max(d, ||design||_2^2), 1) I
    has none.  A singular P (P == 0 on noise-free data, P singular beyond
    the shared rows), or ``branch="constrained"``, takes the "dense"
    branch: Rao's estimator with a g-inverse of T = c P + design design^T
    from its dense pivoted Cholesky factor (pivot tolerance floor(max diag
    T, m)), c = ||design||_2^2 / max diag P (1 when P == 0) balancing the
    terms; the reported covariance subtracts the identity and divides by c.
    This branch alone is refused above P_DENSE_MAX_ROWS rows.  Squared
    residues that are not finite raise ``ordinary_mdm``'s DataError, with
    ``run`` 0, on every branch.  Every whitened problem is solved like the
    ordinary one.  A banded solve reports the fit statistic J = r^T P^-1 r
    of the residual r on the rows solved on, its degrees of freedom (those
    rows minus n_alpha) and those rows (``weight_rows``); the dense branch
    reports None.  ``branch`` ("full-rank" / "constrained") forces a path.
    ``Estimate.method`` is "weighted-" and the branch taken (``BRANCHES``).
    This is the one-run case of ``weighted_estimates``' solve.  rank_tol
    is that of ``sys.tol``; the ``tol`` argument is unused.
    """
    if sys.obs is None:
        raise ValueError("system carries no observations")
    if sys.rank < sys.n_alpha:
        raise RankDeficientDesign(sys.rank, sys.n_alpha)
    m = sys.weight_band_shape[1]
    ab = np.asarray(p_hat, dtype=float)
    if ab.ndim != 2 or not 1 <= ab.shape[0] <= m or ab.shape[1] != m:
        raise ValueError(f"weight must be in band storage of shape (b+1, {m}), "
                         f"got {ab.shape}")
    if np.any(ab[np.arange(m) >= m - np.arange(ab.shape[0])[:, None]]):
        raise ValueError("weight band storage has entries past the end of a diagonal")
    if branch not in ("auto", "full-rank", "constrained"):
        raise ValueError(f"unknown branch {branch!r}; choose 'auto', 'full-rank' "
                         "or 'constrained'")
    runs = _weighted_solves(sys, sys.obs[None], ab[None], branch)
    return _weighted_estimate(sys, runs)


def weighted_estimates(sys: StackedSystem, obs: np.ndarray) -> WeightedRuns:
    """``weighted_pipeline``'s estimates for each row of ``obs`` ((runs,
    n_rows) squared residues, as ``StackedSystem.residues`` gives them),
    with the design's ``structure`` and ``tol``.

    The stages run over the run axis, and each run gets the bits of its
    own pipeline: one ``ordinary_estimates`` call gives the first passes;
    Q and R are one row-vector product per run and one stacked eigh tests
    them, the runs that need it projected onto the PSD cone; one lag loop
    assembles every run's weight band (``assemble_p``); the branch tests
    and banded factorisations are per run, and one stacked equilibrated
    SVD per branch and row count solves the whitened problems
    (``weighted_mdm``).  Each run's projection is reported in
    ``projection`` and ``repaired``, not warned of.

    A design without full rank, or one whose full-row weight band
    (``band_rows`` x ``n_rows``) would exceed P_DENSE_MAX_ROWS**2 entries,
    fails every run and is raised first, with ``run`` None;
    ``ordinary_estimates``' refusals of ``obs`` come next.  A later
    stage's error, an overflowed first pass's too, is raised with the
    index of the first failing run as ``run``: a run alone raises it at
    once; a batch of two or more that fails is solved again one run at a
    time, as their one-run cases, to find it.
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
    _refuse_obs(sys, obs)
    factors = (sys.u, sys.s, sys.vt, sys.rank, sys.scale)
    try:
        alphas = _ls_solve(factors, sys._kind_sums(obs))[0]
        crosses, projection = _eta_crosses(sys.structure, alphas, sys.L, sys.tol)
        runs = _weighted_solves(sys, obs, _assemble_bands(sys, crosses), "auto")
    except _RUN_ERRORS as exc:
        if len(obs) == 1:
            exc.run = 0
            raise
        for r in range(len(obs)):
            try:
                alpha = _ls_solve(factors, sys._kind_sums(obs[r:r + 1]))[0]
                crosses, _ = _eta_crosses(sys.structure, alpha, sys.L, sys.tol)
                _weighted_solves(sys, obs[r:r + 1], _assemble_bands(sys, crosses), "auto")
            except _RUN_ERRORS as exc:
                exc.run = r
                raise exc from None
        raise
    runs.alpha_ordinary, runs.projection = alphas, projection
    return runs


def weighted_pipeline(sys: StackedSystem) -> Estimate:
    """Ordinary estimate, Gaussian eta covariances from it, weighted solve:
    the one-run case of ``weighted_estimates``.

    ``sys`` must carry observations (``build_stacked_system`` or
    ``with_data``); the first-pass estimate and the size of its PSD
    projection (``EtaCovariances.projection``) are kept in the diagnostics.
    A projected first pass warns once, at the caller's line, after the
    solve succeeds.  A design whose full-row weight band
    (``StackedSystem.band_rows`` x ``n_rows``) would exceed
    P_DENSE_MAX_ROWS**2 entries is refused unbuilt.
    """
    if sys.obs is None:
        raise ValueError("system carries no observations")
    runs = weighted_estimates(sys, sys.obs[None])
    if runs.repaired[0]:
        warnings.warn(_PROJECTED, RuntimeWarning, stacklevel=2)
    est = _weighted_estimate(sys, runs)
    est.diagnostics["alpha_ordinary"] = runs.alpha_ordinary[0]
    est.diagnostics["eta_projection"] = tuple(float(p) for p in runs.projection[0])
    return est


def identifiability_report(sys: StackedSystem,
                           tol: Tolerance = DEFAULT_TOL) -> StackedSystem:
    """``sys``, which is its own identifiability report (see StackedSystem);
    ``tol`` is unused.

    Not exported: only the perfbench traced replay calls it, and it goes
    with that replay's move to the design's fields (the API trim on
    ROADMAP.md).
    """
    return sys
