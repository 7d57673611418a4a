"""Linear time-varying state-space model, noise parametrisation, simulation.

The model is

    x[k+1] = F_k x[k] + G_k u[k] + E_k w[k]
    z[k]   = H_k x[k] + D_k v[k]          for k = 0..tau

with white zero-mean noises w ~ N(0, Q) and v ~ N(0, R).  Q and R are
parametrised as weighted sums of known symmetric structure-defining matrices,

    Q = sum_i alpha_i BQ_i,   R = sum_i alpha_i BR_i,

so identification estimates the weight vector alpha.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import getitem

import numpy as np

from .errors import NotPositiveSemidefinite, ValidationError
from .linalg import block_diag, kron, vec

__all__ = [
    "MatrixSequence",
    "LtvModel",
    "NoiseStructure",
    "InitialCondition",
    "Trajectory",
    "MeasurementData",
    "ValidationReport",
    "assemble_qr",
    "defining_replication",
    "validate",
    "simulate",
    "psd_factor",
]

KNOWN_INPUT = "known-input"
UNKNOWN_INPUT = "unknown-input"
NO_INPUT = "no-input"


class MatrixSequence:
    """A per-step matrix sequence, stored either constant or as tuple over k.

    Constant matrices are broadcast over all time steps; a full sequence must
    have one matrix per k = 0..tau.
    """

    __slots__ = ("_const", "_seq", "_shapes", "_stack")

    def __init__(self, value, tau: int | None = None):
        # derived from the matrices on first use
        self._shapes = self._stack = None
        if isinstance(value, MatrixSequence):
            self._const = value._const
            self._seq = value._seq
            return
        if isinstance(value, np.ndarray) and value.ndim == 2:
            self._const = np.asarray(value, dtype=float)
            self._seq = None
        elif isinstance(value, (list, tuple)):
            first = np.asarray(value[0], dtype=float)
            if first.ndim == 2:
                self._const = None
                self._seq = tuple(np.asarray(m, dtype=float) for m in value)
                if tau is not None and len(self._seq) != tau + 1:
                    raise ValidationError(
                        [f"matrix sequence length {len(self._seq)} != tau+1 = {tau + 1}"]
                    )
            else:
                self._const = np.asarray(value, dtype=float)
                self._seq = None
                if self._const.ndim != 2:
                    raise ValidationError(["matrices must be 2-D"])
        else:
            arr = np.asarray(value, dtype=float)
            if arr.ndim != 2:
                raise ValidationError(["matrices must be 2-D arrays or sequences of them"])
            self._const = arr
            self._seq = None

    @property
    def is_constant(self) -> bool:
        return self._seq is None

    def __getitem__(self, k: int) -> np.ndarray:
        if self._seq is None:
            return self._const
        return self._seq[k]

    def __len__(self) -> int:
        return 1 if self._seq is None else len(self._seq)

    @property
    def shapes(self) -> np.ndarray:
        """(len, 2) int array: the shape of each stored matrix ((-1, -1)
        for an entry that is not 2-D)."""
        if self._shapes is None:
            mats = (self._const,) if self._seq is None else self._seq
            self._shapes = np.array([m.shape if m.ndim == 2 else (-1, -1)
                                     for m in mats], dtype=int)
        return self._shapes

    def take(self, ks) -> np.ndarray:
        """The matrices at time indices ``ks``, stacked on a leading axis.

        They must share one shape.  A constant sequence gives a view of its
        matrix (callers must not write to it); a sequence of one shape
        throughout is stacked once and indexed.
        """
        ks = np.asarray(ks, dtype=int)
        if self._seq is None:
            if ks.shape == (1,):
                return self._const[None]
            return np.broadcast_to(self._const, ks.shape + self._const.shape)
        if self._stack is None and (self.shapes == self.shapes[0]).all():
            self._stack = np.stack(self._seq)
        if self._stack is not None:
            return self._stack[ks]
        return np.stack([self._seq[k] for k in ks.tolist()])

    def all_finite(self) -> bool:
        mats = (self._const,) if self._seq is None else self._seq
        return bool(np.isfinite(np.concatenate(mats, axis=None)).all())


@dataclass(frozen=True)
class LtvModel:
    """Known matrix sequences and dimensions of the state-space model."""

    n_x: int
    n_w: int
    n_v: int
    tau: int
    F: MatrixSequence
    G: MatrixSequence
    E: MatrixSequence
    H: MatrixSequence
    D: MatrixSequence

    @classmethod
    def create(cls, *, n_x, n_w, n_v, tau, F, G=None, E, H, D) -> "LtvModel":
        """Build a model, coercing each matrix argument to a MatrixSequence.

        ``G=None`` declares a model without inputs (zero-width input matrix).
        """
        if G is None:
            G = np.zeros((n_x, 0))
        return cls(
            n_x=int(n_x), n_w=int(n_w), n_v=int(n_v), tau=int(tau),
            F=MatrixSequence(F, tau), G=MatrixSequence(G, tau),
            E=MatrixSequence(E, tau), H=MatrixSequence(H, tau),
            D=MatrixSequence(D, tau),
        )

    def n_z_steps(self) -> np.ndarray:
        """The measurement dimension at each k = 0..tau."""
        return np.broadcast_to(self.H.shapes[:, 0], self.tau + 1)

    def n_u_steps(self) -> np.ndarray:
        """The input dimension at each k = 0..tau."""
        return np.broadcast_to(self.G.shapes[:, 1], self.tau + 1)

    @property
    def is_lti(self) -> bool:
        return all(s.is_constant for s in (self.F, self.G, self.E, self.H, self.D))

    @property
    def has_input(self) -> bool:
        return bool(self.n_u_steps().any())


@dataclass(frozen=True)
class NoiseStructure:
    """Structure-defining matrices (BQ_i, BR_i) parametrising Q and R."""

    bq: tuple[np.ndarray, ...]
    br: tuple[np.ndarray, ...]

    @classmethod
    def from_pairs(cls, pairs) -> "NoiseStructure":
        bq = tuple(np.asarray(q, dtype=float) for q, _ in pairs)
        br = tuple(np.asarray(r, dtype=float) for _, r in pairs)
        if not bq:
            raise ValidationError(["noise structure needs at least one basis pair"])
        if len(bq) != len(br):
            raise ValidationError(["BQ and BR lists must have equal length"])
        return cls(bq=bq, br=br)

    @property
    def n_alpha(self) -> int:
        return len(self.bq)

    @property
    def n_w(self) -> int:
        return self.bq[0].shape[0]

    @property
    def n_v(self) -> int:
        return self.br[0].shape[0]


@dataclass(frozen=True)
class InitialCondition:
    """Gaussian initial state: mean vector and PSD covariance."""

    mean: np.ndarray
    cov: np.ndarray

    @classmethod
    def default(cls, n_x: int) -> "InitialCondition":
        return cls(mean=np.ones(n_x), cov=np.eye(n_x))


@dataclass
class Trajectory:
    """A simulated run; noises are retained for test oracles."""

    xs: np.ndarray                      # (tau+1, n_x)
    zs: list[np.ndarray]                # per-k measurement, dims may vary
    us: list[np.ndarray] | None         # per-k input when one was applied
    ws: np.ndarray                      # (tau, n_w)
    vs: np.ndarray                      # (tau+1, n_v)

    @property
    def tau(self) -> int:
        return len(self.zs) - 1


@dataclass
class MeasurementData:
    """Measurements (and optionally inputs) consumed by the estimator."""

    zs: list[np.ndarray]
    us: list[np.ndarray] | None = None

    @classmethod
    def from_trajectory(cls, traj: Trajectory, include_u: bool = True) -> "MeasurementData":
        us = traj.us if include_u else None
        return cls(zs=list(traj.zs), us=list(us) if us is not None else None)

    def __len__(self) -> int:
        return len(self.zs)


@dataclass
class ValidationReport:
    findings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def __bool__(self) -> bool:
        return self.ok


def assemble_qr(structure: NoiseStructure, alpha) -> tuple[np.ndarray, np.ndarray]:
    """Weighted sums Q(alpha), R(alpha) of the structure-defining matrices."""
    alpha = np.asarray(alpha, dtype=float).ravel()
    if alpha.size != structure.n_alpha:
        raise ValidationError(
            [f"alpha has length {alpha.size}, structure defines {structure.n_alpha}"]
        )
    q = np.tensordot(alpha, np.stack(structure.bq), axes=1)
    r = np.tensordot(alpha, np.stack(structure.br), axes=1)
    return q, r


def defining_replication(structure: NoiseStructure, L: int) -> np.ndarray:
    """Map from alpha to the vectorised covariance of the stacked noise.

    Column i is vec(blkdiag(I_{L-1} kron BQ_i, I_L kron BR_i)); hence
    Upsilon @ alpha == vec(blkdiag(I_{L-1} kron Q, I_L kron R)) for all alpha.
    """
    if L < 1:
        raise ValueError("window length L must be >= 1")
    lg = L - 1
    cols = []
    for bq, br in zip(structure.bq, structure.br):
        blk = block_diag(kron(np.eye(lg), bq), kron(np.eye(L), br))
        cols.append(vec(blk))
    return np.column_stack(cols)


def validate(model: LtvModel, structure: NoiseStructure) -> ValidationReport:
    """Check dimension consistency, finiteness, and basis symmetry."""
    findings: list[str] = []
    h_rows = model.H.shapes[:, 0]
    for name, seq, expected_rows, expected_cols in (
        ("F", model.F, model.n_x, model.n_x),
        ("G", model.G, model.n_x, model.G.shapes[:, 1]),
        ("E", model.E, model.n_x, model.n_w),
        ("H", model.H, h_rows, model.n_x),
        ("D", model.D, h_rows, model.n_v),
    ):
        if not seq.is_constant and len(seq) != model.tau + 1:
            findings.append(f"{name} sequence has {len(seq)} entries, expected tau+1")
            continue
        n = len(seq)
        # a constant H stands for every k; a sequence is checked at k < n
        expected = np.column_stack([
            np.broadcast_to(e if np.size(e) == 1 else e[:n], n)
            for e in (expected_rows, expected_cols)
        ])
        bad = set(np.flatnonzero((seq.shapes != expected).any(axis=1)).tolist())
        if not seq.all_finite():
            bad.update(k for k in range(n) if not np.all(np.isfinite(seq[k])))
        for k in sorted(bad):
            m = seq[k]
            shape = tuple(int(d) for d in expected[k])
            if m.shape != shape:
                findings.append(f"{name}_{k} has shape {m.shape}, expected {shape}")
            if not np.all(np.isfinite(m)):
                findings.append(f"{name}_{k} contains non-finite entries")
    for i, (bq, br) in enumerate(zip(structure.bq, structure.br), start=1):
        for tag, b, n in (("BQ", bq, structure.n_w), ("BR", br, structure.n_v)):
            if b.shape != (n, n):
                findings.append(f"{tag}^({i}) has shape {b.shape}, expected ({n}, {n})")
            elif not np.array_equal(b, b.T):
                findings.append(f"{tag}^({i}) is not symmetric")
            if not np.all(np.isfinite(b)):
                findings.append(f"{tag}^({i}) contains non-finite entries")
    if structure.n_w != model.n_w:
        findings.append("structure BQ dimension does not match model n_w")
    if structure.n_v != model.n_v:
        findings.append("structure BR dimension does not match model n_v")
    return ValidationReport(findings)


def psd_factor(m: np.ndarray, zero_tol: float = 1e-8) -> np.ndarray:
    """Factor S with S @ S.T == m for symmetric PSD m.

    Uses Cholesky when positive definite; falls back to an eigendecomposition
    for exactly singular PSD matrices (for example the all-zero covariance).
    Indefinite input raises instead of being silently repaired.
    """
    m = np.asarray(m, dtype=float)
    m = (m + m.T) / 2.0
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        pass
    lam, v = np.linalg.eigh(m)
    scale = max(1.0, float(np.max(np.abs(lam))) if lam.size else 1.0)
    if lam.size and lam[0] < -zero_tol * scale:
        raise NotPositiveSemidefinite(
            f"matrix has negative eigenvalue {lam[0]:.3e}"
        )
    return v * np.sqrt(np.clip(lam, 0.0, None))


def _shape_groups(seq: MatrixSequence, n: int):
    """(rows, cols, steps) for each matrix shape of ``seq`` at steps 0..n-1."""
    shapes = np.broadcast_to(seq.shapes[:n], (n, 2))
    key = shapes[:, 0] * (int(shapes[:, 1].max(initial=0)) + 1) + shapes[:, 1]
    groups = [np.flatnonzero(key == v) for v in np.unique(key).tolist()]
    return [(*shapes[ks[0]].tolist(), ks) for ks in groups]


def _step_products(seq: MatrixSequence, vecs: np.ndarray, n: int,
                   fill: float = 0.0) -> np.ndarray:
    """Row k < n holds seq[k] @ vecs[k, :cols] in its first seq[k].shape[0]
    entries; the rest of the row, and every row whose matrix has no
    columns, is ``fill``.

    One stacked matmul per matrix shape.  On C-contiguous stacks it takes
    the same kernel as the per-step product, so the two agree bitwise.
    """
    out = np.full((n, int(seq.shapes[:, 0].max())), fill)
    for rows, cols, ks in _shape_groups(seq, n):
        if cols:
            out[ks, :rows] = np.matmul(seq.take(ks), vecs[ks, :cols, None])[:, :, 0]
    return out


def _input_steps(input_signal, n_u: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The first n_u.size steps of ``input_signal`` as a list of vectors and
    as an array whose row k holds step k in its first n_u[k] entries
    (zero-padded).  Raises ValidationError naming the first step that is
    missing, has a length other than n_u[k] or is not finite.
    """
    n = n_u.size
    if isinstance(input_signal, np.ndarray):
        if input_signal.ndim not in (1, 2):
            raise ValidationError(["input_signal must be a 1-D or 2-D array, got "
                                   f"{input_signal.ndim}-D"])
        padded = np.asarray(input_signal[:n], dtype=float)
        if padded.ndim == 1:
            padded = padded[:, None]
        lengths = np.full(len(padded), padded.shape[1])
        steps = list(padded)
    else:
        steps = list(input_signal[:n])
        lengths = np.fromiter(map(np.size, steps), dtype=int, count=len(steps))
    if lengths.size < n:
        raise ValidationError([f"input_signal has {lengths.size} steps, the model needs "
                               f"tau+1 = {n}; step k={lengths.size} is missing"])
    bad = np.flatnonzero(lengths != n_u)
    if bad.size:
        k = int(bad[0])
        raise ValidationError([f"input_signal step k={k} has length {lengths[k]}, "
                               f"model expects n_u = {n_u[k]}"])
    if not isinstance(input_signal, np.ndarray):
        flat = np.concatenate(steps, axis=None, dtype=float)
        steps = np.split(flat, np.cumsum(n_u)[:-1])
        padded = np.zeros((n, int(n_u.max(initial=0))))
        padded[np.arange(padded.shape[1]) < n_u[:, None]] = flat
    finite = np.isfinite(padded).all(axis=1)
    if not finite.all():
        raise ValidationError([f"input_signal step k={int(np.argmin(finite))} "
                               "is not finite"])
    return steps, padded


def simulate(model: LtvModel, structure: NoiseStructure, alpha_true,
             init: InitialCondition | None = None, input_signal=None,
             seed: int = 0) -> Trajectory:
    """Draw one trajectory of the model under Q(alpha_true), R(alpha_true).

    All randomness comes from ``seed``; the draw order (initial state first,
    then one row of measurement/state noise per step) is fixed so that runs
    with different initial conditions or inputs share the same noises, and a
    longer horizon extends a shorter one without reshuffling.

    ``input_signal`` gives the input of steps k = 0..tau, one per row of a
    2-D array, one scalar per entry of a 1-D array, or one vector per entry
    of any other sequence (whose lengths may then change with k); steps
    beyond tau are ignored.  E w, G u, H x and D v are formed for all steps
    at once, one stacked product per matrix shape; only the state recursion
    runs step by step, adding its terms in the order F x + E w + G u.
    """
    if init is None:
        init = InitialCondition.default(model.n_x)
    q, r = assemble_qr(structure, alpha_true)
    s_q = psd_factor(q)
    s_r = psd_factor(r)
    s_x = psd_factor(np.asarray(init.cov, dtype=float))

    tau = model.tau
    rng = np.random.default_rng(seed)
    x0 = np.asarray(init.mean, dtype=float) + s_x @ rng.standard_normal(model.n_x)
    noise = rng.standard_normal((tau + 1, model.n_v + model.n_w))
    vs = noise[:, : model.n_v] @ s_r.T
    ws = noise[: tau, model.n_v:] @ s_q.T

    us: list[np.ndarray] | None = None
    ew = _step_products(model.E, ws, tau)
    if input_signal is not None:
        us, u = _input_steps(input_signal, model.n_u_steps())
        # -0.0 is the exact identity of addition: a step without inputs
        # adds nothing, as if skipped
        gu = _step_products(model.G, u, tau, fill=-0.0)

    xs = np.empty((tau + 1, model.n_x))
    xs[0] = x = x0
    for k, f in enumerate(model.F.take(np.arange(tau))):
        x = f @ x + ew[k]
        if us is not None:
            x += gu[k]
        xs[k + 1] = x
    zm = _step_products(model.H, xs, tau + 1) + _step_products(model.D, vs, tau + 1)
    # z_k is the first n_z[k] entries of row k, a view
    zs = list(map(getitem, zm, map(slice, model.n_z_steps().tolist())))
    return Trajectory(xs=xs, zs=zs, us=us, ws=ws, vs=vs)
