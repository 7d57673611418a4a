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

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import DataError, NotPositiveSemidefinite, ValidationError
from .linalg import block_diag, groups, indefinite

__all__ = [
    "MatrixSequence",
    "LtvModel",
    "NoiseStructure",
    "InitialCondition",
    "Trajectory",
    "SimulatedRuns",
    "MeasurementData",
    "ValidationReport",
    "assemble_qr",
    "defining_replication",
    "validate",
    "window_noise_covariance",
    "simulate",
    "simulate_runs",
    "psd_factor",
]

KNOWN_INPUT = "known-input"
UNKNOWN_INPUT = "unknown-input"


class MatrixSequence:
    """The matrices of a per-step quantity, k = 0..tau, converted and stored
    once.

    A 2-D array (or nested list) is one matrix for every k.  A 3-D array,
    or a list or tuple of matrices, is one matrix per step and must have
    tau+1 of them.  Matrices of one shape are stored as one (steps, rows,
    cols) array; only matrices whose shape changes with k are kept as a
    tuple.  ``shapes`` is the (len, 2) int array of the stored matrices'
    shapes.
    """

    __slots__ = ("_mats", "shapes")

    def __init__(self, value, tau: int | None = None):
        if isinstance(value, MatrixSequence):
            self._mats, self.shapes = value._mats, value.shapes
            return
        try:
            mats = np.asarray(value, dtype=float)
        except ValueError:
            # matrices whose shape changes with k
            mats = tuple(np.asarray(m, dtype=float) for m in value)
            if any(m.ndim != 2 for m in mats):
                raise ValidationError(["matrices must be 2-D"]) from None
            self.shapes = np.array([m.shape for m in mats], dtype=int)
        else:
            if mats.ndim not in (2, 3):
                raise ValidationError(["matrices must be 2-D arrays or sequences of them"])
            self.shapes = np.tile(mats.shape[-2:], (len(mats) if mats.ndim == 3 else 1, 1))
        self._mats = mats
        if tau is not None and not self.is_constant and len(mats) != tau + 1:
            raise ValidationError([f"matrix sequence length {len(mats)} != tau+1 = {tau + 1}"])

    @property
    def is_constant(self) -> bool:
        return isinstance(self._mats, np.ndarray) and self._mats.ndim == 2

    def __getitem__(self, k: int) -> np.ndarray:
        return self._mats if self.is_constant else self._mats[k]

    def __len__(self) -> int:
        return len(self.shapes)

    def take(self, ks) -> np.ndarray:
        """The matrices at time indices ``ks``, stacked on a leading axis.

        They must share one shape.  A constant sequence gives a view of its
        matrix (callers must not write to it).
        """
        ks = np.asarray(ks, dtype=int)
        if self.is_constant:
            if ks.shape == (1,):
                return self._mats[None]
            return np.broadcast_to(self._mats, ks.shape + self._mats.shape)
        if isinstance(self._mats, np.ndarray):
            return self._mats[ks]
        return np.stack([self._mats[k] for k in ks.tolist()])

    def all_finite(self) -> bool:
        return bool(np.isfinite(np.concatenate(self._mats, axis=None)
                                if isinstance(self._mats, tuple) else self._mats).all())


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
        pairs = list(pairs)
        if not pairs:
            raise ValidationError(["noise structure needs at least one basis pair"])
        return cls(bq=tuple(np.asarray(q, dtype=float) for q, _ in pairs),
                   br=tuple(np.asarray(r, dtype=float) for _, r in pairs))

    @property
    def n_alpha(self) -> int:
        return len(self.bq)

    @property
    def n_w(self) -> int:
        return self.bq[0].shape[0]

    @property
    def n_v(self) -> int:
        return self.br[0].shape[0]

    def covariances(self, alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Q(alpha), R(alpha) of each row of the (runs, n_alpha) ``alphas``,
        as (runs, n_w, n_w) and (runs, n_v, n_v) stacks.

        Run r's sums are the row-vector product alpha_r @ [vec BQ_1; ...],
        one np.matmul over the runs, so each has the bits it has alone.
        """
        alphas = np.asarray(alphas, dtype=float)
        if alphas.ndim != 2 or alphas.shape[1] != self.n_alpha:
            raise ValidationError([f"alpha has length {alphas.shape[-1]}, "
                                   f"structure defines {self.n_alpha}"])
        runs = alphas.shape[0]
        return tuple(np.matmul(alphas[:, None, :], np.stack(b).reshape(self.n_alpha, -1))
                     .reshape((runs,) + b[0].shape) for b in (self.bq, self.br))


@dataclass(frozen=True)
class InitialCondition:
    """Gaussian initial state: mean vector and PSD covariance."""

    mean: np.ndarray
    cov: np.ndarray

    @classmethod
    def default(cls, n_x: int) -> "InitialCondition":
        return cls(mean=np.ones(n_x), cov=np.eye(n_x))


def _flatten(records) -> tuple[np.ndarray, np.ndarray]:
    """Per-record vectors as (their entries end to end, their lengths)."""
    lengths = np.fromiter(map(np.size, records), dtype=int, count=len(records))
    # the trailing [] makes no records an empty array
    return np.concatenate([*records, []], axis=None, dtype=float), lengths


def _record_store(key: str, values, lengths) -> tuple[np.ndarray, np.ndarray]:
    values, lengths = np.asarray(values, dtype=float), np.asarray(lengths)
    if (values.ndim != 1 or lengths.ndim != 1 or lengths.dtype.kind not in "iu"
            or (lengths < 0).any() or lengths.sum() != values.size):
        raise DataError(f"'{key}' must be 1-D and 'n_{key}' its record lengths: "
                        f"non-negative integers summing to {values.size}")
    return values, lengths


class MeasurementData:
    """Measurements, and optionally inputs, as the estimator reads them:
    ``z`` holds the records z_0, z_1, ... end to end (1-D float) and ``n_z``
    their lengths, which may change with k; ``u`` and ``n_u`` hold the
    inputs so, or are None.  Lengths that are not 1-D, non-negative integers
    summing to the records' size raise DataError.  ``zs`` and ``us`` are
    per-record views of the one store."""

    __slots__ = ("z", "n_z", "u", "n_u")

    def __init__(self, z, n_z, u=None, n_u=None):
        self.z, self.n_z = _record_store("z", z, n_z)
        self.u, self.n_u = (None, None) if u is None else _record_store("u", u, n_u)

    @classmethod
    def from_records(cls, zs, us=None) -> "MeasurementData":
        """The records of the per-record vectors ``zs`` (and ``us``)."""
        return cls(*_flatten(zs), *(() if us is None else _flatten(us)))

    @classmethod
    def from_trajectory(cls, traj: "Trajectory") -> "MeasurementData":
        """The records of ``traj``, its inputs too, not copied."""
        return cls(traj.z, traj.n_z, traj.u, traj.n_u)

    @property
    def zs(self) -> list[np.ndarray]:
        return np.split(self.z, np.cumsum(self.n_z))[:-1]

    @property
    def us(self) -> list[np.ndarray] | None:
        return None if self.u is None else np.split(self.u, np.cumsum(self.n_u))[:-1]

    def __len__(self) -> int:
        return self.n_z.size


class Trajectory(MeasurementData):
    """A simulated run: its records, and its states xs (tau+1, n_x) and
    noises ws (tau, n_w) and vs (tau+1, n_v), kept for test oracles."""

    __slots__ = ("xs", "ws", "vs")

    def __init__(self, z, n_z, u=None, n_u=None, *, xs, ws, vs):
        super().__init__(z, n_z, u, n_u)
        self.xs, self.ws, self.vs = xs, ws, vs


@dataclass
class ValidationReport:
    findings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def __bool__(self) -> bool:
        return self.ok


def assemble_qr(structure: NoiseStructure, alpha) -> tuple[np.ndarray, np.ndarray]:
    """Weighted sums Q(alpha), R(alpha) of the structure-defining matrices:
    the one-run case of ``NoiseStructure.covariances``."""
    q, r = structure.covariances(np.asarray(alpha, dtype=float).reshape(1, -1))
    return q[0], r[0]


def window_noise_covariance(q, r, L: int, j: int = 0) -> np.ndarray:
    """Lag-j cross covariance E[eps_k eps_{k+j}^T] = blkdiag(S_j kron q,
    S_j kron r) of a length-L window's stacked noise eps_k = [w_k..w_{k+L-2};
    v_k..v_{k+L-1}], S_j = np.eye(copies, k=-j), for each q of the stack
    ``q`` (m, n_w, n_w) and r of ``r`` (m, n_v, n_v): (m, n_eps, n_eps).
    j = 0 is the window's own covariance.  Each kron is one broadcast
    product, the products np.kron forms (so its -0.0 entries too).
    """
    if L < 1:
        raise ValueError("window length L must be >= 1")
    if not 0 <= j < L:
        raise ValueError(f"lag j={j} is outside 0..{L - 1}")
    blocks = []
    for copies, stack in ((L - 1, q), (L, r)):
        count, n, _ = np.shape(stack)
        shift = np.eye(copies, k=-j)[None, :, None, :, None]
        blocks.append((shift * np.asarray(stack, dtype=float)[:, None, :, None, :])
                      .reshape(count, copies * n, copies * n))
    return block_diag(*blocks)


def defining_replication(structure: NoiseStructure, L: int) -> np.ndarray:
    """Map from alpha to the vectorised covariance of the stacked noise.

    Column i is vec C_0 of ``window_noise_covariance`` at (BQ_i, BR_i),
    vec(blkdiag(I_{L-1} kron BQ_i, I_L kron BR_i)); hence Upsilon @ alpha
    == vec(blkdiag(I_{L-1} kron Q, I_L kron R)) for all alpha.
    """
    c0 = window_noise_covariance(np.stack(structure.bq), np.stack(structure.br), L)
    # [col, row, i] = c0[i, row, col], so each column is vec(c0[i])
    return np.ascontiguousarray(c0.transpose(2, 1, 0).reshape(-1, structure.n_alpha))


def _shape_findings(model: LtvModel, structure: NoiseStructure) -> list[str]:
    """``validate``'s dimension checks alone: sequence lengths, the shape of
    every model matrix and of every basis matrix, and the noise dimensions
    the structure and the model share.  Reads the stored shapes only."""
    findings: list[str] = []
    # D's rows follow H's; an H sequence of the wrong length gives none
    h_ok = model.H.is_constant or len(model.H) == model.tau + 1
    h_rows = model.H.shapes[:, 0] if h_ok else model.D.shapes[:, 0]
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
        rows, cols = (e[:n] if isinstance(e, np.ndarray) else e
                      for e in (expected_rows, expected_cols))
        shapes = seq.shapes
        for k in np.flatnonzero((shapes[:, 0] != rows) | (shapes[:, 1] != cols)).tolist():
            expected = tuple(int(np.broadcast_to(e, n)[k]) for e in (rows, cols))
            findings.append(f"{name}_{k} has shape {seq[k].shape}, expected {expected}")
    n_w, n_v = structure.n_w, structure.n_v
    for i, (bq, br) in enumerate(zip(structure.bq, structure.br), start=1):
        for tag, b, n in (("BQ", bq, n_w), ("BR", br, n_v)):
            if b.shape != (n, n):
                findings.append(f"{tag}^({i}) has shape {b.shape}, expected ({n}, {n})")
    if n_w != model.n_w:
        findings.append("structure BQ dimension does not match model n_w")
    if n_v != model.n_v:
        findings.append("structure BR dimension does not match model n_v")
    return findings


def validate(model: LtvModel, structure: NoiseStructure) -> ValidationReport:
    """Check dimension consistency (``_shape_findings``), finiteness, and
    basis symmetry."""
    findings = _shape_findings(model, structure)
    for name in "FGEHD":
        seq = getattr(model, name)
        if not seq.all_finite():
            findings.extend(f"{name}_{k} contains non-finite entries"
                            for k in range(len(seq)) if not np.all(np.isfinite(seq[k])))
    for i, (bq, br) in enumerate(zip(structure.bq, structure.br), start=1):
        for tag, b, n in (("BQ", bq, structure.n_w), ("BR", br, structure.n_v)):
            if b.shape == (n, n) and not np.array_equal(b, b.T, equal_nan=True):
                findings.append(f"{tag}^({i}) is not symmetric")
            if not np.all(np.isfinite(b)):
                findings.append(f"{tag}^({i}) contains non-finite entries")
    return ValidationReport(findings)


def psd_factor(m: np.ndarray) -> np.ndarray:
    """Factor S with S @ S.T == m for symmetric PSD m.

    Uses Cholesky when positive definite; falls back to an eigendecomposition
    for exactly singular PSD matrices (for example the all-zero covariance).
    Input that is indefinite by the rank rule (``linalg.indefinite`` with
    the default tolerance, scale its largest |eigenvalue|) raises instead
    of being silently repaired.
    """
    m = np.asarray(m, dtype=float)
    m = (m + m.T) / 2.0
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        pass
    lam, v = np.linalg.eigh(m)
    if lam.size and indefinite(lam[0], lam.size, np.max(np.abs(lam))):
        raise NotPositiveSemidefinite(
            f"matrix has negative eigenvalue {lam[0]:.3e}"
        )
    return v * np.sqrt(np.clip(lam, 0.0, None))


def _step_products(seq: MatrixSequence, vecs: np.ndarray, n: int,
                   fill: float = 0.0) -> np.ndarray:
    """``out[r, k]`` (k < n) holds seq[k] @ vecs[r, k, :cols] in its first
    seq[k].shape[0] entries; the rest of the row, and every row whose
    matrix has no columns, is ``fill``.  ``vecs`` is (runs, steps, width).

    One stacked matmul per matrix shape over the (runs, steps) axes.  On
    C-contiguous stacks it takes the same kernel as the per-step product,
    so the two agree bitwise.
    """
    out = np.full((vecs.shape[0], n, int(seq.shapes[:, 0].max())), fill)
    shapes = np.broadcast_to(seq.shapes[:n], (n, 2))
    for ks in groups(shapes):
        rows, cols = shapes[ks[0]].tolist()
        if cols:
            out[:, ks, :rows] = np.matmul(seq.take(ks), vecs[:, ks, :cols, None])[..., 0]
    return out


def _input_steps(input_signal, n_u: np.ndarray) -> np.ndarray:
    """The first n_u.size steps of ``input_signal`` as an array whose row k
    holds step k in its first n_u[k] entries (zero-padded).  Raises
    ValidationError naming the first step that is missing, has a length
    other than n_u[k] or is not finite.
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
        padded = np.zeros((n, int(n_u.max(initial=0))))
        padded[np.arange(padded.shape[1]) < n_u[:, None]] = np.concatenate(
            steps, axis=None, dtype=float)
    finite = np.isfinite(padded).all(axis=1)
    if not finite.all():
        raise ValidationError([f"input_signal step k={int(np.argmin(finite))} "
                               "is not finite"])
    return padded


def _initial_state(init: InitialCondition, n_x: int) -> tuple[np.ndarray, np.ndarray]:
    """``init``'s mean and covariance as float arrays; raises ValidationError
    naming each one whose shape is not (n_x,) / (n_x, n_x) or that holds a
    non-finite entry."""
    mean = np.asarray(init.mean, dtype=float)
    cov = np.asarray(init.cov, dtype=float)
    findings = []
    for name, a, shape in (("init.mean", mean, (n_x,)), ("init.cov", cov, (n_x, n_x))):
        if a.shape != shape:
            findings.append(f"{name} has shape {a.shape}, expected {shape}")
        elif not np.isfinite(a).all():
            findings.append(f"{name} contains non-finite entries")
    if findings:
        raise ValidationError(findings)
    return mean, cov


def _records(a: np.ndarray, n: np.ndarray) -> np.ndarray:
    """a[..., k, :n[k]] for each step k of the zero-padded (..., steps,
    width) ``a``, end to end on the last axis (a view when n does not
    change with k)."""
    if (n == a.shape[-1]).all():
        return a.reshape(a.shape[:-2] + (-1,))
    return a[..., np.arange(a.shape[-1]) < n[:, None]]


@dataclass
class SimulatedRuns:
    """Runs ``simulate_runs`` drew together, as arrays with a leading run
    axis, and the input they share.  The records are as the estimator
    reads them (``StackedSystem.residues``): each run's z_0, z_1, ... end
    to end, and the input's u_0, u_1, ... so, with their lengths.

    Iterating gives each run's ``Trajectory``, built only when it is
    reached.
    """

    xs: np.ndarray                      # (runs, tau+1, n_x), a view of step-major states
    z: np.ndarray                       # (runs, sum of n_z), the records end to end
    ws: np.ndarray                      # (runs, tau, n_w)
    vs: np.ndarray                      # (runs, tau+1, n_v)
    n_z: np.ndarray                     # (tau+1,) measurement dimension per step
    u: np.ndarray | None                # (1, sum of n_u); None without an input
    n_u: np.ndarray                     # (tau+1,) input dimension per step

    def __len__(self) -> int:
        return self.xs.shape[0]

    def __iter__(self) -> Iterator[Trajectory]:
        return map(self.trajectory, range(len(self)))

    def trajectory(self, i: int) -> Trajectory:
        """Run ``i`` as a Trajectory of views of these arrays."""
        return Trajectory(self.z[i], self.n_z,
                          *(() if self.u is None else (self.u[0], self.n_u)),
                          xs=self.xs[i], ws=self.ws[i], vs=self.vs[i])


def simulate_runs(model: LtvModel, structure: NoiseStructure, alpha_true,
                  init: InitialCondition | None = None, input_signal=None,
                  seeds=(0,)) -> SimulatedRuns:
    """One trajectory per entry of ``seeds``, each exactly ``simulate``'s
    for that seed, simulated together.

    The checks, the noise factors and the input are made once for all
    runs; only the generator is per run, and one call of it draws the
    initial state's and then the noises' normals, ``simulate``'s order,
    into the run's row of one array (its normals are one stream, so one
    call draws what two would).  The factor products (S_x x0, S_r v, S_q w)
    and E w, G u, H x and D v are stacked products over the runs (and
    steps), whose slices have the strides, and so the bits, of the one-run
    products.  The state recursion steps all runs at once, in place, in a
    contiguous (tau+1, runs, n_x, 1) buffer: X_{k+1} = np.matmul(F_k, X_k)
    + E w, a per-matrix product that per run gives the bits of F_k @ x
    (X @ F_k.T would not), then += G u, the roundings of F x + E w + G u.
    Returns the runs' arrays (the states a view of that buffer), which
    iterate as the runs' trajectories.
    """
    findings = _shape_findings(model, structure)
    if findings:
        raise ValidationError(findings)
    if init is None:
        init = InitialCondition.default(model.n_x)
    mean, cov = _initial_state(init, model.n_x)
    if not np.isfinite(np.asarray(alpha_true, dtype=float)).all():
        raise ValidationError(["alpha_true contains non-finite entries"])
    q, r = assemble_qr(structure, alpha_true)
    s_q = psd_factor(q)
    s_r = psd_factor(r)
    s_x = psd_factor(cov)
    n_u = model.n_u_steps()
    u = None if input_signal is None else _input_steps(input_signal, n_u)

    tau, n_x, n_v = model.tau, model.n_x, model.n_v
    seeds = list(seeds)
    normals = np.empty((len(seeds), n_x + (tau + 1) * (n_v + model.n_w)))
    for row, seed in zip(normals, seeds):
        np.random.default_rng(seed).standard_normal(out=row)
    noise = normals[:, n_x:].reshape(len(seeds), tau + 1, n_v + model.n_w)
    vs = noise[..., :n_v] @ s_r.T
    ws = noise[:, :tau, n_v:] @ s_q.T
    x0 = mean + np.matmul(s_x, normals[:, :n_x, None])[..., 0]
    del normals, noise

    ew = _step_products(model.E, ws, tau)
    gu = repeat(None)
    if u is not None:
        # -0.0 is the exact identity of addition: a step without inputs
        # adds nothing, as if skipped
        gu = _step_products(model.G, u[None], tau, fill=-0.0)[0, :, :, None]
    # step k of the state is the contiguous (runs, n_x, 1) block xk[k],
    # each step written in place
    xk = np.empty((tau + 1, len(seeds), n_x, 1))
    xk[0, ..., 0] = x0
    for f, e, g, x, x_next in zip(model.F.take(np.arange(tau)),
                                  ew.transpose(1, 0, 2)[..., None], gu, xk, xk[1:]):
        np.add(np.matmul(f, x), e, out=x_next)
        if g is not None:
            x_next += g
    del ew
    xs = xk[..., 0].transpose(1, 0, 2)
    zm = _step_products(model.H, xs, tau + 1)
    zm += _step_products(model.D, vs, tau + 1)
    n_z = model.n_z_steps()
    return SimulatedRuns(xs=xs, z=_records(zm, n_z), ws=ws, vs=vs, n_z=n_z,
                         u=None if u is None else _records(u, n_u)[None], n_u=n_u)


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
    runs step by step, adding its terms in the order F x + E w + G u.  This
    is ``simulate_runs`` for the one seed.

    A model or structure whose shapes do not fit raises ValidationError with
    ``validate``'s findings (their finiteness is left to ``validate``); so
    does an ``init`` of the wrong shape, and a non-finite ``alpha_true`` or
    ``init``.
    """
    return simulate_runs(model, structure, alpha_true, init, input_signal,
                         seeds=(seed,)).trajectory(0)
