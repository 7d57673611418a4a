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
    "SimulatedRuns",
    "MeasurementData",
    "ValidationReport",
    "assemble_qr",
    "defining_replication",
    "validate",
    "simulate",
    "simulate_runs",
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
    """Weighted sums Q(alpha), R(alpha) of the structure-defining matrices:
    the one-run case of ``NoiseStructure.covariances``."""
    q, r = structure.covariances(np.asarray(alpha, dtype=float).reshape(1, -1))
    return q[0], r[0]


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


def _shape_findings(model: LtvModel, structure: NoiseStructure) -> list[str]:
    """``validate``'s dimension checks alone: sequence lengths, the shape of
    every model matrix and of every basis matrix, and the noise dimensions
    the structure and the model share.  Reads the cached shapes only."""
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
            if b.shape == (n, n) and not np.array_equal(b, b.T):
                findings.append(f"{tag}^({i}) is not symmetric")
            if not np.all(np.isfinite(b)):
                findings.append(f"{tag}^({i}) contains non-finite entries")
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
    """``out[r, k]`` (k < n) holds seq[k] @ vecs[r, k, :cols] in its first
    seq[k].shape[0] entries; the rest of the row, and every row whose
    matrix has no columns, is ``fill``.  ``vecs`` is (runs, steps, width).

    One stacked matmul per matrix shape over the (runs, steps) axes.  On
    C-contiguous stacks it takes the same kernel as the per-step product,
    so the two agree bitwise.
    """
    out = np.full((vecs.shape[0], n, int(seq.shapes[:, 0].max())), fill)
    for rows, cols, ks in _shape_groups(seq, n):
        if cols:
            out[:, ks, :rows] = np.matmul(seq.take(ks), vecs[:, ks, :cols, None])[..., 0]
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


@dataclass
class SimulatedRuns:
    """Runs ``simulate_runs`` drew together, as arrays with a leading run axis.

    Iterating gives each run's ``Trajectory``, built only when it is
    reached: views of these arrays, with per-record lists.  ``z_records``
    and ``u_records`` give the records end to end, as the estimator reads
    them, without any per-record list.
    """

    xs: np.ndarray                      # (runs, tau+1, n_x)
    zs: np.ndarray                      # (runs, tau+1, max n_z), z_k in row k's first n_z[k]
    ws: np.ndarray                      # (runs, tau, n_w)
    vs: np.ndarray                      # (runs, tau+1, n_v)
    n_z: np.ndarray                     # (tau+1,) measurement dimension per step
    us: list[np.ndarray] | None         # per-k input the runs share, when one was applied
    u: np.ndarray | None                # (tau+1, max n_u), u_k in row k's first n_u[k]

    def __len__(self) -> int:
        return self.xs.shape[0]

    def __iter__(self) -> Iterator[Trajectory]:
        return map(self.trajectory, range(len(self)))

    def trajectory(self, i: int) -> Trajectory:
        """Run ``i`` as a Trajectory; z_k is a view of row k of zs[i]."""
        row = self.zs[i]
        zs = (list(row) if (self.n_z == row.shape[1]).all()
              else list(map(getitem, row, map(slice, self.n_z.tolist()))))
        return Trajectory(xs=self.xs[i], zs=zs,
                          us=None if self.us is None else list(self.us),
                          ws=self.ws[i], vs=self.vs[i])

    @property
    def z_records(self) -> np.ndarray:
        """(runs, sum of n_z): each run's z_0, z_1, ... end to end (a view
        when n_z does not change with k)."""
        if (self.n_z == self.zs.shape[2]).all():
            return self.zs.reshape(len(self), -1)
        return self.zs[:, np.arange(self.zs.shape[2]) < self.n_z[:, None]]

    @property
    def u_records(self) -> np.ndarray | None:
        """(sum of n_u,): u_0, u_1, ... end to end; None without an input."""
        if self.us is None:
            return None
        n_u = np.fromiter(map(len, self.us), dtype=int, count=len(self.us))
        return self.u[np.arange(self.u.shape[1]) < n_u[:, None]]


def simulate_runs(model: LtvModel, structure: NoiseStructure, alpha_true,
                  init: InitialCondition | None = None, input_signal=None,
                  seeds=(0,)) -> SimulatedRuns:
    """One trajectory per entry of ``seeds``, each exactly ``simulate``'s
    for that seed, simulated together.

    The checks, the noise factors and the input are made once for all
    runs.  Each run draws its own noises from its own seed; E w, G u, H x
    and D v are stacked products over the (runs, steps) axes, and the state
    recursion steps all runs at once: np.matmul(F_k, X[..., None]) on the
    (runs, n_x) state X is a per-matrix product, so per run it gives the
    bits of F_k @ x (X @ F_k.T would not).  Returns the runs' arrays, which
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
    us = u = None
    if input_signal is not None:
        us, u = _input_steps(input_signal, model.n_u_steps())

    tau, n_x, n_v = model.tau, model.n_x, model.n_v
    seeds = list(seeds)
    xs = np.empty((len(seeds), tau + 1, n_x))
    ws = np.empty((len(seeds), tau, model.n_w))
    vs = np.empty((len(seeds), tau + 1, n_v))
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        xs[i, 0] = mean + s_x @ rng.standard_normal(n_x)
        noise = rng.standard_normal((tau + 1, n_v + model.n_w))
        vs[i] = noise[:, :n_v] @ s_r.T
        ws[i] = noise[:tau, n_v:] @ s_q.T

    ew = _step_products(model.E, ws, tau)
    gu = repeat(None)
    if us is not None:
        # -0.0 is the exact identity of addition: a step without inputs
        # adds nothing, as if skipped
        gu = _step_products(model.G, u[None], tau, fill=-0.0)[0, :, :, None]
    # step k of the state is the (runs, n_x, 1) view xk[k]; each step is
    # written in place
    xk = xs.transpose(1, 0, 2)[..., None]
    for f, e, g, x, x_next in zip(model.F.take(np.arange(tau)),
                                  ew.transpose(1, 0, 2)[..., None], gu, xk, xk[1:]):
        np.add(np.matmul(f, x), e, out=x_next)
        if g is not None:
            x_next += g
    del ew
    zm = _step_products(model.H, xs, tau + 1)
    zm += _step_products(model.D, vs, tau + 1)
    return SimulatedRuns(xs=xs, zs=zm, ws=ws, vs=vs, n_z=model.n_z_steps(), us=us, u=u)


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
