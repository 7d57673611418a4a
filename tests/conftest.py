import json
import math
from pathlib import Path
from sys import get_int_max_str_digits
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from mdmest import (
    DataError,
    InitialCondition,
    LtvModel,
    MeasurementData,
    NoiseStructure,
)
from mdmest.linalg import sym_pair_indices
from mdmest.residue import window_blocks


def vec(m):
    """Column-wise stacking of a matrix into a vector."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m.ravel(order="F")


def unification_matrix(n):
    """0/1 selector of the unique elements of a vectorised symmetric matrix.

    Xi has shape (n(n+1)/2, n^2); for symmetric S, Xi @ vec(S) lists each
    unique element exactly once, in the ``sym_pair_indices`` order.
    """
    if n < 1:
        raise ValueError("unification_matrix requires n >= 1")
    i_idx, j_idx = sym_pair_indices(n)
    xi = np.zeros((n * (n + 1) // 2, n * n))
    xi[np.arange(i_idx.size), j_idx * n + i_idx] = 1.0
    return xi


def replication_matrix(n):
    """0/1 right inverse of the unification matrix on symmetric vecs.

    Psi has shape (n^2, n(n+1)/2) and satisfies
    Psi @ Xi @ vec(S) == vec(S) for every symmetric S.
    """
    if n < 1:
        raise ValueError("replication_matrix requires n >= 1")
    psi = np.zeros((n * n, n * (n + 1) // 2))
    for col in range(n):
        for row in range(n):
            i, j = min(row, col), max(row, col)
            psi[col * n + row, j * (j + 1) // 2 + i] = 1.0
    return psi


def swap_permutation(n):
    """Permutation p with (x kron y)[p] == (y kron x) for length-n vectors.

    Equivalently, for the n^2 x n^2 commutation matrix K it holds
    M @ K == M[:, p] for any matrix M with n^2 columns.
    """
    a, b = np.divmod(np.arange(n * n), n)
    return b * n + a


def dense_from_band(ab):
    """The symmetric matrix whose LAPACK lower band storage is ``ab``."""
    m = ab.shape[1]
    p = np.zeros((m, m))
    for d in range(ab.shape[0]):
        p += np.diag(ab[d, :m - d], -d)
        if d:
            p += np.diag(ab[d, :m - d], d)
    return p


def eta_mean(etas):
    """r_e2 = vec(C_0), the mean of the squared stacked noise."""
    return vec(etas.crosses[0])


def eta_band(etas, j):
    """The n_eps^2 x n_eps^2 band matrix E[eta_k eta_{k+j}^T]: C_j kron C_j
    plus its pair-swapped columns (Gaussian fourth moments), zero for j >= L."""
    n = etas.n_eps
    if j >= etas.L:
        return np.zeros((n * n, n * n))
    base = np.kron(etas.crosses[j], etas.crosses[j])
    return base + base[:, swap_permutation(n)]


def noise_map(ac):
    """A window's noise map, (n_rows, n_eps^2), from its ``ac``: row t is
    ac[sel_j[t]] kron ac[sel_i[t]], the einsum ``build_design`` forms it by."""
    sel_i, sel_j = sym_pair_indices(ac.shape[0])
    return np.einsum("ta,tb->tab", ac[sel_j], ac[sel_i]).reshape(sel_i.size, -1)


def window_matrices(model, k, L):
    """O, Gamma, scriptG, scriptE and scriptD of the one window [k, k+L-1],
    as 2-D arrays: ``window_blocks(model, [k], L)[0]`` without its stack axis."""
    wb = window_blocks(model, [k], L)[0]
    return SimpleNamespace(**{name: getattr(wb, name)[0] for name in
                              ("O", "Gamma", "scriptG", "scriptE", "scriptD")})


def window_arrays(sys, k):
    """Window k's geometry, read from the stacks of ``sys``: its annihilator
    and ``gamma_g`` from the residue group that holds it, its ``ac`` from
    sys.ac[k, :n_a], its unique pairs ``sel_i``/``sel_j`` from
    sym_pair_indices(n_a) and its ``design_block`` from the design rows
    row_offsets[k]:row_offsets[k+1]."""
    g = next(g for g in sys.residue_groups if k in g.windows)
    p = int(np.flatnonzero(g.windows == k)[0])
    n_a = g.annihilator.shape[1]
    sel_i, sel_j = sym_pair_indices(n_a)
    return SimpleNamespace(
        n_a=n_a, annihilator=g.annihilator[p],
        gamma_g=None if g.gamma_g is None else g.gamma_g[p],
        ac=sys.ac[k, :n_a], sel_i=sel_i, sel_j=sel_j,
        design_block=sys.design[sys.row_offsets[k]:sys.row_offsets[k + 1]],
    )


def direct_p(sys, etas):
    """The weight P of all rows of ``sys``, dense, through the materialised
    band matrices: block (r, r+j) is noise_map(ac_r) @ eta_band(etas, j) @
    noise_map(ac_{r+j})^T for j < L, and zero beyond."""
    m = sys.n_rows
    p = np.zeros((m, m))
    offs = sys.row_offsets
    for j in range(sys.L):
        band = eta_band(etas, j)
        for r in range(sys.n_windows - j):
            blk = (noise_map(window_arrays(sys, r).ac) @ band
                   @ noise_map(window_arrays(sys, r + j).ac).T)
            p[offs[r]:offs[r + 1], offs[r + j]:offs[r + j + 1]] = blk
            if j:
                p[offs[r + j]:offs[r + j + 1], offs[r]:offs[r + 1]] = blk.T
    return p


def isserlis_p(sys, etas):
    """``direct_p`` without the band matrices, whose n_eps^2 x n_eps^2 size
    (5476^2 on the clock ensemble) rules them out: by the mixed-product
    rule, noise_map(a) band(j) noise_map(b)^T has entries
    g[s, u] g[t, v] + g[s, v] g[t, u] for rows (s, t), (u, v) of the two
    maps' pairs, g = a C_j b^T."""
    m = sys.n_rows
    p = np.zeros((m, m))
    offs = sys.row_offsets
    for j in range(sys.L):
        c = etas.crosses[j]
        for r in range(sys.n_windows - j):
            wa, wb = window_arrays(sys, r), window_arrays(sys, r + j)
            g = wa.ac @ c @ wb.ac.T
            blk = (g[wa.sel_j[:, None], wb.sel_j] * g[wa.sel_i[:, None], wb.sel_i]
                   + g[wa.sel_j[:, None], wb.sel_i] * g[wa.sel_i[:, None], wb.sel_j])
            p[offs[r]:offs[r + 1], offs[r + j]:offs[r + j + 1]] = blk
            if j:
                p[offs[r + j]:offs[r + j + 1], offs[r]:offs[r + 1]] = blk.T
    return p


def kept_rows(sys, p):
    """M P M^T for the row map M of ``sys.reduction``: ``RowReduction.apply``
    to the rows of the all-row matrix ``p``, then to the columns."""
    red, offs = sys.reduction, sys.row_offsets
    return red.apply(red.apply(p, offs).T, offs)


def rao_reference(p, sys_full):
    """Rao's unified LS estimate on all rows and its Gram inverse
    (X^T T^+ X)^{-1}, with the Moore-Penrose inverse of T = P + X X^T from a
    dense eigendecomposition; ``p`` is the dense all-row weight."""
    x, y = sys_full.design, sys_full.obs
    lam, v = np.linalg.eigh(p + x @ x.T)
    keep = lam > 1e-10 * lam[-1] * lam.size
    half = v[:, keep].T / np.sqrt(lam[keep])[:, None]
    x_w, y_w = half @ x, half @ y
    gram_inv = np.linalg.inv(x_w.T @ x_w)
    return gram_inv @ (x_w.T @ y_w), gram_inv


def reference_read_data(path) -> MeasurementData:
    """``io.read_data`` as a per-line reader: each line is decoded with
    ``json.loads`` (an integer of too many digits to convert is a DataError
    naming the line) and each value checked as it is read, so the first bad
    line raises first.  The one-pass reader must give the same data, or
    the same exception and message."""
    def numbers(record, key, line_no):
        value = record[key]
        if not isinstance(value, list) or not {int, float}.issuperset(map(type, value)):
            raise DataError(f"line {line_no + 1}: '{key}' must be a flat list of numbers")
        try:
            if all(map(math.isfinite, value)):
                return value
        except OverflowError:
            pass
        raise DataError(f"line {line_no + 1}: '{key}' is not finite")

    z, u, n_z, n_u = [], [], [], []
    with open(path) as fh:
        for line_no, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                raise
            except ValueError:      # an integer of more digits than Python converts
                raise DataError(f"line {line_no + 1}: a number has more than "
                                f"{get_int_max_str_digits()} digits") from None
            if not isinstance(record, dict) or "z" not in record:
                raise DataError(
                    f"line {line_no + 1}: expected a JSON object with a 'z' entry"
                )
            if record.get("k") != len(n_z):
                raise DataError(
                    f"line {line_no + 1}: expected record k={len(n_z)}, got {record.get('k')}"
                )
            for key, values, lengths in (("z", z, n_z), ("u", u, n_u)):
                if key in record:
                    value = numbers(record, key, line_no)
                    values.extend(value)
                    lengths.append(len(value))
    if not n_z:
        raise DataError(f"no records in {Path(path)}")
    if len(n_u) not in (0, len(n_z)):
        raise DataError("some records carry 'u' and some do not")
    return MeasurementData(np.array(z, dtype=float), np.array(n_z, dtype=int),
                           *((np.array(u, dtype=float), np.array(n_u, dtype=int))
                             if n_u else ()))


def make_ragged_ltv_model(tau=12):
    """Scalar-state LTV model whose sensor count alternates 1, 1, 2, 2, ...

    Windows of length 2 then hold 2, 3, 4 or 3 measurements, so their
    annihilators have 1, 2, 3 or 2 rows.
    """
    h, d = [], []
    for k in range(tau + 1):
        if (k // 2) % 2:
            h.append([[1.0], [0.5 + 0.1 * k]])
            d.append(np.eye(2))
        else:
            h.append([[1.0]])
            d.append([[1.0, 0.3]])
    f = [[[0.9 - 0.02 * k]] for k in range(tau + 1)]
    return LtvModel.create(n_x=1, n_w=1, n_v=2, tau=tau, F=f, G=None,
                           E=[[1.0]], H=h, D=d)


def make_ragged_ltv_structure():
    return NoiseStructure.from_pairs([
        (np.array([[1.0]]), np.zeros((2, 2))),
        (np.array([[0.0]]), np.eye(2)),
    ])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def scalar_lti_model():
    """1-D time-invariant model with an input."""
    one = np.array([[1.0]])
    return LtvModel.create(n_x=1, n_w=1, n_v=1, tau=50,
                           F=np.array([[0.9]]), G=one, E=one, H=one, D=one)


@pytest.fixture
def scalar_structure():
    one = np.array([[1.0]])
    zero = np.array([[0.0]])
    return NoiseStructure.from_pairs([(one, zero), (zero, one)])


def make_ge_equal_model(tau=60):
    """Model with G == E, so unknown-input mode loses all Q information."""
    f = np.array([[0.9, 0.1], [0.0, 0.8]])
    ge = np.array([[1.0], [0.5]])
    return LtvModel.create(n_x=2, n_w=1, n_v=2, tau=tau,
                           F=f, G=ge, E=ge, H=np.eye(2), D=np.eye(2))


def make_ge_equal_structure():
    zero2 = np.zeros((2, 2))
    return NoiseStructure.from_pairs([
        (np.array([[1.0]]), zero2),
        (np.array([[0.0]]), np.eye(2)),
    ])


def make_switching_h_model(tau=10):
    """n_x = 2 with F = E = I and H_k = [1, 0] up to k = 5, [0, 1] after.

    Every window of length 2 over records 0..5 has an annihilator (its O
    has two equal rows); window k = 5 of length 2 has O = I and none, so
    over all records the smallest feasible L is 3."""
    h = [np.array([[1.0, 0.0]]) if k <= 5 else np.array([[0.0, 1.0]])
         for k in range(tau + 1)]
    return LtvModel.create(n_x=2, n_w=2, n_v=1, tau=tau, F=np.eye(2), G=None,
                           E=np.eye(2), H=h, D=np.eye(1))


def make_switching_h_structure():
    return NoiseStructure.from_pairs([
        (np.eye(2), np.zeros((1, 1))),
        (np.zeros((2, 2)), np.eye(1)),
    ])


@pytest.fixture
def ge_equal_model():
    return make_ge_equal_model()


@pytest.fixture
def ge_equal_structure():
    return make_ge_equal_structure()


@pytest.fixture
def default_init():
    return InitialCondition.default(1)


# Property tests run a fixed, bounded set of examples so the suite is
# reproducible and stays fast; no example database is written.  The
# "bitwise" profile is the same with ten times the examples, for a deeper
# run of the bitwise guards (pytest --hypothesis-profile=bitwise; a profile
# named on the command line is loaded after this file).
settings.register_profile("tier1", derandomize=True, max_examples=60,
                          deadline=None, database=None)
settings.register_profile("bitwise", settings.get_profile("tier1"), max_examples=600)
settings.load_profile("tier1")
