"""Batched window geometry against a plain per-window reference.

``build_design`` computes every window's annihilator and regression block
in stacked arrays.  The reference below takes the same steps for one window
at a time; the two must agree bitwise, because the least-squares estimate
is not invariant to a re-mixing of a window's residue rows.
"""

import logging
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mdmest import (
    KNOWN_INPUT,
    UNKNOWN_INPUT,
    LtvModel,
    NoAnnihilator,
    NoiseStructure,
    build_design,
    defining_replication,
    preset,
)
from mdmest.linalg import DEFAULT_TOL, block_diag, svd_rank, sym_pair_indices

from conftest import window_arrays, window_matrices

pytestmark = pytest.mark.bitwise


def reference_block(model, k, L):
    """O, Gamma, scriptG, scriptE, scriptD of window k, built alone."""
    n_x, lg = model.n_x, L - 1
    h_list = [model.H[k + i] for i in range(L)]
    row_off = np.concatenate(([0], np.cumsum([h.shape[0] for h in h_list])))
    obs = np.zeros((row_off[-1], n_x))
    gamma = np.zeros((row_off[-1], lg * n_x))
    for i in range(L):
        rows = slice(row_off[i], row_off[i + 1])
        t = h_list[i].copy()
        for j in range(i - 1, -1, -1):
            gamma[rows, j * n_x:(j + 1) * n_x] = t
            t = t @ model.F[k + j]
        obs[rows, :] = t
    return SimpleNamespace(
        O=obs, Gamma=gamma,
        scriptG=block_diag(*(model.G[k + i] for i in range(lg))),
        scriptE=block_diag(*(model.E[k + i] for i in range(lg))),
        scriptD=block_diag(*(model.D[k + i] for i in range(L))),
    )


def reference_geometry(model, k, L, mode, upsilon, tol=DEFAULT_TOL):
    """Annihilator and regression block of window k, built alone."""
    block = reference_block(model, k, L)
    target = block.O
    if mode == UNKNOWN_INPUT and block.scriptG.shape[1] > 0:
        target = np.hstack([block.O, block.Gamma @ block.scriptG])
    u, _, _, rank, _ = svd_rank(target, tol, full_matrices=True)
    if rank >= target.shape[0]:
        raise NoAnnihilator(rows=target.shape[0], rank=rank, k=k)
    n = u[:, rank:].T
    gamma_g = None
    if mode == KNOWN_INPUT and block.scriptG.shape[1] > 0:
        gamma_g = block.Gamma @ block.scriptG
    ac = np.hstack([n @ block.Gamma, n]) @ block_diag(block.scriptE, block.scriptD)
    sel_i, sel_j = sym_pair_indices(n.shape[0])
    noisemap = np.einsum("ta,tb->tab", ac[sel_j], ac[sel_i]).reshape(sel_i.size, -1)
    return {"annihilator": n, "gamma_g": gamma_g, "ac": ac,
            "design_block": noisemap @ upsilon}


def bitwise_equal(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.shape == b.shape and a.tobytes() == np.ascontiguousarray(b).tobytes()


def layout(a):
    """The strides of a's axes longer than 1 (the others are never stepped)."""
    return tuple(st for st, n in zip(a.strides, a.shape) if n > 1)


def assert_geometry_matches_reference(model, structure, L, mode):
    n_windows = model.tau + 2 - L
    upsilon = defining_replication(structure, L)
    ks = [0] if model.is_lti else range(n_windows)
    try:
        refs = [reference_geometry(model, k, L, mode, upsilon) for k in ks]
    except NoAnnihilator as exc:
        with pytest.raises(NoAnnihilator) as err:
            build_design(model, structure, L, mode)
        assert (err.value.k, err.value.rows, err.value.rank) == (exc.k, exc.rows, exc.rank)
        return
    sys0 = build_design(model, structure, L, mode)
    assert sys0.n_windows == n_windows
    for k, ref in zip(ks, refs):
        w = window_arrays(sys0, k)
        assert w.n_a == ref["annihilator"].shape[0]
        for name, value in ref.items():
            assert bitwise_equal(getattr(w, name), value), (k, name)
        for name in ("O", "Gamma", "scriptG", "scriptE", "scriptD"):
            assert bitwise_equal(getattr(window_matrices(model, k, L), name),
                                 getattr(reference_block(model, k, L), name))
    if model.is_lti:
        # two kinds, window 0 and the rest, each stored once: a group
        # stack over more than one window is its kind's one matrix,
        # broadcast with stride 0
        assert np.array_equal(sys0.kinds, np.minimum(np.arange(n_windows), 1))
        assert sys0.ac.shape[0] == min(n_windows, 2)
        for g in sys0.residue_groups:
            if np.count_nonzero(sys0.kinds == sys0.kinds[g.windows[0]]) > 1:
                assert g.windows.size == n_windows - 1
                assert all(a.strides[0] == 0 for a in (g.annihilator, g.gamma_g)
                           if a is not None)
    else:
        assert np.array_equal(sys0.kinds, np.arange(n_windows))
    # the residue groups cover every window once, and their stacks hold
    # each window's own arrays at the strides of the window's own products
    covered = np.concatenate([g.windows for g in sys0.residue_groups])
    assert np.array_equal(np.sort(covered), np.arange(n_windows))
    for g in sys0.residue_groups:
        for p, k in enumerate(g.windows.tolist()):
            ref = refs[0 if model.is_lti else k]
            for name in ("annihilator", "gamma_g"):
                stacked, own = getattr(g, name), ref[name]
                if own is None:
                    assert stacked is None
                    continue
                assert layout(stacked[p]) == layout(own), (k, name)
                assert bitwise_equal(stacked[p], own), (k, name)
    blocks = [refs[0 if model.is_lti else k]["design_block"] for k in range(n_windows)]
    assert bitwise_equal(sys0.design, np.vstack(blocks))


ENTRIES = (-1.0, 0.0, 0.5, 1.0, 2.0)


@st.composite
def window_cases(draw, lti=None, longest=4):
    """A random small model, window length and input mode: LTI a quarter
    of the time, or as ``lti`` says, and tau up to L + ``longest``.

    Entries come from a short list half the time, so that rank drops (a
    window whose annihilated map loses rank) are common; some steps get an
    all-zero H for the same reason.  LTV models may change n_z with k.
    """
    L = draw(st.integers(1, 4))
    tau = draw(st.integers(L - 1, L + longest))
    n_x, n_w, n_v = (draw(st.integers(1, 3)), draw(st.integers(1, 2)),
                     draw(st.integers(1, 2)))
    n_u = draw(st.integers(0, 2))
    if lti is None:
        lti = draw(st.integers(0, 3)) == 0
    steps = 1 if lti else tau + 1
    n_z = ([draw(st.integers(1, 3))] * steps if lti or draw(st.booleans())
           else [draw(st.integers(1, 3)) for _ in range(steps)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coarse = draw(st.booleans())

    def mat(r, c):
        if coarse:
            return rng.choice(ENTRIES, size=(r, c))
        return rng.standard_normal((r, c))

    zero_h = draw(st.sets(st.integers(0, steps - 1), max_size=3))
    h = [np.zeros((n_z[k], n_x)) if k in zero_h else mat(n_z[k], n_x)
         for k in range(steps)]
    seqs = {
        "F": [mat(n_x, n_x) for _ in range(steps)],
        "G": [mat(n_x, n_u) for _ in range(steps)],
        "E": [mat(n_x, n_w) for _ in range(steps)],
        "H": h,
        "D": [mat(n_z[k], n_v) for k in range(steps)],
    }
    model = LtvModel.create(n_x=n_x, n_w=n_w, n_v=n_v, tau=tau,
                            **{name: s[0] if lti else s for name, s in seqs.items()})
    structure = NoiseStructure.from_pairs([
        (np.eye(n_w), np.zeros((n_v, n_v))),
        (np.zeros((n_w, n_w)), np.eye(n_v)),
    ])
    mode = draw(st.sampled_from([KNOWN_INPUT, UNKNOWN_INPUT]))
    return model, structure, L, mode


@given(window_cases())
def test_batched_geometry_is_bitwise_per_window(case):
    assert_geometry_matches_reference(*case)


@pytest.mark.parametrize("name, tau, L, mode", [
    ("obs-ltv", 60, 2, KNOWN_INPUT),
    ("obs-ltv", 60, 3, KNOWN_INPUT),
    ("unobs-unknown-input", 40, 2, UNKNOWN_INPUT),
    ("unobs-unknown-input", 40, 3, KNOWN_INPUT),
    ("clock-ensemble", 20, 10, KNOWN_INPUT),
])
def test_preset_geometry_is_bitwise_per_window(name, tau, L, mode):
    spec = preset(name, tau=tau)
    assert_geometry_matches_reference(spec.model, spec.structure, L, mode)


def test_near_threshold_windows_give_one_warning(caplog):
    # a second singular value eps_k against a rank threshold of
    # 1e-10 * 1 * 3 = 3e-10: sigma/threshold is 16.7 (outside a decade),
    # 6.7, 3.3, 1.33, 2.67 and 8.3, so five windows are near and k=3 closest
    eps = [5e-9, 2e-9, 1e-9, 4e-10, 8e-10, 2.5e-9]
    h = [np.array([[1.0, 0.0], [0.0, e], [0.0, 0.0]]) for e in eps]
    model = LtvModel.create(n_x=2, n_w=1, n_v=3, tau=len(eps) - 1,
                            F=np.eye(2), G=None, E=np.ones((2, 1)), H=h, D=np.eye(3))
    structure = NoiseStructure.from_pairs([
        (np.eye(1), np.zeros((3, 3))),
        (np.zeros((1, 1)), np.eye(3)),
    ])
    with caplog.at_level(logging.WARNING, logger="mdmest.estimator"):
        sys0 = build_design(model, structure, 1, KNOWN_INPUT)
    assert all(window_arrays(sys0, k).n_a == 1 for k in range(sys0.n_windows))
    assert len(caplog.records) == 1
    message = caplog.records[0].getMessage()
    assert message.startswith("5 window(s) have singular values within a decade")
    assert "sigma/threshold = 1.33 at window k=3, rank 2 kept" in message
    count, ratio, k, rank = sys0.near_threshold
    assert (count, round(ratio, 2), k, rank) == (5, 1.33, 3, 2)
