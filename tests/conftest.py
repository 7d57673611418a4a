import numpy as np
import pytest
from hypothesis import settings

from mdmest import (
    InitialCondition,
    LtvModel,
    NoiseStructure,
)
from mdmest.linalg import sym_pair_indices


def dense_from_band(ab):
    """The symmetric matrix whose LAPACK lower band storage is ``ab``."""
    m = ab.shape[1]
    p = np.zeros((m, m))
    for d in range(ab.shape[0]):
        p += np.diag(ab[d, :m - d], -d)
        if d:
            p += np.diag(ab[d, :m - d], d)
    return p


def noise_map(ac):
    """A window's noise map, (n_rows, n_eps^2), from its ``ac``: row t is
    ac[sel_j[t]] kron ac[sel_i[t]], the einsum ``build_design`` forms it by."""
    sel_i, sel_j = sym_pair_indices(ac.shape[0])
    return np.einsum("ta,tb->tab", ac[sel_j], ac[sel_i]).reshape(sel_i.size, -1)


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
