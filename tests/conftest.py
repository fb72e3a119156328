import math

import numpy as np
import pytest

from focklattice import (builtin_sigma_multiplier, classical_weight,
                         square_lattice)


@pytest.fixture(scope="session")
def cw():
    return classical_weight()


@pytest.fixture(scope="session")
def lat12(cw):
    return square_lattice(12.0, cw)


@pytest.fixture(scope="session")
def lat16(cw):
    return square_lattice(16.0, cw)


@pytest.fixture(scope="session")
def mult12(lat12):
    return builtin_sigma_multiplier(lat12)


@pytest.fixture(scope="session")
def mult16(lat16):
    return builtin_sigma_multiplier(lat16)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


def sigma_table(m):
    """Every lattice index of the multiplier m and its weighted g' there:
    the arguments of a user table that reproduces m."""
    idx = np.arange(len(m.lattice))
    return idx, m.g_prime_weighted(idx)


def gaussian_fn(w):
    return lambda z: np.exp(2.0 * np.conj(w) * np.asarray(z, dtype=complex)
                            - abs(w) ** 2)


@pytest.fixture(scope="session")
def scale():
    return math.sqrt(math.pi / 2.0)
