import tracemalloc

import numpy as np
import pytest

REPO_ROOT = __import__("pathlib").Path(__file__).resolve().parent.parent


def traced_peak(func, *args):
    """Peak bytes traced while func(*args) runs, above what was traced when it began."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        func(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def random_statevector(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def random_density_matrix(rng, dim, rank=None):
    """Wishart-style random mixed state of the given dimension."""
    rank = rank or dim
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_traceless_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (g + g.conj().T)
    return h - np.trace(h) * np.eye(dim) / dim


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
