"""Shared helpers for the test suite."""

import numpy as np

from tpslab import fixtures
from tpslab.core import HilbertDims, StateVector
from tpslab.linalg import haar_unitary
from tpslab.trajectory import Harmonic, TrigTrajectory
from tpslab.reproduce import random_state  # noqa: F401  (shared with the checks)

QBITS = HilbertDims(2, 2)


def random_local_unitary(rng, dims=QBITS) -> np.ndarray:
    return np.kron(haar_unitary(dims.n1, rng), haar_unitary(dims.n2, rng))


def random_hermitian(rng, n=4) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (z + z.conj().T) / 2


def bell_state(dims=QBITS) -> StateVector:
    amps = np.zeros(dims.n, dtype=complex)
    amps[0] = 1 / np.sqrt(2)
    amps[-1] = 1 / np.sqrt(2)
    return StateVector(amps, dims)


def near_two_dimensional(amplitude) -> TrigTrajectory:
    """A Haar-rotated lowdim trajectory plus a constant third component: its
    states leave a two-dimensional span by `amplitude`, and its Gram matrix
    fails g1^2 >= 4 g0 g2, so only construct's SVD candidate can pass."""
    h = fixtures.lowdim_trajectory().harmonics[0]
    u = haar_unitary(4, np.random.default_rng(3)) / np.sqrt(1 + amplitude**2)
    harmonic = Harmonic(h.frequency, u @ h.cos_coeffs, u @ h.sin_coeffs)
    return TrigTrajectory(QBITS, amplitude * u[:, 2], (harmonic,), 2 * np.pi)
