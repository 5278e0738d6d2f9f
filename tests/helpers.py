"""Shared helpers for the test suite."""

import numpy as np

from tpslab.core import HilbertDims, StateVector
from tpslab.linalg import haar_unitary
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
