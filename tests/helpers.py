"""Shared helpers for the test suite."""

import numpy as np

from tpslab import fixtures
from tpslab.core import HilbertDims, StateVector
from tpslab.entanglement import coefficient_minors
from tpslab.linalg import haar_unitary
from tpslab.trajectory import Harmonic, SampledTrajectory, TrigTrajectory
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


def planted_trajectory(dims, freqs_a, freqs_b, rng, samples=200) -> SampledTrajectory:
    """V (a(t) (x) b(t)) on `samples` points of [0, 2 pi], a(t) = sum_w e^{iwt} a_w over
    freqs_a and b(t) likewise over freqs_b, with complex normal a_w, b_w and a Haar V
    drawn from rng: V^dag disentangles every sample by construction."""
    t = np.linspace(0, 2 * np.pi, samples)

    def factor(freqs, size):
        coeffs = rng.normal(size=(len(freqs), size)) + 1j * rng.normal(size=(len(freqs), size))
        return np.exp(1j * np.outer(t, freqs)) @ coeffs

    a, b = factor(freqs_a, dims.n1), factor(freqs_b, dims.n2)
    states = np.einsum("ti,tj->tij", a, b).reshape(samples, dims.n)
    states = states @ haar_unitary(dims.n, rng).T
    return SampledTrajectory(dims, t, states / np.linalg.norm(states, axis=1)[:, None])


# Reference copies of kernels that were rewritten for speed with the same
# floating-point operations in the same order; the tests require results equal
# to the bit.  Each body is the earlier implementation, verbatim.


def reference_epigraph_qp(z: np.ndarray, g: np.ndarray, support: np.ndarray):
    """`optimizer._epigraph_qp` as it was before its support carried its rows."""

    def kkt(idx, top, last):
        m = np.ones((len(idx) + 1,) * 2)
        m[:-1, :-1], m[-1, -1] = g[idx] @ g[idx].T, 0.0
        rhs = np.append(top, last)
        try:
            sol = np.linalg.solve(m, rhs)
        except np.linalg.LinAlgError:  # a warm support that holds equal rows
            sol = np.linalg.lstsq(m, rhs, rcond=None)[0]
        return sol[:-1], sol[-1]

    lam, s = kkt(support, z[support], 1.0)
    while lam.min() < 0:
        support = np.delete(support, np.argmin(lam))
        lam, s = kkt(support, z[support], 1.0)
    for _ in range(2 * len(z)):  # a guard: each entry raises the dual objective
        ge = g @ -(lam @ g[support])
        violation = z + ge - s
        t = np.argmax(violation)
        v, tau = violation[t], 0.0
        # above rounding, and above what the active constraints show of it
        if v <= 1e-14 * (np.abs(z).max() + np.abs(ge).max()) + np.abs(violation[support]).max():
            break
        while len(support):
            dlam, ds = kkt(support, -(g[support] @ g[t]), -1.0)  # d(lam_S, s) / d lam_t
            w = g[t] + dlam @ g[support]
            slope = w @ w  # -dv / d lam_t: |w|^2, as g_S w = -ds and sum(dlam) = -1
            shrink = np.flatnonzero(dlam < 0)  # never empty
            ratios = np.maximum(lam[shrink], 0.0) / -dlam[shrink]
            step = min(v / slope if slope > 0 else np.inf, ratios.min())
            lam, s, tau, v = lam + step * dlam, s + step * ds, tau + step, v - step * slope
            if step < ratios.min():  # t is active
                break
            k = shrink[np.argmin(ratios)]
            support, lam = np.delete(support, k), np.delete(lam, k)
        support, lam = np.append(support, t), np.append(lam, tau)
        s = z[t] - g[t] @ (lam @ g[support])
    return support, lam, s, -(lam @ g[support])


def _reference_qubit_gram(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`entanglement._qubit_gram` as it was before its single reduction."""
    a, c = np.moveaxis(np.sum(m.real**2 + m.imag**2, axis=-1), -1, 0)
    return a, np.sum(m[..., 0, :] * m[..., 1, :].conj(), axis=-1), c


def reference_gram_top_vectors(m: np.ndarray) -> np.ndarray:
    """`entanglement.gram_top_vectors` as it was before it filled one buffer."""
    if m.shape[1] != 2:
        return np.linalg.eigh(m @ m.conj().swapaxes(1, 2))[1][:, :, -1]
    a, b, c = _reference_qubit_gram(m)
    s = 0.5 * np.abs(a - c) + np.hypot(0.5 * (a - c), np.abs(b))
    w = np.where((a >= c)[:, None], np.stack([s, b.conj()], 1), np.stack([b, s], 1))
    norm = np.hypot(s, np.abs(b))  # sqrt(s^2 + |b|^2) would underflow at |b| ~ 1e-300
    w[norm == 0, 0], norm[norm == 0] = 1.0, 1.0  # G = aI: any unit vector, take e_0
    return w / norm[:, None]


def reference_schmidt_spectra(mats: np.ndarray) -> np.ndarray:
    """`entanglement.schmidt_spectra` on the reference Gram entries."""
    if min(mats.shape[-2:]) != 2:
        return np.linalg.svd(mats, compute_uv=False)
    a, b, c = _reference_qubit_gram(mats if mats.shape[-2] == 2 else mats.swapaxes(-1, -2))
    top = 0.5 * (a + c + np.hypot(a - c, 2.0 * np.abs(b)))
    m = coefficient_minors(mats)
    low = np.sum(m.real**2 + m.imag**2, axis=-1) / np.where(top > 0, top, 1.0)
    return np.sqrt(np.stack([top, np.minimum(low, top)], axis=-1))
