"""Schmidt analysis, product-state tests, and entanglement along trajectories.

The chordal distance sqrt(2 - 2*sigma_1) to the product-state manifold is
used as the distance measure throughout: the nearest product state to a pure
state is its top Schmidt term, so the distance has a closed form and needs
no inner optimization.  It is evaluated as the equal sqrt(2 sum_{k>=2}
sigma_k^2 / (1 + sigma_1)), which keeps full precision at product states where
2 - 2*sigma_1 cancels to ~sqrt(eps).  Entropies are in natural log units (a
Bell pair has entropy ln 2, not 1 bit), with the top Schmidt term read off the
same tail, so they keep full relative precision there too.  All measures run
on one batched kernel, `rebased_coefficients` plus `schmidt_spectra` (closed
form on 2 x n, an SVD otherwise): the single-state helpers, and `max_distances`,
which scores a stack of basis changes for every distance `optimize` reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import HilbertDims, StateVector, TPSpec, reshape_coefficients
from .errors import DimensionMismatch, UnsupportedForm
from .trajectory import SampledTrajectory


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Singular structure of the coefficient matrix.

    `coefficients` are the min(n1, n2) Schmidt coefficients in non-increasing
    order; `left_vectors[k]` / `right_vectors[k]` are the matched orthonormal
    factor vectors.  The vectors carry the usual per-pair phase gauge (and a
    rotation gauge on degenerate coefficient blocks); only the coefficients
    are gauge-free.
    """

    coefficients: np.ndarray
    left_vectors: np.ndarray  # shape (k, n1)
    right_vectors: np.ndarray  # shape (k, n2)
    dims: HilbertDims

    def reconstruct(self) -> np.ndarray:
        """Amplitudes of sum_k sigma_k left_k (x) right_k."""
        out = np.zeros(self.dims.n, dtype=complex)
        for s, l, r in zip(self.coefficients, self.left_vectors, self.right_vectors):
            out += s * np.kron(l, r)
        return out


def schmidt_decompose(psi: StateVector) -> SchmidtDecomposition:
    """SVD of the reshaped coefficient matrix."""
    m = reshape_coefficients(psi)
    u, s, vh = np.linalg.svd(m)
    k = min(psi.dims.n1, psi.dims.n2)
    return SchmidtDecomposition(
        coefficients=s[:k],
        left_vectors=u[:, :k].T,
        right_vectors=vh[:k, :],
        dims=psi.dims,
    )


def rebased_coefficients(traj: SampledTrajectory, tps: TPSpec) -> np.ndarray:
    """Coefficient matrices of U @ psi(t) at every sample, shape (T, n1, n2),
    renormalized as in `rebase_state` since U is unitary to 1e-10 only."""
    if traj.dims != tps.dims:
        raise DimensionMismatch("trajectory and TPS dimensions differ")
    return _rebased(traj, tps.basis_change)


def _rebased(traj: SampledTrajectory, u: np.ndarray) -> np.ndarray:
    """`rebased_coefficients` of each U in u (..., n, n), each to the bits of its own call."""
    rebased = traj.states @ u.swapaxes(-1, -2)
    rebased /= np.linalg.norm(rebased, axis=-1)[..., None]
    return rebased.reshape(*u.shape[:-2], len(traj), traj.dims.n1, traj.dims.n2)


def max_distances(traj: SampledTrajectory, u: np.ndarray) -> np.ndarray:
    """`entanglement_profile(traj, U).max_distance`, bit for bit, for each U in u (..., n, n)."""
    return _distances(schmidt_spectra(_rebased(traj, u))).max(axis=-1)


def schmidt_spectra(mats: np.ndarray) -> np.ndarray:
    """Schmidt coefficients of a coefficient matrix or a stack of them, (..., k); for
    min(n1, n2) = 2 sigma_1^2 = (a + c + hypot(a - c, 2|b|))/2 from the short side's Gram
    [[a, b], [conj(b), c]] and sigma_2^2 = sum_k |m_k|^2 / sigma_1^2 over the 2x2 minors."""
    if min(mats.shape[-2:]) != 2:
        return np.linalg.svd(mats, compute_uv=False)
    a, b, c = _qubit_gram(mats if mats.shape[-2] == 2 else mats.swapaxes(-1, -2))
    top = 0.5 * (a + c + np.hypot(a - c, 2.0 * np.abs(b)))
    m = coefficient_minors(mats)
    low = np.sum(m.real**2 + m.imag**2, axis=-1) / np.where(top > 0, top, 1.0)
    return np.sqrt(np.stack([top, np.minimum(low, top)], axis=-1))


def _entropies(spectra: np.ndarray) -> np.ndarray:
    """Von Neumann entropy -sum sigma^2 ln sigma^2 per row, with 0 ln 0 := 0; the top
    term is read off the tail t = sum_{k>=2} sigma_k^2 as (t - 1) log1p(-t), so near
    product states no term cancels and every term is >= 0."""
    p = spectra[..., 1:] ** 2
    tail = p.sum(axis=-1)
    return (tail - 1.0) * np.log1p(-tail) - (p * np.log(np.where(p > 0, p, 1.0))).sum(axis=-1)


def _distances(spectra: np.ndarray) -> np.ndarray:
    """sqrt(2 - 2 sigma_1) per row, as sqrt(2 sum_{k>=2} sigma_k^2 / (1 + sigma_1))."""
    tail = (spectra[..., 1:] ** 2).sum(axis=-1)
    return np.sqrt(2.0 * tail / (1.0 + spectra[..., 0]))


@lru_cache(maxsize=None)
def _minor_indices(n1: int, n2: int) -> np.ndarray:
    """Flat indices (ij, kl, il, kj) of every minor m_ij m_kl - m_il m_kj, (4, K)."""
    i, k = (a[:, None] for a in np.triu_indices(n1, 1))
    j, l = np.triu_indices(n2, 1)
    flat = np.stack([np.ravel(a * n2 + b) for a, b in ((i, j), (k, l), (i, l), (k, j))])
    flat.setflags(write=False)  # shared by every caller
    return flat


def coefficient_minors(m: np.ndarray) -> np.ndarray:
    """All 2x2 minors of a coefficient matrix, or of a stack of them.

    Shape (..., n1, n2) -> (..., C(n1, 2) * C(n2, 2)), row pairs outermost.
    """
    ij, kl, il, kj = _minor_indices(*m.shape[-2:])
    x = m.reshape(*m.shape[:-2], -1)
    return x[..., ij] * x[..., kl] - x[..., il] * x[..., kj]


def minor_forms(n1: int, n2: int) -> np.ndarray:
    """Symmetric forms E_k with coefficient_minors(x.reshape(n1, n2))[k] = x^T E_k x.

    Shape (C(n1, 2) * C(n2, 2), n1 * n2, n1 * n2), in the layout of
    `coefficient_minors`.
    """
    ij, kl, il, kj = _minor_indices(n1, n2)
    forms = np.zeros((len(ij), n1 * n2, n1 * n2))
    rows = np.arange(len(ij))
    forms[rows, ij, kl] = forms[rows, kl, ij] = 0.5
    forms[rows, il, kj] = forms[rows, kj, il] = -0.5
    return forms


def tail_bound(traj, u: np.ndarray) -> float:
    """A bound on sqrt(sum_{i>=2} sigma_i^2) >= sigma_2 of U psi(t) at every real t.

    For a closed form psi(t) = sum_w e^{iwt} a_w (`exponentials()`), every minor of
    U psi(t) is m(t) = sum_s e^{ist} c_s over the pair sums s = w + w', grouped where
    exactly equal (grouping less only loosens the bound); the result is sqrt(r)
    sum_s ||c_s||_2, r = min(n1, n2).  Three facts: a unit state has sigma_1^2 >= 1/r;
    sum_k |m_k|^2 = e_2(sigma^2) >= sigma_1^2 sum_{i>=2} sigma_i^2 (Cauchy-Binet); and
    d^2 <= 2 sum_{i>=2} sigma_i^2, so sqrt2 times the result bounds the distance d.  A
    local unitary moves each c_s by a unitary, so the value belongs to the TPS.
    `SampledTrajectory` input has no closed form and raises `UnsupportedForm`.
    """
    if isinstance(traj, SampledTrajectory):
        raise UnsupportedForm("tail_bound needs a closed-form trajectory, not samples")
    freqs, rows = traj.exponentials()
    ij, kl, il, kj = _minor_indices(traj.dims.n1, traj.dims.n2)
    x = rows @ u.T
    pairs = x[:, None, ij] * x[None, :, kl] - x[:, None, il] * x[None, :, kj]
    sums, group = np.unique(np.add.outer(freqs, freqs), return_inverse=True)
    coeffs = np.zeros((len(sums), len(ij)), dtype=complex)
    np.add.at(coeffs, group.ravel(), pairs.reshape(-1, len(ij)))
    return float(np.sqrt(min(traj.dims.n1, traj.dims.n2)) * np.linalg.norm(coeffs, axis=1).sum())


def _qubit_gram(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entries a, b, c of the Gram [[a, b], [conj(b), c]] of each (2, n) matrix in m."""
    ac = (m.real**2 + m.imag**2).sum(axis=-1)
    return ac[..., 0], (m[..., 0, :] * m[..., 1, :].conj()).sum(axis=-1), ac[..., 1]


def gram_top_vectors(m: np.ndarray) -> np.ndarray:
    """Unit top eigenvector of each Gram matrix M M^dag of a stack (T, n1, n2); for
    n1 = 2 closed form and cancellation-free: with G = [[a, b], [conj(b), c]] and
    s = |a - c|/2 + hypot((a - c)/2, |b|), (s, conj(b)) if a >= c, else (b, s)."""
    if m.shape[1] != 2:
        return np.linalg.eigh(m @ m.conj().swapaxes(1, 2))[1][:, :, -1]
    a, b, c = _qubit_gram(m)
    d, abs_b, first, w = a - c, np.abs(b), a >= c, np.empty((len(m), 2), dtype=complex)
    s = 0.5 * np.abs(d) + np.hypot(0.5 * d, abs_b)
    w[:, 0], w[:, 1] = np.where(first, s, b), np.where(first, b.conj(), s)
    norm = np.hypot(s, abs_b)  # sqrt(s^2 + |b|^2) would underflow at |b| ~ 1e-300
    if (zero := norm == 0).any():  # G = aI: any unit vector, take e_0
        w[zero, 0], norm[zero] = 1.0, 1.0
    return np.divide(w, norm[:, None], out=w)


def schmidt_values(psi: StateVector) -> np.ndarray:
    """Schmidt coefficients only (cheaper than the full decomposition)."""
    return schmidt_spectra(reshape_coefficients(psi))


def entanglement_entropy(psi: StateVector) -> float:
    """Von Neumann entropy -sum sigma^2 ln sigma^2 with 0 ln 0 := 0."""
    return float(_entropies(schmidt_values(psi)))


def product_distance(psi: StateVector) -> float:
    """Chordal distance sqrt(2 - 2 sigma_1) to the product-state manifold,
    evaluated as sqrt(2 sum_{k>=2} sigma_k^2 / (1 + sigma_1))."""
    return float(_distances(schmidt_values(psi)))


def max_minor_modulus(psi: StateVector) -> float:
    return float(np.abs(coefficient_minors(reshape_coefficients(psi))).max())


def is_product_state(psi: StateVector, tol: float) -> bool:
    """Product test through the vanishing of all 2x2 coefficient minors.

    Agrees with the Schmidt test sigma_2 < tol' up to a constant: every minor
    is bounded by sigma_1 sigma_2 <= sigma_2, and conversely
    sigma_2 <= sqrt(min(n1, n2)) * ||minors||_2, so the two thresholds differ
    by at most a factor ~ sqrt(n1 n2) on unit-norm states.
    """
    return max_minor_modulus(psi) < tol


@dataclass(frozen=True)
class EntanglementProfile:
    """Per-sample entanglement measures of a rebased trajectory."""

    times: np.ndarray
    entropy: np.ndarray
    product_distance: np.ndarray
    max_entropy: float
    max_distance: float


def entanglement_profile(traj: SampledTrajectory, tps: TPSpec) -> EntanglementProfile:
    """Entropy and product distance of U @ psi(t) at every sample."""
    spectra = schmidt_spectra(rebased_coefficients(traj, tps))
    ent, dist = _entropies(spectra), _distances(spectra)
    return EntanglementProfile(traj.times.copy(), ent, dist, float(ent.max()), float(dist.max()))
