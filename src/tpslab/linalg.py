"""Small dense linear-algebra helpers used across the package.

Everything here assumes desk-scale matrices (n <= 256) and double precision;
no attempt is made at sparse or structured representations.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import InvalidInput


def frozen_complex(a, shape=None) -> np.ndarray:
    """Copy `a` into an immutable complex ndarray, optionally checking shape."""
    arr = np.array(a, dtype=complex)
    if shape is not None and arr.shape != tuple(shape):
        raise InvalidInput(f"expected shape {tuple(shape)}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary via QR of a Ginibre matrix."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    # fix the phase convention so the distribution is exactly Haar
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def nearest_unitary(a: np.ndarray) -> np.ndarray:
    """Polar projection onto the unitary group (drops the Hermitian factor)."""
    w, _, vh = np.linalg.svd(a)
    return w @ vh


def reshuffle(v: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """Rearrange an (n1*n2) x (n1*n2) operator into the n1^2 x n2^2 form
    whose singular values are the operator-Schmidt coefficients (per
    operator, for a stack)."""
    lead = v.shape[:-2]
    return v.reshape(*lead, n1, n2, n1, n2).swapaxes(-3, -2).reshape(*lead, n1 * n1, n2 * n2)


@lru_cache(maxsize=None)
def anti_hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the anti-Hermitian n x n matrices, stacked (n^2, n, n), read-only.

    Orthonormal with respect to the real inner product Re tr(A^dag B); this is
    the tangent space of the unitary group at the identity, of real dimension
    n^2.  Ordering: diagonal i*E_kk first, then for each k < l the real
    rotation (E_kl - E_lk)/sqrt(2) and the imaginary one i(E_kl + E_lk)/sqrt(2).
    """
    basis = np.zeros((n * n, n, n), dtype=complex)
    diag = np.arange(n)
    basis[diag, diag, diag] = 1j
    r = 1.0 / np.sqrt(2)
    k, l = np.triu_indices(n, 1)
    re = n + 2 * np.arange(len(k))
    basis[re, k, l], basis[re, l, k] = r, -r
    basis[re + 1, k, l] = basis[re + 1, l, k] = 1j * r
    return frozen_complex(basis)  # shared by every caller


@lru_cache(maxsize=None)
def nonlocal_basis(n1: int, n2: int) -> np.ndarray:
    """Orthonormal basis i (X_a (x) Y_b) of the anti-Hermitian directions orthogonal to every
    local one, i (X (x) 1) and i (1 (x) Y), stacked ((n1^2 - 1)(n2^2 - 1), n, n), read-only.

    X_a and Y_b run over an orthonormal basis of the traceless Hermitian matrices:
    -i times the off-diagonal members of `anti_hermitian_basis`, then the
    diagonal generalized Gell-Mann matrices diag(1, .., 1, -k, 0, ..) / sqrt(k (k + 1)).
    """

    def traceless(m):
        k = np.arange(1, m)[:, None]
        col = np.arange(m)
        diag = (np.where(col < k, 1.0, 0.0) - k * (col == k)) / np.sqrt(k * (k + 1))
        return np.concatenate([-1j * anti_hermitian_basis(m)[m:], diag[:, :, None] * np.eye(m)])

    products = np.einsum("aij,bkl->abikjl", traceless(n1), traceless(n2))
    return frozen_complex(1j * products.reshape(-1, n1 * n2, n1 * n2))  # shared by every caller


def expm_anti_hermitian(a: np.ndarray) -> np.ndarray:
    """exp(A) = w diag(exp(i mu)) w^dag for anti-Hermitian A, or each of a stack, from eigh(-iA)."""
    mu, w = np.linalg.eigh(-1j * a)
    return (w * np.exp(1j * mu)[..., None, :]) @ w.conj().swapaxes(-1, -2)


def trapezoid_weights(times: np.ndarray) -> np.ndarray:
    """Trapezoid-rule quadrature weights for an increasing sample grid."""
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise InvalidInput("need at least two sample times")
    w = np.empty_like(t)
    w[0] = (t[1] - t[0]) / 2
    w[-1] = (t[-1] - t[-2]) / 2
    w[1:-1] = (t[2:] - t[:-2]) / 2
    return w
