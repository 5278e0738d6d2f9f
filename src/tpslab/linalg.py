"""Small dense linear-algebra helpers used across the package.

Everything here assumes desk-scale matrices (n <= 256) and double precision;
no attempt is made at sparse or structured representations.
"""

from __future__ import annotations

import ctypes
import os
from pathlib import Path

import numpy as np
import scipy


def _bundled_openblas(name: str):
    """`scipy_openblas_<name>` of each OpenBLAS bundled with numpy and scipy that has it."""
    for package, pattern, suffix in (
        (np, "libscipy_openblas64_*.so", "64_"), (scipy, "libscipy_openblas-*.so", "")
    ):
        for path in (Path(package.__file__).parents[1] / f"{package.__name__}.libs").glob(pattern):
            if function := getattr(ctypes.CDLL(str(path)), f"scipy_openblas_{name}{suffix}", None):
                yield function


def pin_blas_threads() -> None:
    """Pin the bundled OpenBLAS to one thread unless OPENBLAS_NUM_THREADS is set."""
    if "OPENBLAS_NUM_THREADS" not in os.environ:
        for set_threads in _bundled_openblas("set_num_threads"):
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)


def frozen_complex(a, shape=None) -> np.ndarray:
    """Copy `a` into an immutable complex ndarray, optionally checking shape."""
    arr = np.array(a, dtype=complex)
    if shape is not None and arr.shape != tuple(shape):
        raise ValueError(f"expected shape {tuple(shape)}, got {arr.shape}")
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


def anti_hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the anti-Hermitian n x n matrices, stacked (n^2, n, n).

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
    return basis


def expm_frechet(a: np.ndarray):
    """(u, w, mu), u = exp(A) = w diag(exp(i mu)) w^dag, from one eigh.  The Frechet
    derivative of exp at A in direction E is w @ (phi * (w^dag E w)) @ w^dag
    with phi = `frechet_phi(mu)` (Daleckii-Krein formula)."""
    mu, w = np.linalg.eigh(-1j * a)
    return (w * np.exp(1j * mu)) @ w.conj().T, w, mu


def frechet_phi(mu: np.ndarray) -> np.ndarray:
    """Divided differences of exp(i mu): (e^{i mu_j} - e^{i mu_k}) / (i (mu_j - mu_k)),
    and e^{i mu_j} where |mu_j - mu_k| <= 1e-14."""
    ea = np.exp(1j * mu)
    diff = 1j * (mu[:, None] - mu[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(diff) > 1e-14, (ea[:, None] - ea[None, :]) / diff, ea[:, None])


def trapezoid_weights(times: np.ndarray) -> np.ndarray:
    """Trapezoid-rule quadrature weights for an increasing sample grid."""
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("need at least two sample times")
    w = np.empty_like(t)
    w[0] = (t[1] - t[0]) / 2
    w[-1] = (t[-1] - t[-2]) / 2
    w[1:-1] = (t[2:] - t[:-2]) / 2
    return w
