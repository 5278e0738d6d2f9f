"""Reference math for the benchmark, written with numpy alone.

Input generation and the output oracles use these functions, never tpslab's,
so that a defect in the code under test cannot hide itself by also being in
the check.  Trajectories are described here by plain parameter dicts:

    {"dims": (n1, n2), "t_max": T, "constant": (n,) complex,
     "harmonics": [(freq, cos (n,) complex, sin (n,) complex), ...]}

which is the same closed form tpslab's trigonometric trajectory files hold.
"""

from __future__ import annotations

import numpy as np


def trig_states(spec: dict, times) -> np.ndarray:
    """Component values of a trigonometric trajectory, shape (len(times), n)."""
    t = np.asarray(times, dtype=float)[:, None]
    out = np.broadcast_to(spec["constant"], (t.shape[0], len(spec["constant"]))).astype(complex)
    for freq, cos, sin in spec["harmonics"]:
        out = out + np.cos(freq * t) * cos + np.sin(freq * t) * sin
    return out


def grid(spec: dict, samples: int) -> np.ndarray:
    """The endpoint-inclusive uniform grid every tpslab command samples on."""
    return np.linspace(0.0, spec["t_max"], samples)


def schmidt(states: np.ndarray, dims, u=None) -> np.ndarray:
    """Schmidt coefficients of (U @ psi_t) for every row, shape (T, min(n1, n2))."""
    if u is not None:
        states = states @ np.asarray(u).T
    mats = states.reshape(-1, dims[0], dims[1])
    return np.linalg.svd(mats, compute_uv=False)


def product_distance(sigma: np.ndarray) -> np.ndarray:
    """Chordal distance to the product manifold, without cancellation.

    sqrt(2 - 2 s1) rewritten as sqrt(2 sum_{k>=2} s_k^2 / (1 + s1)), equal for
    unit vectors, so that near-product states keep their digits.
    """
    return np.sqrt(2.0 * np.sum(sigma[:, 1:] ** 2, axis=1) / (1.0 + sigma[:, 0]))


def entropy(sigma: np.ndarray) -> np.ndarray:
    """Von Neumann entropy (natural log) of each row of Schmidt coefficients."""
    p = sigma**2
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, -p * np.log(p), 0.0)
    return np.maximum(terms.sum(axis=1), 0.0)


def unitarity_error(u: np.ndarray) -> float:
    u = np.asarray(u)
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


def is_sidon(freqs) -> bool:
    """All sums f_i + f_j with i <= j are distinct."""
    f = list(freqs)
    sums = [f[i] + f[j] for i in range(len(f)) for j in range(i, len(f))]
    return len(set(sums)) == len(sums) and len(set(f)) == len(f)


def separable_parts(h: np.ndarray, dims):
    """Traceless h1, h2, the scalar part and the interaction remainder of H."""
    n1, n2 = dims
    n = n1 * n2
    t = h.reshape(n1, n2, n1, n2)
    tr = np.trace(h).real
    h1 = np.einsum("ajbj->ab", t) / n2 - (tr / n) * np.eye(n1)
    h2 = np.einsum("iaib->ab", t) / n1 - (tr / n) * np.eye(n2)
    separable = np.kron(h1, np.eye(n2)) + np.kron(np.eye(n1), h2) + (tr / n) * np.eye(n)
    return h1, h2, tr / n, h - separable


def stationarity(h: np.ndarray, dims) -> float:
    """Exact norm of the gradient of ||interaction(V H V^dag)||^2 at V = 1.

    The projection onto the separable operators is self-adjoint and kills the
    remainder X, so the derivative along an anti-Hermitian A is
    2 Re tr(X^dag [A, H]), whose norm over an orthonormal tangent basis is
    2 ||[H, X]||_F.
    """
    x = separable_parts(h, dims)[3]
    return float(2.0 * np.linalg.norm(h @ x - x @ h))


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (z + z.conj().T) / 2
