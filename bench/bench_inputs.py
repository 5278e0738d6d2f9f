"""Seeded input families, written through tpslab.fileio.

Every generator returns plain parameter dicts (see bench_math) and checks
its own output with bench_math before anything is written, so a family
member that would not have the property the oracles rely on is never used.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

import bench_math as bm

CHECK_SAMPLES = 4001  # fine grid for the generation-time checks
SIGMA2_BOUND = 1e-12


def cnot_spec() -> tuple[dict, np.ndarray]:
    """The paper's C-NOT evolution (1, 0, cos t, sin t)/sqrt(2) on [0, pi/2]
    and its closed-form disentangler, restated here from the paper."""
    s2 = np.sqrt(2)
    spec = {
        "dims": (2, 2),
        "t_max": np.pi / 2,
        "constant": np.array([1, 0, 0, 0], dtype=complex) / s2,
        "harmonics": [
            (1, np.array([0, 0, 1, 0], dtype=complex) / s2, np.array([0, 0, 0, 1], dtype=complex) / s2)
        ],
    }
    u = np.array(
        [[-1, 0, 1, 0], [0, 1j, 0, 1j], [0, -1j, 0, 1j], [1, 0, 1, 0]], dtype=complex
    ) / np.sqrt(2)
    return spec, u


def sidon_fixture() -> dict:
    """The paper's (1, e^{it}, e^{3it}, e^{7it})/2 on [0, 2 pi]."""
    return _sidon_spec((2, 2), [0, 1, 3, 7], np.full(4, 0.5, dtype=complex), np.eye(4))


def _unit_pair(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal p0, p1 with |p0|^2 + |p1|^2 = 1, both bounded away from 0."""
    basis = bm.haar_unitary(n, rng)
    weight = rng.uniform(0.2, 0.8)
    return np.sqrt(weight) * basis[:, 0], np.sqrt(1.0 - weight) * basis[:, 1]


def disentanglable(rng: np.random.Generator) -> tuple[dict, np.ndarray]:
    """e^{-it}(p0 + p1 e^{it}) (x) (q0 + q1 e^{it}) seen through a Haar V.

    Expanding the product gives constant p0q1 + p1q0 and e^{-it} p0q0 +
    e^{it} p1q1, i.e. cos coefficients p0q0 + p1q1 and sin coefficients
    i (p1q1 - p0q0).  The stored trajectory is V psi(t), so V^dag undoes it.
    """
    p0, p1 = _unit_pair(2, rng)
    q0, q1 = _unit_pair(2, rng)
    a, b = np.kron(p0, q0), np.kron(p1, q1)
    v = bm.haar_unitary(4, rng)
    spec = {
        "dims": (2, 2),
        "t_max": float(rng.uniform(np.pi / 2, 2 * np.pi)),
        "constant": v @ (np.kron(p0, q1) + np.kron(p1, q0)),
        "harmonics": [(1, v @ (a + b), v @ (1j * (b - a)))],
    }
    return spec, v.conj().T


def _random_sidon_set(size: int, top: int, rng: np.random.Generator) -> list[int]:
    """{0} and size - 1 distinct integers in [1, top] with distinct pairwise
    sums, by rejection: a uniformly random subset is drawn until one is Sidon."""
    while True:
        freqs = [0] + sorted(int(f) for f in rng.choice(np.arange(1, top + 1), size - 1, replace=False))
        if bm.is_sidon(freqs):
            return freqs


def _sidon_spec(dims, freqs, amps, v) -> dict:
    """sum_k amps[k] e^{i f_k t} V e_k on [0, 2 pi] as a trigonometric spec."""
    n = dims[0] * dims[1]
    constant = np.zeros(n, dtype=complex)
    harmonics = []
    for k, f in enumerate(freqs):
        col = amps[k] * v[:, k]
        if f == 0:
            constant = constant + col
        else:
            harmonics.append((int(f), col, 1j * col))
    harmonics.sort(key=lambda h: h[0])
    return {"dims": tuple(dims), "t_max": 2 * np.pi, "constant": constant, "harmonics": harmonics}


def sidon(dims, rng: np.random.Generator) -> dict:
    """Sidon frequencies with amplitudes bounded away from 0, through a Haar V."""
    n = dims[0] * dims[1]
    freqs = _random_sidon_set(n, 4 * n, rng)
    mags = rng.uniform(0.5, 1.0, size=n)
    amps = mags * np.exp(2j * np.pi * rng.uniform(size=n))
    amps /= np.linalg.norm(amps)
    return _sidon_spec(dims, freqs, amps, bm.haar_unitary(n, rng))


def check_disentangler(spec: dict, u: np.ndarray) -> float:
    """Max sigma_2 of the known disentangler on a fine grid; raises if not < 1e-12."""
    states = bm.trig_states(spec, bm.grid(spec, CHECK_SAMPLES))
    norms = np.linalg.norm(states, axis=1)
    if np.abs(norms - 1.0).max() > 1e-12:
        raise ValueError("generated trajectory leaves the unit sphere")
    worst = float(bm.schmidt(states, spec["dims"], u)[:, 1].max())
    if not worst < SIGMA2_BOUND:
        raise ValueError(f"known disentangler leaves sigma_2 = {worst:.3e}")
    return worst


def check_sidon(spec: dict) -> None:
    freqs = [0] + [h[0] for h in spec["harmonics"]]
    if not bm.is_sidon(freqs):
        raise ValueError(f"frequencies {freqs} are not a Sidon set")
    states = bm.trig_states(spec, bm.grid(spec, CHECK_SAMPLES))
    if np.abs(np.linalg.norm(states, axis=1) - 1.0).max() > 1e-12:
        raise ValueError("generated trajectory leaves the unit sphere")


def write_trajectory(spec: dict, path: Path) -> str:
    """Write `spec` as a tpslab trajectory file; return its sha256."""
    from tpslab.core import HilbertDims
    from tpslab.fileio import save_trajectory
    from tpslab.trajectory import Harmonic, TrigTrajectory

    traj = TrigTrajectory(
        HilbertDims(*spec["dims"]),
        spec["constant"],
        tuple(Harmonic(f, c, s) for f, c, s in spec["harmonics"]),
        float(spec["t_max"]),
    )
    save_trajectory(traj, path)
    return sha256(path)


def write_matrix(matrix: np.ndarray, dims, path: Path) -> str:
    from tpslab.core import HilbertDims
    from tpslab.fileio import save_matrix_document

    save_matrix_document(matrix, HilbertDims(*dims), path)
    return sha256(path)


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
