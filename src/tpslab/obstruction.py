"""Certificates that no fixed TPS can disentangle a trajectory.

The test rests on a linear-independence criterion: if the pairwise products
a_p(t) a_q(t) of the trajectory's component functions are linearly
independent as continuous functions on [0, T], then no unitary basis change
can make the trajectory a product state at all times.  Independence is
decided through the L2 Gram matrix of the products on the sample grid: L2
independence implies C^0 independence for continuous functions, so a
full-rank Gram matrix is a sound certificate.  `build_product_gram` returns
it as a plain Hermitian array, its rows in `sym2_coordinates` order.

A small rank deficiency certifies too.  The 2x2 minors of the rebased state
are linear in the products, m_tk = Phi_t . c_k(U) with Phi_t the products at
time t, and the K = C(n1, 2) C(n2, 2) vectors c_k(U) (the Sym^2 coordinates
of U^T E_k U for the minor forms E_k) are orthonormal.  A disentangling U
makes every minor vanish, which puts K orthonormal vectors into the Gram
kernel, so any rank above N - K certifies (N the Gram size).  A rank of
N - K or less proves nothing in either direction (the C-NOT evolution has
rank 5 of 10 *and* admits a disentangling TPS), so the verdict in that case
is `INCONCLUSIVE`.  One cheap sufficient condition for existence is checked
first: when the states span a subspace of dimension at most max(n1, n2), a
disentangling TPS always exists (send a basis of the span to |1 1>, |2 1>,
...), and the verdict is `EXISTS_BY_LOW_DIMENSION`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .trajectory import SampledTrajectory
from .errors import TooFewSamples
from .linalg import trapezoid_weights

DEFAULT_RANK_TOL = 1e-8
OVERSAMPLING_FACTOR = 4


class Verdict(enum.Enum):
    CERTIFIED_NO = "CertifiedNoDisentanglingTPS"
    INCONCLUSIVE = "Inconclusive"
    EXISTS_LOW_DIM = "ExistsByLowDimension"


def _trapezoid_gram(rows: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Hermitian L2 Gram matrix of sampled functions, one per row."""
    gram = (rows * trapezoid_weights(times)) @ rows.conj().T
    return (gram + gram.conj().T) / 2  # enforce exact Hermiticity


def sym2_coordinates(n: int):
    """Pairs p <= q of the orthonormal Sym^2(C^n) coordinates, in `np.triu_indices`
    order, and their weights: 1 for p = q, sqrt(2) for p < q."""
    p, q = np.triu_indices(n)
    return p, q, np.where(p == q, 1.0, np.sqrt(2.0))


def sym2_products(states: np.ndarray) -> np.ndarray:
    """Sym^2 coordinates of psi_t (x) psi_t, one row per pair, shape (n(n+1)/2, T)."""
    p, q, weights = sym2_coordinates(states.shape[1])
    a = states.T  # (n, T) component samples
    return weights[:, None] * a[p] * a[q]


def build_product_gram(traj: SampledTrajectory) -> np.ndarray:
    """Hermitian L2 Gram matrix G[p, q] = integral of f_p conj(f_q) dt of the
    pairwise component products, by trapezoid quadrature.

    Row/column p holds the product f_p of the component pair p of
    `sym2_coordinates` (flat component indices; products are symmetric, so
    only pairs p <= q appear, n(n+1)/2 of them).  Products of two distinct
    components carry a factor sqrt(2): the f_p are then the coordinates of
    psi(t) (x) psi(t) in an orthonormal basis of Sym^2, a basis change U acts
    on them by the unitary Sym^2(U), and the spectrum of the Gram matrix does
    not depend on the reference basis.
    """
    rows = sym2_products(traj.states)
    if len(traj) < OVERSAMPLING_FACTOR * len(rows):
        raise TooFewSamples(
            f"need at least {OVERSAMPLING_FACTOR * len(rows)} samples for a "
            f"{len(rows)}-pair Gram matrix, got {len(traj)}"
        )
    return _trapezoid_gram(rows, traj.times)


@dataclass(frozen=True)
class Certificate:
    """Outcome of the obstruction test, with diagnostics for auditing."""

    verdict: Verdict
    numerical_rank: int
    full_rank: int
    min_max_eig_ratio: float
    trajectory_span_dim: int
    rank_tol: float
    gram_eigenvalues: np.ndarray

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "numerical_rank": self.numerical_rank,
            "full_rank": self.full_rank,
            "min_max_eig_ratio": self.min_max_eig_ratio,
            "trajectory_span_dim": self.trajectory_span_dim,
            "rank_tol": self.rank_tol,
            "gram_eigenvalues": list(map(float, self.gram_eigenvalues)),
        }


def _numerical_rank(eigs: np.ndarray, rank_tol: float) -> int:
    if not 0 < rank_tol < 1:
        raise ValueError(f"rank_tol must lie strictly between 0 and 1, got {rank_tol}")
    top = eigs.max()
    if top <= 0:
        return 0
    return int((eigs > rank_tol * top).sum())


def trajectory_span_dimension(traj: SampledTrajectory, rank_tol: float) -> int:
    """Numerical dimension of span{psi(t)} via the component Gram matrix."""
    eigs = np.linalg.eigvalsh(_trapezoid_gram(traj.states.T, traj.times))
    return _numerical_rank(eigs, rank_tol)


def certify_no_disentangling(
    traj: SampledTrajectory, rank_tol: float = DEFAULT_RANK_TOL
) -> Certificate:
    """Run the obstruction test on a sampled trajectory.

    The eigenvalues of the product Gram matrix are thresholded at
    `rank_tol` times the largest one.  A rank above N - K (N the Gram size,
    K = C(n1, 2) C(n2, 2) the minor count) certifies that no disentangling
    TPS exists; a trajectory span of dimension at most max(n1, n2)
    certifies that one does (and takes precedence -- the two can never fire
    together, since a low-dimensional span forces product dependencies);
    anything else is inconclusive.
    """
    gram = build_product_gram(traj)
    # the Gram is positive semidefinite: its zero eigenvalues come back as signed rounding
    eigs = np.maximum(np.linalg.eigvalsh(gram), 0.0)
    rank = _numerical_rank(eigs, rank_tol)
    full = len(gram)
    span_dim = trajectory_span_dimension(traj, rank_tol)

    if span_dim <= max(traj.dims.n1, traj.dims.n2):
        verdict = Verdict.EXISTS_LOW_DIM
    elif rank > full - math.comb(traj.dims.n1, 2) * math.comb(traj.dims.n2, 2):
        verdict = Verdict.CERTIFIED_NO
    else:
        verdict = Verdict.INCONCLUSIVE

    return Certificate(
        verdict=verdict,
        numerical_rank=rank,
        full_rank=full,
        min_max_eig_ratio=float(eigs.min() / eigs.max()),
        trajectory_span_dim=span_dim,
        rank_tol=rank_tol,
        gram_eigenvalues=np.sort(eigs)[::-1],
    )
