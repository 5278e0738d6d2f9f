"""Closed-form disentangler for frequency-1 two-qbit trajectories.

Write z = e^{it} and v(z) = (z^2, z, 1).  A frequency-1 trajectory is the
exponential sum e^{it} a_{+1} + a_0 + e^{-it} a_{-1} of
`TrigTrajectory.exponentials`, so psi(t) = e^{-it} m v(z) for the 4 x 3
coefficient map m = [a_{+1}, a_0, a_{-1}]: row j of m holds the coefficients
of the quadratic P_j with raw component j equal to e^{-it} P_j(z).
`_coefficient_map`, the one input gate, builds m from any 2 x 2 trig input
with frequencies in {0, 1}, and refuses all else.  A basis change U rebases
it to e^{-it} U m v(z).  When m has rank 3, that is a product state at every
t exactly when

    U m = N := [a0 (x) b0,  a0 (x) b1 + a1 (x) b0,  a1 (x) b1]

for some a0, a1, b0, b1 in C^2, i.e. when the rebased state is
(a0 z + a1) (x) (b0 z + b1): a factor of degree 0 would confine the states to
a two-dimensional span.  Both m and N have rank 3, so a unitary U with
U m = N exists iff they share their Gram matrix, G := m^H m = N^H N.

Unit norm at every t fixes three Fourier coefficients of v^H G v: tr G = 1,
G_02 = 0 and G_12 = -G_01.  For N, G_02 = <a0,a1><b0,b1>, so one pair is
orthogonal; then G_12 = -G_01 forces the other pair orthogonal too, and
N^H N is diagonal with entries (p1 p2, p1 (1-p2) + (1-p1) p2, (1-p1)(1-p2))
for p1 = |a0|^2, p2 = |b0|^2 (scaling |a0|^2 + |a1|^2 = |b0|^2 + |b1|^2 = 1).
With g = diag G / tr G, p1 and p2 are the roots of x^2 - (1 + g0 - g2) x + g0,
which are real iff g1^2 >= 4 g0 g2.  So a disentangler exists iff

    G_01 = 0  and  g1^2 >= 4 g0 g2,

and then one is read off directly: a0 = sqrt(p1) h, a1 = sqrt(1-p1) k,
b0 = sqrt(p2) h, b1 = sqrt(1-p2) k for the orthonormal pair
h = (1, 1)/sqrt2, k = (-1, 1)/sqrt2.  Component (i, j) of N is the quadratic
kappa_ij (X - r_i)(X - r'_j) with kappa = a0 (x) b0, roots a, b = -a1[i]/a0[i]
of the first factor and c, d = -b1[j]/b0[j] of the second, so the four
components carry the root pairs ("ac", "ad", "bc", "bd") and satisfy
P_0 P_3 = P_1 P_2, the vanishing 2x2 minor of the coefficient matrix.

When m has rank 2 or less, the states span at most two dimensions, which is
max(n1, n2), and no condition is needed: with m = W S V^H its SVD, the rows
of U = W^H reordered to (w0, w2, w1, w3) send the span to |00>, |10>, where
every state is (.) (x) |0>.

Candidates are judged exactly, with no samples, by `entanglement.tail_bound`,
which bounds sigma_2 of the rebased state at every t and here is sqrt2 sum_k
|Q_k| for the rebased minor e^{-2it} Q(e^{it}), Q = P_0 P_3 - P_1 P_2 over the
rows of U m.  The identity, the SVD candidate and the closed form are tried in
turn, and the first bound below the tolerance wins; so a `not_found` on a
rank-3 input means the necessary condition failed, and the message carries
both invariants.

Frequency-1 components live in the three-dimensional function space spanned
by {1, cos t, sin t}, so the four of them are always linearly dependent and
the coefficient map always has a null direction on which the trajectory puts
no constraint at all.  U's action there is completed by orthonormal
complement, but distinct completion phases yield genuinely *inequivalent*
TPSs that all disentangle the trajectory.  The returned representative is
canonicalized by choosing the completion phase that minimizes the operator
entanglement sum_k sigma_k^4 of U over its operator-Schmidt coefficients
(Zanardi 2001; the "flattest" basis change, the one that spreads the change
most evenly across the two factors).  That choice is deterministic and
well-defined on TPS classes, because operator-Schmidt coefficients are
invariant under local unitaries.  It is also exact: along the phase the sum
is a trigonometric polynomial of degree 2, whose minimum is read off the
roots of one quartic (see `_complete_unitary`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import HilbertDims, TPSpec
from .entanglement import tail_bound
from .errors import InvalidInput, UnsupportedForm
from .linalg import nearest_unitary, reshuffle
from .trajectory import TrigTrajectory

# component (i, j) = 2 i + j carries root i of the first factor (a or b) and
# root j of the second (c or d), so P_0 P_3 = P_1 P_2 is the vanishing minor
ROOT_LABELS = ("a", "b", "c", "d")

_H = np.array([1.0, 1.0]) / np.sqrt(2)
_K = np.array([-1.0, 1.0]) / np.sqrt(2)


@dataclass(frozen=True)
class ConstructConfig:
    verify_tol: float = 1e-8

    def __post_init__(self):
        if not 0 < self.verify_tol < math.inf:
            raise InvalidInput("verify_tol must be finite and positive")


@dataclass(frozen=True)
class RootPairing:
    """Solved factorization data: the roots and leading coefficients of the
    four components (see ROOT_LABELS)."""

    roots: dict  # label -> complex root, labels "a", "b", "c", "d"
    kappas: np.ndarray  # leading coefficients kappa_1..kappa_4


@dataclass(frozen=True)
class ConstructionResult:
    found: bool
    message: str
    tps: TPSpec | None = None
    pairing: RootPairing | None = None
    orthonormality_residual: float = math.inf
    disentangling_residual: float = math.inf
    attempts: int = 0


def _coefficient_map(traj) -> np.ndarray:
    """The 4 x 3 map m = [a_{+1}, a_0, a_{-1}] with psi(t) = e^{-it} m (z^2, z, 1), from
    a 2 x 2 `TrigTrajectory` whose (exact, integer) exponential frequencies lie in
    {-1, 0, +1}, summing rows of equal frequency; any other input raises `UnsupportedForm`."""
    if isinstance(traj, TrigTrajectory) and traj.dims == HilbertDims(2, 2):
        freqs, rows = traj.exponentials()
        if np.all(np.abs(freqs) <= 1):
            m = np.zeros((4, 3), dtype=complex)
            np.add.at(m.T, (1 - freqs).astype(int), rows)
            return m
    got = f"{type(traj).__name__} on {traj.dims.n1}x{traj.dims.n2}"
    if isinstance(traj, TrigTrajectory):
        got += f" with harmonic frequencies {[h.frequency for h in traj.harmonics]}"
    raise UnsupportedForm(f"construct takes 2x2 trig input with frequencies 0 and 1; got {got}")


def _complete_unitary(s: np.ndarray, q: np.ndarray, dims: HilbertDims) -> np.ndarray:
    """U = s q_3^H + e^{i phi} s4 q4^H at the phase phi of least operator entanglement.

    q is the complete 4 x 4 QR factor of m: q_3 its first three columns and
    q4 their unit complement; s4 is the unit complement of the columns of s.
    Every phase acts alike on range(m), but the resulting TPSs are
    inequivalent.  With R_F, R_B the reshuffles of the two terms,
    C = R_B R_F^H and P = R_F R_F^H + R_B R_B^H, the operator entanglement
    sum_k sigma_k^4 of U is exactly const + Re(a1 e^{i phi}) + Re(a2 e^{2 i phi})
    with a1 = 4 tr(P C) and a2 = 2 tr(C^2).  Its stationary points are
    phi = pi and phi = 2 arctan(t) for the real roots t of a quartic in
    t = tan(phi/2) (the real parts of all its roots are tried), so the least
    of them is the global minimum, found with no search.  Any phase of
    s4 q4^H is absorbed into phi.  (The quartic in z = e^{i phi} would lose
    the minimum where a2 = 0 and its end coefficients vanish, as on C-NOT.)
    """
    fixed = s @ q[:, :3].conj().T
    block = np.outer(np.linalg.qr(s, mode="complete")[0][:, 3], q[:, 3].conj())
    r_f, r_b = reshuffle(fixed, dims.n1, dims.n2), reshuffle(block, dims.n1, dims.n2)
    c = r_b @ r_f.conj().T
    a1 = 4 * np.trace((r_f @ r_f.conj().T + r_b @ r_b.conj().T) @ c)
    a2 = 2 * np.trace(c @ c)
    quartic = [
        a1.imag - 2 * a2.imag,
        8 * a2.real - 2 * a1.real,
        12 * a2.imag,
        -2 * a1.real - 8 * a2.real,
        -a1.imag - 2 * a2.imag,
    ]
    phis = np.append(2 * np.arctan(np.roots(quartic).real), np.pi)
    values = (a1 * np.exp(1j * phis)).real + (a2 * np.exp(2j * phis)).real
    return fixed + np.exp(1j * phis[values.argmin()]) * block


def construct_disentangler(
    traj: TrigTrajectory, config: ConstructConfig = ConstructConfig()
) -> ConstructionResult:
    """Build the closed-form TPS in which the trajectory is a product state
    at all times, if one exists.

    Inputs are those `_coefficient_map` takes.  The identity, the SVD candidate
    and the closed form are tried in turn; the first whose `tail_bound` is below
    `config.verify_tol` is returned, with that bound, which holds at every t, as
    its `disentangling_residual`.  A `found=False` result on a rank-3
    coefficient matrix means the Gram condition of the module docstring fails.
    """
    m = _coefficient_map(traj)

    def found(u, bound, message, attempts=1, pairing=None):
        tps = TPSpec(u, traj.dims)
        orth = float(np.linalg.norm(tps.basis_change.conj().T @ tps.basis_change - np.eye(4)))
        return ConstructionResult(True, message, tps, pairing, orth, bound, attempts)

    svd = np.linalg.svd(m)[0][:, [0, 2, 1, 3]].conj().T
    for attempts, u, message in (
        (0, np.eye(4, dtype=complex), "trajectory is already a product in the reference basis"),
        (1, svd, "the states span at most two dimensions; the SVD of m sends them to |00>, |10>"),
    ):
        if (bound := tail_bound(traj, u)) < config.verify_tol:
            return found(u, bound, message, attempts)

    q, r = np.linalg.qr(m, mode="complete")
    gram = m.conj().T @ m
    g = np.real(np.diagonal(gram)) / np.real(np.trace(gram))
    total = 1 + g[0] - g[2]
    root = math.sqrt(max(total * total - 4 * g[0], 0.0))
    p1, p2 = (total + root) / 2, (total - root) / 2
    w = np.sqrt(np.clip([p1, 1 - p1, p2, 1 - p2], 0.0, None))
    a0, a1, b0, b1 = w[0] * _H, w[1] * _K, w[2] * _H, w[3] * _K
    n = np.stack(
        [np.outer(a0, b0), np.outer(a0, b1) + np.outer(a1, b0), np.outer(a1, b1)], axis=-1
    ).reshape(4, 3)
    discriminant = g[1] ** 2 - 4 * g[0] * g[2]
    invariants = f"|G01| = {abs(gram[0, 1]):.3e}, g1^2 - 4 g0 g2 = {discriminant:.3e}"
    try:
        u = nearest_unitary(_complete_unitary(n @ np.linalg.inv(r[:3]), q, traj.dims))
        closed = tail_bound(traj, u)
    except np.linalg.LinAlgError:  # m has rank < 3 exactly: there is no closed form
        closed = math.inf
    if not closed < config.verify_tol:
        return ConstructionResult(
            found=False,
            message=f"no disentangling TPS: the coefficient Gram matrix has {invariants}, and one "
            "exists only if G01 = 0 and g1^2 >= 4 g0 g2 (the sigma2 bounds of the SVD and "
            f"closed-form candidates are {bound:.3e} and {closed:.3e})",
            attempts=1,
        )
    # a closed form that passes has g0 > 0, so a0 and b0 have no zero entry
    roots = (-a1[0] / a0[0], -a1[1] / a0[1], -b1[0] / b0[0], -b1[1] / b0[1])
    pairing = RootPairing(
        roots={label: complex(x) for label, x in zip(ROOT_LABELS, roots)},
        kappas=n[:, 0].astype(complex),
    )
    message = f"closed form from the coefficient Gram matrix ({invariants})"
    return found(u, closed, message, pairing=pairing)
