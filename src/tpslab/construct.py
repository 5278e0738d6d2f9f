"""Constructive disentangler search for frequency-1 two-qbit trajectories.

After a candidate basis change U, each trajectory component becomes
e^{-it} P_i(e^{it}) for a quadratic polynomial P_i whose coefficients are a
linear image of U's rows (see `tpslab.trajectory.trig_to_polynomials`).  The
rebased state is a product state at all times exactly when the coefficient
matrix determinant vanishes identically, i.e. when two of the P_i multiply to
the same quartic as the other two.  Factoring that quartic into four linear
factors A, B, C, D forces an intertwined root layout: one polynomial of each
product pair carries {A, C} and the other {B, D}, while the complementary
pair splits them as {A, D} and {B, C}; the fully collinear layouts would make
U singular and are excluded a priori.

The solver enumerates the three ways of pairing the four polynomials into a
product identity, writes U's constrained part in terms of the eight unknowns
(kappa_1..kappa_4, lambda_a..lambda_d), and solves the resulting
orthonormality system by restarted least squares.  Candidate solutions are
completed to a full unitary and accepted only if they pass a grid
verification, which automatically discards pairings that satisfy a polynomial
identity other than the vanishing minor.

Frequency-1 components live in the three-dimensional function space spanned
by {1, cos t, sin t}, so the four of them are always linearly dependent and
the coefficient map always has a null direction on which the trajectory puts
no constraint at all.  U's action there is completed by orthonormal
complement, but distinct completion phases yield genuinely *inequivalent*
TPSs that all disentangle the trajectory.  The returned representative is
canonicalized by choosing the completion phase that minimizes the top
operator-Schmidt coefficient of U (the "flattest" basis change, the one that
spreads the change most evenly across the two factors).  That choice is
deterministic and well-defined on TPS classes, because operator-Schmidt
coefficients are invariant under local unitaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares, minimize_scalar

from .core import HilbertDims, TPSpec, operator_schmidt_values
from .entanglement import coefficient_minors, rebased_coefficients, schmidt_spectra
from .errors import UnsupportedForm
from .linalg import nearest_unitary
from .trajectory import (
    PolynomialSystem,
    SampledTrajectory,
    TrigTrajectory,
    sample_trig,
    trig_to_polynomials,
    _require_single_frequency,
)

# The three ways to pair the four components into a product identity
# P_i P_j = P_k P_l.  Only the (0,3)|(1,2) pairing expresses the vanishing
# 2x2 minor of the coefficient matrix; it is listed first, and the grid
# verification rejects solutions of the other two.
PAIRINGS = (((0, 3), (1, 2)), ((0, 2), (1, 3)), ((0, 1), (2, 3)))

ROOT_LABELS = ("a", "b", "c", "d")

_GRAM_UPPER = np.triu_indices(3, 1)


@dataclass(frozen=True)
class ConstructConfig:
    restarts: int = 64
    seed: int = 0
    residual_bound: float = 1e-9  # accepted solve residual (orthonormality system)
    kappa_floor: float = 1e-6  # leading coefficients below this mean degree < 2
    verify_samples: int = 100
    verify_tol: float = 1e-8
    max_nfev: int = 400

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be positive")


@dataclass(frozen=True)
class RootPairing:
    """Solved factorization data: which pair of roots each polynomial carries."""

    roots: dict  # label -> complex root, labels "a", "b", "c", "d"
    kappas: np.ndarray  # leading coefficients kappa_1..kappa_4
    assignment: tuple[str, ...]  # per-component root labels, e.g. ("ac","ad","bc","bd")
    pairing: tuple  # the index pairing ((i, j), (k, l)) of the product identity


@dataclass(frozen=True)
class VerificationReport:
    max_minor: float
    max_sigma2: float
    tol: float
    passed: bool


@dataclass(frozen=True)
class ConstructionResult:
    found: bool
    tps: TPSpec | None
    pairing: RootPairing | None
    orthonormality_residual: float
    disentangling_residual: float
    message: str
    attempts: int = 0
    best_solve_residual: float = float("inf")


def verify_disentangler(
    tps: TPSpec, traj: SampledTrajectory, tol: float
) -> VerificationReport:
    """Rebase every sample and report the worst product-state residuals."""
    mats = rebased_coefficients(traj, tps)
    worst_minor = float(np.abs(coefficient_minors(mats)).max())
    worst_s2 = float(schmidt_spectra(mats)[:, 1].max())
    return VerificationReport(
        max_minor=worst_minor,
        max_sigma2=worst_s2,
        tol=tol,
        passed=bool(worst_minor < tol and worst_s2 < tol),
    )


def factorization_residual(polys: PolynomialSystem, pairing) -> np.ndarray:
    """Coefficients of P_i P_j - P_k P_l (degree-4, five entries)."""
    (i, j), (k, l) = pairing
    c = np.asarray(polys.coeffs)
    return np.convolve(c[i], c[j]) - np.convolve(c[k], c[l])


def _root_assignment(pairing) -> tuple[str, ...]:
    (i, j), (k, l) = pairing
    assignment = [""] * 4
    assignment[i] = "ac"
    assignment[j] = "bd"
    assignment[k] = "ad"
    assignment[l] = "bc"
    return tuple(assignment)


def _targets(kappas: np.ndarray, lam: dict, assignment) -> np.ndarray:
    """Rows [c2, c1, c0] of the wanted polynomial coefficients."""
    t = np.empty((4, 3), dtype=complex)
    for m, labels in enumerate(assignment):
        r1, r2 = lam[labels[0]], lam[labels[1]]
        t[m] = kappas[m] * np.array([1.0, -(r1 + r2), r1 * r2])
    return t


def _unpack(theta: np.ndarray):
    kappas = theta[0:4] + 1j * theta[4:8]
    roots = theta[8:12] + 1j * theta[12:16]
    lam = dict(zip(ROOT_LABELS, roots))
    return kappas, lam


def _residuals(theta, r_inv, assignment, pairing, kappa_floor):
    kappas, lam = _unpack(theta)
    t = _targets(kappas, lam, assignment)
    s = t @ r_inv
    gram = s.conj().T @ s - np.eye(3)
    (i, j), (k, l) = pairing
    kc = kappas[i] * kappas[j] - kappas[k] * kappas[l]
    out = np.empty(15)
    out[0:3] = np.real(np.diagonal(gram))
    out[3:6] = np.real(gram[_GRAM_UPPER])
    out[6:9] = np.imag(gram[_GRAM_UPPER])
    out[9] = kc.real
    out[10] = kc.imag
    # soft barrier keeping the leading coefficients away from degree collapse
    out[11:15] = np.clip(5 * kappa_floor - np.abs(kappas), 0.0, None)
    return out


def _phase_fixed_null(a: np.ndarray) -> np.ndarray:
    """Unit vector spanning the orthogonal complement of the columns of a
    4 x 3 matrix, with its largest entry rotated to the positive real axis."""
    u, _, _ = np.linalg.svd(a)
    v = u[:, 3]
    pivot = v[np.argmax(np.abs(v))]
    return v * (pivot.conjugate() / abs(pivot))


def _complete_unitary(s: np.ndarray, q: np.ndarray, dims: HilbertDims) -> np.ndarray:
    """Fill the unconstrained direction and canonicalize its free phase.

    Any phase on the completion rank-one block yields a valid unitary, but
    the resulting TPSs are not equivalent to each other; the phase minimizing
    the top operator-Schmidt coefficient of U is selected (scan plus local
    refinement), a convention that is invariant under local-unitary gauge.
    """
    s4 = _phase_fixed_null(s)
    q4 = _phase_fixed_null(q)
    fixed = s @ q.conj().T
    block = np.outer(s4, q4.conj())

    def top_schmidt(phi: float) -> float:
        return float(operator_schmidt_values(fixed + np.exp(1j * phi) * block, dims)[0])

    grid = np.linspace(0.0, 2 * np.pi, 181)
    scan = fixed + np.exp(1j * grid)[:, None, None] * block
    values = operator_schmidt_values(scan, dims)[:, 0]
    k = int(values.argmin())
    span = grid[1] - grid[0]
    # the minimum is typically a spectral-crossing kink, so ask for a very
    # tight bracket; each evaluation is a 4x4 SVD and costs nothing
    refined = minimize_scalar(
        top_schmidt,
        bounds=(grid[k] - span, grid[k] + span),
        method="bounded",
        options={"xatol": 1e-13},
    )
    phi = float(refined.x) if refined.fun <= values[k] else float(grid[k])
    return fixed + np.exp(1j * phi) * block


def construct_disentangler(
    traj: TrigTrajectory, config: ConstructConfig = ConstructConfig()
) -> ConstructionResult:
    """Search for a TPS in which the trajectory is a product state at all times.

    A `found=False` result means the restart budget was exhausted or the
    trajectory's coefficient structure is degenerate for this method; it is
    *not* a proof that no disentangling TPS exists.
    """
    if traj.dims != HilbertDims(2, 2):
        raise UnsupportedForm("the constructive solver handles 2x2 bipartitions only")
    _require_single_frequency(traj)

    sampled = sample_trig(traj, config.verify_samples)
    identity = TPSpec.identity(traj.dims)

    # Already a product in the reference basis: nothing to construct.
    report = verify_disentangler(identity, sampled, config.verify_tol)
    if report.passed:
        return ConstructionResult(
            found=True,
            tps=identity,
            pairing=None,
            orthonormality_residual=0.0,
            disentangling_residual=max(report.max_sigma2, report.max_minor),
            message="trajectory is already a product in the reference basis",
        )

    # Coefficient map M: row j holds the polynomial coefficients of the j-th
    # raw component, so a candidate U produces polynomial rows U @ M.
    m = np.asarray(trig_to_polynomials(traj, identity).coeffs)
    q, r = np.linalg.qr(m)
    scale = np.abs(np.diagonal(r)).max()
    if scale == 0 or np.abs(np.diagonal(r)).min() < 1e-12 * scale:
        return ConstructionResult(
            found=False,
            tps=None,
            pairing=None,
            orthonormality_residual=float("inf"),
            disentangling_residual=float("inf"),
            message=(
                "degenerate coefficient structure: the component functions span "
                "fewer than three polynomial degrees, so every candidate would "
                "drop below degree 2"
            ),
        )
    r_inv = np.linalg.inv(r)

    attempts = 0
    best_residual = float("inf")
    # Deterministic warm start: equal leading coefficients and unit-circle
    # roots +-1, the natural first guess for frequency-1 trigonometric
    # factors (e^{it} -+ 1 are *the* degree-1 trig building blocks).  The
    # kappa magnitude 1/4 matches a unit-norm trajectory whose constant and
    # oscillating parts carry equal weight.
    warm_kappa = np.full(4, 0.25, dtype=complex)
    warm_roots = np.array([1.0, -1.0, 1.0, -1.0], dtype=complex)

    for restart in range(config.restarts):
        for pat_idx, pairing in enumerate(PAIRINGS):
            assignment = _root_assignment(pairing)
            if restart == 0:
                kappas0, roots0 = warm_kappa, warm_roots
            else:
                rng = np.random.default_rng([config.seed, pat_idx, restart])
                kappas0 = 0.5 * (rng.normal(size=4) + 1j * rng.normal(size=4))
                roots0 = rng.normal(size=4) + 1j * rng.normal(size=4)
            theta0 = np.concatenate(
                [kappas0.real, kappas0.imag, roots0.real, roots0.imag]
            )
            sol = least_squares(
                _residuals,
                theta0,
                args=(r_inv, assignment, pairing, config.kappa_floor),
                method="trf",
                xtol=1e-15,
                ftol=1e-15,
                gtol=1e-15,
                max_nfev=config.max_nfev,
            )
            attempts += 1
            kappas, lam = _unpack(sol.x)
            core_residual = float(np.linalg.norm(sol.fun[:11]))
            best_residual = min(best_residual, core_residual)
            if core_residual > config.residual_bound:
                continue
            if np.abs(kappas).min() <= config.kappa_floor:
                continue
            s = _targets(kappas, lam, assignment) @ r_inv
            u_raw = _complete_unitary(s, q, traj.dims)
            tps = TPSpec(nearest_unitary(u_raw), traj.dims)
            report = verify_disentangler(tps, sampled, config.verify_tol)
            if not report.passed:
                continue
            orth = float(
                np.linalg.norm(
                    tps.basis_change.conj().T @ tps.basis_change - np.eye(4)
                )
            )
            return ConstructionResult(
                found=True,
                tps=tps,
                pairing=RootPairing(
                    roots=dict(zip(ROOT_LABELS, (lam[l] for l in ROOT_LABELS))),
                    kappas=kappas,
                    assignment=assignment,
                    pairing=pairing,
                ),
                orthonormality_residual=orth,
                disentangling_residual=max(report.max_sigma2, report.max_minor),
                message=f"solved at restart {restart}, pairing {pairing}",
                attempts=attempts,
                best_solve_residual=core_residual,
            )

    return ConstructionResult(
        found=False,
        tps=None,
        pairing=None,
        orthonormality_residual=float("inf"),
        disentangling_residual=float("inf"),
        message=(
            f"no unitary passed verification within {config.restarts} restarts "
            f"(best solve residual {best_residual:.3e}); this does not prove "
            "non-existence"
        ),
        attempts=attempts,
        best_solve_residual=best_residual,
    )
