"""One-command regression of every bundled numerical claim.

Each check is a zero-argument callable returning (passed, detail), and holds
its own tolerances.  The CLI `reproduce` subcommand runs them in order and
exits nonzero if any fails; the acceptance test suite runs the same checks,
adding only wall-time budgets.
"""

from __future__ import annotations

import numpy as np

from . import fixtures
from .construct import ConstructConfig, construct_disentangler, verify_disentangler
from .core import HilbertDims, StateVector, tps_equivalent
from .entanglement import (
    coefficient_minors,
    entanglement_entropy,
    rebased_coefficients,
    schmidt_decompose,
    schmidt_spectra,
)
from .hamiltonian import (
    interaction_norm,
    rebase_operator,
    separable_projection,
    stationarity_gradient,
)
from .linalg import haar_unitary
from .obstruction import Verdict, certify_no_disentangling
from .optimizer import OptimizerConfig, _Objective, optimize_tps
from .trajectory import sample

DIMS = HilbertDims(2, 2)


def check_cnot_disentangling():
    """Rebased C-NOT evolution is a product state on a 1000-point grid."""
    tps = fixtures.cnot_disentangler()
    r = verify_disentangler(tps, sample(fixtures.cnot_trajectory(), 1000), 1e-10)
    return r.passed, f"max minor {r.max_minor:.2e}, max sigma2 {r.max_sigma2:.2e} (tol 1e-10)"


def check_closed_form_factorization():
    """Rebased state matches (e^{-it}/4) [(z-1), (z+1)] (x) [(z-1), (z+1)]."""
    tps = fixtures.cnot_disentangler()
    sampled = sample(fixtures.cnot_trajectory(), 1000)
    t = sampled.times
    z = np.exp(1j * t)[:, None]
    factor = np.concatenate([z - 1, z + 1], axis=1)
    outer = factor[:, :, None] * factor[:, None, :]
    expected = (np.exp(-1j * t) / 4)[:, None, None] * outer
    worst = float(np.abs(rebased_coefficients(sampled, tps) - expected).max())
    return worst < 1e-12, f"max componentwise deviation {worst:.2e} (tol 1e-12)"


def check_hamiltonian_evolution():
    """exp(+iHt) reproduces the closed-form trajectory on 1000 samples."""
    evolved = sample(fixtures.cnot_evolution(), 1000)
    reference = sample(fixtures.cnot_trajectory(), 1000)
    worst = float(np.abs(evolved.states - reference.states).max())
    return worst < 1e-10, f"max state deviation {worst:.2e} (tol 1e-10)"


def check_rebased_generator_separable():
    """Generator becomes (sx (x) 1 + 1 (x) sx)/2 in the disentangling basis."""
    rebased = rebase_operator(fixtures.cnot_disentangler(), fixtures.cnot_hamiltonian())
    dev = float(np.abs(rebased - fixtures.separable_target()).max())
    inter = interaction_norm(rebased, DIMS)
    ok = dev < 1e-12 and inter < 1e-10
    return ok, f"deviation {dev:.2e} (tol 1e-12), interaction norm {inter:.2e} (tol 1e-10)"


def _diagonal_pattern_lstsq(diag: np.ndarray) -> float:
    """Independent oracle: best fit of (a+c, b+c, a+d, b+d) to the diagonal.

    The design matrix is rank 3 (a constant can shift between the factor
    pairs), so the residual is computed explicitly rather than read off the
    lstsq return, which is empty for rank-deficient systems.
    """
    design = np.array(
        [[1, 0, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1], [0, 1, 0, 1]], dtype=float
    )
    coeffs, _, _, _ = np.linalg.lstsq(design, diag, rcond=None)
    return float(np.linalg.norm(diag - design @ coeffs))


def check_eigenbasis_interaction():
    """diag(0, 0, 1, -1) has interaction norm 1, cross-checked by least squares."""
    form = rebase_operator(fixtures.cnot_eigenbasis(), fixtures.cnot_hamiltonian())
    inter = interaction_norm(form, DIMS)
    oracle = _diagonal_pattern_lstsq(np.real(np.diagonal(form)))
    ok = abs(inter - 1.0) < 1e-9 and abs(oracle - inter) < 1e-9
    return ok, f"interaction norm {inter:.12f}, diagonal-fit oracle {oracle:.12f} (tol 1e-9)"


def check_stationarity_counterexample():
    """The eigenbasis is a stationary point of the interaction norm while not
    minimizing it -- stationarity does not imply minimality."""
    form = rebase_operator(fixtures.cnot_eigenbasis(), fixtures.cnot_hamiltonian())
    grad_eigen = stationarity_gradient(form, DIMS)
    inter_eigen = interaction_norm(form, DIMS)
    rebased = rebase_operator(fixtures.cnot_disentangler(), fixtures.cnot_hamiltonian())
    grad_min = stationarity_gradient(rebased, DIMS)
    inter_min = interaction_norm(rebased, DIMS)
    ok = grad_eigen < 1e-6 and abs(inter_eigen - 1.0) < 1e-9 and grad_min < 1e-6
    return ok, (
        f"eigenbasis: gradient {grad_eigen:.2e}, interaction {inter_eigen:.6f}; "
        f"disentangling basis: gradient {grad_min:.2e}, interaction {inter_min:.2e}"
    )


def check_obstruction_certificates():
    """Sidon trajectory certified at rank 10/10, C-NOT inconclusive at rank
    5/10; verdicts and ranks stable under doubling the sample count."""
    trajectories = (
        fixtures.sidon_trajectory(), fixtures.cnot_trajectory(), fixtures.lowdim_trajectory()
    )
    certs = [certify_no_disentangling(traj, num_samples=400) for traj in trajectories]
    sidon, cnot, low = certs
    ok = (
        (sidon.verdict, sidon.numerical_rank, sidon.full_rank) == (Verdict.CERTIFIED_NO, 10, 10)
        and (cnot.verdict, cnot.numerical_rank, cnot.full_rank) == (Verdict.INCONCLUSIVE, 5, 10)
        and low.verdict is Verdict.EXISTS_LOW_DIM
    )
    for cert, traj in zip(certs, trajectories):
        doubled = certify_no_disentangling(traj, num_samples=800)
        ok &= (doubled.verdict, doubled.numerical_rank) == (cert.verdict, cert.numerical_rank)
    return ok, (
        f"sidon {sidon.verdict.value} {sidon.numerical_rank}/{sidon.full_rank}; "
        f"cnot {cnot.verdict.value} {cnot.numerical_rank}/{cnot.full_rank}; "
        f"lowdim {low.verdict.value} span {low.trajectory_span_dim}; "
        "verdicts and ranks stable under doubling"
    )


def check_constructor_regression():
    """The solver recovers a TPS equivalent to the known closed-form one."""
    result = construct_disentangler(fixtures.cnot_trajectory(), ConstructConfig())
    if not result.found:
        return False, result.message
    sampled = sample(fixtures.cnot_trajectory(), 1000)
    report = verify_disentangler(result.tps, sampled, 1e-8)
    equivalent = tps_equivalent(result.tps, fixtures.cnot_disentangler())
    ok = report.passed and equivalent
    return ok, (
        f"verify max sigma2 {report.max_sigma2:.2e} (tol 1e-8), "
        f"equivalent to closed form: {equivalent}"
    )


def check_optimizer_cnot():
    """Numerical search reaches a near-disentangling TPS where one exists."""
    result = optimize_tps(fixtures.cnot_trajectory(), OptimizerConfig(restarts=32, seed=0))
    return result.objective < 1e-6, f"objective {result.objective:.2e} (tol 1e-6)"


def check_optimizer_sidon_floor():
    """The certified-obstructed trajectory keeps a macroscopic distance floor."""
    result = optimize_tps(fixtures.sidon_trajectory(), OptimizerConfig(restarts=32, seed=0))
    return result.objective > 1e-3, f"best objective {result.objective:.2e} (floor 1e-3)"


def random_state(rng, dims=DIMS) -> StateVector:
    """Haar-random pure state: a normalized complex Gaussian vector."""
    z = rng.normal(size=dims.n) + 1j * rng.normal(size=dims.n)
    return StateVector.normalized(z, dims)


def check_property_schmidt_reconstruction():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        psi = random_state(rng)
        dec = schmidt_decompose(psi)
        worst = max(worst, float(np.abs(dec.reconstruct() - psi.amplitudes).max()))
    return worst < 1e-10, f"max reconstruction error {worst:.2e} over 200 states (tol 1e-10)"


def check_property_minor_sigma2_agreement():
    """The minor test and the sigma_2 test agree at 1e-8 on Haar states, exact
    products and near-products with sigma_2 = 1e-10 or 1e-6; each side of the
    threshold holds some of them, so a test with one constant answer fails."""
    rng = np.random.default_rng(202)
    haar = np.stack([random_state(rng).amplitudes.reshape(2, 2) for _ in range(1000)])
    sigma2 = np.repeat([0.0, 1e-10, 1e-6], 200)
    u, v = (np.stack([haar_unitary(2, rng) for _ in sigma2]) for _ in range(2))
    near = (u * np.stack([np.sqrt(1 - sigma2**2), sigma2], axis=1)[:, None, :]) @ v
    mats = np.concatenate([haar, near])
    minors = np.abs(coefficient_minors(mats)).max(axis=-1) < 1e-8
    sigma = schmidt_spectra(mats)[:, 1] < 1e-8
    products = int(sigma.sum())
    ok = bool(np.array_equal(minors, sigma)) and 0 < products < len(mats)
    return ok, (
        f"minor test and sigma_2 test agree on {int((minors == sigma).sum())} of {len(mats)} "
        f"states at 1e-8 (sigma_2 test: {products} product, {len(mats) - products} entangled)"
    )


def check_property_projection_pythagoras():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (z + z.conj().T) / 2
        dec = separable_projection(h, DIMS)
        lhs = np.linalg.norm(h) ** 2
        rhs = np.linalg.norm(dec.separable_part()) ** 2 + dec.interaction_norm**2
        worst = max(worst, abs(lhs - rhs))
    return worst < 1e-9, f"max Pythagoras defect {worst:.2e} over 100 operators (tol 1e-9)"


def check_property_local_invariance():
    rng = np.random.default_rng(404)
    worst_entropy = 0.0
    worst_inter = 0.0
    for _ in range(50):
        local = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
        psi = random_state(rng)
        rotated = StateVector.normalized(local @ psi.amplitudes, DIMS)
        worst_entropy = max(
            worst_entropy, abs(entanglement_entropy(rotated) - entanglement_entropy(psi))
        )
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (z + z.conj().T) / 2
        worst_inter = max(
            worst_inter,
            abs(interaction_norm(local @ h @ local.conj().T, DIMS) - interaction_norm(h, DIMS)),
        )
    ok = worst_entropy < 1e-10 and worst_inter < 1e-9
    return ok, (
        f"entropy drift {worst_entropy:.2e} (tol 1e-10), "
        f"interaction-norm drift {worst_inter:.2e} (tol 1e-9) under local unitaries"
    )


def check_property_gradient_agreement():
    """Analytic optimizer Jacobian matches central finite differences along its chart."""
    sampled = sample(fixtures.cnot_trajectory(), 50)
    objective = _Objective(sampled)
    rng = np.random.default_rng(505)
    worst = 0.0
    step = 1e-6
    for _ in range(20):
        u = objective.start(rng.normal(scale=0.7, size=16))
        jac = objective.residual_jacobian(u)
        fd = np.empty_like(jac)
        for d, e in enumerate(step * np.eye(len(objective.basis))):
            plus, minus = (objective.residuals(objective.step(u, sign * e)) for sign in (1, -1))
            fd[:, d] = (plus - minus) / (2 * step)
        worst = max(worst, float(np.linalg.norm(jac - fd) / np.linalg.norm(fd)))
    return worst < 1e-5, f"max relative Jacobian error {worst:.2e} over 20 points (tol 1e-5)"


ALL_CHECKS = (
    ("cnot-disentangling", check_cnot_disentangling),
    ("closed-form-factorization", check_closed_form_factorization),
    ("hamiltonian-evolution", check_hamiltonian_evolution),
    ("rebased-generator-separable", check_rebased_generator_separable),
    ("eigenbasis-interaction", check_eigenbasis_interaction),
    ("stationarity-counterexample", check_stationarity_counterexample),
    ("obstruction-certificates", check_obstruction_certificates),
    ("constructor-regression", check_constructor_regression),
    ("optimizer-cnot", check_optimizer_cnot),
    ("optimizer-sidon-floor", check_optimizer_sidon_floor),
    ("property-schmidt-reconstruction", check_property_schmidt_reconstruction),
    ("property-minor-sigma2-agreement", check_property_minor_sigma2_agreement),
    ("property-projection-pythagoras", check_property_projection_pythagoras),
    ("property-local-invariance", check_property_local_invariance),
    ("property-gradient-agreement", check_property_gradient_agreement),
)


def run_all() -> bool:
    """Run every check, print one line each; True when all pass."""
    all_ok = True
    for name, check in ALL_CHECKS:
        ok, detail = check()
        all_ok &= ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    return all_ok
