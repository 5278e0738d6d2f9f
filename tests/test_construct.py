import numpy as np
import pytest

from tpslab import fixtures
from tpslab.construct import (
    ConstructConfig,
    _coefficient_map,
    _sigma2_bound,
    construct_disentangler,
    verify_disentangler,
)
from tpslab.core import HilbertDims, TPSpec, operator_schmidt_values, tps_equivalent
from tpslab.errors import UnsupportedForm
from tpslab.linalg import haar_unitary
from tpslab.obstruction import Verdict, certify_no_disentangling
from tpslab.trajectory import Harmonic, TrigTrajectory, sample

from helpers import QBITS, near_two_dimensional, random_local_unitary

S2 = np.sqrt(2)


@pytest.fixture(scope="module")
def cnot_result():
    return construct_disentangler(fixtures.cnot_trajectory(), ConstructConfig())


def test_finds_disentangler_for_gate_trajectory(cnot_result):
    assert cnot_result.found
    assert cnot_result.orthonormality_residual < 1e-8
    assert cnot_result.disentangling_residual < 1e-14


def test_solution_equivalent_to_closed_form(cnot_result):
    assert tps_equivalent(cnot_result.tps, fixtures.cnot_disentangler())


def test_warm_seed_recovers_known_parameters(cnot_result):
    # the closed form puts p1 = p2 = 1/2 here: equal leading coefficients 1/4
    # and roots (1, -1, 1, -1), the factors e^{it} -+ 1 of the C-NOT evolution
    pairing = cnot_result.pairing
    assert pairing is not None
    assert np.allclose(pairing.kappas, 0.25, atol=1e-9)
    assert np.isclose(pairing.roots["a"], 1, atol=1e-9)
    assert np.isclose(pairing.roots["c"], 1, atol=1e-9)
    assert np.isclose(pairing.roots["b"], -1, atol=1e-9)
    assert np.isclose(pairing.roots["d"], -1, atol=1e-9)


def _pairing_residual(traj, tps, pairing):
    """Coefficients of P_i P_j - P_k P_l for the rows P of U m (degree 4, five entries)."""
    (i, j), (k, l) = pairing
    p = tps.basis_change @ _coefficient_map(traj)
    return np.convolve(p[i], p[j]) - np.convolve(p[k], p[l])


def test_factorization_identity_of_solution(cnot_result):
    residual = _pairing_residual(fixtures.cnot_trajectory(), cnot_result.tps, ((0, 3), (1, 2)))
    assert np.abs(residual).max() < 1e-9


def test_minor_pairing_is_the_one_that_survives(cnot_result):
    # the product identity that expresses the vanishing coefficient-matrix
    # minor pairs the outer components against the inner ones
    for pairing in (((0, 2), (1, 3)), ((0, 1), (2, 3))):
        residual = _pairing_residual(fixtures.cnot_trajectory(), cnot_result.tps, pairing)
        assert np.abs(residual).max() > 1e-3


def test_product_trajectory_yields_identity():
    result = construct_disentangler(fixtures.lowdim_trajectory(), ConstructConfig())
    assert result.found
    assert result.pairing is None
    assert tps_equivalent(result.tps, TPSpec.identity(QBITS))


def test_verify_reference_disentangler():
    sampled = sample(fixtures.cnot_trajectory(), 100)
    report = verify_disentangler(fixtures.cnot_disentangler(), sampled, 1e-10)
    assert report.passed
    assert report.max_sigma2 < 1e-10


def test_verify_identity_fails_at_bell_endpoint():
    sampled = sample(fixtures.cnot_trajectory(), 100)
    report = verify_disentangler(TPSpec.identity(QBITS), sampled, 1e-8)
    assert not report.passed
    assert report.max_sigma2 == pytest.approx(1 / S2, abs=1e-12)


def test_verify_rebased_constant_product():
    rng = np.random.default_rng(4)
    tps = TPSpec(haar_unitary(4, rng), QBITS)
    product = np.kron([1, 0], [1, 0]).astype(complex)
    states = np.tile(tps.basis_change.conj().T @ product, (5, 1))
    from tpslab.trajectory import SampledTrajectory

    sampled = SampledTrajectory(QBITS, np.linspace(0, 1, 5), states)
    assert verify_disentangler(tps, sampled, 1e-10).passed


@pytest.mark.parametrize("seed", range(5))
def test_solution_gauge_freedom(cnot_result, seed):
    rng = np.random.default_rng(seed)
    composed = TPSpec(random_local_unitary(rng) @ cnot_result.tps.basis_change, QBITS)
    sampled = sample(fixtures.cnot_trajectory(), 100)
    assert verify_disentangler(composed, sampled, 1e-8).passed


def _twisted_gate_trajectory():
    # multiply the last component by a phase: still unit-norm, still frequency 1
    base = fixtures.cnot_trajectory()
    h = base.harmonics[0]
    twist = np.diag([1, 1, 1, np.exp(1j * np.pi / 3)])
    return TrigTrajectory(
        QBITS, twist @ base.constant, (Harmonic(1, twist @ h.cos_coeffs, twist @ h.sin_coeffs),), base.t_max
    )


def test_twisted_gate_trajectory_is_solved():
    result = construct_disentangler(_twisted_gate_trajectory(), ConstructConfig())
    assert result.found
    assert result.disentangling_residual < 1e-8


def _rotated(traj, u):
    h = traj.harmonics[0]
    harmonic = Harmonic(h.frequency, u @ h.cos_coeffs, u @ h.sin_coeffs)
    return TrigTrajectory(traj.dims, u @ traj.constant, (harmonic,), traj.t_max)


def test_degenerate_coefficient_structure_is_disentangled():
    # rank <= 2 coefficient maps, entangled in the reference basis: the span has
    # dimension <= 2 = max(n1, n2), so certify proves a disentangler exists and
    # the constructor must find one
    bell = np.array([1, 0, 0, 1], dtype=complex) / S2
    w2 = np.array([0, 1, 1, 0], dtype=complex) / S2
    zero = np.zeros(4, dtype=complex)
    trajectories = [
        TrigTrajectory(QBITS, zero, (Harmonic(1, bell, w2),), np.pi),
        TrigTrajectory(QBITS, zero, (Harmonic(1, bell, 1j * bell),), 2 * np.pi),  # e^{it} bell
    ] + [
        _rotated(fixtures.lowdim_trajectory(), haar_unitary(4, np.random.default_rng(seed)))
        for seed in range(20)
    ]
    for traj in trajectories:
        assert certify_no_disentangling(sample(traj, 400)).verdict is Verdict.EXISTS_LOW_DIM
        result = construct_disentangler(traj, ConstructConfig())
        assert result.found, result.message
        assert result.pairing is None
        assert result.orthonormality_residual < 1e-12
        assert result.disentangling_residual < 1e-14
        assert verify_disentangler(result.tps, sample(traj, 1000), 1e-12).passed


@pytest.mark.parametrize("amplitude", [1e-10, 1e-9])
def test_svd_candidate_within_tolerance_of_a_two_dimensional_span_is_found(amplitude):
    # the rank-3 coefficient map is within the tolerance of rank 2, and the SVD
    # candidate's exact bound, not the rank of m, decides
    result = construct_disentangler(near_two_dimensional(amplitude), ConstructConfig())
    assert result.found, result.message
    assert result.pairing is None
    assert result.disentangling_residual < 1e-8


@pytest.mark.parametrize("amplitude", [1e-6, 5e-5])
def test_states_beyond_tolerance_of_a_two_dimensional_span_are_not_found(amplitude):
    result = construct_disentangler(near_two_dimensional(amplitude), ConstructConfig())
    assert not result.found
    assert result.tps is None


def test_tolerance_below_rounding_is_not_found_on_a_rank_one_map():
    # e^{it} bell: the closed form needs rank 3, and the SVD candidate's bound
    # is rounding, above a tolerance of 1e-30; that is a result, not an error
    bell = np.array([1, 0, 0, 1], dtype=complex) / S2
    traj = TrigTrajectory(QBITS, np.zeros(4, dtype=complex), (Harmonic(1, bell, 1j * bell),), np.pi)
    assert not construct_disentangler(traj, ConstructConfig(verify_tol=1e-30)).found


def test_rejects_multiple_frequencies():
    with pytest.raises(UnsupportedForm):
        construct_disentangler(fixtures.sidon_trajectory(), ConstructConfig())


def test_rejects_a_single_frequency_two_harmonic():
    base = fixtures.cnot_trajectory()
    h = base.harmonics[0]
    traj = TrigTrajectory(QBITS, base.constant, (Harmonic(2, h.cos_coeffs, h.sin_coeffs),), 1.0)
    with pytest.raises(UnsupportedForm, match=r"harmonic frequencies \[2\]"):
        construct_disentangler(traj, ConstructConfig())


@pytest.mark.parametrize(
    "traj",
    [fixtures.cnot_evolution(), sample(fixtures.cnot_trajectory(), 50)],
    ids=["hamiltonian", "sampled"],
)
def test_rejects_trajectories_that_are_not_trigonometric(traj):
    # the paper's own C-NOT evolution, as a Hamiltonian or as samples
    with pytest.raises(UnsupportedForm, match=type(traj).__name__):
        construct_disentangler(traj, ConstructConfig())


def test_constant_product_is_already_a_product():
    traj = TrigTrajectory(QBITS, np.kron([0, 1], [1, 0]), (), 1.0)
    result = construct_disentangler(traj, ConstructConfig())
    assert result.found and result.attempts == 0
    assert "already a product" in result.message
    assert np.array_equal(result.tps.basis_change, np.eye(4))


def test_constant_bell_state_is_found_through_the_svd_candidate():
    traj = TrigTrajectory(QBITS, np.array([1, 0, 0, 1]) / S2, (), 1.0)
    result = construct_disentangler(traj, ConstructConfig())
    assert result.found and result.attempts == 1 and result.pairing is None
    assert "span at most two dimensions" in result.message
    assert verify_disentangler(result.tps, sample(traj, 20), 1e-12).passed


def test_frequency_one_harmonic_split_in_two_gives_the_same_basis_change(cnot_result):
    base = fixtures.cnot_trajectory()
    h = base.harmonics[0]
    half = Harmonic(1, h.cos_coeffs / 2, h.sin_coeffs / 2)
    result = construct_disentangler(TrigTrajectory(QBITS, base.constant, (half, half), base.t_max))
    assert result.found
    assert result.tps.basis_change.tobytes() == cnot_result.tps.basis_change.tobytes()


def test_rejects_larger_bipartitions():
    dims = HilbertDims(2, 3)
    traj = TrigTrajectory(
        dims,
        np.eye(6, dtype=complex)[0],
        (Harmonic(1, np.zeros(6, dtype=complex), np.zeros(6, dtype=complex)),),
        1.0,
    )
    with pytest.raises(UnsupportedForm):
        construct_disentangler(traj, ConstructConfig())


def test_deterministic_for_fixed_seed(cnot_result):
    again = construct_disentangler(fixtures.cnot_trajectory(), ConstructConfig())
    assert np.array_equal(again.tps.basis_change, cnot_result.tps.basis_change)


def test_config_validation():
    for tol in (float("nan"), -1.0, 0.0, float("inf")):
        with pytest.raises(ValueError):
            ConstructConfig(verify_tol=tol)


def _trig_from_coefficients(c):
    """Trajectory e^{-it} c v(e^{it}) on [0, 2 pi], with v(z) = (z^2, z, 1)."""
    c2, c1, c0 = c[:, 0], c[:, 1], c[:, 2]
    return TrigTrajectory(QBITS, c1, (Harmonic(1, c2 + c0, 1j * (c2 - c0)),), 2 * np.pi)


def _orthogonal_pair(rng):
    w = haar_unitary(2, rng)
    angle = rng.uniform(0.1, np.pi / 2 - 0.1)
    return np.cos(angle) * w[:, 0], np.sin(angle) * w[:, 1]


def _planted_coefficients(rng):
    """e^{-it} (p0 + p1 z) (x) (q0 + q1 z), p0 _|_ p1 and q0 _|_ q1 for unit
    norm, seen through a Haar basis change V."""
    p0, p1 = _orthogonal_pair(rng)
    q0, q1 = _orthogonal_pair(rng)
    planted = np.stack(
        [np.kron(p1, q1), np.kron(p0, q1) + np.kron(p1, q0), np.kron(p0, q0)], axis=1
    )
    return haar_unitary(4, rng) @ planted


@pytest.mark.parametrize("seed", range(20))
def test_planted_product_trajectory_is_found(seed):
    traj = _trig_from_coefficients(_planted_coefficients(np.random.default_rng(seed)))
    result = construct_disentangler(traj, ConstructConfig())
    assert result.found
    assert result.attempts == 1
    assert result.disentangling_residual < 1e-14
    report = verify_disentangler(result.tps, sample(traj, 1000), 1e-12)
    assert report.max_sigma2 < 1e-12


def _trajectory_with_gram(g, g01, seed):
    # the Gram of a unit-norm trajectory has trace 1, G02 = 0 and G12 = -G01
    gram = np.array(
        [[g[0], g01, 0], [np.conj(g01), g[1], -g01], [0, -np.conj(g01), g[2]]], dtype=complex
    )
    chol = np.linalg.cholesky(gram)
    m = haar_unitary(4, np.random.default_rng(seed)) @ np.vstack([chol.conj().T, np.zeros(3)])
    return _trig_from_coefficients(m)


def _gram_invariants(traj):
    m = _coefficient_map(traj)
    gram = m.conj().T @ m
    g = np.real(np.diagonal(gram)) / np.real(np.trace(gram))
    return abs(gram[0, 1]), g[1] ** 2 - 4 * g[0] * g[2]


@pytest.mark.parametrize(
    "g, g01",
    [((0.25, 0.5, 0.25), 0.05), ((0.25, 0.5, 0.25), 0.01j), ((0.3, 0.4, 0.3), 0.0)],
    ids=["G01=0.05", "G01=0.01i", "diagonal-negative-discriminant"],
)
def test_gram_condition_failure_is_not_found(g, g01):
    traj = _trajectory_with_gram(g, g01, seed=7)
    result = construct_disentangler(traj, ConstructConfig())
    assert not result.found
    assert result.tps is None
    off_diagonal, discriminant = _gram_invariants(traj)
    assert off_diagonal == pytest.approx(abs(g01), abs=1e-12)
    assert f"{off_diagonal:.3e}" in result.message
    assert f"{discriminant:.3e}" in result.message


def test_diagonal_gram_with_real_roots_is_found():
    traj = _trajectory_with_gram((0.1, 0.8, 0.1), 0.0, seed=7)
    result = construct_disentangler(traj, ConstructConfig())
    assert result.found
    assert verify_disentangler(result.tps, sample(traj, 1000), 1e-12).passed
    residual = _pairing_residual(traj, result.tps, ((0, 3), (1, 2)))
    assert np.abs(residual).max() < 1e-12


def _operator_entanglement(u):
    return float(np.sum(operator_schmidt_values(u, QBITS) ** 4))


@pytest.mark.parametrize(
    "case",
    ["cnot", "twisted-cnot", "diagonal-gram"] + [f"planted-{seed}" for seed in range(20)],
)
def test_completion_phase_minimizes_operator_entanglement(case):
    # the free phase rotates U's image of the complement q4 of range(m) only;
    # the returned U is the member of that family with least sum sigma^4
    if case == "cnot":
        traj = fixtures.cnot_trajectory()
    elif case == "twisted-cnot":
        traj = _twisted_gate_trajectory()
    elif case == "diagonal-gram":
        traj = _trajectory_with_gram((0.1, 0.8, 0.1), 0.0, seed=7)
    else:
        rng = np.random.default_rng(int(case.split("-")[1]))
        traj = _trig_from_coefficients(_planted_coefficients(rng))
    u = construct_disentangler(traj, ConstructConfig()).tps.basis_change
    q4 = np.linalg.svd(_coefficient_map(traj))[0][:, 3]
    scan = min(
        _operator_entanglement(u @ (np.eye(4) + (np.exp(1j * phi) - 1) * np.outer(q4, q4.conj())))
        for phi in np.linspace(0, 2 * np.pi, 3601)
    )
    assert _operator_entanglement(u) <= scan + 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_canonical_choice_commutes_with_local_unitaries(seed):
    # U disentangles psi iff U (A (x) B)^dag disentangles (A (x) B) psi, and
    # the canonical choice is a TPS-class invariant, so it must follow along
    rng = np.random.default_rng(seed)
    c = _planted_coefficients(rng)
    local = random_local_unitary(rng)
    u = construct_disentangler(_trig_from_coefficients(c), ConstructConfig()).tps
    moved = construct_disentangler(_trig_from_coefficients(local @ c), ConstructConfig()).tps
    assert tps_equivalent(moved, TPSpec(u.basis_change @ local.conj().T, QBITS))


def _bound_cases():
    rng = np.random.default_rng(11)
    trajectories = {
        "cnot": fixtures.cnot_trajectory(),
        "twisted-cnot": _twisted_gate_trajectory(),
        **{f"planted{k}": _trig_from_coefficients(_planted_coefficients(rng)) for k in range(3)},
    }
    for name, traj in trajectories.items():
        yield pytest.param(traj, np.eye(4, dtype=complex), id=f"{name}-identity")
        for k in range(3):
            yield pytest.param(traj, haar_unitary(4, rng), id=f"{name}-haar{k}")


@pytest.mark.parametrize("traj, u", _bound_cases())
def test_sigma2_bound_covers_the_sampled_sigma2(traj, u):
    bound = _sigma2_bound(u @ _coefficient_map(traj))
    sampled = verify_disentangler(TPSpec(u, QBITS), sample(traj, 1000), 1e-8).max_sigma2
    assert bound >= sampled - 1e-15


def test_sigma2_bound_of_the_identity_on_cnot_is_the_bell_value():
    bound = _sigma2_bound(_coefficient_map(fixtures.cnot_trajectory()))
    assert bound == pytest.approx(1 / S2, abs=1e-15)
