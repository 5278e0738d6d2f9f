import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from tpslab import fixtures
from tpslab.construct import _coefficient_map
from tpslab.core import HilbertDims, StateVector, TPSpec, rebase_state
from tpslab.entanglement import schmidt_values
from tpslab.errors import NotHermitian, NotNormalizable, UnsupportedForm
from tpslab.linalg import haar_unitary
from tpslab.trajectory import (
    HamiltonianTrajectory,
    Harmonic,
    SampledTrajectory,
    TrigTrajectory,
    sample,
)

from helpers import QBITS

S2 = np.sqrt(2)


def constant_trajectory(vector, t_max=1.0):
    return TrigTrajectory(
        dims=QBITS,
        constant=np.asarray(vector, dtype=complex),
        harmonics=(
            Harmonic(1, np.zeros(4, dtype=complex), np.zeros(4, dtype=complex)),
        ),
        t_max=t_max,
    )


def test_sample_cnot_grid():
    sampled = sample(fixtures.cnot_trajectory(), 3)
    assert np.allclose(sampled.times, [0, np.pi / 4, np.pi / 2])
    for k, t in enumerate(sampled.times):
        expected = np.array([1, 0, np.cos(t), np.sin(t)]) / S2
        assert np.allclose(sampled.states[k], expected, atol=1e-15)


def test_sample_constant_trajectory():
    sampled = sample(constant_trajectory([1, 0, 0, 0]), 7)
    assert np.allclose(sampled.states, sampled.states[0])


def test_sample_off_sphere_raises():
    with pytest.raises(NotNormalizable):
        sample(constant_trajectory([1, 1, 0, 0]), 5)


def test_sample_needs_two_points():
    with pytest.raises(ValueError):
        sample(fixtures.cnot_trajectory(), 1)


def test_sample_passes_sampled_trajectory_through():
    sampled = sample(fixtures.cnot_trajectory(), 5)
    assert sample(sampled, 100) is sampled


def test_trig_exponentials_are_built_once_and_read_only():
    traj = fixtures.sidon_trajectory()
    first, second = traj.exponentials(), traj.exponentials()
    for a, b in zip(first, second):
        assert a is b
        assert not a.flags.writeable


@pytest.mark.parametrize("seed", range(5))
def test_sample_matches_trig_formula(seed):
    # V (a_0, a_1 e^{it}, a_3 e^{3it}, a_7 e^{7it}) for a Haar V and complex a_k
    rng = np.random.default_rng(seed)
    amps = rng.uniform(0.5, 1.0, size=4) * np.exp(2j * np.pi * rng.uniform(size=4))
    cols = amps / np.linalg.norm(amps) * haar_unitary(4, rng)
    harmonics = tuple(Harmonic(f, cols[:, k], 1j * cols[:, k]) for k, f in ((1, 1), (2, 3), (3, 7)))
    traj = TrigTrajectory(QBITS, cols[:, 0], harmonics, 2 * np.pi)
    sampled = sample(traj, 301)
    t = sampled.times[:, None]
    expected = np.tile(traj.constant, (t.size, 1))
    for h in traj.harmonics:
        expected += np.cos(h.frequency * t) * h.cos_coeffs + np.sin(h.frequency * t) * h.sin_coeffs
    assert np.abs(sampled.states - expected).max() < 1e-14


@pytest.mark.parametrize("dims", [QBITS, HilbertDims(2, 3)])
@pytest.mark.parametrize("seed", range(3))
def test_sample_matches_matrix_exponential(dims, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(dims.n, dims.n)) + 1j * rng.normal(size=(dims.n, dims.n))
    h = (z + z.conj().T) / 2
    initial = StateVector.normalized(rng.normal(size=dims.n) + 1j * rng.normal(size=dims.n), dims)
    sampled = sample(HamiltonianTrajectory(dims, h, initial, 2.3), 31)
    for t, state in zip(sampled.times, sampled.states):
        assert np.abs(state - expm(1j * h * t) @ initial.amplitudes).max() < 1e-12


def test_evolution_matches_gate_action():
    sampled = sample(fixtures.cnot_evolution(), 3)
    assert np.allclose(sampled.states[-1], np.array([1, 0, 0, 1]) / S2, atol=1e-14)


def test_evolution_zero_hamiltonian_is_constant():
    traj = HamiltonianTrajectory(
        dims=QBITS,
        hamiltonian=np.zeros((4, 4), dtype=complex),
        initial=StateVector(np.array([0, 1, 0, 0], dtype=complex), QBITS),
        t_max=2.0,
    )
    sampled = sample(traj, 9)
    assert np.allclose(sampled.states, sampled.states[0])


def test_evolution_scalar_hamiltonian_is_global_phase():
    rng = np.random.default_rng(8)
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    initial = StateVector.normalized(z, QBITS)
    traj = HamiltonianTrajectory(QBITS, np.eye(4, dtype=complex), initial, np.pi)
    sampled = sample(traj, 11)
    base = schmidt_values(initial)
    for k, t in enumerate(sampled.times):
        assert np.allclose(
            sampled.states[k], np.exp(1j * t) * initial.amplitudes, atol=1e-12
        )
        assert np.allclose(schmidt_values(sampled.state(k)), base, atol=1e-12)


def test_evolution_rejects_non_hermitian():
    h = np.zeros((4, 4), dtype=complex)
    h[0, 1] = 1.0
    with pytest.raises(NotHermitian):
        HamiltonianTrajectory(
            QBITS, h, StateVector(np.eye(4, dtype=complex)[0], QBITS), 1.0
        )


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_forward_backward_evolution_composes_to_identity(seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (z + z.conj().T) / 2
    initial = StateVector.normalized(rng.normal(size=4) + 1j * rng.normal(size=4), QBITS)
    forward = sample(HamiltonianTrajectory(QBITS, h, initial, 1.7), 9)
    for k, t in enumerate(forward.times[1:], start=1):
        back = sample(
            HamiltonianTrajectory(QBITS, -h, forward.state(k), float(t)), 2
        )
        assert np.allclose(back.states[-1], initial.amplitudes, atol=1e-11)


def test_polynomials_identity_basis():
    # row j of construct's coefficient map holds P_j's coefficients of (X^2, X, 1)
    c = _coefficient_map(fixtures.cnot_trajectory())
    assert np.allclose(c[0], [0, 1 / S2, 0], atol=1e-15)  # P_1 = X / sqrt(2)
    assert np.allclose(c[1], [0, 0, 0], atol=1e-15)
    assert np.allclose(c[2], [1 / (2 * S2), 0, 1 / (2 * S2)], atol=1e-15)
    assert np.allclose(c[3], [-1j / (2 * S2), 0, 1j / (2 * S2)], atol=1e-15)


def test_polynomials_reference_disentangler_has_double_root():
    u = fixtures.cnot_disentangler().basis_change
    # first rebased component is proportional to (X - 1)^2
    c = (u @ _coefficient_map(fixtures.cnot_trajectory()))[0]
    roots = np.roots(c)
    assert np.allclose(roots, [1.0, 1.0], atol=1e-7)
    assert np.allclose(c, 0.25 * np.array([1, -2, 1]), atol=1e-14)


def test_polynomials_reject_multiple_frequencies():
    with pytest.raises(UnsupportedForm):
        _coefficient_map(fixtures.sidon_trajectory())


def _rebased_polynomial_components(traj, tps, times):
    """e^{-it} (U m) v(e^{it}) with v(z) = (z^2, z, 1); shape (len(times), n)."""
    z = np.exp(1j * np.asarray(times))
    v = np.stack([z * z, z, np.ones_like(z)])
    return (np.exp(-1j * times) * (tps.basis_change @ _coefficient_map(traj) @ v)).T


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_polynomial_roundtrip_reproduces_components(seed):
    rng = np.random.default_rng(seed)
    tps = TPSpec(haar_unitary(4, rng), QBITS)
    traj = fixtures.cnot_trajectory()
    sampled = sample(traj, 50)
    direct = sampled.states @ tps.basis_change.T
    via_coeffs = _rebased_polynomial_components(traj, tps, sampled.times)
    assert np.abs(via_coeffs - direct).max() < 1e-12


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_rebase_commutes_with_coefficient_rebasing(seed):
    rng = np.random.default_rng(seed)
    tps = TPSpec(haar_unitary(4, rng), QBITS)
    traj = fixtures.cnot_trajectory()
    sampled = sample(traj, 7)
    via_coeffs = _rebased_polynomial_components(traj, tps, sampled.times)
    for k in range(len(sampled)):
        rebased = rebase_state(tps, sampled.state(k)).amplitudes
        assert np.abs(rebased - via_coeffs[k]).max() < 1e-12


def test_sampled_trajectory_requires_increasing_times():
    states = np.tile(np.array([1, 0, 0, 0], dtype=complex), (3, 1))
    with pytest.raises(ValueError):
        SampledTrajectory(QBITS, np.array([0.0, 0.5, 0.5]), states)
