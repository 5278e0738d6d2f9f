import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tpslab import fixtures
from tpslab.core import StateVector, TPSpec, rebase_state
from tpslab.entanglement import schmidt_values
from tpslab.errors import NotHermitian, NotNormalizable, UnsupportedForm
from tpslab.linalg import haar_unitary
from tpslab.trajectory import (
    HamiltonianTrajectory,
    Harmonic,
    TrigTrajectory,
    evolve_under_hamiltonian,
    sample_trig,
    trig_to_polynomials,
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
    sampled = sample_trig(fixtures.cnot_trajectory(), 3)
    assert np.allclose(sampled.times, [0, np.pi / 4, np.pi / 2])
    for k, t in enumerate(sampled.times):
        expected = np.array([1, 0, np.cos(t), np.sin(t)]) / S2
        assert np.allclose(sampled.states[k], expected, atol=1e-15)


def test_sample_constant_trajectory():
    sampled = sample_trig(constant_trajectory([1, 0, 0, 0]), 7)
    assert np.allclose(sampled.states, sampled.states[0])


def test_sample_off_sphere_raises():
    with pytest.raises(NotNormalizable):
        sample_trig(constant_trajectory([1, 1, 0, 0]), 5)


def test_sample_needs_two_points():
    with pytest.raises(ValueError):
        sample_trig(fixtures.cnot_trajectory(), 1)


def test_evolution_matches_gate_action():
    sampled = evolve_under_hamiltonian(fixtures.cnot_evolution(), 3)
    assert np.allclose(sampled.states[-1], np.array([1, 0, 0, 1]) / S2, atol=1e-14)


def test_evolution_zero_hamiltonian_is_constant():
    traj = HamiltonianTrajectory(
        dims=QBITS,
        hamiltonian=np.zeros((4, 4), dtype=complex),
        initial=StateVector(np.array([0, 1, 0, 0], dtype=complex), QBITS),
        t_max=2.0,
    )
    sampled = evolve_under_hamiltonian(traj, 9)
    assert np.allclose(sampled.states, sampled.states[0])


def test_evolution_scalar_hamiltonian_is_global_phase():
    rng = np.random.default_rng(8)
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    initial = StateVector.normalized(z, QBITS)
    traj = HamiltonianTrajectory(QBITS, np.eye(4, dtype=complex), initial, np.pi)
    sampled = evolve_under_hamiltonian(traj, 11)
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
    forward = evolve_under_hamiltonian(HamiltonianTrajectory(QBITS, h, initial, 1.7), 9)
    for k, t in enumerate(forward.times[1:], start=1):
        back = evolve_under_hamiltonian(
            HamiltonianTrajectory(QBITS, -h, forward.state(k), float(t)), 2
        )
        assert np.allclose(back.states[-1], initial.amplitudes, atol=1e-11)


def test_polynomials_identity_basis():
    polys = trig_to_polynomials(fixtures.cnot_trajectory(), TPSpec.identity(QBITS))
    c = np.asarray(polys.coeffs)
    assert np.allclose(c[0], [0, 1 / S2, 0], atol=1e-15)  # P_1 = X / sqrt(2)
    assert np.allclose(c[1], [0, 0, 0], atol=1e-15)
    assert np.allclose(c[2], [1 / (2 * S2), 0, 1 / (2 * S2)], atol=1e-15)
    assert np.allclose(c[3], [-1j / (2 * S2), 0, 1j / (2 * S2)], atol=1e-15)


def test_polynomials_reference_disentangler_has_double_root():
    polys = trig_to_polynomials(fixtures.cnot_trajectory(), fixtures.cnot_disentangler())
    # first rebased component is proportional to (X - 1)^2
    c = np.asarray(polys.coeffs)[0]
    roots = np.roots(c)
    assert np.allclose(roots, [1.0, 1.0], atol=1e-7)
    assert np.allclose(c, 0.25 * np.array([1, -2, 1]), atol=1e-14)


def test_polynomials_reject_multiple_frequencies():
    with pytest.raises(UnsupportedForm):
        trig_to_polynomials(fixtures.sidon_trajectory(), TPSpec.identity(QBITS))


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_polynomial_roundtrip_reproduces_components(seed):
    rng = np.random.default_rng(seed)
    tps = TPSpec(haar_unitary(4, rng), QBITS)
    traj = fixtures.cnot_trajectory()
    polys = trig_to_polynomials(traj, tps)
    times = np.linspace(0.0, traj.t_max, 50)
    direct = traj.evaluate(times) @ tps.basis_change.T
    assert np.abs(polys.evaluate_components(times) - direct).max() < 1e-12


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_rebase_commutes_with_coefficient_rebasing(seed):
    rng = np.random.default_rng(seed)
    tps = TPSpec(haar_unitary(4, rng), QBITS)
    traj = fixtures.cnot_trajectory()
    polys = trig_to_polynomials(traj, tps)
    for t in np.linspace(0.0, traj.t_max, 7):
        via_coeffs = polys.evaluate_components(t)[0]
        state = StateVector(traj.evaluate(t)[0], QBITS)
        assert np.abs(rebase_state(tps, state).amplitudes - via_coeffs).max() < 1e-12


def test_sampled_trajectory_requires_increasing_times():
    from tpslab.trajectory import SampledTrajectory

    states = np.tile(np.array([1, 0, 0, 0], dtype=complex), (3, 1))
    with pytest.raises(ValueError):
        SampledTrajectory(QBITS, np.array([0.0, 0.5, 0.5]), states)
