import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tpslab import fixtures
from tpslab.core import TPSpec
from tpslab.errors import NotHermitian
from tpslab.core import HilbertDims
from tpslab.hamiltonian import (
    interaction_norm,
    rebase_operator,
    separable_projection,
    stationarity_gradient,
)
from tpslab.linalg import anti_hermitian_basis, expm_anti_hermitian
from tpslab.trajectory import sample

from helpers import QBITS, random_hermitian, random_local_unitary

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def test_rebase_to_disentangling_basis():
    rebased = rebase_operator(fixtures.cnot_disentangler(), fixtures.cnot_hamiltonian())
    target = (np.kron(SX, np.eye(2)) + np.kron(np.eye(2), SX)) / 2
    assert np.abs(rebased - target).max() < 1e-14


def test_rebase_identity_is_noop():
    h = fixtures.cnot_hamiltonian()
    assert np.abs(rebase_operator(TPSpec.identity(QBITS), h) - h).max() < 1e-15


def test_rebase_to_eigenbasis():
    rebased = rebase_operator(fixtures.cnot_eigenbasis(), fixtures.cnot_hamiltonian())
    assert np.abs(rebased - np.diag([0, 0, 1, -1])).max() < 1e-14


def test_rebase_rejects_non_hermitian():
    h = np.zeros((4, 4), dtype=complex)
    h[0, 3] = 2.0
    with pytest.raises(NotHermitian):
        rebase_operator(TPSpec.identity(QBITS), h)


def test_projection_of_separable_operator():
    h = np.kron(SX, np.eye(2)) + np.kron(np.eye(2), SX)
    dec = separable_projection(h, QBITS)
    assert dec.interaction_norm < 1e-14
    assert np.abs(dec.h1 - SX).max() < 1e-14
    assert np.abs(dec.h2 - SX).max() < 1e-14
    assert abs(dec.trace_part) < 1e-14


def test_projection_of_eigenbasis_form():
    h = np.diag([0, 0, 1, -1]).astype(complex)
    dec = separable_projection(h, QBITS)
    assert abs(dec.interaction_norm - 1.0) < 1e-12
    separable = dec.separable_part()
    assert np.abs(separable - np.diag([0.5, -0.5, 0.5, -0.5])).max() < 1e-12


def test_projection_of_identity():
    dec = separable_projection(np.eye(4, dtype=complex), QBITS)
    assert dec.interaction_norm < 1e-14
    assert abs(dec.trace_part - 1.0) < 1e-14
    assert np.abs(dec.h1).max() < 1e-14
    assert np.abs(dec.h2).max() < 1e-14


def test_interaction_norm_reference_basis():
    # the gate generator sits entirely outside the separable subspace save
    # for its one-body reduction; the remainder has unit Frobenius norm
    assert abs(interaction_norm(fixtures.cnot_hamiltonian(), QBITS) - 1.0) < 1e-12


def test_interaction_norm_disentangling_basis_vanishes():
    rebased = rebase_operator(fixtures.cnot_disentangler(), fixtures.cnot_hamiltonian())
    assert interaction_norm(rebased, QBITS) < 1e-10


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_interaction_norm_vanishes_on_separable(seed):
    rng = np.random.default_rng(seed)
    h = (
        np.kron(random_hermitian(rng, 2), np.eye(2))
        + np.kron(np.eye(2), random_hermitian(rng, 2))
        + rng.normal() * np.eye(4)
    )
    assert interaction_norm(h, QBITS) < 1e-10


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_projection_idempotent(seed):
    rng = np.random.default_rng(seed)
    dec = separable_projection(random_hermitian(rng), QBITS)
    again = separable_projection(dec.separable_part(), QBITS)
    assert again.interaction_norm < 1e-10


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_projection_pythagoras(seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng)
    dec = separable_projection(h, QBITS)
    lhs = np.linalg.norm(h) ** 2
    rhs = np.linalg.norm(dec.separable_part()) ** 2 + dec.interaction_norm**2
    assert abs(lhs - rhs) < 1e-9


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_interaction_norm_invariant_under_local_conjugation(seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng)
    local = random_local_unitary(rng)
    assert (
        abs(interaction_norm(local @ h @ local.conj().T, QBITS) - interaction_norm(h, QBITS))
        < 1e-9
    )


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_diagonal_projection_matches_lstsq_oracle(seed):
    rng = np.random.default_rng(seed)
    diag = rng.normal(size=4)
    h = np.diag(diag).astype(complex)
    dec = separable_projection(h, QBITS)
    design = np.array(
        [[1, 0, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1], [0, 1, 0, 1]], dtype=float
    )
    coeffs, residual, _, _ = np.linalg.lstsq(design, diag, rcond=None)
    fitted = design @ coeffs
    assert np.abs(np.real(np.diagonal(dec.separable_part())) - fitted).max() < 1e-9
    oracle_norm = np.linalg.norm(diag - fitted)
    assert abs(dec.interaction_norm - oracle_norm) < 1e-9


def test_stationarity_at_global_minimum():
    rebased = rebase_operator(fixtures.cnot_disentangler(), fixtures.cnot_hamiltonian())
    assert stationarity_gradient(rebased, QBITS) < 1e-6


def test_stationarity_at_eigenbasis_despite_interaction():
    form = rebase_operator(fixtures.cnot_eigenbasis(), fixtures.cnot_hamiltonian())
    assert abs(interaction_norm(form, QBITS) - 1.0) < 1e-9
    assert stationarity_gradient(form, QBITS) < 1e-6


@pytest.mark.parametrize("seed", [2, 5, 11, 17])
def test_stationarity_generic_operator_has_gradient(seed):
    h = random_hermitian(np.random.default_rng(seed))
    assert stationarity_gradient(h, QBITS) > 1e-3


def _fd_stationarity_gradient(h, dims, step=1e-5):
    """Reference: central differences of ||X(V H V^dag)||^2 over the tangent basis."""

    def f(v):
        return interaction_norm(v @ h @ v.conj().T, dims) ** 2

    grad_sq = 0.0
    for direction in anti_hermitian_basis(dims.n):
        plus = f(expm_anti_hermitian(step * direction))
        minus = f(expm_anti_hermitian(-step * direction))
        grad_sq += ((plus - minus) / (2 * step)) ** 2
    return np.sqrt(grad_sq)


@pytest.mark.parametrize("n", [4, 6, 9])
def test_expm_anti_hermitian_matches_scipy_expm(n):
    from scipy.linalg import expm

    z = random_hermitian(np.random.default_rng(n), n)
    assert np.abs(expm_anti_hermitian(1j * z) - expm(1j * z)).max() <= 1e-13


@pytest.mark.parametrize("n1,n2", [(2, 2), (2, 3), (3, 3)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stationarity_gradient_matches_finite_differences(n1, n2, seed):
    dims = HilbertDims(n1, n2)
    h = random_hermitian(np.random.default_rng([seed, n1, n2]), dims.n)
    exact = stationarity_gradient(h, dims)
    reference = _fd_stationarity_gradient(h, dims)
    assert abs(exact - reference) <= 1e-8 * reference


def test_evolution_consistency_with_closed_form():
    evolved = sample(fixtures.cnot_evolution(), 200)
    reference = sample(fixtures.cnot_trajectory(), 200)
    assert np.abs(evolved.states - reference.states).max() < 1e-10
