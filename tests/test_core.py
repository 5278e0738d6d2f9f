import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tpslab import fixtures
from tpslab.core import (
    HilbertDims,
    StateVector,
    TPSpec,
    is_local_product_unitary,
    rebase_state,
    require_hermitian,
    reshape_coefficients,
    tps_equivalent,
)
from tpslab.errors import DimensionMismatch, NotHermitian, NotNormalizable, NotUnitary
from tpslab.linalg import haar_unitary
from tpslab.trajectory import SampledTrajectory

from helpers import QBITS, random_local_unitary, random_state

S2 = np.sqrt(2)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
SWAP = np.eye(4)[[0, 2, 1, 3]].astype(complex)


def test_dims_product():
    d = HilbertDims(2, 3)
    assert d.n == 6


@pytest.mark.parametrize("n1,n2", [(1, 2), (2, 1), (0, 4)])
def test_dims_require_two_factors(n1, n2):
    with pytest.raises(ValueError):
        HilbertDims(n1, n2)


def test_state_norm_enforced():
    with pytest.raises(ValueError):
        StateVector(np.array([1, 1, 0, 0], dtype=complex), QBITS)
    psi = StateVector.normalized(np.array([1, 1, 0, 0]), QBITS)
    assert np.isclose(np.linalg.norm(psi.amplitudes), 1.0)


def test_state_is_immutable():
    psi = random_state(np.random.default_rng(0))
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0


def test_make_tps_identity():
    tps = TPSpec(np.eye(4), QBITS)
    assert np.allclose(tps.basis_change, np.eye(4))


def test_make_tps_accepts_reference_disentangler():
    # the bundled closed-form disentangler is exactly unitary
    tps = fixtures.cnot_disentangler()
    dev = np.abs(tps.basis_change.conj().T @ tps.basis_change - np.eye(4)).max()
    assert dev < 1e-14


def test_make_tps_rejects_rank_deficient():
    u = fixtures.cnot_disentangler().basis_change.copy()
    u[1] = u[0]
    with pytest.raises(NotUnitary):
        TPSpec(u, QBITS)


def _with_nan(a):
    a = np.array(a, dtype=complex)
    a.flat[1] = np.nan
    return a


@pytest.mark.parametrize(
    "check,error",
    [
        (lambda: TPSpec(_with_nan(np.eye(4)), QBITS), NotUnitary),
        (lambda: is_local_product_unitary(_with_nan(np.eye(4)), QBITS), NotUnitary),
        (lambda: require_hermitian(_with_nan(np.eye(4))), NotHermitian),
        (lambda: StateVector(_with_nan([1, 0, 0, 0]), QBITS), ValueError),
        (
            lambda: SampledTrajectory(QBITS, [0.0, 1.0], [[1, 0, 0, 0], _with_nan([1, 0, 0, 0])]),
            NotNormalizable,
        ),
    ],
    ids=["tps", "local-product", "hermitian", "state", "sampled"],
)
def test_validity_checks_reject_nan(check, error):
    with pytest.raises(error):
        check()


def test_make_tps_rejects_wrong_shape():
    with pytest.raises(DimensionMismatch):
        TPSpec(np.eye(3), QBITS)


def test_reshape_basis_state():
    psi = StateVector(np.array([1, 0, 0, 0], dtype=complex), QBITS)
    assert np.array_equal(reshape_coefficients(psi), np.array([[1, 0], [0, 0]], dtype=complex))


def test_reshape_bell():
    psi = StateVector(np.array([1, 0, 0, 1]) / S2, QBITS)
    assert np.allclose(reshape_coefficients(psi), np.array([[1, 0], [0, 1]]) / S2)


def test_reshape_cnot_sample():
    t = np.pi / 3
    psi = StateVector(np.array([1, 0, np.cos(t), np.sin(t)]) / S2, QBITS)
    expected = np.array([[1, 0], [0.5, np.sqrt(3) / 2]]) / S2
    assert np.allclose(reshape_coefficients(psi), expected, atol=1e-15)


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_reshape_flatten_roundtrip(seed):
    psi = random_state(np.random.default_rng(seed), HilbertDims(2, 3))
    assert np.array_equal(reshape_coefficients(psi).ravel(), psi.amplitudes)


def test_reshape_is_a_read_only_matrix():
    psi = random_state(np.random.default_rng(0), HilbertDims(2, 3))
    m = reshape_coefficients(psi)
    assert isinstance(m, np.ndarray) and m.shape == (2, 3)
    with pytest.raises(ValueError):
        m[0, 0] = 0.0


def test_rebase_reference_disentangler_at_zero():
    psi = StateVector(np.array([1, 0, 1, 0]) / S2, QBITS)
    out = rebase_state(fixtures.cnot_disentangler(), psi)
    assert np.allclose(out.amplitudes, [0, 0, 0, 1], atol=1e-15)


def test_rebase_identity_is_noop():
    psi = random_state(np.random.default_rng(3))
    out = rebase_state(TPSpec.identity(QBITS), psi)
    assert np.allclose(out.amplitudes, psi.amplitudes, atol=1e-15)


def test_rebase_reference_disentangler_at_right_angle():
    psi = StateVector(np.array([1, 0, 0, 1]) / S2, QBITS)
    out = rebase_state(fixtures.cnot_disentangler(), psi)
    assert np.allclose(out.amplitudes, np.array([-1, 1j, 1j, 1]) / 2, atol=1e-15)


def test_rebase_dimension_mismatch():
    psi = random_state(np.random.default_rng(5), HilbertDims(2, 3))
    with pytest.raises(DimensionMismatch):
        rebase_state(TPSpec.identity(QBITS), psi)


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_rebase_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    tps = TPSpec(haar_unitary(4, rng), QBITS)
    out = rebase_state(tps, random_state(rng))
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-12


def test_local_product_detects_kron():
    assert is_local_product_unitary(np.kron(SX, SZ), QBITS)


def test_local_product_rejects_swap():
    assert not is_local_product_unitary(SWAP, QBITS)


def test_local_product_rejects_reference_disentangler():
    assert not is_local_product_unitary(fixtures.cnot_disentangler().basis_change, QBITS)


def test_local_product_requires_unitary():
    with pytest.raises(NotUnitary):
        is_local_product_unitary(np.ones((4, 4), dtype=complex), QBITS)


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_local_product_accepts_random_kron(seed):
    rng = np.random.default_rng(seed)
    dims = HilbertDims(2, 3)
    v = np.kron(haar_unitary(2, rng), haar_unitary(3, rng))
    assert is_local_product_unitary(v, dims)


def test_tps_equivalent_reflexive():
    tps = fixtures.cnot_disentangler()
    assert tps_equivalent(tps, tps)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_tps_equivalent_under_local_composition(seed):
    rng = np.random.default_rng(seed)
    t1 = TPSpec(haar_unitary(4, rng), QBITS)
    t2 = TPSpec(random_local_unitary(rng) @ t1.basis_change, QBITS)
    assert tps_equivalent(t1, t2)
    assert tps_equivalent(t2, t1)


def test_tps_equivalent_accepts_representatives_at_the_unitarity_tolerance():
    # each is unitary to 9.0e-11, inside 1e-10, but their product t2 t1^dag
    # deviates by 1.8e-10: both were validated, so the product is not checked again
    rng = np.random.default_rng(3)
    u = haar_unitary(4, rng)
    t1 = TPSpec(u * (1 + 4.5e-11), QBITS)
    t2 = TPSpec(random_local_unitary(rng) @ u * (1 + 4.5e-11), QBITS)
    other = TPSpec(fixtures.cnot_disentangler().basis_change @ u * (1 + 4.5e-11), QBITS)
    product = t2.basis_change @ t1.basis_change.conj().T
    assert np.abs(product.conj().T @ product - np.eye(4)).max() > 1e-10
    assert tps_equivalent(t1, t1) and tps_equivalent(t1, t2)
    assert not tps_equivalent(t1, other)


def test_identity_not_equivalent_to_reference_disentangler():
    assert not tps_equivalent(TPSpec.identity(QBITS), fixtures.cnot_disentangler())


def test_tps_equivalent_dims_mismatch():
    with pytest.raises(DimensionMismatch):
        tps_equivalent(TPSpec.identity(QBITS), TPSpec.identity(HilbertDims(2, 3)))
