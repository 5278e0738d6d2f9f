import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tpslab import fixtures, reproduce
from tpslab.core import HilbertDims, StateVector, TPSpec, rebase_state
from tpslab.entanglement import (
    _distances,
    _entropies,
    _minor_indices,
    coefficient_minors,
    entanglement_entropy,
    entanglement_profile,
    gram_top_vectors,
    is_product_state,
    max_minor_modulus,
    minor_forms,
    product_distance,
    rebased_coefficients,
    schmidt_decompose,
    schmidt_spectra,
    schmidt_values,
    tail_bound,
)
from tpslab.construct import _coefficient_map
from tpslab.errors import DimensionMismatch, UnsupportedForm
from tpslab.linalg import haar_unitary
from tpslab.trajectory import (
    HamiltonianTrajectory,
    Harmonic,
    SampledTrajectory,
    TrigTrajectory,
    sample,
)

from helpers import (
    QBITS,
    bell_state,
    random_hermitian,
    random_local_unitary,
    random_state,
    reference_gram_top_vectors,
    reference_schmidt_spectra,
)

S2 = np.sqrt(2)


def test_schmidt_of_basis_state():
    psi = StateVector(np.array([1, 0, 0, 0], dtype=complex), QBITS)
    assert np.allclose(schmidt_values(psi), [1, 0], atol=1e-15)


def test_schmidt_of_bell_state():
    assert np.allclose(schmidt_values(bell_state()), [1 / S2, 1 / S2], atol=1e-15)


def test_schmidt_of_rebased_gate_state():
    psi = StateVector(np.array([-1, 1j, 1j, 1]) / 2, QBITS)
    assert np.allclose(schmidt_values(psi), [1, 0], atol=1e-15)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_schmidt_reconstruction(seed):
    dims = HilbertDims(2, 3) if seed % 2 else QBITS
    psi = random_state(np.random.default_rng(seed), dims)
    dec = schmidt_decompose(psi)
    assert np.abs(dec.reconstruct() - psi.amplitudes).max() < 1e-10
    assert np.all(np.diff(dec.coefficients) <= 1e-15)
    assert abs((dec.coefficients**2).sum() - 1.0) < 1e-10


def test_entropy_product_state_is_zero():
    psi = StateVector(np.array([0, 0, 1, 0], dtype=complex), QBITS)
    assert entanglement_entropy(psi) == 0.0
    assert not np.signbit(entanglement_entropy(psi))  # +0.0, not -0.0


def test_entropy_bell_state_is_ln2():
    assert abs(entanglement_entropy(bell_state()) - np.log(2)) < 1e-12


def test_entropy_skewed_spectrum():
    psi = StateVector(np.array([np.sqrt(0.9), 0, 0, np.sqrt(0.1)]), QBITS)
    expected = -0.9 * np.log(0.9) - 0.1 * np.log(0.1)
    assert abs(entanglement_entropy(psi) - expected) < 1e-12


@pytest.mark.parametrize("s", [1e-4, 1e-6, 1e-8, 1e-9])
def test_entropy_keeps_relative_precision_near_product_states(s):
    # Haar-rotated diag(sqrt(1 - s^2), s): summing -p ln p over sigma_1^2 ~ 1
    # would cancel the top term against its own rounding
    exact = (s * s - 1) * np.log1p(-s * s) - s * s * np.log(s * s)
    rng = np.random.default_rng(7)
    diag = np.diag([np.sqrt(1 - s * s), s])
    mats = [haar_unitary(2, rng) @ diag @ haar_unitary(2, rng) for _ in range(20)]
    states = np.stack(mats).reshape(20, 4)
    single = [entanglement_entropy(StateVector.normalized(a, QBITS)) for a in states]
    sampled = SampledTrajectory(QBITS, np.arange(20.0), states)
    profile = entanglement_profile(sampled, TPSpec.identity(QBITS))
    assert np.abs(np.array(single) / exact - 1).max() <= 1e-6
    assert np.abs(profile.entropy / exact - 1).max() <= 1e-6


def test_distance_product_state():
    psi = StateVector(np.array([0, 1, 0, 0], dtype=complex), QBITS)
    assert product_distance(psi) == 0.0


def test_distance_bell_state():
    assert abs(product_distance(bell_state()) - np.sqrt(2 - S2)) < 1e-12


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_distance_range(seed):
    dims = HilbertDims(2, 3) if seed % 2 else QBITS
    d = product_distance(random_state(np.random.default_rng(seed), dims))
    upper = np.sqrt(2 - 2 / np.sqrt(min(dims.n1, dims.n2)))
    assert 0.0 <= d <= upper + 1e-12


def test_product_test_along_disentangled_gate():
    tps = fixtures.cnot_disentangler()
    sampled = sample(fixtures.cnot_trajectory(), 100)
    for k in range(len(sampled)):
        assert is_product_state(rebase_state(tps, sampled.state(k)), 1e-10)


def test_product_test_rejects_bell():
    assert not is_product_state(bell_state(), 1e-10)


def test_product_test_rejects_small_contamination():
    eps = 1e-3
    psi = StateVector.normalized(np.array([1, 0, 0, eps]), QBITS)
    assert not is_product_state(psi, 1e-10)


@given(st.integers(0, 10_000), st.sampled_from([0.0, 1e-10, 1e-6, None]))
@settings(max_examples=100, deadline=None)
def test_minor_and_schmidt_tests_agree(seed, sigma2):
    # exact products, near-products at sigma_2 = 1e-10 and 1e-6, and Haar states
    # (None), all of which sit far above 1e-8: both tests must also land on the
    # expected side, so a minor test with one constant answer fails
    rng = np.random.default_rng(seed)
    if sigma2 is None:
        psi, product = random_state(rng), False
    else:
        m = haar_unitary(2, rng) @ np.diag([np.sqrt(1 - sigma2**2), sigma2]) @ haar_unitary(2, rng)
        psi, product = StateVector.normalized(m.ravel(), QBITS), sigma2 < 1e-8
    assert is_product_state(psi, 1e-8) == (schmidt_values(psi)[1] < 1e-8) == product


@pytest.mark.parametrize(
    "minors", [lambda m: np.ones(m.shape[:-2] + (1,)), lambda m: np.zeros(m.shape[:-2] + (1,))],
    ids=["always-entangled", "always-product"],
)
def test_minor_sigma2_check_fails_a_minor_test_with_one_answer(monkeypatch, minors):
    # the check's states fall on both sides of 1e-8, so a minor test that
    # never changes its answer disagrees with the sigma_2 test somewhere
    assert reproduce.check_property_minor_sigma2_agreement()[0]
    monkeypatch.setattr(reproduce, "coefficient_minors", minors)
    assert not reproduce.check_property_minor_sigma2_agreement()[0]


def test_minor_bounded_by_sigma2():
    for seed in range(200):
        psi = random_state(np.random.default_rng(seed))
        assert max_minor_modulus(psi) <= schmidt_values(psi)[1] + 1e-14


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_entropy_bounds(seed):
    dims = HilbertDims(2, 3) if seed % 2 else QBITS
    s = entanglement_entropy(random_state(np.random.default_rng(seed), dims))
    assert 0.0 <= s <= np.log(min(dims.n1, dims.n2)) + 1e-12


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_measures_invariant_under_local_unitaries(seed):
    rng = np.random.default_rng(seed)
    psi = random_state(rng)
    local = random_local_unitary(rng)
    rotated = StateVector.normalized(local @ psi.amplitudes, QBITS)
    assert abs(entanglement_entropy(rotated) - entanglement_entropy(psi)) < 1e-10
    assert abs(product_distance(rotated) - product_distance(psi)) < 1e-10


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_distance_zero_iff_entropy_zero(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    b = rng.normal(size=2) + 1j * rng.normal(size=2)
    product = StateVector.normalized(np.kron(a, b), QBITS)
    assert product_distance(product) < 1e-7
    assert entanglement_entropy(product) < 1e-12
    entangled = random_state(rng)
    if schmidt_values(entangled)[1] > 1e-3:
        assert product_distance(entangled) > 1e-4
        assert entanglement_entropy(entangled) > 1e-6


def test_profile_identity_peaks_at_bell():
    profile = entanglement_profile(
        sample(fixtures.cnot_trajectory(), 101), TPSpec.identity(QBITS)
    )
    assert abs(profile.max_entropy - np.log(2)) < 1e-12
    assert profile.times[np.argmax(profile.entropy)] == pytest.approx(np.pi / 2)
    assert profile.max_entropy == profile.entropy.max()
    assert profile.max_distance == profile.product_distance.max()


def test_profile_disentangling_basis_is_flat():
    profile = entanglement_profile(
        sample(fixtures.cnot_trajectory(), 101), fixtures.cnot_disentangler()
    )
    assert profile.max_entropy < 1e-10
    assert profile.max_distance < 1e-7


def test_profile_constant_product_trajectory_is_zero():
    states = np.tile(np.array([0, 0, 1, 0], dtype=complex), (5, 1))
    sampled = SampledTrajectory(QBITS, np.linspace(0, 1, 5), states)
    profile = entanglement_profile(sampled, TPSpec.identity(QBITS))
    assert profile.max_entropy == 0.0
    assert profile.max_distance == 0.0


def test_profile_closed_form_disentangler_reads_machine_zero():
    # max sigma_2 is ~1e-16 here; sqrt(2 - 2 sigma_1) would read ~3e-8, and an
    # entropy summed over sigma_1^2 ~ 1 would read ~1e-16
    profile = entanglement_profile(
        sample(fixtures.cnot_trajectory(), 1000), fixtures.cnot_disentangler()
    )
    assert profile.max_distance < 1e-14
    assert profile.max_entropy < 1e-28


def _loop_minors(m):
    """Reference: the 2x2 minors of one matrix, row pairs outermost."""
    n1, n2 = m.shape
    return np.array(
        [
            m[i, j] * m[k, l] - m[i, l] * m[k, j]
            for i in range(n1)
            for k in range(i + 1, n1)
            for j in range(n2)
            for l in range(j + 1, n2)
        ]
    )


@pytest.mark.parametrize("n1,n2", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_batched_kernel_matches_per_matrix_reference(n1, n2):
    rng = np.random.default_rng(n1 * 10 + n2)
    dims = HilbertDims(n1, n2)
    entangled = [random_state(rng, dims).amplitudes for _ in range(20)]
    products = [
        np.kron(
            rng.normal(size=n1) + 1j * rng.normal(size=n1),
            rng.normal(size=n2) + 1j * rng.normal(size=n2),
        )
        for _ in range(5)
    ]
    states = np.array(entangled + products)
    states /= np.linalg.norm(states, axis=1)[:, None]
    mats = states.reshape(-1, n1, n2)
    spectra = schmidt_spectra(mats)
    minors = coefficient_minors(mats)
    assert spectra.shape == (len(mats), min(n1, n2))
    for m, s, mn in zip(mats, spectra, minors):
        assert np.abs(s - np.linalg.svd(m, compute_uv=False)).max() < 1e-14
        assert np.abs(mn - _loop_minors(m)).max() < 1e-14
    assert spectra[-5:, 1:].max() < 1e-14
    assert np.abs(minors[-5:]).max() < 1e-14

    if min(n1, n2) > 2:  # the SVD path itself
        assert np.array_equal(spectra, np.linalg.svd(mats, compute_uv=False))

    # the edges of the 2 x n closed form: products plus noise of 1e-14 .. 1e-6,
    # sigma_1 = sigma_2, the zero matrix, and a = c with |b| ~ 1e-300
    noisy = [
        products[k % 5] / np.linalg.norm(products[k % 5])
        + size * (rng.normal(size=n1 * n2) + 1j * rng.normal(size=n1 * n2))
        for k, size in enumerate(10.0 ** np.arange(-14, -5))
    ]
    isometries = [
        [np.linalg.qr(rng.normal(size=(k, 2)) + 1j * rng.normal(size=(k, 2)))[0] for k in (n1, n2)]
        for _ in range(40)
    ]
    tiny = np.zeros((n1, n2), dtype=complex)
    tiny[0, 0] = tiny[1, 1] = 1 / S2
    tiny[1, 0] = 1e-300
    edges = np.array(
        [x.reshape(n1, n2) / np.linalg.norm(x) for x in noisy]
        + [q1 @ q2.T / S2 for q1, q2 in isometries]
        + [np.zeros((n1, n2)), tiny]
    )
    got, want = schmidt_spectra(edges), np.linalg.svd(edges, compute_uv=False)
    assert np.array_equal(got[-2], np.zeros(min(n1, n2)))
    assert np.all(np.diff(got, axis=1) <= 0)  # non-increasing where sigma_1 = sigma_2
    for measure in (np.asarray, _distances, _entropies):
        assert np.abs(measure(got) - measure(want)).max() < 1e-14
    if min(n1, n2) > 2:
        assert np.array_equal(got, want)
    for m, s in zip(edges, got):  # one 2-D matrix, as schmidt_values passes it
        assert np.array_equal(schmidt_spectra(m), s)


@pytest.mark.parametrize("n1,n2", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_minor_forms_match_coefficient_minors(n1, n2):
    rng = np.random.default_rng(n1 * 10 + n2)
    dims = HilbertDims(n1, n2)
    states = np.array([random_state(rng, dims).amplitudes for _ in range(20)])
    forms = minor_forms(n1, n2)
    assert np.array_equal(forms, forms.swapaxes(1, 2))
    quadratic = np.einsum("ta,kab,tb->tk", states, forms, states)
    assert np.abs(quadratic - coefficient_minors(states.reshape(-1, n1, n2))).max() < 1e-15


def test_minor_index_tables_are_shared_and_read_only():
    tables = _minor_indices(2, 3)
    assert _minor_indices(2, 3) is tables
    ij, kl, il, kj = tables
    assert not any(a.flags.writeable for a in (tables, ij, kl, il, kj))
    with pytest.raises(ValueError):
        ij[0] = 1


def _eigh_top_vectors(m):
    """Reference: the last eigenvector of a batched eigh of the Grams M M^dag."""
    return np.linalg.eigh(m @ m.conj().swapaxes(1, 2))[1][:, :, -1]


def _top_pair_sq_distances(m, w):
    """z = 2 |M - w h|^2 / (1 + |h|) with h = w^dag M, as the optimizer evaluates it."""
    h = np.einsum("ti,tij->tj", w.conj(), m)
    r = m - w[:, :, None] * h[:, None, :]
    return 2.0 * np.sum(np.abs(r) ** 2, axis=(1, 2)) / (1.0 + np.linalg.norm(h, axis=1))


def _phase_free_gap(w, ref):
    """max_t | 1 - |<ref_t, w_t>| |: zero when the vectors agree up to a phase."""
    return np.abs(1.0 - np.abs(np.sum(ref.conj() * w, axis=1))).max()


@pytest.mark.parametrize("n2", [2, 3])
def test_closed_form_qubit_top_vectors_match_eigh(n2):
    rng = np.random.default_rng(40 + n2)
    m = rng.normal(size=(500, 2, n2)) + 1j * rng.normal(size=(500, 2, n2))
    m /= np.linalg.norm(m, axis=(1, 2))[:, None, None]
    w, ref = gram_top_vectors(m), _eigh_top_vectors(m)
    assert np.abs(np.linalg.norm(w, axis=1) - 1.0).max() <= 1e-15
    assert _phase_free_gap(w, ref) <= 1e-14
    assert np.abs(_top_pair_sq_distances(m, w) - _top_pair_sq_distances(m, ref)).max() <= 1e-15


DEGENERATE_QUBIT_GRAMS = np.array(
    [
        np.eye(2) / S2,  # G = I/2: every unit vector is a top eigenvector
        np.diag([0.6, 0.8]),  # b = 0 with a < c
        np.array([[1.0, 0.0], [1e-300, 1.0]]) / S2,  # |b| ~ 1e-300 with a = c
        np.array([[0.6, 0.0], [1e-300, 0.8]]),  # |b| ~ 1e-300 with a < c
    ],
    dtype=complex,
)


def test_closed_form_qubit_top_vectors_on_degenerate_grams():
    m = DEGENERATE_QUBIT_GRAMS
    w, ref = gram_top_vectors(m), _eigh_top_vectors(m)
    assert np.array_equal(w[0], [1.0, 0.0])
    # s^2 + |b|^2 underflows to 0 in the third case, hypot does not
    assert np.abs(w[2] - np.array([1.0, 1.0]) / S2).max() <= 1e-16
    assert np.abs(np.linalg.norm(w, axis=1) - 1.0).max() <= 1e-15
    assert _phase_free_gap(w[[1, 3]], ref[[1, 3]]) <= 1e-15
    assert np.abs(_top_pair_sq_distances(m, w) - _top_pair_sq_distances(m, ref)).max() <= 1e-15


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (4, 25, 2, 3)])
@pytest.mark.parametrize("seed", range(3))
def test_qubit_kernels_equal_their_references_to_the_bit(shape, seed):
    # the same floating-point operations in the same order as the earlier code
    rng = np.random.default_rng(60 + seed)
    m = rng.normal(size=(200, *shape)) + 1j * rng.normal(size=(200, *shape))
    m /= np.linalg.norm(m, axis=(-2, -1))[..., None, None]
    assert np.array_equal(schmidt_spectra(m), reference_schmidt_spectra(m))
    if m.ndim == 3 and shape[0] == 2:
        assert np.array_equal(gram_top_vectors(m), reference_gram_top_vectors(m))


def test_qubit_kernels_equal_their_references_on_degenerate_grams():
    m = DEGENERATE_QUBIT_GRAMS
    assert np.array_equal(gram_top_vectors(m), reference_gram_top_vectors(m))
    assert np.array_equal(schmidt_spectra(m), reference_schmidt_spectra(m))


def test_rebased_coefficients_match_rebase_state():
    tps = TPSpec(haar_unitary(4, np.random.default_rng(7)), QBITS)
    sampled = sample(fixtures.cnot_trajectory(), 50)
    mats = rebased_coefficients(sampled, tps)
    for k in range(len(sampled)):
        ref = rebase_state(tps, sampled.state(k)).amplitudes.reshape(2, 2)
        assert np.abs(mats[k] - ref).max() < 1e-14
    with pytest.raises(DimensionMismatch):
        rebased_coefficients(sampled, TPSpec.identity(HilbertDims(2, 3)))


def _closed_form(form, dims, rng, energies=(-2, -1, 0, 1, 2)):
    """exp(+iHt) psi0 on [0, 2 pi] for a Haar psi0 and an H with Haar eigenvectors:
    as a `HamiltonianTrajectory` with a Gaussian H, or as the `TrigTrajectory` it is
    when H's eigenvalues are drawn from the integers `energies`."""
    psi0 = random_state(rng, dims)
    if form == "hamiltonian":
        return HamiltonianTrajectory(dims, random_hermitian(rng, dims.n), psi0, 2 * np.pi)
    vecs = haar_unitary(dims.n, rng)
    rows = (vecs.conj().T @ psi0.amplitudes)[:, None] * vecs.T
    drawn, top = rng.choice(energies, size=dims.n), max(energies)
    a = {w: rows[drawn == w].sum(axis=0) for w in range(-top, top + 1)}
    harmonics = tuple(Harmonic(f, a[f] + a[-f], 1j * (a[f] - a[-f])) for f in range(1, top + 1))
    return TrigTrajectory(dims, a[0], harmonics, 2 * np.pi)


DIMS = [HilbertDims(n1, n2) for n1, n2 in [(2, 2), (2, 3), (3, 2), (3, 3)]]


@pytest.mark.parametrize("form", ["trig", "hamiltonian"])
@pytest.mark.parametrize("dims", DIMS, ids=lambda d: f"{d.n1}x{d.n2}")
def test_tail_bound_covers_the_sampled_tail(dims, form):
    rng = np.random.default_rng(17)
    for _ in range(3):
        traj, u = _closed_form(form, dims, rng), haar_unitary(dims.n, rng)
        spectra = schmidt_spectra(rebased_coefficients(sample(traj, 20000), TPSpec(u, dims)))
        assert tail_bound(traj, u) >= np.sqrt((spectra[:, 1:] ** 2).sum(axis=1)).max()


def test_tail_bound_is_zero_on_cnot_under_its_disentangler():
    assert tail_bound(fixtures.cnot_trajectory(), fixtures.cnot_disentangler().basis_change) == 0.0


@pytest.mark.parametrize("seed", range(5))
def test_tail_bound_is_the_convolution_bound_on_qubit_frequency_one_input(seed):
    rng = np.random.default_rng(seed)
    traj = fixtures.cnot_trajectory() if seed == 0 else _closed_form("trig", QBITS, rng, (-1, 0, 1))
    for u in (np.eye(4), haar_unitary(4, rng), haar_unitary(4, rng)):
        # c = U m holds the coefficients of e^{it} U psi(t) in (z^2, z, 1), z = e^{it}, so
        # its one minor is e^{-2it} Q(z) with Q the difference of convolutions below; the
        # two sum the same products in other orders, so they agree to ulps of the sum of
        # the products' moduli, which is the reference itself unless some Q_k cancel
        c = u @ _coefficient_map(traj)
        reference = np.sqrt(2) * np.abs(np.convolve(c[0], c[3]) - np.convolve(c[1], c[2])).sum()
        a = np.abs(c)
        scale = np.sqrt(2) * (np.convolve(a[0], a[3]) + np.convolve(a[1], a[2])).sum()
        assert abs(tail_bound(traj, u) - reference) <= 4 * np.spacing(scale)


@pytest.mark.parametrize("form", ["trig", "hamiltonian"])
@pytest.mark.parametrize("dims", DIMS, ids=lambda d: f"{d.n1}x{d.n2}")
def test_tail_bound_is_invariant_under_local_unitaries(dims, form):
    rng = np.random.default_rng(23)
    for _ in range(3):
        traj, u = _closed_form(form, dims, rng), haar_unitary(dims.n, rng)
        bound = tail_bound(traj, u)
        moved = tail_bound(traj, random_local_unitary(rng, dims) @ u)
        assert abs(moved - bound) <= 1e-14 * bound


def test_tail_bound_rejects_samples():
    with pytest.raises(UnsupportedForm):
        tail_bound(sample(fixtures.cnot_trajectory(), 50), np.eye(4))
