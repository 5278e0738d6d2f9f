import numpy as np
import pytest

import tpslab.obstruction
from tpslab import fixtures
from tpslab.construct import ConstructConfig, construct_disentangler
from tpslab.core import HilbertDims
from tpslab.errors import InvalidInput, TooFewSamples
from tpslab.linalg import haar_unitary
from tpslab.obstruction import (
    Verdict,
    certify_no_disentangling,
    product_rank,
    sym2_coordinates,
)
from tpslab.trajectory import Harmonic, SampledTrajectory, TrigTrajectory, sample

from helpers import QBITS, near_two_dimensional


def test_gram_cnot_zero_rows():
    # the four pairs touching the identically-zero second component and one
    # product dependency give five exact zeros, read without rounding sign
    eigs = certify_no_disentangling(sample(fixtures.cnot_trajectory(), 400)).gram_eigenvalues
    assert eigs.shape == (10,)
    assert np.all(eigs[5:] <= 1e-30)
    assert np.all(eigs[:5] > 1e-6)


def test_gram_constant_state_single_entry():
    states = np.tile(np.array([1, 0, 0, 0], dtype=complex), (50, 1))
    sampled = SampledTrajectory(QBITS, np.linspace(0, 1, 50), states)
    eigs = certify_no_disentangling(sampled).gram_eigenvalues
    assert eigs[0] == pytest.approx(1.0, abs=1e-15)  # integral of |1|^2 over [0, 1]
    assert np.all(eigs[1:] <= 1e-30)


def test_gram_sidon_is_scaled_identity():
    # a diagonal Gram: the sqrt(2) on products of distinct components doubles their norm
    sampled = sample(fixtures.sidon_trajectory(), 400)
    weights = sym2_coordinates(4)[2]
    eigs = certify_no_disentangling(sampled).gram_eigenvalues
    assert np.abs(eigs - (2 * np.pi / 16) * np.sort(weights**2)[::-1]).max() < 1e-12


@pytest.mark.parametrize("factory", [fixtures.sidon_trajectory, fixtures.cnot_trajectory])
def test_gram_spectrum_is_independent_of_reference_basis(factory):
    # products in orthonormal Sym^2 coordinates: a basis change acts unitarily
    sampled = sample(factory(), 400)
    eigs = certify_no_disentangling(sampled).gram_eigenvalues
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = haar_unitary(sampled.dims.n, rng)
        rotated = SampledTrajectory(sampled.dims, sampled.times, sampled.states @ u.T)
        moved = certify_no_disentangling(rotated).gram_eigenvalues
        assert np.abs(moved - eigs).max() <= 1e-12 * eigs.max()


def test_gram_too_few_samples():
    with pytest.raises(TooFewSamples):
        certify_no_disentangling(sample(fixtures.cnot_trajectory(), 20))


def test_certify_sidon():
    cert = certify_no_disentangling(sample(fixtures.sidon_trajectory(), 400))
    assert cert.verdict is Verdict.CERTIFIED_NO
    assert cert.numerical_rank == cert.full_rank == 10
    assert cert.trajectory_span_dim == 4


def test_certify_cnot_inconclusive():
    cert = certify_no_disentangling(sample(fixtures.cnot_trajectory(), 400))
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert cert.numerical_rank == 5
    assert cert.full_rank == 10
    assert cert.trajectory_span_dim == 3


def test_certify_lowdim():
    cert = certify_no_disentangling(sample(fixtures.lowdim_trajectory(), 400))
    assert cert.verdict is Verdict.EXISTS_LOW_DIM
    assert cert.trajectory_span_dim == 2


@pytest.mark.parametrize(
    "factory",
    [fixtures.sidon_trajectory, fixtures.cnot_trajectory, fixtures.lowdim_trajectory],
)
def test_verdict_stable_under_doubling(factory):
    a = certify_no_disentangling(sample(factory(), 400))
    b = certify_no_disentangling(sample(factory(), 800))
    assert a.verdict is b.verdict
    assert a.numerical_rank == b.numerical_rank


def _exponential_2x3(freqs, seed):
    """V (a_k e^{i f_k t})_k on [0, 2 pi], freqs[0] = 0, for a Haar V and complex a_k."""
    rng = np.random.default_rng(seed)
    amps = rng.uniform(0.5, 1.0, size=6) * np.exp(2j * np.pi * rng.uniform(size=6))
    cols = amps / np.linalg.norm(amps) * haar_unitary(6, rng)
    harmonics = tuple(Harmonic(f, cols[:, k], 1j * cols[:, k]) for k, f in enumerate(freqs) if f)
    return TrigTrajectory(HilbertDims(2, 3), cols[:, 0], harmonics, 2 * np.pi)


@pytest.mark.parametrize("samples", [400, 800])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "freqs, rank, verdict",
    [
        # 0 + 2 = 1 + 1 is the one repeated pairwise sum: rank 20 > N - K = 21 - 3
        ((0, 1, 2, 7, 15, 31), 20, Verdict.CERTIFIED_NO),
        # 0 + 2 = 1 + 1, 0 + 3 = 1 + 2 and 1 + 3 = 2 + 2: rank 18 = N - K
        ((0, 1, 2, 3, 15, 31), 18, Verdict.INCONCLUSIVE),
    ],
    ids=["one-repeated-sum", "three-repeated-sums"],
)
def test_rank_above_n_minus_k_certifies(freqs, rank, verdict, seed, samples):
    cert = certify_no_disentangling(sample(_exponential_2x3(freqs, seed), samples))
    assert (cert.numerical_rank, cert.full_rank) == (rank, 21)
    assert cert.verdict is verdict


def test_rank_invariant_under_global_phase():
    base = sample(fixtures.cnot_trajectory(), 400)
    twisted = SampledTrajectory(QBITS, base.times, base.states * np.exp(1j * 0.813))
    a = certify_no_disentangling(base)
    b = certify_no_disentangling(twisted)
    assert a.verdict is b.verdict
    assert a.numerical_rank == b.numerical_rank


@pytest.mark.parametrize(
    "factory", [fixtures.sidon_trajectory, fixtures.cnot_trajectory]
)
def test_rank_invariant_under_time_reparametrization(factory):
    traj = factory()
    times = np.linspace(0.0, traj.t_max, 400)
    warped = traj.t_max * np.sin(np.pi * times / (2 * traj.t_max))  # smooth bijection
    freqs, rows = traj.exponentials()
    states = np.exp(1j * np.outer(warped, freqs)) @ rows
    reparam = SampledTrajectory(QBITS, times, states)
    a = certify_no_disentangling(sample(traj, 400))
    b = certify_no_disentangling(reparam)
    assert a.verdict is b.verdict
    assert a.numerical_rank == b.numerical_rank


def test_certificate_diagnostics():
    cert = certify_no_disentangling(sample(fixtures.sidon_trajectory(), 400))
    doc = cert.to_dict()
    assert list(doc) == [
        "verdict", "numerical_rank", "full_rank", "min_max_eig_ratio",
        "trajectory_span_dim", "gram_eigenvalues",
    ]
    assert doc["verdict"] == "CertifiedNoDisentanglingTPS"
    assert len(doc["gram_eigenvalues"]) == 10
    assert doc["min_max_eig_ratio"] > 1e-8
    assert cert.gram_eigenvalues.min() > -1e-10


def test_rank_deficient_gram_reports_no_negative_eigenvalue():
    # the five zero eigenvalues of C-NOT's positive semidefinite Gram are rounding
    cert = certify_no_disentangling(sample(fixtures.cnot_trajectory(), 200))
    assert cert.numerical_rank == 5
    assert cert.min_max_eig_ratio >= 0
    assert np.all(cert.gram_eigenvalues >= 0)


def test_span_dimension_of_constant_state():
    states = np.tile(np.array([1, 0, 0, 0], dtype=complex), (80, 1))
    sampled = SampledTrajectory(QBITS, np.linspace(0, 1, 80), states)
    cert = certify_no_disentangling(sampled)
    assert cert.trajectory_span_dim == 1
    assert cert.verdict is Verdict.EXISTS_LOW_DIM


@pytest.mark.parametrize(
    "amplitude, exists",
    [(1e-10, True), (1e-9, True), (1e-8, False), (1e-7, False), (1e-6, False),
     (1e-5, False), (5e-5, False), (2e-4, False)],
)
def test_low_dimension_verdict_agrees_with_construct_near_a_two_dimensional_span(
    amplitude, exists
):
    # the span rule reads singular values at rank_tol: a third direction of
    # relative weight sqrt(2) * amplitude counts from 1e-8 on, where construct
    # finds no disentangler either
    traj = near_two_dimensional(amplitude)
    cert = certify_no_disentangling(sample(traj, 400))
    assert cert.trajectory_span_dim == (2 if exists else 3)
    assert (cert.verdict is Verdict.EXISTS_LOW_DIM) is exists
    assert construct_disentangler(traj, ConstructConfig()).found is exists


@pytest.mark.parametrize(
    "dims,count,certified",
    [((2, 2), 9, False), ((2, 2), 10, True), ((2, 3), 18, False), ((2, 3), 19, True)],
)
def test_product_rank_certifies_above_n_minus_k(dims, count, certified):
    # N - K = 10 - 1 on 2x2 and 21 - 3 on 2x3; fewer values can never certify
    sigma = np.ones(count)
    assert product_rank(sigma, HilbertDims(*dims), 1e-8) == (count, certified)


def test_product_rank_counts_squared_ratios():
    sigma = np.array([1.0, 1e-3, 0.9e-4, 0.0])  # squares 1, 1e-6, 8.1e-9, 0
    assert product_rank(sigma, QBITS, 1e-8)[0] == 2


_FORMS = {
    "trig": fixtures.sidon_trajectory,
    "hamiltonian": fixtures.cnot_evolution,
    "sampled": lambda: sample(fixtures.lowdim_trajectory(), 120),
}


@pytest.mark.parametrize("form", sorted(_FORMS))
@pytest.mark.parametrize("samples", [60, 400])
def test_certify_samples_its_input_as_sample_does(form, samples):
    # one sampler: the certificate of any form is the one of its samples, bit for bit
    traj = _FORMS[form]()
    own = certify_no_disentangling(traj, num_samples=samples).to_dict()
    assert own == certify_no_disentangling(sample(traj, samples)).to_dict()


def test_certify_uses_a_sampled_input_as_it_is():
    sampled = sample(fixtures.sidon_trajectory(), 120)
    cert = certify_no_disentangling(sampled, 1e-8, num_samples=1)
    assert cert.to_dict() == certify_no_disentangling(sampled).to_dict()


@pytest.mark.parametrize("form", ["trig", "hamiltonian"])
def test_certify_rejects_a_single_sample_of_a_closed_form(form):
    with pytest.raises(ValueError, match="num_samples"):
        certify_no_disentangling(_FORMS[form](), num_samples=1)


@pytest.mark.parametrize("rank_tol", [2.0, float("nan")])
def test_certify_checks_rank_tol_before_sampling(rank_tol, monkeypatch):
    # a bad threshold costs no sampling, at any num_samples
    def no_sampling(*args):
        raise AssertionError("sampled before the rank_tol check")

    monkeypatch.setattr(tpslab.obstruction, "sample", no_sampling)
    with pytest.raises(InvalidInput, match="rank_tol"):
        certify_no_disentangling(fixtures.sidon_trajectory(), rank_tol, num_samples=10**6)


def test_certify_samples_closed_forms_at_400_points_by_default():
    traj = fixtures.cnot_trajectory()
    expected = certify_no_disentangling(sample(traj, 400)).to_dict()
    assert certify_no_disentangling(traj).to_dict() == expected
