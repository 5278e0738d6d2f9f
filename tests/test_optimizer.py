from dataclasses import fields

import numpy as np
import pytest

from tpslab import fixtures, optimizer
from tpslab.core import HilbertDims, TPSpec
from tpslab.entanglement import coefficient_minors, entanglement_profile
from tpslab.linalg import expm_frechet, haar_unitary
from tpslab.optimizer import OptimizerConfig, _Objective, optimize_tps
from tpslab.trajectory import SampledTrajectory, sample_trig

from helpers import QBITS, random_state


@pytest.fixture(scope="module")
def cnot_result():
    sampled = sample_trig(fixtures.cnot_trajectory(), 200)
    return sampled, optimize_tps(sampled, OptimizerConfig(restarts=6, seed=0))


def test_reaches_disentangling_structure(cnot_result):
    _, result = cnot_result
    assert result.objective < 1e-6


def test_identity_start_disentangles_on_its_own(cnot_result):
    _, result = cnot_result
    assert result.restarts[0].objective < 1e-10


def test_objective_matches_profile_reevaluation(cnot_result):
    sampled, result = cnot_result
    profile = entanglement_profile(sampled, result.best_tps)
    assert abs(result.objective - profile.max_distance) <= 1e-9


def test_polish_trace_is_monotone(cnot_result):
    _, result = cnot_result
    trace = np.asarray(result.polish_trace)
    assert np.all(np.diff(trace) <= 1e-15)


def test_deterministic_given_seed(cnot_result):
    sampled, result = cnot_result
    again = optimize_tps(sampled, OptimizerConfig(restarts=6, seed=0))
    assert again.objective == result.objective
    assert again.restart_index == result.restart_index


def test_constant_product_trajectory_is_solved_at_start():
    states = np.tile(np.array([0, 1, 0, 0], dtype=complex), (40, 1))
    sampled = SampledTrajectory(QBITS, np.linspace(0, 1, 40), states)
    result = optimize_tps(sampled, OptimizerConfig(restarts=3, seed=0))
    assert result.objective < 1e-10
    assert result.restart_index == 0
    assert result.surrogate_trace[0] < 1e-10  # identity start is already optimal


def test_certified_trajectory_keeps_distance_floor():
    sampled = sample_trig(fixtures.sidon_trajectory(), 200)
    result = optimize_tps(sampled, OptimizerConfig(restarts=4, seed=0))
    assert result.objective > 1e-3
    assert all(s.objective > 1e-3 for s in result.restarts)


def test_restart_summaries_cover_all_restarts(cnot_result):
    _, result = cnot_result
    assert [s.index for s in result.restarts] == list(range(6))
    winner = result.restarts[result.restart_index]
    assert winner.objective == min(s.objective for s in result.restarts)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_analytic_gradients_match_finite_differences(seed):
    sampled = sample_trig(fixtures.cnot_trajectory(), 40)
    objective = _Objective(sampled)
    rng = np.random.default_rng(seed)
    theta = rng.normal(scale=0.6, size=16)
    step = 1e-6

    jac = objective.minors_jacobian(theta)
    fd = np.empty_like(jac)
    for d in range(16):
        e = np.zeros(16)
        e[d] = step
        fd[:, d] = (objective.minors(theta + e) - objective.minors(theta - e)) / (2 * step)
    assert np.linalg.norm(jac - fd) / np.linalg.norm(fd) < 1e-5


@pytest.mark.parametrize("n1,n2", [(2, 2), (2, 3), (3, 3)], ids=["2x2", "2x3", "3x3"])
def test_sq_distance_jacobian_matches_finite_differences(n1, n2):
    # rows of G are the constraint Jacobian of the epigraph minimax stage
    dims = HilbertDims(n1, n2)
    rng = np.random.default_rng(6)
    states = np.array([random_state(rng, dims).amplitudes for _ in range(30)])
    objective = _Objective(SampledTrajectory(dims, np.linspace(0, 1, 30), states))
    n_params = dims.n**2
    theta = rng.normal(scale=0.6, size=n_params)
    z, jac = objective.sq_distances(theta)
    assert z.shape == (30,) and jac.shape == (30, n_params)
    step = 1e-6
    fd = np.empty_like(jac)
    for d in range(n_params):
        e = np.zeros(n_params)
        e[d] = step
        plus, minus = objective.sq_distances(theta + e)[0], objective.sq_distances(theta - e)[0]
        fd[:, d] = (plus - minus) / (2 * step)
    assert np.linalg.norm(jac - fd) / np.linalg.norm(fd) < 1e-5


@pytest.mark.parametrize(
    "n1,n2", [(2, 2), (2, 3), (3, 2), (3, 3)], ids=["2x2", "2x3", "3x2", "3x3"]
)
def test_residual_jacobian_matches_finite_differences(n1, n2):
    # non-square coefficient matrices pin the layout of the minor forms
    dims = HilbertDims(n1, n2)
    rng = np.random.default_rng(9)
    states = np.array([random_state(rng, dims).amplitudes for _ in range(30)])
    objective = _Objective(SampledTrajectory(dims, np.linspace(0, 1, 30), states))
    n_params = dims.n**2
    theta = rng.normal(scale=0.5, size=n_params)
    jac = objective.minors_jacobian(theta)
    n_minors = (n1 * (n1 - 1) // 2) * (n2 * (n2 - 1) // 2)
    assert jac.shape == (2 * 30 * n_minors, n_params)
    step = 1e-6
    fd = np.empty_like(jac)
    for d in range(n_params):
        e = np.zeros(n_params)
        e[d] = step
        fd[:, d] = (objective.minors(theta + e) - objective.minors(theta - e)) / (2 * step)
    assert np.linalg.norm(jac - fd) / np.linalg.norm(fd) < 1e-5


def _loop_minors_jacobian(objective, theta):
    """Per-(sample, direction) chain rule: the reference the batched Jacobian replaces.

    Minors are bilinear, so the first-order part of minors(M + dM) is
    minors(M + dM) - minors(M) - minors(dM), exactly.
    """
    a = sum(coef * b for coef, b in zip(theta, objective.basis))
    u, wexp, phi = expm_frechet(a)
    shape = (objective.dims.n1, objective.dims.n2)
    scale = 1.0 / np.sqrt(len(objective.states))
    cols = []
    for b in objective.basis:
        d_u = wexp @ (phi * (wexp.conj().T @ b @ wexp)) @ wexp.conj().T
        col = []
        for psi in objective.states:
            m, dm = (u @ psi).reshape(shape), (d_u @ psi).reshape(shape)
            col.append(coefficient_minors(m + dm) - coefficient_minors(m) - coefficient_minors(dm))
        col = scale * np.concatenate(col)
        cols.append(np.concatenate([col.real, col.imag]))
    return a, np.array(cols).T


@pytest.mark.parametrize("n1,n2", [(2, 2), (2, 3), (3, 3)], ids=["2x2", "2x3", "3x3"])
def test_batched_chain_rule_matches_loop_reference(n1, n2):
    dims = HilbertDims(n1, n2)
    rng = np.random.default_rng(4)
    states = np.array([random_state(rng, dims).amplitudes for _ in range(20)])
    objective = _Objective(SampledTrajectory(dims, np.linspace(0, 1, 20), states))
    theta = rng.normal(scale=0.7, size=dims.n**2)
    a, jac = _loop_minors_jacobian(objective, theta)
    assert np.array_equal(objective._theta_to_a(theta), a)
    # only the summation order differs, so agreement is at rounding level
    assert np.abs(objective.minors_jacobian(theta) - jac).max() < 1e-14


def test_winner_summary_objective_is_the_reported_objective(cnot_result):
    # both are the cancellation-free distance, so they agree far below 2 - 2 sigma_1's ~1e-8 steps
    _, result = cnot_result
    winner = result.restarts[result.restart_index]
    assert abs(winner.objective - result.objective) <= 1e-12


def test_best_tps_is_valid(cnot_result):
    _, result = cnot_result
    assert isinstance(result.best_tps, TPSpec)
    u = result.best_tps.basis_change
    assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-10


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    assert [f.name for f in fields(OptimizerConfig)] == ["restarts", "seed"]


def _random_sidon_2x3():
    """V (a_k e^{i f_k t})_k with a Sidon frequency set and a Haar-random V."""
    dims = HilbertDims(2, 3)
    rng = np.random.default_rng(17)
    amps = rng.uniform(0.5, 1.0, size=dims.n)
    amps /= np.linalg.norm(amps)
    times = np.linspace(0, 2 * np.pi, 200)
    phases = np.exp(1j * np.outer(times, [0, 1, 3, 7, 12, 20]))
    states = (amps * phases) @ haar_unitary(dims.n, rng).T
    return SampledTrajectory(dims, times, states)


@pytest.mark.parametrize(
    "make_sampled",
    [lambda: sample_trig(fixtures.sidon_trajectory(), 200), _random_sidon_2x3],
    ids=["sidon", "random-2x3"],
)
def test_minimax_stage_never_ends_above_its_start(make_sampled, monkeypatch):
    sampled = make_sampled()
    runs = []
    polish = optimizer._polish

    def recording_polish(obj, theta):
        best_theta, trace = polish(obj, theta)
        runs.append((obj, best_theta, trace))
        return best_theta, trace

    monkeypatch.setattr(optimizer, "_polish", recording_polish)
    result = optimize_tps(sampled, OptimizerConfig(restarts=3, seed=0))
    assert len(runs) == 3
    for obj, best_theta, trace in runs:
        assert trace[-1] <= trace[0]
        assert np.all(np.diff(trace) < 0)
        # the trace's last entry is the max squared distance at the returned point
        zmax = obj.sq_distances(best_theta)[0].max()
        assert abs(zmax - trace[-1]) <= 1e-12 * trace[-1]
    assert result.polish_trace == tuple(runs[result.restart_index][2])
    assert abs(result.polish_trace[-1] - result.objective**2) <= 1e-12 * result.objective**2
