import itertools
from dataclasses import fields, replace

import numpy as np
import pytest

from tpslab import fixtures, optimizer
from tpslab.errors import TooFewSamples
from tpslab.core import HilbertDims, TPSpec
from tpslab.entanglement import (
    _distances,
    coefficient_minors,
    entanglement_profile,
)
from tpslab.linalg import anti_hermitian_basis, expm_anti_hermitian, haar_unitary, nonlocal_basis
from tpslab.obstruction import Verdict, certify_no_disentangling, sym2_products
from tpslab.optimizer import OptimizerConfig, _Objective, optimize_tps
from tpslab.reproduce import restarts_cut
from tpslab.trajectory import SampledTrajectory, sample

from helpers import QBITS, planted_trajectory, random_state, reference_epigraph_qp


@pytest.fixture(scope="module")
def cnot_result():
    sampled = sample(fixtures.cnot_trajectory(), 200)
    return sampled, optimize_tps(sampled, OptimizerConfig(restarts=6, seed=0))


def test_reaches_disentangling_structure(cnot_result):
    _, result = cnot_result
    assert result.objective < 1e-6


def _starts(objective, config):
    """The restarts' starts as `optimize_tps` draws them: the identity, then exp of
    each (seed, r) draw."""
    thetas = np.zeros((config.restarts, objective.n**2))
    for r in range(1, config.restarts):
        rng = np.random.default_rng([config.seed, r])
        thetas[r] = rng.normal(scale=np.pi / 4, size=objective.n**2)
    return objective.start(thetas)


@pytest.fixture(scope="module")
def cnot_lone_objectives(cnot_result):
    """What each of cnot_result's restarts reaches on its own: its start driven to its
    own end by the least-squares stage with no stop, then `_polish`ed."""
    objective = _Objective(cnot_result[0])
    x = _stacked_least_squares(objective, _starts(objective, OptimizerConfig(restarts=6)))[0]
    return [np.sqrt(optimizer._polish(objective, u)[1][-1]) for u in x]


def test_identity_start_disentangles_on_its_own(cnot_lone_objectives):
    assert cnot_lone_objectives[0] < 1e-10


def test_every_restart_disentangles_on_its_own(cnot_lone_objectives):
    assert all(objective < 1e-11 for objective in cnot_lone_objectives)


def test_objective_matches_profile_reevaluation(cnot_result):
    sampled, result = cnot_result
    profile = entanglement_profile(sampled, result.best_tps)
    assert abs(result.objective - profile.max_distance) <= 1e-9


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
    assert result.restarts[0].surrogate_final < 1e-10  # identity start is already optimal
    # certified at the start evaluation, where the others are cut
    assert [s.iterations for s in result.restarts] == [1, 1, 1]


def test_certified_trajectory_keeps_distance_floor():
    sampled = sample(fixtures.sidon_trajectory(), 200)
    result = optimize_tps(sampled, OptimizerConfig(restarts=4, seed=0))
    assert result.objective > 1e-3
    assert all(s.objective > 1e-3 for s in result.restarts)


def test_restart_summaries_cover_all_restarts(cnot_result):
    _, result = cnot_result
    assert [s.index for s in result.restarts] == list(range(6))
    winner = result.restarts[result.restart_index]
    assert winner.objective == min(s.objective for s in result.restarts)


def _exp_of(theta, n):
    """exp(A), A the `anti_hermitian_basis` combination of theta, as a restart starts."""
    return expm_anti_hermitian((theta @ anti_hermitian_basis(n).reshape(n * n, -1)).reshape(n, n))


def _fd_jacobian(f, objective, u, step=1e-6):
    """Central differences of f along the chart, f(step(u, +-step e_d)), one column per d."""
    cols = []
    for e in step * np.eye(len(objective.basis)):
        cols.append((f(objective.step(u, e)) - f(objective.step(u, -e))) / (2 * step))
    return np.array(cols).T


def _recorded_levenberg_marquardt(objective, u):
    """Run the least-squares stage on a stack of one u, logging each fun and jac point."""
    calls = []

    def fun(x):
        assert x.shape == (1,) + u.shape
        calls.append(("fun", x[0].copy()))
        return objective.residuals(x)

    def jac(x):
        assert x.shape == (1,) + u.shape
        calls.append(("jac", x[0].copy()))
        return objective.residual_jacobian(x)

    lm = optimizer._levenberg_marquardt
    x, cost, nfev = lm(fun, jac, objective.step, u[None], optimizer.MINORS_MAX_NFEV)
    return (x[0], cost[0], nfev[0]), calls


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize(
    "factory", [fixtures.cnot_trajectory, fixtures.sidon_trajectory], ids=["cnot", "sidon"]
)
def test_levenberg_marquardt_contract(factory, seed):
    objective = _Objective(sample(factory(), 100))
    u = _exp_of(np.random.default_rng(seed).normal(scale=np.pi / 4, size=16), 4)
    (x, cost, nfev), calls = _recorded_levenberg_marquardt(objective, u)
    # the start cost, at the first fun call
    assert calls[0][0] == "fun" and np.array_equal(calls[0][1], u)
    start = np.sum(objective.residuals(u) ** 2)
    assert abs(cost - np.sum(objective.residuals(x) ** 2)) <= 1e-12 * cost
    assert cost <= start
    assert nfev == sum(kind == "fun" for kind, _ in calls) <= optimizer.MINORS_MAX_NFEV
    last_fun = None
    for kind, point in calls:
        if kind == "fun":
            last_fun = point
        else:
            assert np.array_equal(point, last_fun)


@pytest.mark.parametrize("n1,n2", [(2, 2), (2, 3), (3, 3)], ids=["2x2", "2x3", "3x3"])
def test_levenberg_marquardt_stops_at_a_zero_residual_start(n1, n2):
    # U = 1 disentangles a planted product trajectory, so the minors vanish to rounding
    dims = HilbertDims(n1, n2)
    rng = np.random.default_rng(3)
    a, b = (rng.normal(size=(40, k)) + 1j * rng.normal(size=(40, k)) for k in (n1, n2))
    products = np.einsum("ti,tj->tij", a, b).reshape(40, dims.n)
    products /= np.linalg.norm(products, axis=1)[:, None]
    objective = _Objective(SampledTrajectory(dims, np.linspace(0, 1, 40), products))
    u = np.eye(dims.n, dtype=complex)
    (x, cost, nfev), calls = _recorded_levenberg_marquardt(objective, u)
    assert nfev == 1 and [kind for kind, _ in calls] == ["fun", "jac"]
    assert np.array_equal(x, u)
    r = objective.residuals(u)
    assert cost == r @ r < 1e-30


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_analytic_gradients_match_finite_differences(seed):
    sampled = sample(fixtures.cnot_trajectory(), 40)
    objective = _Objective(sampled)
    rng = np.random.default_rng(seed)
    u = _exp_of(rng.normal(scale=0.6, size=16), 4)
    jac = objective.residual_jacobian(u)
    fd = _fd_jacobian(objective.residuals, objective, u)
    assert np.linalg.norm(jac - fd) / np.linalg.norm(fd) < 1e-5


@pytest.mark.parametrize(
    "n1,n2", [(2, 2), (2, 3), (3, 2), (3, 3)], ids=["2x2", "2x3", "3x2", "3x3"]
)
def test_sq_distance_jacobian_matches_finite_differences(n1, n2):
    # rows of G are the constraint Jacobian of the epigraph minimax stage; 3x2
    # takes the top pair from the Gram of the transposed coefficients
    dims = HilbertDims(n1, n2)
    rng = np.random.default_rng(6)
    states = np.array([random_state(rng, dims).amplitudes for _ in range(30)])
    objective = _Objective(SampledTrajectory(dims, np.linspace(0, 1, 30), states))
    u = _exp_of(rng.normal(scale=0.6, size=dims.n**2), dims.n)
    z, jacobian = objective.sq_distances(u)
    jac = jacobian()
    assert z.shape == (30,) and jac.shape == (30, (n1**2 - 1) * (n2**2 - 1))
    fd = _fd_jacobian(lambda x: objective.sq_distances(x)[0], objective, u)
    assert np.linalg.norm(jac - fd) / np.linalg.norm(fd) < 1e-5


def _random_objective(n1, n2, samples, seed):
    dims = HilbertDims(n1, n2)
    rng = np.random.default_rng(seed)
    states = np.array([random_state(rng, dims).amplitudes for _ in range(samples)])
    return _Objective(SampledTrajectory(dims, np.linspace(0, 1, samples), states)), rng


def _residual_length(n1, n2, samples):
    """2 K min(T, N): K minors, each compressed to the rows of R, N = n(n+1)/2."""
    n, n_minors = n1 * n2, (n1 * (n1 - 1) // 2) * (n2 * (n2 - 1) // 2)
    return 2 * n_minors * min(samples, n * (n + 1) // 2)


def _raw_minor_cost(objective, u):
    """sum_{t,k} |m_k(t)|^2 / T from the coefficient minors of U psi_t."""
    m = coefficient_minors(objective._coefficients(u))
    return np.sum(m.real**2 + m.imag**2) / len(objective.states)


@pytest.mark.parametrize(
    "n1,n2", [(2, 2), (2, 3), (3, 2), (3, 3)], ids=["2x2", "2x3", "3x2", "3x3"]
)
def test_residual_jacobian_matches_finite_differences(n1, n2):
    # non-square coefficient matrices pin the layout of the minor forms
    objective, rng = _random_objective(n1, n2, 30, 9)
    u = _exp_of(rng.normal(scale=0.5, size=(n1 * n2) ** 2), n1 * n2)
    jac = objective.residual_jacobian(u)
    assert jac.shape == (_residual_length(n1, n2, 30), (n1**2 - 1) * (n2**2 - 1))
    fd = _fd_jacobian(objective.residuals, objective, u)
    assert np.linalg.norm(jac - fd) / np.linalg.norm(fd) < 1e-5


def test_residual_length_does_not_grow_with_samples():
    lengths = set()
    for samples in (30, 400):
        objective, rng = _random_objective(2, 3, samples, 10)
        u = _exp_of(rng.normal(scale=0.5, size=36), 6)
        r, jac = objective.residuals(u), objective.residual_jacobian(u)
        assert r.shape == (_residual_length(2, 3, samples),) and jac.shape == (len(r), 24)
        lengths.add(len(r))
    assert lengths == {2 * 3 * 21}


def test_residuals_with_fewer_samples_than_sym2_coordinates():
    # 3x3 at T = 20 < N = 45: R is 20 x 45, upper trapezoidal
    objective, rng = _random_objective(3, 3, 20, 11)
    u = _exp_of(rng.normal(scale=0.5, size=81), 9)
    r, jac = objective.residuals(u), objective.residual_jacobian(u)
    assert r.shape == (_residual_length(3, 3, 20),) == (2 * 9 * 20,)
    fd = _fd_jacobian(objective.residuals, objective, u)
    assert np.linalg.norm(jac - fd) / np.linalg.norm(fd) < 1e-5
    raw = _raw_minor_cost(objective, u)
    assert abs(r @ r - raw) <= 1e-12 * raw


def _loop_minors_jacobian(objective, u):
    """Per-(sample, direction) chain rule on the raw minors / sqrt(T), (Re, Im)
    stacked, along dU = B_d U: the reference for what the compressed residuals
    must reproduce.

    Minors are bilinear, so the first-order part of minors(M + dM) is
    minors(M + dM) - minors(M) - minors(dM), exactly.
    """
    shape = (objective.dims.n1, objective.dims.n2)
    scale = 1.0 / np.sqrt(len(objective.states))

    def real_stack(rows):
        flat = scale * np.concatenate(rows)
        return np.concatenate([flat.real, flat.imag])

    minors = real_stack([coefficient_minors((u @ psi).reshape(shape)) for psi in objective.states])
    cols = []
    for b in objective.basis:
        d_u = b @ u
        col = []
        for psi in objective.states:
            m, dm = (u @ psi).reshape(shape), (d_u @ psi).reshape(shape)
            col.append(coefficient_minors(m + dm) - coefficient_minors(m) - coefficient_minors(dm))
        cols.append(real_stack(col))
    return minors, np.array(cols).T


@pytest.mark.parametrize(
    "n1,n2", [(2, 2), (2, 3), (3, 2), (3, 3)], ids=["2x2", "2x3", "3x2", "3x3"]
)
def test_batched_chain_rule_matches_loop_reference(n1, n2):
    # Levenberg-Marquardt reads the residuals only through |r|^2, J^T r and J^T J
    objective, rng = _random_objective(n1, n2, 20, 4)
    u = _exp_of(rng.normal(scale=0.7, size=(n1 * n2) ** 2), n1 * n2)
    minors, jac = _loop_minors_jacobian(objective, u)
    r, j = objective.residuals(u), objective.residual_jacobian(u)
    for got, want in [(r @ r, minors @ minors), (j.T @ r, jac.T @ minors), (j.T @ j, jac.T @ jac)]:
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _svd_distances(objective, u):
    """The cancellation-free distance from the Schmidt spectra of a plain SVD (not
    `schmidt_spectra`, whose 2 x n closed form shares the Gram entries under test)."""
    mats = objective._coefficients(u)
    return _distances(np.linalg.svd(mats, compute_uv=False))


@pytest.mark.parametrize(
    "n1,n2", [(2, 2), (2, 3), (3, 2), (3, 3)], ids=["2x2", "2x3", "3x2", "3x3"]
)
def test_gram_top_pair_distance_matches_svd_spectra(n1, n2):
    dims = HilbertDims(n1, n2)
    rng = np.random.default_rng(12)
    states = np.array([random_state(rng, dims).amplitudes for _ in range(200)])
    objective = _Objective(SampledTrajectory(dims, np.linspace(0, 1, 200), states))
    u = _exp_of(rng.normal(scale=0.6, size=dims.n**2), dims.n)
    z = objective.sq_distances(u)[0]
    assert np.abs(np.sqrt(z) - _svd_distances(objective, u)).max() <= 1e-15


def test_gram_top_pair_is_exact_at_the_cnot_disentangler():
    sampled = sample(fixtures.cnot_trajectory(), 200)
    objective = _Objective(sampled)
    u = np.array(fixtures.cnot_disentangler().basis_change)
    z = objective.sq_distances(u)[0]
    reference = _svd_distances(objective, u)
    assert reference.max() < 1e-14  # the point is a disentangler
    assert np.abs(np.sqrt(z) - reference).max() <= 1e-15


@pytest.mark.parametrize("size", [0.0, 1e-12, 1e-9, 1e-6])
@pytest.mark.parametrize(
    "n1,n2", [(2, 2), (2, 3), (3, 2), (3, 3)], ids=["2x2", "2x3", "3x2", "3x3"]
)
def test_gram_top_pair_is_exact_near_planted_products(n1, n2, size):
    # U psi_t = a_t (x) b_t + size * noise, so d_t is of order size or rounding
    dims = HilbertDims(n1, n2)
    rng = np.random.default_rng(31)
    u = _exp_of(rng.normal(scale=0.6, size=dims.n**2), dims.n)
    a, b = (rng.normal(size=(50, k)) + 1j * rng.normal(size=(50, k)) for k in (n1, n2))
    products = np.einsum("ti,tj->tij", a, b).reshape(50, dims.n)
    products /= np.linalg.norm(products, axis=1)[:, None]
    products += size * (rng.normal(size=products.shape) + 1j * rng.normal(size=products.shape))
    products /= np.linalg.norm(products, axis=1)[:, None]
    objective = _Objective(SampledTrajectory(dims, np.linspace(0, 1, 50), products @ u.conj()))
    z = objective.sq_distances(u)[0]
    assert np.abs(np.sqrt(z) - _svd_distances(objective, u)).max() <= 1e-15


def test_equal_top_schmidt_values_give_finite_distance_and_gradient():
    # at U = 1 the C-NOT fixture ends in the Bell state, sigma_1 = sigma_2
    sampled = sample(fixtures.cnot_trajectory(), 200)
    assert sampled.times[-1] == np.pi / 2
    objective, u = _Objective(sampled), np.eye(4, dtype=complex)
    z, jacobian = objective.sq_distances(u)
    grad = jacobian()
    assert np.all(np.isfinite(z)) and np.all(np.isfinite(grad))
    assert abs(z[-1] - (2 - np.sqrt(2))) <= 1e-15


def test_derivative_stack_memo_is_invisible():
    dims = HilbertDims(2, 3)
    rng = np.random.default_rng(8)
    states = np.array([random_state(rng, dims).amplitudes for _ in range(30)])

    def fresh_objective():
        return _Objective(SampledTrajectory(dims, np.linspace(0, 1, 30), states))

    objective = fresh_objective()
    u1, u2 = (_exp_of(theta, dims.n) for theta in rng.normal(scale=0.6, size=(2, dims.n**2)))

    def evaluate(obj, u):
        r, (z, jacobian) = obj.residuals(u), obj.sq_distances(u)
        return [r, z, obj.residual_jacobian(u), jacobian]

    # every thunk is called only after all three points were evaluated
    interleaved = [evaluate(objective, u) for u in (u1, u2, u1)]
    for u, (*got, jacobian) in zip((u1, u2, u1), interleaved):
        *fresh, fresh_jacobian = evaluate(fresh_objective(), u)
        got, fresh = got + [jacobian()], fresh + [fresh_jacobian()]
        assert all(np.array_equal(a, b) for a, b in zip(got, fresh))
    # the Levenberg-Marquardt cost is the raw minors' sum_{t,k} |m_k(t)|^2 / T
    r, raw = objective.residuals(u1), _raw_minor_cost(objective, u1)
    assert abs(r @ r - raw) <= 1e-12 * raw


def test_both_stages_leave_the_objective_as_it_was_built():
    # the objective holds the trajectory's fixed data only: a run rebinds and
    # writes none of its attributes
    objective = _Objective(sample(fixtures.sidon_trajectory(), 200))

    def contents(value):
        return value.tobytes() if isinstance(value, np.ndarray) else value

    before = {name: (value, contents(value)) for name, value in vars(objective).items()}
    u = _least_squares_from_the_identity(objective)
    _, trace = optimizer._polish(objective, u)
    assert len(trace) > 2  # the minimax stage ran
    assert set(vars(objective)) == set(before)
    for name, (value, data) in before.items():
        assert vars(objective)[name] is value and contents(value) == data


@pytest.mark.parametrize("n1,n2", [(2, 2), (2, 3)], ids=["2x2", "2x3"])
@pytest.mark.parametrize("scale", [0.0, 0.6], ids=["theta0", "random"])
def test_jacobian_stack_is_the_basis_times_u(n1, n2, scale):
    # the chart's derivative at delta = 0 is dU_d = B_d U; the residuals are
    # quadratic in U, so their central difference along U +- B_d U is exact
    objective, rng = _random_objective(n1, n2, 30, 5)
    u = _exp_of(rng.normal(scale=scale, size=(n1 * n2) ** 2), n1 * n2)
    d_u = objective.basis @ u
    exact = np.array([(objective.residuals(u + d) - objective.residuals(u - d)) / 2 for d in d_u])
    jac = objective.residual_jacobian(u)
    assert np.abs(jac - exact.T).max() <= 1e-13 * np.abs(exact).max()
    # U + s B_d U keeps |U psi| to first order, so z_t's derivative along it is dz_t / d delta_d
    def z(x):
        return objective.sq_distances(x)[0]

    s = 1e-6
    fd = np.array([z(u + s * d) - z(u - s * d) for d in d_u]).T / (2 * s)
    g = objective.sq_distances(u)[1]()
    assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-6


def _stacked_least_squares(objective, us, budget=optimizer.MINORS_MAX_NFEV, stop=-np.inf):
    """The least-squares stage on the stack us: (x, cost, nfev), one row per member."""
    return optimizer._levenberg_marquardt(
        objective.residuals, objective.residual_jacobian, objective.step, us, budget, stop
    )


def _least_squares_from_the_identity(objective, budget=optimizer.MINORS_MAX_NFEV):
    return _stacked_least_squares(objective, np.eye(objective.n, dtype=complex)[None], budget)[0][0]


def test_minimax_stage_is_skipped_from_a_start_within_its_tolerance(monkeypatch):
    objective = _Objective(sample(fixtures.cnot_trajectory(), 100))
    u = _least_squares_from_the_identity(objective)
    s0 = objective.sq_distances(u)[0].max()
    assert s0 <= optimizer.EPIGRAPH_FTOL

    def no_qp(*args):
        raise AssertionError("the minimax stage ran from a start within its tolerance")

    def no_jacobian(*args):
        raise AssertionError("a skipped minimax stage built its start model")

    monkeypatch.setattr(optimizer, "_epigraph_qp", no_qp)
    monkeypatch.setattr(objective, "residual_jacobian", no_jacobian)
    best_u, trace = optimizer._polish(objective, u)
    assert np.array_equal(best_u, u) and trace == [s0]


def test_minimax_stage_runs_from_an_obstructed_start(monkeypatch):
    # at 100 samples the identity's least-squares endpoint is already minimax-stationary
    objective = _Objective(sample(fixtures.sidon_trajectory(), 200))
    u = _least_squares_from_the_identity(objective)
    assert objective.sq_distances(u)[0].max() > optimizer.EPIGRAPH_FTOL
    supports, qp = [], optimizer._epigraph_qp

    def recording_qp(*args):
        result = qp(*args)
        supports.append(result[0])
        return result

    monkeypatch.setattr(optimizer, "_epigraph_qp", recording_qp)
    _, trace = optimizer._polish(objective, u)
    # one trace entry per accepted step, each after one QP
    assert len(trace) > 2 and len(supports) >= len(trace) - 1
    assert trace[-1] <= trace[0]


def _qp_instance(samples, params, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, samples), rng.normal(size=(samples, params))


def _kkt_solution(z, g, support):
    """(lam_S, s) of the equality problem on `support`, or None where it is singular."""
    k = len(support)
    m = np.ones((k + 1, k + 1))
    m[:k, :k], m[k, k] = g[support] @ g[support].T, 0.0
    if np.linalg.cond(m) > 1e12:
        return None
    sol = np.linalg.solve(m, np.append(z[support], 1.0))
    return sol[:k], sol[k]


@pytest.mark.parametrize("samples", [5, 40, 200])
@pytest.mark.parametrize("params", [16, 36])
@pytest.mark.parametrize("warm", ["argmax", "random"])
def test_epigraph_qp_meets_its_kkt_conditions(samples, params, warm):
    z, g = _qp_instance(samples, params, samples + params)
    start = [np.argmax(z)] if warm == "argmax" else np.random.default_rng(0).choice(samples, 4)
    support, lam, s, e = optimizer._epigraph_qp(z, g, np.unique(start))
    full = np.zeros(samples)
    full[support] = lam
    slack = s - z - g @ e
    assert lam.min() >= -1e-12 and abs(lam.sum() - 1) <= 1e-12
    assert slack.min() >= -1e-12  # primal feasibility
    assert np.abs(full * slack).max() <= 1e-12  # complementary slackness
    assert np.abs(e + full @ g).max() <= 1e-12  # e = -g^T lam


@pytest.mark.parametrize("samples", [1, 3, 8])
@pytest.mark.parametrize("params", [2, 16])
def test_epigraph_qp_equals_the_best_support(samples, params):
    # with params = 2, supports of more than 3 rows are affinely dependent
    z, g = _qp_instance(samples, params, 10 * samples + params)
    _, _, s, e = optimizer._epigraph_qp(z, g, np.array([0]))
    best = np.inf
    for size in range(1, samples + 1):
        for support in itertools.combinations(range(samples), size):
            solution = _kkt_solution(z, g, list(support))
            if solution is None:
                continue
            lam_s, s_s = solution
            e_s = -(lam_s @ g[list(support)])
            if (z + g @ e_s - s_s).max() <= 1e-12:  # feasible: its value bounds the optimum
                best = min(best, s_s + e_s @ e_s / 2)
    assert abs(s + e @ e / 2 - best) <= 1e-12


def test_epigraph_qp_with_a_single_constraint():
    z, g = _qp_instance(1, 16, 3)
    support, lam, s, e = optimizer._epigraph_qp(z, g, np.array([0]))
    assert list(support) == [0] and abs(lam[0] - 1) <= 1e-15
    assert abs(s - (z[0] - g[0] @ g[0])) <= 1e-12 and np.abs(e + g[0]).max() <= 1e-15


@pytest.mark.parametrize("scale", [0.0, 0.3], ids=["theta0", "random"])
def test_epigraph_qp_on_rows_equal_to_rounding(scale):
    # the sample grid holds both ends of [0, 2 pi], where the Sidon state is the same
    objective = _Objective(sample(fixtures.sidon_trajectory(), 100))
    u = _exp_of(np.random.default_rng(4).normal(scale=scale, size=16), 4)
    z, jacobian = objective.sq_distances(u)
    g = jacobian()
    pair = [0, len(z) - 1]
    assert np.abs(g[0] - g[-1]).max() <= 1e-14 and abs(z[0] - z[-1]) <= 1e-15
    cases = [(z[pair], g[pair], warm) for warm in ([0], [1], [0, 1])] + [(z, g, pair)]
    cases.append((z[[0, 0]], g[[0, 0]], [0, 1]))  # rows equal to the bit: a singular KKT system
    for zs, gs, warm in cases:
        _, lam, s, e = optimizer._epigraph_qp(zs, gs, np.array(warm))
        assert lam.min() >= 0 and abs(lam.sum() - 1) <= 1e-12
        assert np.isfinite(s) and np.all(np.isfinite(e))


def _assert_qp_equals_its_reference(z, g, support):
    """(S, lam, s, e) of `_epigraph_qp` equal to the bit to the earlier implementation's."""
    got, ref = optimizer._epigraph_qp(z, g, support), reference_epigraph_qp(z, g, support)
    assert all(np.array_equal(a, b) for a, b in zip(got, ref))


@pytest.mark.parametrize("params", [9, 24])  # the chart's directions on 2x2 and 2x3
@pytest.mark.parametrize("start", ["cold", "warm"])
@pytest.mark.parametrize("seed", range(4))
def test_epigraph_qp_equals_its_reference_to_the_bit(params, start, seed):
    z, g = _qp_instance(200, params, 100 * params + seed)
    rng = np.random.default_rng(seed)
    if start == "cold":
        support = np.array([np.argmax(z)])
    else:  # a warm random support of at most p + 1 rows
        support = rng.choice(200, size=rng.integers(1, params + 2), replace=False)
    _assert_qp_equals_its_reference(z, g, support)


@pytest.mark.parametrize("scale", [0.0, 0.3], ids=["theta0", "random"])
def test_epigraph_qp_equals_its_reference_on_rows_equal_to_rounding(scale, monkeypatch):
    # built as test_epigraph_qp_on_rows_equal_to_rounding builds it, at 200 samples
    objective = _Objective(sample(fixtures.sidon_trajectory(), 200))
    u = _exp_of(np.random.default_rng(4).normal(scale=scale, size=16), 4)
    z, jacobian = objective.sq_distances(u)
    g = jacobian()
    pair = [0, len(z) - 1]
    cases = [(z[pair], g[pair], warm) for warm in ([0], [1], [0, 1])] + [(z, g, pair)]
    cases.append((z[[0, 0]], g[[0, 0]], [0, 1]))  # rows equal to the bit: a singular KKT system
    lstsq, calls = np.linalg.lstsq, []

    def counted_lstsq(*args, **kwargs):
        calls.append(args)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
    for zs, gs, warm in cases:
        _assert_qp_equals_its_reference(zs, gs, np.array(warm))
    assert calls  # the least-squares branch ran


def test_damped_bfgs_keeps_the_secant_condition_and_positive_definiteness():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(6, 6))
    b, step = np.eye(6) + 0.1 * m @ m.T, rng.normal(size=6)
    # enough curvature along the step: the plain BFGS update, which maps the step to y
    y = 2.0 * b @ step + 0.1 * rng.normal(size=6)
    updated, l_inv = optimizer._damped_bfgs(b, step, y)
    assert np.abs(updated @ step - y).max() <= 1e-12 * np.abs(y).max()
    assert np.abs(l_inv @ updated @ l_inv.T - np.eye(6)).max() <= 1e-12
    # negative curvature: damped to s.y = 0.2 s.B.s, so the update stays positive definite
    updated, _ = optimizer._damped_bfgs(b, step, -step)
    assert abs(step @ updated @ step - 0.2 * step @ b @ step) <= 1e-12 * (step @ b @ step)
    assert np.linalg.eigvalsh(updated).min() > 0
    # a model that is not positive definite resets to the identity
    updated, l_inv = optimizer._damped_bfgs(-np.eye(6), step, step)
    assert np.array_equal(updated, np.eye(6)) and np.array_equal(l_inv, np.eye(6))


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
    with pytest.raises(ValueError, match="seed"):
        OptimizerConfig(seed=-1)
    with pytest.raises(ValueError, match="seed"):
        OptimizerConfig(restarts=1, seed=-1)
    assert [f.name for f in fields(OptimizerConfig)] == ["restarts", "seed"]


def _random_sidon_2x3(samples=200):
    """V (a_k e^{i f_k t})_k with a Sidon frequency set and a Haar-random V."""
    dims = HilbertDims(2, 3)
    rng = np.random.default_rng(17)
    amps = rng.uniform(0.5, 1.0, size=dims.n)
    amps /= np.linalg.norm(amps)
    times = np.linspace(0, 2 * np.pi, samples)
    phases = np.exp(1j * np.outer(times, [0, 1, 3, 7, 12, 20]))
    states = (amps * phases) @ haar_unitary(dims.n, rng).T
    return SampledTrajectory(dims, times, states)


@pytest.mark.parametrize(
    "make_sampled",
    [lambda: sample(fixtures.sidon_trajectory(), 200), _random_sidon_2x3],
    ids=["sidon", "random-2x3"],
)
def test_minimax_stage_never_ends_above_its_start(make_sampled, monkeypatch):
    sampled = make_sampled()
    runs = []
    polish = optimizer._polish

    def recording_polish(obj, u):
        best_u, trace = polish(obj, u)
        runs.append((obj, best_u, trace))
        return best_u, trace

    monkeypatch.setattr(optimizer, "_polish", recording_polish)
    result = optimize_tps(sampled, OptimizerConfig(restarts=3, seed=0))
    assert len(runs) == 3
    for obj, best_u, trace in runs:
        assert trace[-1] <= trace[0]
        assert np.all(np.diff(trace) < 0)
        # the trace's last entry is the max squared distance at the returned point
        zmax = obj.sq_distances(best_u)[0].max()
        assert abs(zmax - trace[-1]) <= 1e-12 * trace[-1]
    winner = runs[result.restart_index][2]
    assert abs(winner[-1] - result.objective**2) <= 1e-12 * result.objective**2
    # the report counts each restart's accepted SQP steps
    assert [s.minimax_steps for s in result.restarts] == [len(trace) - 1 for *_, trace in runs]
    assert all(s.minimax_steps > 0 for s in result.restarts)


@pytest.mark.parametrize(
    "make_sampled",
    [lambda: sample(fixtures.sidon_trajectory(), 200), _random_sidon_2x3],
    ids=["sidon", "random-2x3"],
)
def test_best_tps_stays_unitary_through_the_chart(make_sampled):
    # a product of per-step exponentials, each unitary to rounding, with no projection
    u = optimize_tps(make_sampled(), OptimizerConfig(restarts=3, seed=0)).best_tps.basis_change
    assert np.abs(u.conj().T @ u - np.eye(len(u))).max() <= 1e-13


@pytest.mark.parametrize("n1,n2", [(2, 2), (2, 3), (3, 3)], ids=["2x2", "2x3", "3x3"])
def test_chart_basis_is_the_non_local_directions(n1, n2):
    basis, n = nonlocal_basis(n1, n2), n1 * n2
    flat = basis.reshape(len(basis), -1)
    assert len(basis) == (n1**2 - 1) * (n2**2 - 1)
    assert np.abs((flat.conj() @ flat.T).real - np.eye(len(basis))).max() <= 1e-15
    assert np.array_equal(basis, -basis.conj().transpose(0, 2, 1))
    # every local direction i (X (x) 1) and i (1 (x) Y), X and Y Hermitian
    local = [np.kron(a, np.eye(n2)) for a in anti_hermitian_basis(n1)]
    local += [np.kron(np.eye(n1), b) for b in anti_hermitian_basis(n2)]
    local = np.array(local).reshape(len(local), -1)
    assert np.abs((local.conj() @ flat.T).real).max() <= 1e-15
    # together they span the n^2 anti-Hermitian directions
    both = np.concatenate([flat, local])
    assert np.linalg.matrix_rank(np.concatenate([both.real, both.imag], axis=1)) == n * n


@pytest.mark.parametrize("n1,n2", [(2, 2), (2, 3), (3, 3)], ids=["2x2", "2x3", "3x3"])
def test_chart_bases_are_built_once_and_read_only(n1, n2):
    for build, args in ((anti_hermitian_basis, (n1 * n2,)), (nonlocal_basis, (n1, n2))):
        basis = build(*args)
        assert build(*args) is basis
        with pytest.raises(ValueError):
            basis[0, 0, 0] = 1.0


@pytest.mark.parametrize("n1,n2", [(2, 2), (2, 3), (3, 3)], ids=["2x2", "2x3", "3x3"])
def test_costs_are_invariant_under_local_unitaries(n1, n2):
    # why the chart drops the local directions: U -> (V1 (x) V2) U changes neither cost
    objective, rng = _random_objective(n1, n2, 30, 13)
    u = _exp_of(rng.normal(scale=0.6, size=(n1 * n2) ** 2), n1 * n2)
    for _ in range(3):
        local = np.kron(haar_unitary(n1, rng), haar_unitary(n2, rng))
        r, r_local = objective.residuals(u), objective.residuals(local @ u)
        assert abs(r @ r - r_local @ r_local) <= 1e-14
        z = objective.sq_distances(u)[0]
        assert np.abs(z - objective.sq_distances(local @ u)[0]).max() <= 1e-14


def test_restarts_start_at_exp_of_their_seeded_draw(monkeypatch):
    sampled, config = sample(fixtures.sidon_trajectory(), 40), OptimizerConfig(restarts=3, seed=7)
    starts, lm = [], optimizer._levenberg_marquardt

    def recording_lm(fun, jac, step, x, max_nfev, stop):
        starts.append(x)
        return lm(fun, jac, step, x, max_nfev, stop)

    monkeypatch.setattr(optimizer, "_levenberg_marquardt", recording_lm)
    optimize_tps(sampled, config)
    # one stage for every restart, on the stack of their starts
    assert len(starts) == 1 and starts[0].shape == (3, 4, 4)
    assert np.array_equal(starts[0][0], np.eye(4))
    for r, start in enumerate(starts[0]):
        draw = np.random.default_rng([7, r]).normal(scale=np.pi / 4, size=16)
        theta = draw if r else np.zeros(16)
        assert np.array_equal(start, _exp_of(theta, 4))


def test_restarts_that_skip_the_minimax_stage_report_no_steps(cnot_result):
    _, result = cnot_result
    assert all(s.minimax_steps == 0 for s in result.restarts)


def _least_squares_endpoint(objective):
    """The identity restart's least-squares endpoint, on optimize_tps's budget."""
    budget = optimizer.OBSTRUCTED_MAX_NFEV if objective.obstructed else optimizer.MINORS_MAX_NFEV
    return _least_squares_from_the_identity(objective, budget)


def _first_qp_rows(objective, u, monkeypatch):
    """The constraint rows gl = g L^-T that `_polish` hands its first QP."""
    rows, qp = [], optimizer._epigraph_qp

    def recording_qp(z, gl, support):
        rows.append(gl)
        return qp(z, gl, support)

    monkeypatch.setattr(optimizer, "_epigraph_qp", recording_qp)
    optimizer._polish(objective, u)
    return rows[0]


@pytest.mark.parametrize(
    "make_sampled",
    [lambda: sample(fixtures.sidon_trajectory(), 200), _random_sidon_2x3],
    ids=["sidon", "random-2x3"],
)
def test_minimax_stage_starts_from_the_least_squares_curvature(make_sampled, monkeypatch):
    # B0 = 2 J^T J + (tr 2 J^T J / p) I at the least-squares endpoint, so the
    # first QP's rows satisfy gl gl^T = g B0^-1 g^T
    objective = _Objective(make_sampled())
    u = _least_squares_endpoint(objective)
    g = objective.sq_distances(u)[1]()
    jac = objective.residual_jacobian(u)
    b0 = 2.0 * jac.T @ jac
    b0 += np.trace(b0) / len(b0) * np.eye(len(b0))  # len(b0) = p chart directions
    expected = g @ np.linalg.solve(b0, g.T)
    gl = _first_qp_rows(objective, u, monkeypatch)
    assert np.abs(gl @ gl.T - expected).max() <= 1e-10 * np.abs(expected).max()


@pytest.mark.parametrize(
    "make_sampled",
    [lambda: sample(fixtures.sidon_trajectory(), 200), _random_sidon_2x3],
    ids=["sidon", "random-2x3"],
)
def test_epigraph_qp_equals_its_reference_along_the_minimax_stage(make_sampled, monkeypatch):
    # every QP of one minimax stage, each warm-started from the support of the last
    objective = _Objective(make_sampled())
    calls, qp = [], optimizer._epigraph_qp

    def recording_qp(z, gl, support):
        calls.append((z, gl, support))
        return qp(z, gl, support)

    monkeypatch.setattr(optimizer, "_epigraph_qp", recording_qp)
    optimizer._polish(objective, _least_squares_endpoint(objective))
    monkeypatch.undo()
    assert len(calls) > 5 and max(len(support) for *_, support in calls) > 1
    for z, gl, support in calls:
        _assert_qp_equals_its_reference(z, gl, support)


def test_minimax_stage_starts_from_the_identity_where_its_model_has_no_cholesky(monkeypatch):
    objective = _Objective(sample(fixtures.sidon_trajectory(), 200))
    u = _least_squares_endpoint(objective)
    g = objective.sq_distances(u)[1]()
    shape = (len(objective.residuals(u)), len(objective.basis))
    monkeypatch.setattr(objective, "residual_jacobian", lambda u: np.zeros(shape))
    assert np.array_equal(_first_qp_rows(objective, u, monkeypatch), g)


def _planted(dims, samples):
    """A Haar-rotated product a(t) (x) b(t) of multi-frequency unit vectors: it
    has a disentangler by construction."""
    t = np.linspace(0, 2 * np.pi, samples)
    a = np.stack([np.cos(t), np.sin(t) * np.exp(2j * t)], axis=1)
    b = [np.cos(2 * t), 1j * np.sin(2 * t) * np.exp(1j * t)]
    if dims.n2 == 3:
        b = [np.cos(t) * b[0], np.cos(t) * b[1], np.sin(t) * np.exp(3j * t)]
    states = np.einsum("ti,tj->tij", a, np.stack(b, axis=1)).reshape(samples, -1)
    states = states @ haar_unitary(dims.n, np.random.default_rng(5)).T
    return SampledTrajectory(dims, t, states)


# name -> samples -> trajectory
_FLAG_INPUTS = {
    "sidon": lambda samples: sample(fixtures.sidon_trajectory(), samples),
    "cnot": lambda samples: sample(fixtures.cnot_trajectory(), samples),
    "cnot-evolution": lambda samples: sample(fixtures.cnot_evolution(), samples),
    "lowdim": lambda samples: sample(fixtures.lowdim_trajectory(), samples),
    "sidon-2x3": _random_sidon_2x3,
    "planted-2x2": lambda samples: _planted(QBITS, samples),
    "planted-2x3": lambda samples: _planted(HilbertDims(2, 3), samples),
}


@pytest.mark.parametrize("name,samples", [("sidon", 200), ("sidon-2x3", 200)])
def test_obstructed_flag_is_set_where_the_samples_certify(name, samples):
    assert _Objective(_FLAG_INPUTS[name](samples)).obstructed


@pytest.mark.parametrize(
    "name,samples",
    # 15 samples of 2x3 give at most 15 < N - K + 1 = 19 singular values
    [("cnot", 200), ("planted-2x2", 200), ("planted-2x3", 200), ("sidon-2x3", 15)],
)
def test_obstructed_flag_is_clear_where_they_do_not(name, samples):
    assert not _Objective(_FLAG_INPUTS[name](samples)).obstructed


@pytest.mark.parametrize("name", sorted(_FLAG_INPUTS))
def test_obstructed_flag_agrees_with_certify(name):
    compared = 0
    for samples in (15, 40, 100, 200, 400):
        traj = _FLAG_INPUTS[name](samples)
        try:
            verdict = certify_no_disentangling(traj).verdict
        except TooFewSamples:
            continue
        assert _Objective(traj).obstructed == (verdict is Verdict.CERTIFIED_NO), samples
        compared += 1
    assert compared >= 3


def test_obstructed_budget_stays_above_the_ky_fan_bound(cnot_result):
    # |R c|^2 over K orthonormal c_k is at least the sum of the K smallest sigma^2
    sampled = sample(fixtures.sidon_trajectory(), 200)
    r = np.linalg.qr(sym2_products(sampled.states).T, mode="r") / np.sqrt(len(sampled))
    bound = np.sort(np.linalg.svd(r, compute_uv=False) ** 2)[:1].sum()  # K = 1 on 2x2
    assert bound > 0
    result = optimize_tps(sampled, OptimizerConfig(restarts=4, seed=0))
    for s in result.restarts:
        assert s.surrogate_final >= bound - 1e-14
        assert s.iterations <= optimizer.OBSTRUCTED_MAX_NFEV
    # the budget never applies to C-NOT, whose restarts can run past it
    assert max(s.iterations for s in cnot_result[1].restarts) > optimizer.OBSTRUCTED_MAX_NFEV


_FORMS = {
    "trig": fixtures.sidon_trajectory,
    "hamiltonian": fixtures.cnot_evolution,
    "sampled": lambda: sample(fixtures.lowdim_trajectory(), 60),
}


def _result_key(result):
    return (
        result.best_tps.basis_change.tobytes(),
        result.objective,
        result.restart_index,
        result.restarts,
    )


@pytest.mark.parametrize("form", sorted(_FORMS))
def test_optimize_samples_its_input_as_sample_does(form):
    # one sampler: the search on any form is the search on its samples, bit for bit
    traj, config = _FORMS[form](), OptimizerConfig(restarts=2, seed=1)
    own = optimize_tps(traj, config, num_samples=50)
    assert _result_key(own) == _result_key(optimize_tps(sample(traj, 50), config))


def test_optimize_uses_a_sampled_input_as_it_is():
    sampled, config = _FORMS["sampled"](), OptimizerConfig(restarts=2, seed=1)
    own = optimize_tps(sampled, config, num_samples=1)
    assert _result_key(own) == _result_key(optimize_tps(sampled, config))


@pytest.mark.parametrize("form", ["trig", "hamiltonian"])
def test_optimize_rejects_a_single_sample_of_a_closed_form(form):
    with pytest.raises(ValueError, match="num_samples"):
        optimize_tps(_FORMS[form](), num_samples=1)


def test_optimize_samples_closed_forms_at_200_points_by_default():
    traj, config = fixtures.cnot_trajectory(), OptimizerConfig(restarts=1)
    assert _result_key(optimize_tps(traj, config)) == _result_key(
        optimize_tps(sample(traj, 200), config)
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_least_squares_stage_ends_before_its_damping_overflows():
    # on a quarter window the Sidon fixture is not certified, so LM keeps the
    # full budget; it used to spend it raising the damping until mu overflowed
    traj = replace(fixtures.sidon_trajectory(), t_max=np.pi / 2)
    result = optimize_tps(traj, OptimizerConfig(restarts=4, seed=0))
    assert not _Objective(sample(traj, 200)).obstructed
    assert all(s.iterations < optimizer.MINORS_MAX_NFEV for s in result.restarts)
    assert result.objective == pytest.approx(0.0963955, rel=1e-6)


def _unitary_chart():
    objective = _Objective(sample(fixtures.sidon_trajectory(), 50))
    return np.eye(objective.n, dtype=complex), len(objective.basis), objective.step


def _flat_chart():
    return np.ones(9), 9, lambda x, h: x + h


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("chart", [_unitary_chart, _flat_chart], ids=["unitary", "flat"])
def test_least_squares_stage_ends_a_run_of_rejections_in_any_chart(chart):
    # 1 + sum |x - x0| rises on every move, so every trial is rejected and only the
    # step-size test ends the run: h = -1 / (p + mu) along 1, and mu grows by 2, 4, 8, ...
    x0, p, step = chart()

    def fun(x):
        return 1.0 + np.abs(x - x0).reshape(len(x), -1).sum(axis=1, keepdims=True)

    x, cost, nfev = optimizer._levenberg_marquardt(
        fun, lambda x: np.ones((len(x), 1, p)), step, x0[None], 100
    )
    assert np.array_equal(x[0], x0) and cost[0] == 1.0
    assert nfev[0] == 12


def _sequential_least_squares(objective, u, max_nfev=optimizer.MINORS_MAX_NFEV):
    """The least-squares stage on one u as a scalar loop: the reference for each member."""
    r = objective.residuals(u)
    cost = float(r @ r)
    nfev, mu, nu, rho = 1, None, 2.0, 1.0
    while nfev < max_nfev:
        if rho > 0:
            j = objective.residual_jacobian(u)
            g = j.T @ r
            if np.abs(g).max() <= optimizer.MINORS_TOL:
                break
            lam, v = np.linalg.eigh(j.T @ j)
            mu = 1e-3 * lam[-1] if mu is None else mu
        h = -v @ ((v.T @ g) / (lam + mu))
        if np.linalg.norm(h) <= optimizer.MINORS_TOL:
            break
        u_new = objective.step(u, h)
        r_new = objective.residuals(u_new)
        nfev += 1
        cost_new = float(r_new @ r_new)
        rho = (cost - cost_new) / (h @ (mu * h - g))
        if rho > 0:
            small_decrease = cost - cost_new <= optimizer.MINORS_TOL * cost
            u, r, cost = u_new, r_new, cost_new
            mu, nu = mu * max(1 / 3, 1 - (2 * rho - 1) ** 3), 2.0
            if small_decrease:
                break
        else:
            mu, nu = mu * nu, 2.0 * nu
    return u, cost, nfev


def _assert_runs_alone(objective, starts, x, cost, nfev):
    """Each member of a stacked run ends with the bits and count of a stack of one,
    and of the scalar loop."""
    for i, u in enumerate(starts):
        x_i, cost_i, nfev_i = _stacked_least_squares(objective, u[None])
        assert nfev[i] == nfev_i[0] and cost[i] == cost_i[0]
        assert np.array_equal(x[i], x_i[0])
        u_ref, cost_ref, nfev_ref = _sequential_least_squares(objective, u)
        assert nfev[i] == nfev_ref and cost[i] == cost_ref
        assert np.array_equal(x[i], u_ref)


@pytest.mark.parametrize(
    "make_sampled",
    [
        lambda: sample(fixtures.sidon_trajectory(), 100),
        lambda: _random_sidon_2x3(100),
        lambda: sample(fixtures.cnot_trajectory(), 100),
        lambda: sample(fixtures.lowdim_trajectory(), 100),
    ],
    ids=["sidon", "random-2x3", "cnot", "lowdim"],
)
def test_least_squares_stage_runs_each_member_of_a_stack_as_a_stack_of_one(make_sampled):
    # lowdim's members stop after 7 to 9 evaluations, each on a pass of its own;
    # the others run to the budget
    objective = _Objective(make_sampled())
    thetas = np.random.default_rng(4).normal(scale=np.pi / 4, size=(4, objective.n**2))
    starts = objective.start(thetas)
    x, cost, nfev = _stacked_least_squares(objective, starts)
    assert x.shape == starts.shape and cost.shape == nfev.shape == (4,)
    _assert_runs_alone(objective, starts, x, cost, nfev)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_least_squares_stage_stops_a_member_at_a_disentangler_while_the_others_run():
    objective = _Objective(sample(fixtures.cnot_trajectory(), 100))
    u = np.array(fixtures.cnot_disentangler().basis_change)
    assert np.sum(objective.residuals(u) ** 2) < 1e-30
    thetas = np.random.default_rng(6).normal(scale=np.pi / 4, size=(2, 16))
    starts = objective.start(thetas)
    x, cost, nfev = _stacked_least_squares(objective, np.stack([starts[0], u, starts[1]]))
    assert nfev[1] == 1 and np.array_equal(x[1], u)
    assert nfev[0] > 1 and nfev[2] > 1
    _assert_runs_alone(objective, [starts[0], u, starts[1]], x, cost, nfev)


def test_least_squares_stage_solves_a_linear_problem_in_the_flat_chart():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(30, 8)), rng.normal(size=30)
    x, cost, nfev = optimizer._levenberg_marquardt(
        lambda x: x @ a.T - b,
        lambda x: np.broadcast_to(a, (len(x),) + a.shape),
        lambda x, h: x + h,
        np.zeros((1, 8)),
        100,
    )
    expected = np.linalg.lstsq(a, b, rcond=None)[0]
    assert np.abs(x[0] - expected).max() < 1e-10
    assert cost[0] == pytest.approx(np.sum((a @ expected - b) ** 2), rel=1e-12)
    assert nfev[0] < 100


def _near_product_states(dims, rng, samples, eps):
    """Unit product states a_t (x) b_t, each moved off the product set by eps."""
    a = rng.normal(size=(samples, dims.n1)) + 1j * rng.normal(size=(samples, dims.n1))
    b = rng.normal(size=(samples, dims.n2)) + 1j * rng.normal(size=(samples, dims.n2))
    states = np.einsum("ti,tj->tij", a, b).reshape(samples, dims.n)
    states /= np.linalg.norm(states, axis=1)[:, None]
    noise = rng.normal(size=states.shape) + 1j * rng.normal(size=states.shape)
    states += eps * noise / np.linalg.norm(noise, axis=1)[:, None]
    return states / np.linalg.norm(states, axis=1)[:, None]


def _one_maximally_entangled_sample(dims, rng, samples):
    """Near-product states but for one maximally entangled sample, which then
    carries almost all of the minors' mass: there z_t / (2 r T cost) is nearly
    2 - sqrt(2) ~ 0.59 for r = 2, within a factor 2 of the bound."""
    states = _near_product_states(dims, rng, samples, 1e-4)
    r = min(dims.n1, dims.n2)
    states[samples // 2] = np.eye(dims.n1, dims.n2).reshape(-1) / np.sqrt(r)
    return states


@pytest.mark.parametrize("kind", ["random", "near-1e-2", "near-1e-6", "one-entangled"])
@pytest.mark.parametrize("haar", [False, True], ids=["identity", "haar"])
@pytest.mark.parametrize(
    "n1,n2", [(2, 2), (2, 3), (3, 2), (3, 3)], ids=["2x2", "2x3", "3x2", "3x3"]
)
def test_certified_cost_bounds_every_sample_distance(n1, n2, haar, kind):
    # z_t <= 2 r e_2(t) <= 2 r T cost, so a cost at most `certified_cost` holds
    # max_t z_t to EPIGRAPH_FTOL and the minimax stage would skip that point
    dims, rng, samples = HilbertDims(n1, n2), np.random.default_rng(21), 30
    if kind == "random":
        states = np.array([random_state(rng, dims).amplitudes for _ in range(samples)])
    elif kind == "one-entangled":
        states = _one_maximally_entangled_sample(dims, rng, samples)
    else:
        states = _near_product_states(dims, rng, samples, float(kind[5:]))
    objective = _Objective(SampledTrajectory(dims, np.linspace(0, 1, samples), states))
    u = haar_unitary(dims.n, rng) if haar else np.eye(dims.n, dtype=complex)
    z = objective.sq_distances(u)[0]
    m = coefficient_minors(objective._coefficients(u))
    e2 = np.sum(m.real**2 + m.imag**2, axis=-1)
    r = objective.residuals(u)
    two_r = 2 * min(n1, n2)
    assert np.all(z <= two_r * e2)
    assert np.all(two_r * e2 <= two_r * samples * (r @ r))
    ratio = z.max() / (r @ r) * optimizer.certified_cost(dims, samples)
    assert ratio <= optimizer.EPIGRAPH_FTOL


def _planted_2x3(samples=100):
    return planted_trajectory(HilbertDims(2, 3), (0, 1), (0, 1, 2), np.random.default_rng(0), samples)


_CERTIFIED_INPUTS = {
    "cnot": lambda: sample(fixtures.cnot_trajectory(), 100),
    "planted-2x3": _planted_2x3,
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(_CERTIFIED_INPUTS))
def test_least_squares_stage_cut_leaves_each_member_as_its_lone_run(name):
    # the winner runs on to its own end; every other member stops where the cut
    # found it, as a lone run with that evaluation count for its budget would
    objective = _Objective(_CERTIFIED_INPUTS[name]())
    starts = _starts(objective, OptimizerConfig(restarts=5, seed=3))
    stop = optimizer.certified_cost(objective.dims, len(objective.states))
    x, cost, nfev = _stacked_least_squares(objective, starts, stop=stop)
    winner = np.flatnonzero(cost <= stop)[0]
    others = np.delete(np.arange(len(starts)), winner)
    assert np.all(cost[:winner] > stop)
    assert len(set(nfev[others])) == 1 and nfev[others][0] < optimizer.MINORS_MAX_NFEV
    for i in range(len(starts)):
        budget = optimizer.MINORS_MAX_NFEV if i == winner else nfev[i]
        x_i, cost_i, nfev_i = _stacked_least_squares(objective, starts[i][None], budget)
        assert nfev[i] == nfev_i[0] and cost[i] == cost_i[0]
        assert np.array_equal(x[i], x_i[0])


def test_least_squares_stage_cuts_the_others_at_a_certified_start():
    # the start evaluation is tested too: of two certified starts the first wins
    # there and runs on, and the second, an exact disentangler, is cut with the rest
    objective = _Objective(sample(fixtures.cnot_trajectory(), 100))
    u = np.array(fixtures.cnot_disentangler().basis_change)
    near = objective.step(u, np.full(len(objective.basis), 1e-11))
    thetas = np.random.default_rng(6).normal(scale=np.pi / 4, size=(2, 16))
    starts = objective.start(thetas)
    stack = np.stack([starts[0], near, starts[1], u])
    stop = optimizer.certified_cost(objective.dims, 100)
    x, cost, nfev = _stacked_least_squares(objective, stack, stop=stop)
    assert np.flatnonzero(cost <= stop).tolist() == [1, 3]
    assert nfev[1] > 1 and np.delete(nfev, 1).tolist() == [1, 1, 1]
    assert np.array_equal(np.delete(x, 1, axis=0), np.delete(stack, 1, axis=0))


@pytest.mark.parametrize("name", sorted(_CERTIFIED_INPUTS))
def test_winner_is_its_lone_run_and_the_cut_restarts_report_where_they_stopped(
    name, monkeypatch
):
    sampled, config = _CERTIFIED_INPUTS[name](), OptimizerConfig(restarts=6, seed=0)
    stages, lm = [], optimizer._levenberg_marquardt

    def recording_lm(*args):
        stages.append(lm(*args))
        return stages[-1]

    monkeypatch.setattr(optimizer, "_levenberg_marquardt", recording_lm)
    result = optimize_tps(sampled, config)
    monkeypatch.undo()
    objective = _Objective(sampled)
    (x, cost, nfev), w = stages[0], result.restart_index
    # the winner: the bits of its start driven alone to its end, with no minimax stage
    x_w, cost_w, nfev_w = _stacked_least_squares(objective, _starts(objective, config)[w][None])
    winner = result.restarts[w]
    assert np.array_equal(result.best_tps.basis_change, x_w[0])
    assert (winner.surrogate_final, winner.iterations) == (cost_w[0], nfev_w[0])
    assert winner.minimax_steps == 0
    assert winner.objective == np.sqrt(objective.sq_distances(x_w[0])[0].max()) < 1e-10
    # the others: their cut point's surrogate, count and distance, never polished
    for s in result.restarts:
        assert (s.surrogate_final, s.iterations) == (cost[s.index], nfev[s.index])
        assert s.objective == float(np.sqrt(objective.sq_distances(x[s.index])[0].max()))
        assert s.minimax_steps == 0


@pytest.mark.parametrize(
    "make_sampled",
    [lambda: sample(fixtures.sidon_trajectory(), 200), _random_sidon_2x3],
    ids=["sidon", "random-2x3"],
)
def test_the_stop_leaves_an_obstructed_search_as_it_was(make_sampled, monkeypatch):
    # no cost reaches `certified_cost` where a Ky Fan floor holds it up
    sampled, config = make_sampled(), OptimizerConfig(restarts=3, seed=0)
    result = optimize_tps(sampled, config)
    monkeypatch.setattr(optimizer, "certified_cost", lambda dims, samples: -np.inf)
    assert _result_key(result) == _result_key(optimize_tps(sampled, config))


@pytest.mark.parametrize(
    "dims,freqs_a,freqs_b,seed",
    [
        ((2, 3), (0, 1), (0, 1, 2), 0),
        ((2, 3), (0, 2), (-1, 0, 3), 1),
        ((3, 3), (-2, 0, 1), (0, 1, 4), 0),
    ],
    ids=["2x3-a", "2x3-b", "3x3"],
)
def test_default_restarts_find_planted_disentanglers(dims, freqs_a, freqs_b, seed):
    rng = np.random.default_rng(seed)
    traj = planted_trajectory(HilbertDims(*dims), freqs_a, freqs_b, rng)
    result = optimize_tps(traj, OptimizerConfig())
    assert result.objective < 1e-10


def test_restarts_cut_reads_the_cut_from_the_summaries(cnot_result):
    _, result = cnot_result
    winner = result.restarts[result.restart_index]
    at = {s.iterations for s in result.restarts if s is not winner}
    assert restarts_cut(result, 200) == (5, at.pop()) and not at
    assert winner.iterations > restarts_cut(result, 200)[1]
    sidon = optimize_tps(sample(fixtures.sidon_trajectory(), 200), OptimizerConfig(restarts=2))
    assert restarts_cut(sidon, 200) == (0, 0)
