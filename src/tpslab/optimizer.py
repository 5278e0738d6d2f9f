"""Numerical search for the TPS minimizing worst-case distance to product states.

The search runs over the full unitary group, U = exp(A) with A anti-Hermitian
(n^2 real parameters), deliberately not quotiented by local unitaries: the
redundancy (dimension n1^2 + n2^2 - 1) is harmless for descent.  Each restart
performs two stages:

1. a least-squares stage on the paper's disentangling criterion: the real and
   imaginary parts of every 2x2 minor m_k(t) = x_t^T E_k x_t of the rebased
   coefficients x_t = U psi_t (E_k from `minor_forms`), scaled by 1/sqrt(T),
   which all vanish exactly when U disentangles every sample.  It is solved by
   Levenberg-Marquardt with the exact Jacobian and one eigh of J^T J per
   accepted step: the damping keeps steps off the Jacobian's near-null
   directions along local unitaries, where a Gauss-Newton step would move by
   amounts set by rounding;
2. a minimax stage in epigraph form, min s subject to z_t(theta) <= s, with
   z_t the cancellation-free squared product distance, solved by SLSQP.  SLSQP
   is not monotone, so the stage keeps the best max_t z_t it has seen.

The reported objective is the hard maximum of the chordal product distance on
the sample grid, recomputed through `entanglement_profile`; each restart's
summary objective is the same distance at its minimax point.  Derivatives are
exact (first-order perturbation of sigma_1, the Daleckii-Krein formula for
exp) and checked against finite differences in the tests.  No evaluation runs
an SVD.  A distinct theta costs one n x n eigh, giving U and, by two n^2 x n^2
products, its derivatives dU_d = W (phi * (W^dag B_d W)) W^dag along the basis
B_d; z_t adds a batched eigh of the Gram matrices M M^dag only when n1 >= 3,
as their top eigenvectors are closed form for n1 = 2.  The dU_d are kept for
the last theta, and both Jacobians are one gemm against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .core import TPSpec
from .entanglement import coefficient_minors, entanglement_profile, gram_top_vectors, minor_forms
from .linalg import anti_hermitian_basis, expm_frechet, nearest_unitary
from .trajectory import SampledTrajectory


MINORS_MAX_NFEV = 100  # evaluation cap of the least-squares stage per restart
MINORS_TOL = 3e-16  # its gradient, step and relative cost-decrease tolerance
EPIGRAPH_MAXITER = 100  # SLSQP iteration cap of the minimax stage
EPIGRAPH_FTOL = 1e-15


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.restarts <= 0:
            raise ValueError("restarts must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class RestartSummary:
    index: int
    objective: float
    surrogate_final: float  # sum_k |m_k|^2 / T after the least-squares stage
    iterations: int  # residual evaluations of the least-squares stage


@dataclass(frozen=True)
class OptimizationResult:
    best_tps: TPSpec
    objective: float  # max over samples of the chordal product distance
    surrogate_trace: tuple  # sum_k |m_k|^2 / T of the winning restart, at start and end of stage 1
    polish_trace: tuple  # best-so-far max squared distance in the winning minimax stage
    restart_index: int
    restarts: tuple  # per-restart summaries


class _Objective:
    """Shared state for one trajectory: batched minors and Schmidt top pairs
    on one derivative stack of exp(A), kept for the last theta."""

    def __init__(self, traj: SampledTrajectory):
        self.dims = traj.dims
        self.states = traj.states  # (T, n)
        self.n = traj.dims.n
        self.basis = anti_hermitian_basis(self.n)  # (n^2, n, n)
        self._basis_flat = self.basis.reshape(self.n**2, -1)
        self._forms = minor_forms(traj.dims.n1, traj.dims.n2)  # (K, n, n)
        self._scale = 1.0 / np.sqrt(len(self.states))  # residuals are minors / sqrt(T)
        self._memo = {}  # the last theta's bytes, u, d_u and, once asked for, z

    def _theta_to_a(self, theta: np.ndarray) -> np.ndarray:
        return (theta @ self._basis_flat).reshape(self.n, self.n)

    def _frechet(self, theta: np.ndarray) -> dict:
        """The memo of theta: u = exp(A) from one eigh, and d_u, its derivatives along
        the basis, flattened: W^dag B W = B P, W X W^dag = X P^dag, P = kron(conj(W), W)."""
        key = theta.tobytes()
        if self._memo.get("key") != key:
            u, w, phi = expm_frechet(self._theta_to_a(theta))
            p = (w.conj()[:, None, :, None] * w[None, :, None, :]).reshape(self.n**2, -1)
            d_u = ((self._basis_flat @ p) * phi.ravel()) @ p.conj().T
            self._memo = {"key": key, "u": u, "d_u": d_u}
        return self._memo

    def unitary(self, theta: np.ndarray) -> np.ndarray:
        return self._frechet(theta)["u"]

    def _coefficients(self, u: np.ndarray) -> np.ndarray:
        return (self.states @ u.T).reshape(-1, self.dims.n1, self.dims.n2)

    def minors(self, theta: np.ndarray) -> np.ndarray:
        """Real, then imaginary parts of every 2x2 coefficient minor of
        U psi_t, scaled by 1/sqrt(T), shape (2 * T * K,)."""
        m = coefficient_minors(self._coefficients(self.unitary(theta))).ravel()
        return self._scale * np.concatenate([m.real, m.imag])

    def minors_jacobian(self, theta: np.ndarray) -> np.ndarray:
        """d minors / d theta, shape (2 * T * K, n^2).

        Minor k at sample t is x_t^T E_k x_t with x_t = U psi_t, so along
        dU_d it moves by 2 (E_k x_t)^T dU_d psi_t / sqrt(T).
        """
        memo = self._frechet(theta)
        # x_t^T E_k is (E_k x_t)^T, as E_k is symmetric
        ex = (self.states @ memo["u"].T @ self._forms).swapaxes(0, 1)
        # rows 2 E_k x_t (x) psi_t, one per (t, k), against the flattened dU_d
        g = 2.0 * (ex[:, :, :, None] * self.states[:, None, None, :]).reshape(-1, self.n**2)
        jac = g @ memo["d_u"].T
        return self._scale * np.concatenate([jac.real, jac.imag])

    def sq_distances(self, theta: np.ndarray):
        """Squared distances z_t = 2 - 2 sigma_1 and their theta-gradients,
        shapes (T,) and (T, n^2), with no SVD.

        w is the top eigenvector of the Gram matrix M M^dag and h = w^dag M,
        so sigma_1 = |h| and z_t = 2 |M - w h|_F^2 / (1 + sigma_1) keeps full
        precision near product states.  The gradient on U is -2 y_t psi_t^dag,
        y_t = w h / sigma_1.
        """
        memo = self._frechet(theta)
        if "z" not in memo:
            m = self._coefficients(memo["u"])
            w = gram_top_vectors(m)
            h = np.einsum("ti,tij->tj", w.conj(), m)
            sigma1 = np.linalg.norm(h, axis=1)
            wh = w[:, :, None] * h[:, None, :]
            r = m - wh
            tail = np.sum(r.real**2 + r.imag**2, axis=(1, 2))
            y = wh.reshape(len(wh), -1) / sigma1[:, None]
            # rows conj(y_t) (x) psi_t against the flattened dU_d
            rows = (y.conj()[:, :, None] * self.states[:, None, :]).reshape(len(y), -1)
            memo["z"] = (2.0 * tail / (1.0 + sigma1), -2.0 * (rows @ memo["d_u"].T).real)
        return memo["z"]


def _levenberg_marquardt(fun, jac, x: np.ndarray, max_nfev: int):
    """Minimize |fun(x)|^2 by Levenberg-Marquardt with Nielsen's damping update
    (Madsen, Nielsen & Tingleff 2004).  Returns the last accepted x, the start
    and final |fun|^2 and the fun call count; jac is asked only at the point
    fun last evaluated, and each trial damping costs one solve and one fun."""
    r = fun(x)
    start = cost = float(r @ r)
    nfev, mu, nu = 1, None, 2.0
    while nfev < max_nfev:
        j = jac(x)
        g = j.T @ r
        if np.abs(g).max() <= MINORS_TOL:
            break
        lam, v = np.linalg.eigh(j.T @ j)
        mu = 1e-3 * lam[-1] if mu is None else mu
        while nfev < max_nfev:
            h = -v @ ((v.T @ g) / (lam + mu))
            x_new = x + h
            r_new = fun(x_new)
            nfev += 1
            cost_new = float(r_new @ r_new)
            rho = (cost - cost_new) / (h @ (mu * h - g))  # against the model's full decrease
            if rho > 0:
                break
            mu, nu = mu * nu, 2.0 * nu
        else:
            break
        small_step = np.linalg.norm(h) <= MINORS_TOL * (MINORS_TOL + np.linalg.norm(x))
        small_decrease = cost - cost_new <= MINORS_TOL * cost
        x, r, cost = x_new, r_new, cost_new
        mu, nu = mu * max(1 / 3, 1 - (2 * rho - 1) ** 3), 2.0
        if small_step or small_decrease:
            break
    return x, start, cost, nfev


def _polish(obj: _Objective, theta: np.ndarray):
    """Epigraph minimax stage: min s subject to z_t(theta) <= s, by SLSQP.

    Returns the best iterate seen and the trace of best max_t z_t values (the
    start, then each improvement).  The constraint, its Jacobian and the
    callback at one iterate share one evaluation through the objective's memo.
    """
    x0 = np.append(theta, obj.sq_distances(theta)[0].max())  # s0 = max z(theta0)
    best_theta, trace = theta.copy(), [float(x0[-1])]

    def keep_best(xk):
        nonlocal best_theta
        zmax = float(obj.sq_distances(xk[:-1])[0].max())
        if zmax < trace[-1]:
            best_theta = xk[:-1].copy()
            trace.append(zmax)

    e_last, ones = np.eye(len(theta) + 1)[-1], np.ones((len(obj.states), 1))
    minimize(
        lambda x: x[-1],
        x0,
        jac=lambda x: e_last,
        method="SLSQP",
        constraints={
            "type": "ineq",
            "fun": lambda x: x[-1] - obj.sq_distances(x[:-1])[0],
            "jac": lambda x: np.hstack([-obj.sq_distances(x[:-1])[1], ones]),
        },
        options={"maxiter": EPIGRAPH_MAXITER, "ftol": EPIGRAPH_FTOL},
        callback=keep_best,
    )
    return best_theta, trace


def optimize_tps(
    traj: SampledTrajectory, config: OptimizerConfig = OptimizerConfig()
) -> OptimizationResult:
    """Minimize sup_t d(U psi(t), product states) over basis changes U.

    Deterministic for a fixed config: restart r draws its starting point from
    an RNG stream seeded with (seed, r), restart 0 always starts at the
    identity, and ties between restarts are broken by index.
    """
    obj = _Objective(traj)
    n_params = traj.dims.n**2

    summaries = []
    best = None  # (objective, index, theta, trace)
    for r in range(config.restarts):
        if r == 0:
            theta = np.zeros(n_params)
        else:
            rng = np.random.default_rng([config.seed, r])
            theta = rng.normal(scale=np.pi / 4, size=n_params)

        theta, *trace, nfev = _levenberg_marquardt(
            obj.minors, obj.minors_jacobian, theta, MINORS_MAX_NFEV
        )

        theta, polish_trace = _polish(obj, theta)
        objective = float(np.sqrt(polish_trace[-1]))
        summaries.append(RestartSummary(r, objective, trace[-1], nfev))
        if best is None or objective < best[0]:
            best = (objective, r, theta.copy(), tuple(trace), tuple(polish_trace))

    _, r_best, theta_best, trace_best, polish_best = best
    u = nearest_unitary(obj.unitary(theta_best))
    tps = TPSpec(u, traj.dims)
    # report the objective through the same code path users would take
    profile = entanglement_profile(traj, tps)
    return OptimizationResult(
        best_tps=tps,
        objective=float(profile.max_distance),
        surrogate_trace=trace_best,
        polish_trace=polish_best,
        restart_index=r_best,
        restarts=tuple(summaries),
    )
