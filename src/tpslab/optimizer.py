"""Numerical search for the TPS minimizing worst-case distance to product states.

The search runs over the full unitary group, parameterized as U = exp(A) with
A anti-Hermitian (n^2 real parameters).  The group is deliberately *not*
quotiented by local unitaries: the redundancy (dimension n1^2 + n2^2 - 1) is
harmless for descent and repeated equivalent minima are expected.

Each restart performs two stages:

1. a smooth surrogate stage minimizing mean_t (1 - sigma_1(t)^2), which is
   differentiable even where the entropy's derivative degenerates
   (sigma_1 -> 1), driven by L-BFGS with analytic gradients and refined by
   Gauss-Newton on the residuals sigma_k(t), k >= 2;
2. a minimax stage in epigraph form, min s subject to z_t(theta) <= s, with
   z_t the cancellation-free squared product distance, solved by SLSQP with
   the per-sample gradients of z_t as the constraint Jacobian.  SLSQP is not
   monotone, so the stage keeps the best max_t z_t it has seen and never ends
   above its start.

The reported objective is always the hard maximum of the chordal product
distance on the full sample grid, recomputed through `entanglement_profile`;
each restart's summary objective is the same cancellation-free distance at
its minimax point.  Gradients are exact (SVD perturbation + the
Daleckii-Krein formula for the derivative of the matrix exponential) and are
checked against central finite differences in the test suite.  Every
evaluation is a few batched numpy calls with one eigh: the Gauss-Newton
Jacobian takes the n^2 directional derivatives dU_d = W (phi * (W^dag B_d W))
W^dag of exp along the basis directions B_d at once, and its entry for
sample t, residual k and direction d is
Re(w_k(t)^dag reshape(dU_d psi_t) conj(vh_k(t))) / sqrt(T).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares, minimize

from .core import TPSpec
from .entanglement import _distances, entanglement_profile
from .linalg import anti_hermitian_basis, expm_antihermitian, expm_frechet, nearest_unitary
from .trajectory import SampledTrajectory


MAX_ITERATIONS = 400  # surrogate-stage iteration cap per restart
CONVERGENCE_TOL = 1e-14  # skip the surrogate stage below this surrogate value
EPIGRAPH_MAXITER = 100  # SLSQP iteration cap of the minimax stage
EPIGRAPH_FTOL = 1e-15


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.restarts <= 0:
            raise ValueError("restarts must be positive")


@dataclass(frozen=True)
class RestartSummary:
    index: int
    objective: float
    surrogate_final: float
    iterations: int


@dataclass(frozen=True)
class OptimizationResult:
    best_tps: TPSpec
    objective: float  # max over samples of the chordal product distance
    surrogate_trace: tuple  # surrogate history of the winning restart
    polish_trace: tuple  # best-so-far max squared distance in the winning minimax stage
    restart_index: int
    restarts: tuple  # per-restart summaries


class _Objective:
    """Shared state for one trajectory: batched SVDs and the chain rule."""

    def __init__(self, traj: SampledTrajectory):
        self.dims = traj.dims
        self.states = traj.states  # (T, n)
        self.n = traj.dims.n
        self.basis = anti_hermitian_basis(self.n)  # (n^2, n, n)
        self._basis_conj = self.basis.conj()

    def _theta_to_a(self, theta: np.ndarray) -> np.ndarray:
        return np.tensordot(theta, self.basis, axes=1)

    def unitary(self, theta: np.ndarray) -> np.ndarray:
        return expm_antihermitian(self._theta_to_a(theta))

    def _coefficients(self, u: np.ndarray) -> np.ndarray:
        rebased = self.states @ u.T  # (T, n)
        return rebased.reshape(-1, self.dims.n1, self.dims.n2)

    def _singular_values(self, theta: np.ndarray) -> np.ndarray:
        return np.linalg.svd(self._coefficients(self.unitary(theta)), compute_uv=False)

    def _svd_pieces(self, theta: np.ndarray):
        """SVD of every rebased coefficient matrix, plus exp's Frechet data."""
        u, wexp, phi = expm_frechet(self._theta_to_a(theta))
        w, s, vh = np.linalg.svd(self._coefficients(u))
        return w, s, vh, wexp, phi

    def _grad_theta_from_grad_u(self, grad_u: np.ndarray, wexp, phi) -> np.ndarray:
        """Pull a Frobenius gradient on U, or a (T, n, n) stack of them, back
        to the exp(A) parameters."""
        ghat = wexp.conj().T @ grad_u @ wexp
        k = wexp @ (np.conj(phi) * ghat) @ wexp.conj().T
        return np.einsum("dij,...ij->...d", self._basis_conj, k).real

    def _grad_u_from_sample_weights(self, weights, w, vh) -> np.ndarray:
        """Gradient on U of sum_t weights[t] * sigma_1(t).

        d sigma_1 = Re <y_t psi_t^dag, dU>_F with y_t the outer product of the
        top singular pair, flattened back to state indexing.
        """
        y = np.einsum("t,ti,tj->tij", weights, w[:, :, 0], vh[:, 0, :])
        y = y.reshape(len(weights), self.n)
        return np.einsum("tk,tb->kb", y, np.conj(self.states))

    def surrogate(self, theta: np.ndarray):
        """mean_t (1 - sigma_1^2) and its gradient."""
        w, s, vh, wexp, phi = self._svd_pieces(theta)
        s1 = s[:, 0]
        value = float(np.mean(1.0 - s1**2))
        weights = -2.0 * s1 / len(s1)
        grad_u = self._grad_u_from_sample_weights(weights, w, vh)
        return value, self._grad_theta_from_grad_u(grad_u, wexp, phi)

    def residuals(self, theta: np.ndarray):
        """Sub-leading singular values as a residual vector.

        The squared norm of the residuals equals the surrogate (states are
        normalized, so 1 - sigma_1^2 = sum_{k>=2} sigma_k^2), but the
        least-squares form converges quadratically where the surrogate's
        plain gradient descent stalls.
        """
        s = self._singular_values(theta)
        scale = 1.0 / np.sqrt(s.shape[0])
        return scale * s[:, 1:].ravel()

    def residual_jacobian(self, theta: np.ndarray):
        """d residuals / d theta, shape (T * (min(n1, n2) - 1), n^2).

        With dU_d = W (phi * (W^dag B_d W)) W^dag the derivative of exp(A)
        along basis direction B_d and dM_d(t) = reshape(dU_d psi_t), the
        perturbation of a simple singular value gives
        J[(t, k), d] = Re(w_k(t)^dag dM_d(t) conj(vh_k(t))) / sqrt(T).
        """
        w, s, vh, wexp, phi = self._svd_pieces(theta)
        m = s.shape[1]
        d_u = wexp @ (phi * (wexp.conj().T @ self.basis @ wexp)) @ wexp.conj().T
        # J[(t, k), d] = Re sum_ab g[(t, k), ab] dU_d[a, b], g = conj(w_k(t) (x) vh_k(t)) psi_t^T
        y = np.einsum("tik,tkj->tkij", w[:, :, 1:m], vh[:, 1:m, :]).reshape(len(s), m - 1, self.n)
        g = np.einsum("tka,tb->tkab", y.conj(), self.states).reshape(-1, self.n**2)
        scale = 1.0 / np.sqrt(s.shape[0])
        return scale * (g @ d_u.reshape(len(self.basis), -1).T).real

    def sq_distances(self, theta: np.ndarray):
        """Squared distances z_t = 2 sum_{k>=2} sigma_k^2 / (1 + sigma_1) and
        their theta-gradients, shapes (T,) and (T, n^2).

        z_t equals 2 - 2 sigma_1 on unit states, so its gradient on U is
        -2 y_t psi_t^dag with y_t the top singular pair's outer product.
        """
        w, s, vh, wexp, phi = self._svd_pieces(theta)
        y = np.einsum("ti,tj->tij", w[:, :, 0], vh[:, 0, :]).reshape(len(s), self.n)
        grad_u = -2.0 * np.einsum("ti,tj->tij", y, np.conj(self.states))
        return _distances(s) ** 2, self._grad_theta_from_grad_u(grad_u, wexp, phi)


def _polish(obj: _Objective, theta: np.ndarray):
    """Epigraph minimax stage: min s subject to z_t(theta) <= s, by SLSQP.

    Returns the best iterate seen and the trace of best max_t z_t values (the
    start, then each improvement).
    """
    memo = {}  # one entry, so the constraint, its Jacobian and the callback share one SVD

    def sq_distances(x):
        key = x[:-1].tobytes()
        if key not in memo:
            memo.clear()
            memo[key] = obj.sq_distances(x[:-1])
        return memo[key]

    x0 = np.append(theta, 0.0)
    x0[-1] = sq_distances(x0)[0].max()  # s0 = max z(theta0)
    best_theta, trace = theta.copy(), [float(x0[-1])]

    def keep_best(xk):
        nonlocal best_theta
        zmax = float(sq_distances(xk)[0].max())
        if zmax < trace[-1]:
            best_theta = xk[:-1].copy()
            trace.append(zmax)

    e_last = np.zeros(len(theta) + 1)
    e_last[-1] = 1.0
    minimize(
        lambda x: x[-1],
        x0,
        jac=lambda x: e_last,
        method="SLSQP",
        constraints={
            "type": "ineq",
            "fun": lambda x: x[-1] - sq_distances(x)[0],
            "jac": lambda x: np.hstack([-sq_distances(x)[1], np.ones((len(obj.states), 1))]),
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

        trace = []
        start_val, _ = obj.surrogate(theta)
        trace.append(start_val)
        if start_val > CONVERGENCE_TOL:
            res = minimize(
                obj.surrogate,
                theta,
                jac=True,
                method="L-BFGS-B",
                options={
                    "maxiter": MAX_ITERATIONS,
                    "ftol": 1e-18,
                    "gtol": 1e-13,
                },
                # the value L-BFGS-B already computed at the new iterate
                callback=lambda intermediate_result: trace.append(intermediate_result.fun),
            )
            theta = res.x
            # Gauss-Newton refinement of the same surrogate: quadratic local
            # convergence pushes near-zero optima to machine scale
            gn = least_squares(
                obj.residuals,
                theta,
                jac=obj.residual_jacobian,
                method="trf",
                xtol=3e-16,
                ftol=3e-16,
                gtol=3e-16,
                max_nfev=60,
            )
            value = obj.surrogate(theta)[0]
            if float(gn.cost) * 2 <= value:
                theta = gn.x
                value = obj.surrogate(theta)[0]
            trace.append(value)
        surrogate_final = trace[-1]

        theta, polish_trace = _polish(obj, theta)
        objective = float(np.sqrt(polish_trace[-1]))
        summaries.append(
            RestartSummary(
                index=r,
                objective=objective,
                surrogate_final=surrogate_final,
                iterations=len(trace) - 1,
            )
        )
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
