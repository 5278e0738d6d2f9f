"""Numerical search for the TPS minimizing worst-case distance to product states.

The iterate is the basis change u itself, moved in the chart u <- exp(sum_d
delta_d B_d) u (a multiplicative update, as in Abrudan, Eriksson & Koivunen,
IEEE TSP 2008), with B_d the non-local basis i (X_a (x) Y_b) of
`linalg.nonlocal_basis`: (n1^2 - 1)(n2^2 - 1) directions.  The search runs on
the quotient by local unitaries: a left factor V1 (x) V2 changes neither the
Schmidt spectra of u psi_t nor |m(t)|^2 below, so the n1^2 + n2^2 - 1 local
directions, which change neither cost, are dropped exactly.  Restart r starts
at exp(A) of n^2 normals in `anti_hermitian_basis`.  Each restart performs two
stages:

1. a least-squares stage on the paper's disentangling criterion: every 2x2
   minor m_k(t) = x_t^T E_k x_t of the rebased coefficients x_t = U psi_t (E_k
   from `minor_forms`) vanishes exactly when U disentangles every sample.  The
   minors are linear in the Sym^2 products of psi_t, m_tk = Phi_t . c_k(U) with
   Phi the (T, n(n+1)/2) sample matrix of `obstruction.sym2_products` and c_k
   the Sym^2 coordinates of U^T E_k U, so sum_{t,k} |m_k(t)|^2 / T = |R c|^2
   with R the triangular factor of one QR of Phi / sqrt(T).  The residuals are
   the real and imaginary parts of R c_k, 2 K min(T, n(n+1)/2) of them, and a
   step costs the same for any sample count.  It is solved by
   Levenberg-Marquardt with the exact Jacobian and one eigh of J^T J per
   accepted step, which stops on a small gradient, relative decrease or
   step, the step tested before it is tried.  Its budget is MINORS_MAX_NFEV
   evaluations per restart, or OBSTRUCTED_MAX_NFEV where R's singular values
   certify, by `obstruction.product_rank`'s rule at DEFAULT_RANK_TOL, that no U zeros
   every minor.  That is sound for any T: over K orthonormal c_k, |R c|^2 is
   at least the sum of the K smallest sigma_k^2 (Ky Fan's minimum
   principle), which a rank above N - K makes positive for every U.  A
   trajectory with a disentangler has rank at most N - K and keeps the full
   budget;
2. a minimax stage in epigraph form, min s subject to z_t(u) <= s, with
   z_t the cancellation-free squared product distance, solved by SQP: a damped
   BFGS model of the Lagrangian's Hessian, each QP solved in its dual by an
   active-set method warm-started from the last support, and a backtracking
   line search on max_t z_t, so every step lowers it.  The model starts at
   B0 = 2 J^T J + (tr 2 J^T J / p) I, J the least-squares Jacobian in the
   chart's p directions: near product states z_t ~ sum_k |m_k(t)|^2, whose
   mean is the least-squares cost, so 2 J^T J is the Gauss-Newton Hessian of
   the Lagrangian at uniform multipliers; the ridge only regularizes.  A
   start with max_t z_t <= EPIGRAPH_FTOL skips it, so its objective is the
   least-squares endpoint's distance, at most sqrt(EPIGRAPH_FTOL) ~ 3.2e-8.

The reported objective is the hard maximum of the chordal product distance on
the sample grid, recomputed through `entanglement_profile`; each restart's
summary objective is the same distance at its minimax point.  Derivatives are
exact and taken at delta = 0, where the chart's derivative along B_d is B_d u;
they are checked against finite differences in the tests.  No evaluation runs
an SVD; one SVD of R, at most N x N, runs once per trajectory for the
budget.  A step costs one n x n eigh, giving exp(delta . B); z_t adds a
batched eigh of the Gram matrices M M^dag only when n1 >= 3, as their top
eigenvectors are closed form for n1 = 2.  Both Jacobians are real, with one
column per direction d.  The least-squares one is one product of forms
against the flattened B_d u, with the residuals' rows: real parts, then
imaginary parts, each ordered by R's row, then by minor.  The minimax one
has one row per sample, -2 Re(y_t^dag B_d x_t) (first-order perturbation of
sigma_1), one product against the flattened B_d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TPSpec
from .entanglement import entanglement_profile, gram_top_vectors, minor_forms
from .linalg import anti_hermitian_basis, expm_anti_hermitian, nonlocal_basis
from .obstruction import DEFAULT_RANK_TOL, product_rank, sym2_coordinates, sym2_products
from .trajectory import SampledTrajectory, sample

DEFAULT_OPTIMIZE_SAMPLES = 200  # grid size for a closed-form input
MINORS_MAX_NFEV = 100  # evaluation cap of the least-squares stage per restart
OBSTRUCTED_MAX_NFEV = 30  # its cap where the samples certify that no U zeros the minors
MINORS_TOL = 3e-16  # its gradient, step and relative cost-decrease tolerance
EPIGRAPH_MAXITER = 100  # SQP iteration cap of the minimax stage
EPIGRAPH_FTOL = 1e-15  # its start threshold and least predicted decrease of max_t z_t


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
    iterations: int  # residual evaluations of the least-squares stage, within its budget
    minimax_steps: int  # accepted SQP steps of the minimax stage, 0 where it is skipped


@dataclass(frozen=True)
class OptimizationResult:
    best_tps: TPSpec
    objective: float  # max over samples of the chordal product distance
    restart_index: int
    restarts: tuple  # per-restart summaries


class _Objective:
    """What one trajectory fixes, unchanged after it is built: the
    QR-compressed minors and the chart's non-local basis.  `obstructed` says
    whether R's singular values certify that no U zeros every minor
    (`obstruction.product_rank` at DEFAULT_RANK_TOL)."""

    def __init__(self, traj: SampledTrajectory):
        self.dims = traj.dims
        self.states = traj.states  # (T, n)
        self.n = traj.dims.n
        self.basis = nonlocal_basis(traj.dims.n1, traj.dims.n2)  # (p, n, n)
        self._basis_flat = self.basis.reshape(len(self.basis), -1)
        self._forms = minor_forms(traj.dims.n1, traj.dims.n2)  # (K, n, n)
        # the minors are Phi c with Phi = QR, so only R / sqrt(T) is kept, row j
        # as the symmetric form H_j with <H_j, S> = (R c(S))_j
        r = np.linalg.qr(sym2_products(self.states).T, mode="r") / np.sqrt(len(self.states))
        sigma = np.linalg.svd(r, compute_uv=False)
        self.obstructed = product_rank(sigma, traj.dims, DEFAULT_RANK_TOL)[1]
        p, q, weights = sym2_coordinates(self.n)
        h = np.zeros((len(r), self.n, self.n), dtype=complex)
        h[:, p, q] += 0.5 * weights * r
        h[:, q, p] += 0.5 * weights * r
        self._h = h.reshape(len(r), -1)  # (min(T, N), n^2)
        self._2h_cols = 2.0 * h.transpose(1, 0, 2).reshape(self.n, -1)  # 2 H_j side by side

    def start(self, theta: np.ndarray) -> np.ndarray:
        """A restart's start: exp(A), A the `anti_hermitian_basis` combination of n^2 reals."""
        a = theta @ anti_hermitian_basis(self.n).reshape(self.n**2, -1)
        return expm_anti_hermitian(a.reshape(self.n, self.n))

    def step(self, u: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """The chart: exp(sum_d delta_d B_d) u, from one eigh."""
        return expm_anti_hermitian((delta @ self._basis_flat).reshape(self.n, self.n)) @ u

    def _coefficients(self, u: np.ndarray) -> np.ndarray:
        return (self.states @ u.T).reshape(-1, self.dims.n1, self.dims.n2)

    def residuals(self, u: np.ndarray) -> np.ndarray:
        """Real, then imaginary parts of R c_k(U), shape (2 * min(T, N) * K,).

        Minor k at sample t is x_t^T E_k x_t = psi_t^T S_k psi_t with S_k =
        U^T E_k U, so it is Phi_t . c_k, c_k the Sym^2 coordinates of S_k, and
        |R c|^2 = |Phi c|^2 / T = sum_{t,k} |m_k(t)|^2 / T.
        """
        s = u.T @ self._forms @ u  # (K, n, n)
        rc = (self._h @ s.reshape(len(s), -1).T).ravel()  # <H_j, S_k>, (j, k) row-major
        return np.concatenate([rc.real, rc.imag])

    def residual_jacobian(self, u: np.ndarray) -> np.ndarray:
        """d residuals / d delta at delta = 0, shape (2 * min(T, N) * K, p).

        Along dU_d = B_d U, <H_j, S_k> moves by 2 <H_j, U^T E_k dU_d> = 2 <E_k U H_j, dU_d>,
        as H_j is symmetric: the forms 2 E_k U H_j are one (K n, n) x (n, n min(T, N))
        product, and the Jacobian one product of them against the flattened B_d U.
        """
        n, k = self.n, len(self._forms)
        v = (self._forms.reshape(-1, n) @ u) @ self._2h_cols  # [(k, a), (j, q)]
        v = v.reshape(k, n, -1, n).transpose(2, 0, 1, 3).reshape(-1, n * n)  # [(j, k), (a, q)]
        jac = v @ (self.basis @ u).reshape(len(self.basis), -1).T
        return np.concatenate([jac.real, jac.imag])

    def sq_distances(self, u: np.ndarray):
        """Squared distances z_t = 2 - 2 sigma_1, shape (T,), with no SVD, and
        a thunk for their Jacobian at u.

        w is the top eigenvector of the Gram matrix M M^dag and h = w^dag M,
        so sigma_1 = |h| and z_t = 2 |M - w h|_F^2 / (1 + sigma_1) keeps full
        precision near product states.  `jacobian()` is dz_t / d delta at
        delta = 0, shape (T, p): -2 Re(y_t^dag B_d x_t), with y_t = w h / sigma_1
        the gradient of sigma_1 on M and x_t = U psi_t, both of this call; a
        thunk, so a trial the line search rejects costs no Jacobian.
        """
        m = self._coefficients(u)
        w = gram_top_vectors(m)
        h = np.einsum("ti,tij->tj", w.conj(), m)
        sigma1 = np.linalg.norm(h, axis=1)
        wh = w[:, :, None] * h[:, None, :]
        r = m - wh
        tail = np.sum(r.real**2 + r.imag**2, axis=(1, 2))

        def jacobian():
            x, y = m.reshape(len(m), -1), wh.reshape(len(wh), -1) / sigma1[:, None]
            rows = (y.conj()[:, :, None] * x[:, None, :]).reshape(len(y), -1)
            return -2.0 * (rows @ self._basis_flat.T).real

        return 2.0 * tail / (1.0 + sigma1), jacobian


def _levenberg_marquardt(fun, jac, step, x: np.ndarray, max_nfev: int):
    """Minimize |fun(x)|^2 by Levenberg-Marquardt with Nielsen's damping update
    (Madsen, Nielsen & Tingleff 2004), in the chart x <- step(x, h): jac(x) is
    d fun(step(x, h)) / dh at h = 0.  Returns the last accepted x, its |fun|^2
    and the fun call count; jac is asked only at the point fun last evaluated,
    and each trial damping costs one solve, one step and one fun.  It stops on
    a gradient or a relative cost decrease of at most MINORS_TOL, and on a step
    |h| <= MINORS_TOL before trying it, so it ends in any chart: a rejection
    only grows the damping, which shrinks h."""
    r = fun(x)
    cost = float(r @ r)
    nfev, mu, nu, rho = 1, None, 2.0, 1.0
    while nfev < max_nfev:
        if rho > 0:  # the start or an accepted step: a new J
            j = jac(x)
            g = j.T @ r
            if np.abs(g).max() <= MINORS_TOL:
                break
            lam, v = np.linalg.eigh(j.T @ j)
            mu = 1e-3 * lam[-1] if mu is None else mu
        h = -v @ ((v.T @ g) / (lam + mu))
        if np.linalg.norm(h) <= MINORS_TOL:
            break
        x_new = step(x, h)
        r_new = fun(x_new)
        nfev += 1
        cost_new = float(r_new @ r_new)
        rho = (cost - cost_new) / (h @ (mu * h - g))  # against the model's full decrease
        if rho > 0:
            small_decrease = cost - cost_new <= MINORS_TOL * cost
            x, r, cost = x_new, r_new, cost_new
            mu, nu = mu * max(1 / 3, 1 - (2 * rho - 1) ** 3), 2.0
            if small_decrease:
                break
        else:
            mu, nu = mu * nu, 2.0 * nu
    return x, cost, nfev


def _epigraph_qp(z: np.ndarray, g: np.ndarray, support: np.ndarray):
    """min s + |e|^2 / 2 subject to z_t + g_t . e <= s, in its dual: lam on the
    simplex maximizing lam . z - |g^T lam|^2 / 2, with e = -g^T lam.

    An active-set method in the style of Lawson & Hanson that keeps lam feasible.
    Each step solves one KKT system of the equality problem on the support S,
    [g_S g_S^T, 1; 1^T, 0].  The warm `support` drops its most negative
    multiplier until none is left.  Then the most violated constraint t enters:
    lam_t grows, the others follow the KKT solution, until t is active or
    another multiplier reaches 0 and leaves S, so S never holds rows that are
    affinely dependent.  Returns (S, lam_S, s, e).
    """

    def kkt(idx, top, last):
        m = np.ones((len(idx) + 1,) * 2)
        m[:-1, :-1], m[-1, -1] = g[idx] @ g[idx].T, 0.0
        rhs = np.append(top, last)
        try:
            sol = np.linalg.solve(m, rhs)
        except np.linalg.LinAlgError:  # a warm support that holds equal rows
            sol = np.linalg.lstsq(m, rhs, rcond=None)[0]
        return sol[:-1], sol[-1]

    lam, s = kkt(support, z[support], 1.0)
    while lam.min() < 0:
        support = np.delete(support, np.argmin(lam))
        lam, s = kkt(support, z[support], 1.0)
    for _ in range(2 * len(z)):  # a guard: each entry raises the dual objective
        ge = g @ -(lam @ g[support])
        violation = z + ge - s
        t = np.argmax(violation)
        v, tau = violation[t], 0.0
        # above rounding, and above what the active constraints show of it
        if v <= 1e-14 * (np.abs(z).max() + np.abs(ge).max()) + np.abs(violation[support]).max():
            break
        while len(support):
            dlam, ds = kkt(support, -(g[support] @ g[t]), -1.0)  # d(lam_S, s) / d lam_t
            w = g[t] + dlam @ g[support]
            slope = w @ w  # -dv / d lam_t: |w|^2, as g_S w = -ds and sum(dlam) = -1
            shrink = np.flatnonzero(dlam < 0)  # never empty
            ratios = np.maximum(lam[shrink], 0.0) / -dlam[shrink]
            step = min(v / slope if slope > 0 else np.inf, ratios.min())
            lam, s, tau, v = lam + step * dlam, s + step * ds, tau + step, v - step * slope
            if step < ratios.min():  # t is active
                break
            k = shrink[np.argmin(ratios)]
            support, lam = np.delete(support, k), np.delete(lam, k)
        support, lam = np.append(support, t), np.append(lam, tau)
        s = z[t] - g[t] @ (lam @ g[support])
    return support, lam, s, -(lam @ g[support])


def _factored(b: np.ndarray):
    """b and the inverse of its Cholesky factor, or I and I where that fails."""
    try:
        return b, np.linalg.inv(np.linalg.cholesky(b))
    except np.linalg.LinAlgError:
        return np.eye(len(b)), np.eye(len(b))


def _damped_bfgs(b: np.ndarray, step: np.ndarray, y: np.ndarray):
    """`_factored` of the BFGS update of b on a step and its gradient change y,
    damped as Powell (1978) does to keep b positive definite."""
    bs = b @ step
    sbs, sy = step @ bs, step @ y
    if sy < 0.2 * sbs:
        y = bs + (0.8 * sbs / (sbs - sy)) * (y - bs)
    return _factored(b - np.outer(bs, bs) / sbs + np.outer(y, y) / (step @ y))


def _start_model(obj: _Objective, u: np.ndarray):
    """`_factored` of the minimax stage's start model B0 at u (module docstring)."""
    j = obj.residual_jacobian(u)
    gn = 2.0 * j.T @ j
    return _factored(gn + np.mean(np.diag(gn)) * np.eye(len(gn)))


def _polish(obj: _Objective, u: np.ndarray):
    """Epigraph minimax stage: min s subject to z_t(u) <= s, by SQP.

    Each iteration solves the QP of the constraints linearized in the chart
    at u, with a model B = L L^T of the Lagrangian's Hessian over the p chart
    directions, in the variable e = L^T d by `_epigraph_qp`, warm-started from
    the last support; backtracks along `obj.step(u, alpha d)` on max_t z_t
    (Armijo) against the model's decrease; and updates B by `_damped_bfgs` on
    the Lagrangian gradient G^T lam, each G taken in the chart at its own
    point.  B starts at `_start_model`, the Gauss-Newton Hessian near product
    states, built past the skip test, or at I where its Cholesky fails.  Every
    accepted step lowers max_t z_t, so the last iterate is the best, and the
    trace holds max_t z_t at the start and after each step.  A start with s0 =
    max_t z_t <= EPIGRAPH_FTOL comes back as is with trace [s0], and its
    restart reports sqrt(s0); the stage ends when the model predicts a
    decrease of at most EPIGRAPH_FTOL.
    """
    z, jacobian = obj.sq_distances(u)
    trace = [float(z.max())]
    if trace[0] <= EPIGRAPH_FTOL:
        return u, trace
    g, support = jacobian(), np.array([np.argmax(z)])
    b, l_inv = _start_model(obj, u)
    for _ in range(EPIGRAPH_MAXITER):
        support, lam, _, e = _epigraph_qp(z, g @ l_inv.T, support)
        d = l_inv.T @ e
        decrease = trace[-1] - (z + g @ d).max()
        if decrease <= EPIGRAPH_FTOL:
            break
        alpha = 1.0
        while alpha >= 2.0**-30:
            trial = obj.step(u, alpha * d)
            z_trial, jacobian = obj.sq_distances(trial)
            if z_trial.max() < trace[-1] - 1e-4 * alpha * decrease:
                break
            alpha *= 0.5
        else:
            break
        g_trial = jacobian()
        b, l_inv = _damped_bfgs(b, alpha * d, lam @ (g_trial[support] - g[support]))
        u, z, g = trial, z_trial, g_trial
        trace.append(float(z.max()))
    return u, trace


def optimize_tps(
    traj, config: OptimizerConfig = OptimizerConfig(), *, num_samples=DEFAULT_OPTIMIZE_SAMPLES
) -> OptimizationResult:
    """Minimize sup_t d(U psi(t), product states) over basis changes U, with t on the
    grid of `trajectory.sample(traj, num_samples)`: any form, a sampled one as it is.

    Deterministic for a fixed config: restart r starts at exp(A), A the
    `anti_hermitian_basis` combination of n^2 normals from an RNG stream
    seeded with (seed, r), restart 0 always starts at the identity, and ties
    between restarts are broken by index.
    """
    traj = sample(traj, num_samples)
    obj = _Objective(traj)
    n_params = traj.dims.n**2
    max_nfev = OBSTRUCTED_MAX_NFEV if obj.obstructed else MINORS_MAX_NFEV

    summaries = []
    best = None  # (objective, index, u)
    for r in range(config.restarts):
        theta = np.zeros(n_params)
        if r > 0:
            theta = np.random.default_rng([config.seed, r]).normal(scale=np.pi / 4, size=n_params)
        u = obj.start(theta)

        u, surrogate, nfev = _levenberg_marquardt(
            obj.residuals, obj.residual_jacobian, obj.step, u, max_nfev
        )
        u, polish_trace = _polish(obj, u)
        objective = float(np.sqrt(polish_trace[-1]))
        summaries.append(RestartSummary(r, objective, surrogate, nfev, len(polish_trace) - 1))
        if best is None or objective < best[0]:
            best = (objective, r, u)

    _, r_best, u_best = best
    # each step's exp from one eigh is unitary to rounding, so the product needs no projection
    tps = TPSpec(u_best, traj.dims)
    # report the objective through the same code path users would take
    profile = entanglement_profile(traj, tps)
    return OptimizationResult(
        best_tps=tps,
        objective=float(profile.max_distance),
        restart_index=r_best,
        restarts=tuple(summaries),
    )
