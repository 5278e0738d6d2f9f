"""Numerical search for the TPS minimizing worst-case distance to product states.

The iterate is the basis change u itself, moved in the chart u <- exp(sum_d
delta_d B_d) u (a multiplicative update, as in Abrudan, Eriksson & Koivunen,
IEEE TSP 2008), with B_d the non-local basis i (X_a (x) Y_b) of
`linalg.nonlocal_basis`: (n1^2 - 1)(n2^2 - 1) directions.  The search runs on
the quotient by local unitaries: a left factor V1 (x) V2 changes neither the
Schmidt spectra of u psi_t nor |m(t)|^2 below, so the n1^2 + n2^2 - 1 local
directions, which change neither cost, are dropped exactly.  Restart r starts
at exp(A) of n^2 normals in `anti_hermitian_basis`.  Each restart performs up to
two stages:

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
   step, the step tested before it is tried.  All restarts run it in lockstep
   on one stack, each to the bits of its run alone.  The cost bounds every
   sample's distance, z_t <= 2 min(n1, n2) T cost (`certified_cost`), so at the
   first evaluation where some restart's cost certifies that stage 2 would skip
   it, the lowest-index such restart runs on alone to its own end, and the
   others are cut where they are and skip stage 2; `restart_index` names the
   one that ran on.  Where no restart certifies, all run both stages.  The
   stage's budget is MINORS_MAX_NFEV evaluations per restart, or
   OBSTRUCTED_MAX_NFEV where R's singular values certify, by
   `obstruction.product_rank`'s rule at DEFAULT_RANK_TOL, that no U zeros
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

Every reported distance, the headline included, is the hard maximum of the
chordal product distance on the sample grid at a restart's end point (its
minimax point, or where it was cut), all in one pass of the profile kernel
`entanglement.max_distances`.  Derivatives are exact and taken at delta = 0,
where the chart's derivative along B_d is B_d u; they are checked against
finite differences in the tests.  No evaluation runs an SVD; one SVD of R,
at most N x N, runs once per trajectory for the budget.  A step costs one
n x n eigh, giving exp(delta . B); z_t adds a batched eigh of the Gram
matrices M M^dag only when n1 >= 3, as their top eigenvectors are closed
form for n1 = 2.  Both Jacobians are real, with one
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
from .entanglement import gram_top_vectors, max_distances, minor_forms
from .errors import InvalidInput
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
            raise InvalidInput("restarts must be positive")
        if self.seed < 0:
            raise InvalidInput(f"seed must be non-negative, got {self.seed}")


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
        """Restart starts: exp(A), A the `anti_hermitian_basis` combination of n^2 reals per row."""
        a = (theta[..., None, :] @ anti_hermitian_basis(self.n).reshape(self.n**2, -1))[..., 0, :]
        return expm_anti_hermitian(a.reshape(*theta.shape[:-1], self.n, self.n))

    def step(self, u: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """The chart: exp(sum_d delta_d B_d) u, from one eigh (per member, for a stack)."""
        a = (delta[..., None, :] @ self._basis_flat)[..., 0, :]
        return expm_anti_hermitian(a.reshape(u.shape)) @ u

    def _coefficients(self, u: np.ndarray) -> np.ndarray:
        return (self.states @ u.T).reshape(-1, self.dims.n1, self.dims.n2)

    def residuals(self, u: np.ndarray) -> np.ndarray:
        """Real, then imaginary parts of R c_k(U), shape (..., 2 * min(T, N) * K) for u (..., n, n).

        Minor k at sample t is x_t^T E_k x_t = psi_t^T S_k psi_t with S_k =
        U^T E_k U, so it is Phi_t . c_k, c_k the Sym^2 coordinates of S_k, and
        |R c|^2 = |Phi c|^2 / T = sum_{t,k} |m_k(t)|^2 / T.
        """
        u = u[..., None, :, :]
        s = u.swapaxes(-1, -2) @ self._forms @ u  # (..., K, n, n)
        rc = self._h @ s.reshape(*s.shape[:-2], -1).swapaxes(-1, -2)  # <H_j, S_k>, (..., j, k)
        return np.concatenate([rc.real, rc.imag], axis=-2).reshape(*s.shape[:-3], -1)

    def residual_jacobian(self, u: np.ndarray) -> np.ndarray:
        """d residuals / d delta at delta = 0, shape (..., 2 * min(T, N) * K, p).

        Along dU_d = B_d U, <H_j, S_k> moves by 2 <H_j, U^T E_k dU_d> = 2 <E_k U H_j, dU_d>,
        as H_j is symmetric: the forms 2 E_k U H_j are one (K n, n) x (n, n min(T, N))
        product, and the Jacobian one product of them against the flattened B_d U.
        """
        n, k, lead = self.n, len(self._forms), u.shape[:-2]
        v = (self._forms.reshape(-1, n) @ u) @ self._2h_cols  # [..., (k, a), (j, q)]
        v = v.reshape(*lead, k, n, -1, n).swapaxes(-2, -3).swapaxes(-3, -4)  # [..., j, k, a, q]
        d_u = (self.basis @ u[..., None, :, :]).reshape(*lead, len(self.basis), -1)
        jac = v.reshape(*lead, -1, n * n) @ d_u.swapaxes(-1, -2)
        return np.concatenate([jac.real, jac.imag], axis=-2)

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


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b per member of a stack, as (1, m) @ (m, 1): the bits of each member's own a @ b."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _normal_equations(j: np.ndarray, r: np.ndarray):
    """J^T r and the eigenpairs of J^T J, per member of a stack."""
    return ((j.swapaxes(-1, -2) @ r[..., None])[..., 0], *np.linalg.eigh(j.swapaxes(-1, -2) @ j))


def _rows(keep: np.ndarray, *stacks):
    """The members of each stack where keep holds; the stacks themselves where it holds for all."""
    return stacks if keep.all() else tuple(s[keep] for s in stacks)


def _alone(cost: np.ndarray, stop: float) -> np.ndarray:
    """Which members of a stack keep running: all of them, or, once some cost is at
    most stop, the first such member alone."""
    hit = cost <= stop
    return np.arange(len(cost)) == hit.argmax() if hit.any() else np.ones(len(cost), dtype=bool)


def _levenberg_marquardt(fun, jac, step, x: np.ndarray, max_nfev: int, stop: float = -np.inf):
    """Minimize |fun(x_i)|^2 for each member x_i of a stack x (R, ...) by
    Levenberg-Marquardt with Nielsen's damping update (Madsen, Nielsen &
    Tingleff 2004), in the chart x <- step(x, h): jac(x) is d fun(step(x, h)) /
    dh at h = 0, and all three answer per member of a stack.  Returns each
    member's last accepted x, its |fun|^2 and its fun call count.  The members
    run in lockstep, each to the bits of its run alone: a pass makes one solve,
    step and fun for the running members, then jac, at the point fun last
    evaluated, and one eigh of J^T J for those it moved.  A member stops at
    max_nfev, on a gradient or a relative cost decrease of at most MINORS_TOL,
    and on a step |h| <= MINORS_TOL before trying it, so it ends in any chart:
    a rejection only grows the damping, which shrinks h.  Every cost, the
    start's included, is tested against stop: at the first evaluation where a
    running member's cost is at most stop, the lowest-index such member runs on
    alone to its own end and the others are cut where they are, so that member
    is the first index whose returned cost is at most stop."""
    x, r = x.copy(), fun(x)
    cost, nfev = _dot(r, r), np.ones(len(x), dtype=int)
    if max_nfev < 2:
        return x, cost, nfev
    # the running members' indices, r, J^T r, eigenpairs of J^T J and damping mu, nu
    run, r, x_run = _rows(_alone(cost, stop), np.arange(len(x)), r, x)
    g, lam, v = _normal_equations(jac(x_run), r)
    mu, nu = 1e-3 * lam[:, -1], np.full(len(run), 2.0)
    while True:
        keep = np.abs(g).max(axis=-1) > MINORS_TOL  # the gradient test: only a new J fails it
        run, r, g, lam, v, mu, nu = _rows(keep, run, r, g, lam, v, mu, nu)
        h = (-v @ ((v.swapaxes(-1, -2) @ g[..., None]) / (lam + mu[:, None])[..., None]))[..., 0]
        keep = np.sqrt(_dot(h, h)) > MINORS_TOL
        run, r, g, lam, v, mu, nu, h = _rows(keep, run, r, g, lam, v, mu, nu, h)
        if not len(run):
            return x, cost, nfev
        x_new = step(x[run], h)
        r_new = fun(x_new)
        nfev[run] += 1
        c, c_new = cost[run], _dot(r_new, r_new)
        rho = (c - c_new) / _dot(h, mu[:, None] * h - g)  # against the model's full decrease
        up = rho > 0
        # Nielsen's max(1/3, 1 - (2 rho - 1)^3), by pow() as numpy's array power rounds otherwise
        factor = [max(1 / 3, 1 - (2 * q - 1) ** 3) if 0 < q < 1 else 1 / 3 for q in rho.tolist()]
        mu, nu = np.where(up, mu * factor, mu * nu), np.where(up, 2.0, 2.0 * nu)
        x[run[up]], cost[run[up]], r[up] = x_new[up], c_new[up], r_new[up]
        keep = (nfev[run] < max_nfev) & ~(up & (c - c_new <= MINORS_TOL * c))
        keep &= _alone(cost[run], stop)
        run, r, g, lam, v, mu, nu, up, x_new = _rows(keep, run, r, g, lam, v, mu, nu, up, x_new)
        if up.any():
            g[up], lam[up], v[up] = _normal_equations(jac(x_new[up]), r[up])


def _epigraph_qp(z: np.ndarray, g: np.ndarray, support: np.ndarray):
    """min s + |e|^2 / 2 subject to z_t + g_t . e <= s, in its dual: lam on the
    simplex maximizing lam . z - |g^T lam|^2 / 2, with e = -g^T lam.

    An active-set method in the style of Lawson & Hanson that keeps lam feasible.
    Each step solves one KKT system of the equality problem on the support S,
    [g_S g_S^T, 1; 1^T, 0].  The warm `support` drops its most negative
    multiplier until none is left.  Then the most violated constraint t enters:
    lam_t grows, the others follow the KKT solution, until t is active or
    another multiplier reaches 0 and leaves S, so S never holds rows that are
    affinely dependent.  S carries its rows g_S and lam_S.  Returns (S, lam_S, s, e).
    """
    at, rows, lams = np.empty(len(z), dtype=int), np.empty(g.shape), np.empty(len(z))
    at[: len(support)], rows[: len(support)] = support, g[support]
    support, gs, lam = (buf[: len(support)] for buf in (at, rows, lams))  # views, kept in step

    def kkt(gs, top, last):
        m = np.ones((len(gs) + 1, len(gs) + 2))  # [g_S g_S^T, 1, top; 1^T, 0, last]
        # a gemm of two buffers, as syrk (one buffer times its transpose) rounds otherwise
        m[:-1, :-2], m[-1, -2], m[:-1, -1], m[-1, -1] = gs @ gs.copy().T, 0.0, top, last
        try:
            sol = np.linalg.solve(m[:, :-1], m[:, -1])
        except np.linalg.LinAlgError:  # a warm support that holds equal rows
            sol = np.linalg.lstsq(m[:, :-1], m[:, -1], rcond=None)[0]
        return sol[:-1], sol[-1]

    def without(k):  # the views with member k shifted out, rows kept in order
        for view in (support, gs, lam):
            view[k:-1] = view[k + 1 :]
        return support[:-1], gs[:-1], lam[:-1]

    lam[:], s = kkt(gs, z[support], 1.0)
    while lam.min() < 0:
        support, gs, lam = without(lam.argmin())
        lam[:], s = kkt(gs, z[support], 1.0)
    z_max = np.abs(z).max()
    for _ in range(2 * len(z)):  # a guard: each entry raises the dual objective
        ge = g @ -(lam @ gs)
        violation = z + ge - s
        t = violation.argmax()
        v, tau = violation[t], 0.0
        # above rounding, and above what the active constraints show of it
        if v <= 1e-14 * (z_max + np.abs(ge).max()) + np.abs(violation[support]).max():
            break
        while len(support):
            dlam, ds = kkt(gs, -(gs @ g[t]), -1.0)  # d(lam_S, s) / d lam_t
            w = g[t] + dlam @ gs
            slope = w @ w  # -dv / d lam_t: |w|^2, as g_S w = -ds and sum(dlam) = -1
            shrink = (dlam < 0).nonzero()[0]  # never empty
            ratios = np.maximum(lam[shrink], 0.0) / -dlam[shrink]
            k = ratios.argmin()
            step = min(v / slope if slope > 0 else np.inf, ratios[k])
            lam[:], s, tau, v = lam + step * dlam, s + step * ds, tau + step, v - step * slope
            if step < ratios[k]:  # t is active
                break
            support, gs, lam = without(shrink[k])
        support, gs, lam = (buf[: len(support) + 1] for buf in (at, rows, lams))
        support[-1], gs[-1], lam[-1] = t, g[t], tau
        s = z[t] - g[t] @ (lam @ gs)
    return support, lam, s, -(lam @ gs)


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
    max_t z_t <= EPIGRAPH_FTOL comes back as is with trace [s0]; the stage
    ends when the model predicts a decrease of at most EPIGRAPH_FTOL.
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


def certified_cost(dims, samples: int) -> float:
    """The least-squares cost on `samples` grid points at or below which u provably
    skips the minimax stage: the three facts of `entanglement.tail_bound` give z_t <=
    2 r e_2(t) <= 2 r T cost, r = min(n1, n2) and e_2(t) = sum_k |m_k(t)|^2, so a cost
    of at most EPIGRAPH_FTOL / (2 r T) holds max_t z_t to EPIGRAPH_FTOL."""
    return EPIGRAPH_FTOL / (2 * min(dims.n1, dims.n2) * samples)


def optimize_tps(
    traj, config: OptimizerConfig = OptimizerConfig(), *, num_samples=DEFAULT_OPTIMIZE_SAMPLES
) -> OptimizationResult:
    """Minimize sup_t d(U psi(t), product states) over basis changes U, with t on the
    grid of `trajectory.sample(traj, num_samples)`: any form, a sampled one as it is.

    Deterministic for a fixed config: restart r starts at exp(A), A the
    `anti_hermitian_basis` combination of n^2 normals from an RNG stream
    seeded with (seed, r), restart 0 always starts at the identity, and ties
    between restarts are broken by index.  `config.restarts` is a maximum: the
    first restart certified by `certified_cost` cuts the others.
    """
    traj = sample(traj, num_samples)
    obj = _Objective(traj)
    max_nfev = OBSTRUCTED_MAX_NFEV if obj.obstructed else MINORS_MAX_NFEV

    thetas = np.zeros((config.restarts, obj.n**2))
    for r in range(1, config.restarts):
        thetas[r] = np.random.default_rng([config.seed, r]).normal(scale=np.pi / 4, size=obj.n**2)
    stop = certified_cost(traj.dims, len(traj))
    us, surrogates, nfevs = _levenberg_marquardt(
        obj.residuals, obj.residual_jacobian, obj.step, obj.start(thetas), max_nfev, stop
    )
    winner = np.flatnonzero(surrogates <= stop)[:1]  # the certified restart that cut the others
    steps = np.zeros(len(us), dtype=int)  # a cut restart ends where it was cut, unpolished
    for r in winner if len(winner) else range(len(us)):
        us[r], trace = _polish(obj, us[r])
        steps[r] = len(trace) - 1
    objectives = max_distances(traj, us)  # every end point in one pass of the profile kernel
    columns = (objectives, surrogates, nfevs, steps)  # each summary's fields after its index
    summaries = tuple(map(RestartSummary, range(len(us)), *(c.tolist() for c in columns)))
    # the certified restart, or else the best one, ties going to the lower index
    r_best = int(winner[0]) if len(winner) else int(objectives.argmin())
    # each step's exp from one eigh is unitary to rounding, so the product needs no projection
    tps = TPSpec(us[r_best], traj.dims)
    return OptimizationResult(tps, summaries[r_best].objective, r_best, summaries)
