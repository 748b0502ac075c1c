"""Homogeneous-embedding primal-dual interior point solver.

Solves  min 0.5*x'Px + q'x  s.t.  Ax + s = b,  s in K  (dual variable z
in K*) through the self-dual embedding variable v = (x, z, s, tau,
kappa).  Directions linearize the central-path conditions G(v) =
mu*G(v0), z = -mu*grad f(s), tau*kappa = mu with a Mehrotra-style
centering weight; steps are clipped to keep every block strictly
interior and inside a proximity neighborhood of the path.  Termination
and infeasibility tests follow the documented inequalities literally.
"""

import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .cones import (
    barrier_gradient,
    barrier_hessian_inverse,
    conjugate_gradient,
    is_interior,
    is_interior_dual,
)
from .errors import BoundaryOrExterior, NoConvergence, RejectedWarmStart, Unsupported


class SolveStatus(Enum):
    OPTIMAL = "Optimal"
    PRIMAL_INFEASIBLE = "PrimalInfeasible"
    DUAL_INFEASIBLE = "DualInfeasible"
    MAX_ITERS = "MaxIters"
    NUMERICAL_ERROR = "NumericalError"


@dataclass
class ConicProblem:
    """Problem data; P is symmetrized and both matrices stored as CSC."""

    P: sp.csc_matrix
    q: np.ndarray
    A: sp.csc_matrix
    b: np.ndarray
    cones: object

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float).ravel()
        self.b = np.asarray(self.b, dtype=float).ravel()
        n = self.q.shape[0]
        m = self.b.shape[0]
        P = sp.csc_matrix(self.P, dtype=float)
        if P.shape != (n, n):
            raise Unsupported(f"P must be {n}x{n}, got {P.shape}")
        self.P = ((P + P.T) * 0.5).tocsc()
        self.A = sp.csc_matrix(self.A, dtype=float)
        if self.A.shape != (m, n):
            raise Unsupported(f"A must be {m}x{n}, got {self.A.shape}")
        if self.cones.dim != m:
            raise Unsupported(
                f"cone product dim {self.cones.dim} does not match b length {m}"
            )

    @property
    def n(self):
        return self.q.shape[0]

    @property
    def m(self):
        return self.b.shape[0]


@dataclass
class Residuals:
    r_d: np.ndarray
    r_p: np.ndarray
    g_p: float
    g_d: float


def residual_map(problem, x, s, z):
    """Plain (tau = 1) residuals and objective pair."""
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    z = np.asarray(z, dtype=float)
    xPx = float(x @ (problem.P @ x))
    return Residuals(
        r_d=problem.P @ x + problem.A.T @ z + problem.q,
        r_p=-(problem.A @ x) + problem.b - s,
        g_p=0.5 * xPx + float(problem.q @ x),
        g_d=-0.5 * xPx - float(problem.b @ z),
    )


@dataclass
class Iterate:
    x: np.ndarray
    z: np.ndarray
    s: np.ndarray
    tau: float
    kappa: float
    mu: float


def homogeneous_map(problem, v):
    """G(v) of the embedding, stacked as (n + m + 1)-vector."""
    x, z, tau = v.x, v.z, v.tau
    top = problem.P @ x + problem.A.T @ z + problem.q * tau
    mid = -(problem.A @ x) + problem.b * tau - v.s
    xPx = float(x @ (problem.P @ x))
    bot = -float(problem.q @ x) - float(problem.b @ z) - xPx / tau - v.kappa
    return np.concatenate([top, mid, [bot]])


def _embedding_mu(problem, s, z, tau, kappa):
    return (float(s @ z) + tau * kappa) / (problem.cones.degree + 1)


def cold_start(problem):
    """x = 0, blockwise unit points, tau = kappa = 1 (mu = 1)."""
    e_s, e_z = problem.cones.unit_points()
    return Iterate(
        x=np.zeros(problem.n),
        z=e_z,
        s=e_s,
        tau=1.0,
        kappa=1.0,
        mu=_embedding_mu(problem, e_s, e_z, 1.0, 1.0),
    )


def warm_start(problem, ws):
    """Embed a warmstart: tau = 1, kappa = <s0,z0>/nu so tau*kappa = mu.

    All-Zero compositions carry no barrier blocks and fall back to the
    cold start.  Non-fallback blocks must be strictly interior.
    """
    cones = problem.cones
    if cones.degree == 0:
        return cold_start(problem)
    s0 = np.asarray(ws.s0, dtype=float)
    z0 = np.asarray(ws.z0, dtype=float)
    for b in cones.barrier_batches:
        ok = is_interior(b.spec, b.rows(s0), 0.0) & is_interior_dual(b.spec, b.rows(z0), 0.0)
        for k in np.asarray(b.blocks)[~ok]:
            if k not in ws.fallback_blocks:
                raise RejectedWarmStart(f"warmstart block {k} is not strictly interior")
    mu = float(s0 @ z0) / cones.degree
    return Iterate(
        x=np.asarray(ws.x0, dtype=float).copy(),
        z=z0.copy(),
        s=s0.copy(),
        tau=1.0,
        kappa=mu,
        mu=_embedding_mu(problem, s0, z0, 1.0, mu),
    )


# Step-rule and certificate constants.  None is a user setting: each
# shapes every iterate, so changing one is a solver change.
BETA = 0.1  # the neighborhood warmstart.proximity certifies by default
MARGIN = 1e-12  # absolute floor on s and z in step acceptance, not scaled by mu
ALPHA_FLOOR = 1e-7  # shorter steps make no progress: the solve stops as stalled
MAX_ALPHA = 0.99  # fraction to the boundary; a full step may land on it
REGULARIZATION = 1e-8  # lets K factor when P is singular; refinement removes its bias
EPS_IA = 1e-8  # infeasibility certificates need |b'z| or |q'x| above this
EPS_IR = 1e-8  # relative residual an infeasibility certificate may leave


@dataclass
class Settings:
    """Optimality tolerance and iteration cap; the step rule uses the constants above."""

    eps: float = 1e-8
    max_iters: int = 200


@dataclass
class TraceRow:
    mu: float
    r_p: float
    r_d: float
    step: float


@dataclass
class SolveReport:
    status: SolveStatus
    iterations: int
    solve_time: float
    r_p: float
    r_d: float
    gap: float
    trace: list = field(default_factory=list)
    x: np.ndarray | None = None
    s: np.ndarray | None = None
    z: np.ndarray | None = None
    tau: float = 1.0
    kappa: float = 0.0

    @property
    def solution(self):
        """(x, s, z) scaled back out of the embedding."""
        return self.x / self.tau, self.s / self.tau, self.z / self.tau


def optimal_objective(problem, report):
    """0.5*x'Px + q'x at the tau-scaled solution of an Optimal report, else NaN:
    a certificate ray or a stalled iterate has no meaningful objective."""
    if report.status is not SolveStatus.OPTIMAL:
        return float("nan")
    return residual_map(problem, *report.solution).g_p


def check_termination(problem, v, eps=1e-8):
    """Optimality at the tau-scaled point, else raw infeasibility tests.

    Returns a SolveStatus or None.  The infeasibility inequalities are
    evaluated exactly as documented: right sides carry the factor
    -(b'z) resp. -(q'x), positive only when those products are negative.
    """
    xs = v.x / v.tau
    ss = v.s / v.tau
    zs = v.z / v.tau
    res = residual_map(problem, xs, ss, zs)
    nb = float(np.max(np.abs(problem.b))) if problem.b.size else 0.0
    nq = float(np.max(np.abs(problem.q))) if problem.q.size else 0.0
    nxs = float(np.linalg.norm(xs))
    if (
        float(np.linalg.norm(res.r_p)) < eps * max(1.0, nb + nxs + float(np.linalg.norm(ss)))
        and float(np.linalg.norm(res.r_d))
        < eps * max(1.0, nq + nxs + float(np.linalg.norm(zs)))
        and abs(res.g_p - res.g_d) < eps * max(1.0, min(abs(res.g_p), abs(res.g_d)))
    ):
        return SolveStatus.OPTIMAL

    x, z, s = v.x, v.z, v.s
    btz = float(problem.b @ z)
    nx = float(np.linalg.norm(x))
    if btz < -EPS_IA and float(np.linalg.norm(problem.A.T @ z)) < -EPS_IR * max(
        1.0, nx + float(np.linalg.norm(z))
    ) * btz:
        return SolveStatus.PRIMAL_INFEASIBLE

    qtx = float(problem.q @ x)
    if (
        qtx < -EPS_IA
        and float(np.linalg.norm(problem.P @ x)) < -EPS_IR * max(1.0, nx) * qtx
        and float(np.linalg.norm(problem.A @ x + s))
        < -EPS_IR * max(1.0, nx + float(np.linalg.norm(s))) * qtx
    ):
        return SolveStatus.DUAL_INFEASIBLE
    return None


def _interior_point(cones, s, z, margin):
    return cones.is_interior(s, margin) and cones.is_interior_dual(z, margin)


def block_proximity(cones, s, z, hints=None):
    """Per-block proximity rho_i = nu_i / <grad f(s_i), grad f*(z_i)>.

    One kernel call covers each batch of cones.batches.  Returns (rho,
    points): rho is NaN on Zero blocks, and points[j] holds -grad f*(z_i)
    for the rows of batch j (None on Zero batches), the starting points
    hints[j] takes for the next call.  rho_i equals the local path
    parameter mu_i exactly on the central path and is strictly smaller
    off it.
    """
    rho = np.full(len(cones.blocks), np.nan)
    points = [None] * len(cones.batches)
    for j, b in enumerate(cones.batches):
        if b.spec.degree:
            gz = conjugate_gradient(b.spec, b.rows(z), hint=None if hints is None else hints[j])
            gs = barrier_gradient(b.spec, b.rows(s))
            rho[b.blocks.start : b.blocks.stop] = b.spec.degree / np.vecdot(gs, gz)
            points[j] = -gz
    return rho, points


def _block_diagonal(H):
    """A batch's H^-1 as sp.block_diag takes it.

    A sparse matrix stays as it is.  A dense stack of one block enters
    as its (d, d) array, which block_diag reads without building a
    sparse object, the faster form for one block (it takes 5% off the
    cold solves of rebalance-soc, whose 51-dim SOC block is alone in
    its batch).  A longer (k, d, d) stack enters as one BSR matrix,
    which block_diag reads faster than k arrays.  Both store the same
    entries.
    """
    if sp.issparse(H):
        return H
    if len(H) == 1:
        return H[0]
    k, d, _ = H.shape
    return sp.bsr_matrix((H, np.arange(k), np.arange(k + 1)), shape=(k * d, k * d))


def solve(problem, start, settings=None):
    """Predictor-corrector path following from a cold or warm iterate."""
    cfg = settings or Settings()
    cones = problem.cones
    n, m = problem.n, problem.m
    nu1 = cones.degree + 1
    t0 = time.perf_counter()

    x = np.asarray(start.x, dtype=float).copy()
    z = np.asarray(start.z, dtype=float).copy()
    s = np.asarray(start.s, dtype=float).copy()
    tau, kappa = float(start.tau), float(start.kappa)
    if tau <= 0.0 or kappa <= 0.0:
        raise Unsupported("embedding starts need tau > 0 and kappa > 0")
    if not _interior_point(cones, s, z, 0.0):
        raise RejectedWarmStart("start iterate is not strictly interior")

    hints = None
    barrier = np.array([k for k, _, _ in cones.barrier_blocks], dtype=np.intp)
    # Zero batches of H^-1 store nothing; the barrier batches replace theirs
    empty_parts = [sp.csc_matrix((b.sl.stop - b.sl.start,) * 2) for b in cones.batches]
    reg = sp.diags(np.r_[np.full(n, REGULARIZATION), np.full(m, -REGULARIZATION)], format="csc")

    def scaled_norms():
        res = residual_map(problem, x / tau, s / tau, z / tau)
        return (
            float(np.linalg.norm(res.r_p)),
            float(np.linalg.norm(res.r_d)),
            abs(res.g_p - res.g_d),
        )

    mu = _embedding_mu(problem, s, z, tau, kappa)
    rp0, rd0, gap0 = scaled_norms()
    trace = [TraceRow(mu, rp0, rd0, 0.0)]
    steps = 0

    def report(status):
        rp, rd, gap = scaled_norms()
        return SolveReport(
            status=status,
            iterations=max(steps, 1),
            solve_time=time.perf_counter() - t0,
            r_p=rp,
            r_d=rd,
            gap=gap,
            trace=trace,
            x=x,
            s=s,
            z=z,
            tau=tau,
            kappa=kappa,
        )

    for _ in range(cfg.max_iters):
        status = check_termination(problem, Iterate(x, z, s, tau, kappa, mu), cfg.eps)
        if status is not None:
            return report(status)

        Px = problem.P @ x
        xPx = float(x @ Px)
        rx = Px + problem.A.T @ z + problem.q * tau
        rz = -(problem.A @ x) + problem.b * tau - s
        rtau = -float(problem.q @ x) - float(problem.b @ z) - xPx / tau - kappa

        grad = np.zeros(m)
        parts = list(empty_parts)
        try:
            for j, b in enumerate(cones.batches):
                if b.spec.degree:
                    S = b.rows(s)
                    grad[b.sl] = barrier_gradient(b.spec, S).ravel()
                    parts[j] = _block_diagonal(barrier_hessian_inverse(b.spec, S))
        except (BoundaryOrExterior, np.linalg.LinAlgError):
            return report(SolveStatus.NUMERICAL_ERROR)
        Hinv = sp.block_diag(parts, format="csc") if parts else sp.csc_matrix((0, 0))
        # an in-place divide, not Hinv / mu: sparse division by a scalar
        # multiplies by 1/mu, which moves the last bit of every iterate
        Hinv.data /= mu

        K_exact = sp.bmat([[problem.P, problem.A.T], [problem.A, -Hinv]], format="csc")
        try:
            lu = splu(K_exact + reg)
        except RuntimeError:
            return report(SolveStatus.NUMERICAL_ERROR)

        def kkt_solve(top, bottom):
            rhs = np.concatenate([top, bottom])
            sol = lu.solve(rhs)
            sol += lu.solve(rhs - K_exact @ sol)
            return sol[:n], sol[n:]

        u2, w2 = kkt_solve(-problem.q, problem.b)
        qp = problem.q + (2.0 / tau) * Px
        denom_base = -float(qp @ u2) - float(problem.b @ w2) + xPx / tau**2 + kappa / tau

        def direction(eta, sigma):
            r_s = z + sigma * mu * grad  # read only through Hinv: no Zero-block column
            r_tk = tau * kappa - sigma * mu
            u1, w1 = kkt_solve(-eta * rx, eta * rz + Hinv @ r_s)
            num = -eta * rtau + float(qp @ u1) + float(problem.b @ w1) - r_tk / tau
            if denom_base == 0.0:
                return None
            dtau = num / denom_base
            dx = u1 + dtau * u2
            dz = w1 + dtau * w2
            ds = -(Hinv @ (dz + r_s))
            dkappa = (-r_tk - kappa * dtau) / tau
            return dx, dz, ds, dtau, dkappa

        aff = direction(1.0, 0.0)
        if aff is None:
            return report(SolveStatus.NUMERICAL_ERROR)
        dx, dz, ds, dtau, dkappa = aff
        alpha_aff = 1.0
        for _ in range(80):
            if (
                tau + alpha_aff * dtau > 0.0
                and kappa + alpha_aff * dkappa > 0.0
                and _interior_point(cones, s + alpha_aff * ds, z + alpha_aff * dz, 0.0)
            ):
                break
            alpha_aff *= 0.8
        else:
            alpha_aff = 0.0
        sigma = min(max((1.0 - alpha_aff) ** 3, 1e-3), 0.9)

        comb = direction(1.0 - sigma, sigma)
        if comb is None:
            return report(SolveStatus.NUMERICAL_ERROR)
        dx, dz, ds, dtau, dkappa = comb

        alpha = MAX_ALPHA
        accepted = False
        while alpha >= ALPHA_FLOOR:
            s_new = s + alpha * ds
            z_new = z + alpha * dz
            tau_new = tau + alpha * dtau
            kappa_new = kappa + alpha * dkappa
            if (
                tau_new > 0.0
                and kappa_new > 0.0
                and _interior_point(cones, s_new, z_new, MARGIN)
            ):
                mu_new = _embedding_mu(problem, s_new, z_new, tau_new, kappa_new)
                if mu_new > 0.0 and tau_new * kappa_new >= BETA * mu_new:
                    try:
                        rho, points = block_proximity(cones, s_new, z_new, hints)
                    except (BoundaryOrExterior, NoConvergence):
                        pass
                    else:
                        # a NaN rho fails the comparison, so it rejects the trial
                        if (rho[barrier] >= BETA * mu_new).all():
                            hints = points
                            accepted = True
                            break
            alpha *= 0.8
        if not accepted:
            return report(SolveStatus.NUMERICAL_ERROR)

        x = x + alpha * dx
        z = z_new
        s = s_new
        tau = tau_new
        kappa = kappa_new
        mu = mu_new
        if tau < 0.1 and kappa < tau:
            # G is positively homogeneous, so the iterate ray may be
            # renormalized freely; doing so keeps kappa, mu and the
            # KKT factorization away from the float floor when tau
            # drifts small on a feasible problem (the tau-scaled
            # residuals and all acceptance ratios are scale-invariant).
            # kappa < tau keeps infeasibility rays (where kappa grows
            # instead) unscaled so certificates sharpen before detection
            x /= tau
            z /= tau
            s /= tau
            kappa /= tau
            tau = 1.0
            mu = _embedding_mu(problem, s, z, tau, kappa)
        steps += 1
        rp, rd, _ = scaled_norms()
        trace.append(TraceRow(mu, rp, rd, alpha))

    status = check_termination(problem, Iterate(x, z, s, tau, kappa, mu), cfg.eps)
    return report(status if status is not None else SolveStatus.MAX_ITERS)
