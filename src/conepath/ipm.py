"""Homogeneous-embedding primal-dual interior point solver.

Solves  min 0.5*x'Px + q'x  s.t.  Ax + s = b,  s in K  (dual variable z
in K*) through the self-dual embedding variable v = (x, z, s, tau,
kappa).  Directions linearize the central-path conditions G(v) =
mu*G(v0), z = -mu*grad f(s), tau*kappa = mu with a Mehrotra-style
centering weight; steps are clipped to keep every block strictly
interior and inside a proximity neighborhood of the path.  Termination
and infeasibility tests follow the documented inequalities literally.

A solve assembles its KKT matrix once, with a fixed pattern, and
computes its fill-reducing ordering once; each iteration writes only
the (2,2) block's values, in place (see _KKT).
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
        self.AT = self.A.T  # a CSR view of A's arrays, built once
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
    Px = problem.P @ x
    xPx = float(x @ Px)
    return Residuals(
        r_d=Px + problem.AT @ z + problem.q,
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
    Px = problem.P @ x
    top = Px + problem.AT @ z + problem.q * tau
    mid = -(problem.A @ x) + problem.b * tau - v.s
    xPx = float(x @ Px)
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
    cold start.  Every barrier block must be strictly interior; a
    fallback block holds the unit point, which is.
    """
    cones = problem.cones
    if cones.degree == 0:
        return cold_start(problem)
    s0 = np.asarray(ws.s0, dtype=float)
    z0 = np.asarray(ws.z0, dtype=float)
    for b in cones.barrier_batches:
        ok = is_interior(b.spec, b.rows(s0), 0.0) & is_interior_dual(b.spec, b.rows(z0), 0.0)
        if not ok.all():
            k = np.asarray(b.blocks)[~ok][0]
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

    Returns (status, (||r_p||, ||r_d||, |g_p - g_d|)): a SolveStatus or
    None, and the norms of residual_map at the tau-scaled point, which
    the solver reports.  The infeasibility inequalities are evaluated
    exactly as documented: right sides carry the factor -(b'z) resp.
    -(q'x), positive only when those products are negative.
    """
    xs = v.x / v.tau
    ss = v.s / v.tau
    zs = v.z / v.tau
    res = residual_map(problem, xs, ss, zs)
    rp, rd = float(np.linalg.norm(res.r_p)), float(np.linalg.norm(res.r_d))
    gap = abs(res.g_p - res.g_d)
    nb = float(np.max(np.abs(problem.b))) if problem.b.size else 0.0
    nq = float(np.max(np.abs(problem.q))) if problem.q.size else 0.0
    nxs = float(np.linalg.norm(xs))
    if (
        rp < eps * max(1.0, nb + nxs + float(np.linalg.norm(ss)))
        and rd < eps * max(1.0, nq + nxs + float(np.linalg.norm(zs)))
        and gap < eps * max(1.0, min(abs(res.g_p), abs(res.g_d)))
    ):
        return SolveStatus.OPTIMAL, (rp, rd, gap)

    x, z, s = v.x, v.z, v.s
    btz = float(problem.b @ z)
    nx = float(np.linalg.norm(x))
    if btz < -EPS_IA and float(np.linalg.norm(problem.AT @ z)) < -EPS_IR * max(
        1.0, nx + float(np.linalg.norm(z))
    ) * btz:
        return SolveStatus.PRIMAL_INFEASIBLE, (rp, rd, gap)

    qtx = float(problem.q @ x)
    if (
        qtx < -EPS_IA
        and float(np.linalg.norm(problem.P @ x)) < -EPS_IR * max(1.0, nx) * qtx
        and float(np.linalg.norm(problem.A @ x + s))
        < -EPS_IR * max(1.0, nx + float(np.linalg.norm(s))) * qtx
    ):
        return SolveStatus.DUAL_INFEASIBLE, (rp, rd, gap)
    return None, (rp, rd, gap)


def _interior_point(cones, s, z, margin):
    return cones.is_interior(s, margin) and cones.is_interior_dual(z, margin)


def block_proximity(cones, s, z):
    """Per-block proximity rho_i = nu_i / <grad f(s_i), grad f*(z_i)>.

    One kernel call covers each batch of cones.batches.  Returns (rho,
    gradients): rho is NaN on Zero blocks, and gradients[j] is grad f(s)
    on the rows of batch j (None on Zero batches), which the step rule
    reuses at the trial it accepts.  Raises what conjugate_gradient and
    barrier_gradient raise.  rho_i equals the local path parameter mu_i
    exactly on the central path and is strictly smaller off it.
    """
    rho = np.full(len(cones.blocks), np.nan)
    gradients = [None] * len(cones.batches)
    for j, b in enumerate(cones.batches):
        if b.spec.degree:
            gz = conjugate_gradient(b.spec, b.rows(z))
            gs = barrier_gradient(b.spec, b.rows(s))
            rho[b.blocks.start : b.blocks.stop] = b.spec.degree / np.vecdot(gs, gz)
            gradients[j] = gs
    return rho, gradients


def _with_diagonal(M):
    """M as CSC with its whole diagonal stored, an explicit 0 where M has none."""
    M = M.tocoo()
    i = np.arange(M.shape[0])
    return sp.csc_matrix(
        (np.r_[M.data, np.zeros(len(i))], (np.r_[M.row, i], np.r_[M.col, i])), shape=M.shape
    )


def _positions(M, rows, cols):
    """Indices into M.data of the entries (rows, cols) of a CSC M with sorted indices."""
    keys = np.repeat(np.arange(M.shape[1]), np.diff(M.indptr)) * M.shape[0] + M.indices
    return np.searchsorted(keys, cols * M.shape[0] + rows)


class _KKT:
    """K = [[P, A'], [A, -H^-1/mu]] + REGULARIZATION * diag(1_n, -1_m), built once per solve.

    One bmat stores every entry an iteration can write: the full H^-1
    pattern of each barrier batch (the diagonal where the kernel returns
    only that, every d x d block otherwise) and the regularization
    diagonal.  factor writes the (2,2) values in place with the float
    operations of a fresh assembly: h/mu, its negation, then the
    regularization on the diagonal.

    The first splu of a K without an exact zero computes the ordering;
    K is then stored with its columns in that order and factored as
    NATURAL.  A default splu's perm_c already holds its etree postorder
    and NATURAL adds none, so SuperLU pivots and rounds as a default
    splu of K would: factors and solves are bit-identical.  Only an
    exact tie for a column's largest magnitude could pick another, as
    valid, pivot row, since SuperLU breaks such a tie towards the
    diagonal and the permutation moves the diagonal.

    Hinv holds H^-1/mu for the products of the step; Kx holds K without
    the regularization, in the original column order, for the residual
    of the refinement step.
    """

    def __init__(self, problem, stacks):
        n, m = problem.n, problem.m
        rows, cols = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
        for b, H in zip(problem.cones.barrier_batches, stacks):
            if H.ndim == 2:  # the diagonal of each block
                i = np.arange(b.sl.start, b.sl.stop)
                rows.append(i)
                cols.append(i)
            else:
                k, d, _ = H.shape
                t, j, i = np.indices((k, d, d)).reshape(3, -1)
                rows.append(b.sl.start + t * d + i)
                cols.append(b.sl.start + t * d + j)
        # block by block, column by column: the CSC order of H^-1
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        self.Hinv = sp.csc_matrix(
            (np.zeros(len(rows)), rows, np.searchsorted(cols, np.arange(m + 1))), shape=(m, m)
        )
        # a fresh assembly adds the regularization, which drops stored zeros
        P, A = problem.P.copy(), problem.A.copy()
        P.eliminate_zeros()
        A.eliminate_zeros()
        self.Kx = sp.bmat(
            [[_with_diagonal(P), A.T], [A, _with_diagonal(self.Hinv)]], format="csc"
        )
        diag = np.arange(n + m)
        self.xpos = _positions(self.Kx, n + rows, n + cols)
        self.hreg = np.where(rows == cols, -REGULARIZATION, 0.0)
        self.K = self.Kx.copy()
        self.K.data[_positions(self.K, diag, diag)] += np.r_[
            np.full(n, REGULARIZATION), np.full(m, -REGULARIZATION)
        ]
        self.kpos = self.xpos
        self.qi = None  # the ordering: column j of the stored K is column qi[j] of K
        self.perm = None  # qi once the last factor took the stored K as NATURAL
        self.n = n

    def factor(self, stacks, mu):
        """Write H^-1/mu from the barrier batches' stacks and factor K.

        Raises RuntimeError if K is singular.
        """
        values = ((H if H.ndim == 2 else H.transpose(0, 2, 1)).ravel() for H in stacks)
        np.concatenate([np.zeros(0), *values], out=self.Hinv.data)
        # an in-place divide, not Hinv / mu: sparse division by a scalar
        # multiplies by 1/mu, which moves the last bit of every iterate
        self.Hinv.data /= mu
        neg = -self.Hinv.data
        self.Kx.data[self.xpos] = neg
        self.K.data[self.kpos] = neg + self.hreg
        if not self.K.data.all():
            # a fresh assembly drops an exact zero (there are some in H^-1
            # at the unit point of an SOC or pow block, and an entry can
            # underflow), so this K has a pattern of its own: factor it
            # with a fresh ordering, as that assembly would be
            K = self.K.copy() if self.qi is None else self.K[:, np.argsort(self.qi)]
            K.eliminate_zeros()
            self.lu, self.perm = splu(K), None
        elif self.qi is None:
            self.lu, self.perm = splu(self.K), None
            self._permute(np.argsort(self.lu.perm_c))
        else:
            self.lu, self.perm = splu(self.K, permc_spec="NATURAL"), self.qi

    def _permute(self, qi):
        """Store K with its columns in the order qi, and move kpos along."""
        K = self.K
        counts = np.diff(K.indptr)[qi]
        indptr = np.r_[0, np.cumsum(counts)]
        src = np.repeat(K.indptr[qi] - indptr[:-1], counts) + np.arange(K.nnz)
        self.K = sp.csc_matrix((K.data[src], K.indices[src], indptr), shape=K.shape)
        moved = np.empty_like(src)
        moved[src] = np.arange(K.nnz)
        self.kpos = moved[self.kpos]
        self.qi = qi

    def _solve(self, rhs):
        if self.perm is None:
            return self.lu.solve(rhs)
        sol = np.empty_like(rhs)
        sol[self.perm] = self.lu.solve(rhs)
        return sol

    def solve(self, top, bottom):
        """K^-1 [top; bottom] with one step of refinement against K without regularization."""
        rhs = np.concatenate([top, bottom])
        sol = self._solve(rhs)
        sol += self._solve(rhs - self.Kx @ sol)
        return sol[: self.n], sol[self.n :]


def solve(problem, start, settings=None):
    """Predictor-corrector path following from a cold or warm iterate."""
    cfg = settings or Settings()
    cones = problem.cones
    m = problem.m
    t0 = time.perf_counter()

    x = np.asarray(start.x, dtype=float).copy()
    z = np.asarray(start.z, dtype=float).copy()
    s = np.asarray(start.s, dtype=float).copy()
    tau, kappa = float(start.tau), float(start.kappa)
    if tau <= 0.0 or kappa <= 0.0:
        raise Unsupported("embedding starts need tau > 0 and kappa > 0")
    if not _interior_point(cones, s, z, 0.0):
        raise RejectedWarmStart("start iterate is not strictly interior")

    gradients = None  # grad f at s per batch, from the proximity test that accepted s
    kkt = None
    barrier = np.array([k for k, _, _ in cones.barrier_blocks], dtype=np.intp)

    mu = _embedding_mu(problem, s, z, tau, kappa)
    trace = []
    alpha = 0.0  # the step that reached the iterate, in its trace row

    def report(status):
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

    for steps in range(max(cfg.max_iters, 0) + 1):
        status, (rp, rd, gap) = check_termination(
            problem, Iterate(x, z, s, tau, kappa, mu), cfg.eps
        )
        trace.append(TraceRow(mu, rp, rd, alpha))
        if status is None and steps >= cfg.max_iters:
            status = SolveStatus.MAX_ITERS
        if status is not None:
            return report(status)

        Px = problem.P @ x
        xPx = float(x @ Px)
        rx = Px + problem.AT @ z + problem.q * tau
        rz = -(problem.A @ x) + problem.b * tau - s
        rtau = -float(problem.q @ x) - float(problem.b @ z) - xPx / tau - kappa

        grad = np.zeros(m)
        stacks = []
        try:
            for j, b in enumerate(cones.batches):
                if b.spec.degree:
                    S = b.rows(s)
                    G = barrier_gradient(b.spec, S) if gradients is None else gradients[j]
                    grad[b.sl] = G.ravel()
                    stacks.append(barrier_hessian_inverse(b.spec, S))
        except (BoundaryOrExterior, np.linalg.LinAlgError):
            return report(SolveStatus.NUMERICAL_ERROR)
        if kkt is None:
            kkt = _KKT(problem, stacks)
        try:
            kkt.factor(stacks, mu)
        except RuntimeError:
            return report(SolveStatus.NUMERICAL_ERROR)
        Hinv, kkt_solve = kkt.Hinv, kkt.solve

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
                        rho, trial_gradients = block_proximity(cones, s_new, z_new)
                    except (BoundaryOrExterior, NoConvergence):
                        pass
                    else:
                        # a NaN rho fails the comparison, so it rejects the trial
                        if (rho[barrier] >= BETA * mu_new).all():
                            gradients = trial_gradients
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
            gradients = None
