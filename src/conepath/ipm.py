"""Homogeneous-embedding primal-dual interior point solver.

Solves  min 0.5*x'Px + q'x  s.t.  Ax + s = b,  s in K  (dual variable z
in K*) through the self-dual embedding variable v = (x, z, s, tau,
kappa).  Directions linearize the central-path conditions G(v) =
mu*G(v0), z = -mu*grad f(s), tau*kappa = mu with a Mehrotra-style
centering weight.  A step is the first length of a fixed geometric grid
that keeps every block strictly interior and, for the combined step,
inside a proximity neighborhood of the path.  The search starts at the
first grid value below the step to the cone boundary, which
ConeProduct.step_bound bounds in closed form (exactly for nonnegative,
second-order and PSD blocks), widened by STEP_SLACK for rounding.  In
practice it skips only lengths the interior test would reject: on the
benchmark's workloads at seeds 1-7 every iterate equalled a full scan's
bit for bit when the search replaced the scan (.github/iterate_digest.py).
This is not guaranteed.  The interior test rounds by an absolute amount,
so an SOC point with gap/v0^2 below about 1e-10, or an ill-conditioned
PSD block, can move the test's boundary past the slack; the search then
takes a shorter step than the scan would, still strictly interior.
Termination and infeasibility tests follow the documented inequalities
literally.

A solve assembles its KKT matrix once, with a fixed pattern and one
symmetric fill-reducing order; each iteration writes only the (2,2)
block's values, in place, and factors K with static diagonal pivots,
which its quasi-definiteness allows (see _KKT).
"""

import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee
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
ALPHA_FLOOR = 1e-7  # both grids end here: shorter steps make no progress
MAX_ALPHA = 0.99  # the combined grid's first step; a full step may land on the boundary
STEP_SLACK = 1e-6  # relative room on the boundary step for rounding in it and in the interior test
REGULARIZATION = 1e-8  # every pivot of K nonzero, P singular or not; refinement removes its bias
# SuperLU's symmetric mode with static diagonal pivots: an LDL'-like factor of K
STATIC_PIVOTS = dict(diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
REFINEMENT_STEPS = 2  # against K without regularization; static pivots need the second (see _KKT)
EPS_IA = 1e-8  # infeasibility certificates need |b'z| or |q'x| above this
EPS_IR = 1e-8  # relative residual an infeasibility certificate may leave


def _grid(first):
    """first, first*0.8, ... down to ALPHA_FLOOR, each by one more multiplication."""
    grid = [first]
    while grid[-1] * 0.8 >= ALPHA_FLOOR:
        grid.append(grid[-1] * 0.8)
    return tuple(grid)


# The trial step lengths, in the order they are tried.  An affine step
# of none of them counts as 0: any step below about 0.03 already puts
# sigma at its 0.9 cap.
AFFINE_GRID = _grid(1.0)
COMBINED_GRID = _grid(MAX_ALPHA)

# Why a solve ended NumericalError, in SolveReport.reason.
KERNEL_RAISED = "barrier kernel raised at the iterate"
FACTORIZATION_FAILED = "KKT factorization failed"
ZERO_DENOMINATOR = "zero denominator in the tau direction"
NO_STEP_INSIDE = "step stalled: no grid step inside the cones"
PROXIMITY_REJECTED = "step stalled: proximity rejected every trial"


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
    reason: str | None = None  # why the status is NumericalError; None for other statuses

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


def _ratio(v, dv):
    """The largest alpha with v + alpha*dv > 0 for a scalar v > 0; inf when dv >= 0."""
    return v / -dv if dv < 0.0 else np.inf


def _search(grid, trial, bound):
    """The first non-None trial(alpha) over grid, from its first value <= bound*(1 + STEP_SLACK).

    Values above that bound are left out, since the interior test
    rejects them (up to rounding; see the module docstring).  A NaN
    bound leaves out none.  Returns None if no trial passes.
    """
    limit = bound * (1.0 + STEP_SLACK)
    for alpha in grid:
        if not alpha > limit and (out := trial(alpha)) is not None:
            return out
    return None


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

    With delta = REGULARIZATION, K is symmetric quasi-definite: P + delta*I
    is positive definite and -H^-1/mu - delta*I negative definite.  So K
    has an LDL' factor in every symmetric order with its n positive and m
    negative pivots taken from the diagonal (Vanderbei, SIAM J. Optim.
    1995), and SuperLU factors it with STATIC_PIVOTS, no pivot search.
    The order q is reverse Cuthill-McKee on K's pattern, computed once per
    solve; K is stored as K[q][:, q] and each factor takes it as NATURAL.
    An exact zero in H^-1 (an SOC or pow unit point, or an underflow)
    stays a stored entry: no pivot leaves the diagonal, and no diagonal
    entry is zero.

    Nothing bounds growth without a pivot search: a pivot of delta alone
    (where P_ii = 0, or on a Zero cone's row) taken before its neighbours
    scales its updates by 1/delta.  Minimum degree (MMD_AT_PLUS_A) takes
    those first, and late in HMCR solves its refined residuals were
    100-500x partial pivoting's; this order stayed within 3x at the same
    SVM fill.  solve refines REFINEMENT_STEPS times.

    Hinv holds H^-1/mu for the products of the step; Kx holds K without
    the regularization, in the original order, for the residuals of the
    refinement steps.
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
        K = self.Kx.copy()
        K.data[_positions(K, diag, diag)] += np.r_[
            np.full(n, REGULARIZATION), np.full(m, -REGULARIZATION)
        ]
        # the order q comes from the pattern; entry (i, j) of K moves to (qi[i], qi[j])
        self.q = reverse_cuthill_mckee(K, symmetric_mode=True)
        qi = np.argsort(self.q)
        src = np.argsort(qi[np.repeat(diag, np.diff(K.indptr))] * (n + m) + qi[K.indices])
        indptr = np.r_[0, np.cumsum(np.diff(K.indptr)[self.q])]
        self.K = sp.csc_matrix((K.data[src], qi[K.indices[src]], indptr), shape=K.shape)
        moved = np.empty_like(src)
        moved[src] = np.arange(K.nnz)
        self.kpos = moved[self.xpos]
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
        self.lu = splu(self.K, permc_spec="NATURAL", **STATIC_PIVOTS)

    def _solve(self, rhs):
        sol = np.empty_like(rhs)
        sol[self.q] = self.lu.solve(rhs[self.q])
        return sol

    def solve(self, top, bottom):
        """K^-1 [top; bottom], refined against K without regularization."""
        rhs = np.concatenate([top, bottom])
        sol = self._solve(rhs)
        for _ in range(REFINEMENT_STEPS):
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

    def report(status, reason=None):
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
            reason=reason,
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
        except (BoundaryOrExterior, np.linalg.LinAlgError) as exc:
            return report(SolveStatus.NUMERICAL_ERROR, f"{KERNEL_RAISED}: {exc}")
        if kkt is None:
            kkt = _KKT(problem, stacks)
        try:
            kkt.factor(stacks, mu)
        except RuntimeError:
            return report(SolveStatus.NUMERICAL_ERROR, FACTORIZATION_FAILED)
        Hinv, kkt_solve = kkt.Hinv, kkt.solve

        u2, w2 = kkt_solve(-problem.q, problem.b)
        qp = problem.q + (2.0 / tau) * Px
        denom_base = -float(qp @ u2) - float(problem.b @ w2) + xPx / tau**2 + kappa / tau
        if denom_base == 0.0:
            return report(SolveStatus.NUMERICAL_ERROR, ZERO_DENOMINATOR)

        def direction(eta, sigma):
            r_s = z + sigma * mu * grad  # read only through Hinv: no Zero-block column
            r_tk = tau * kappa - sigma * mu
            u1, w1 = kkt_solve(-eta * rx, eta * rz + Hinv @ r_s)
            num = -eta * rtau + float(qp @ u1) + float(problem.b @ w1) - r_tk / tau
            dtau = num / denom_base
            dx = u1 + dtau * u2
            dz = w1 + dtau * w2
            ds = -(Hinv @ (dz + r_s))
            dkappa = (-r_tk - kappa * dtau) / tau
            return dx, dz, ds, dtau, dkappa

        def boundary_step():
            """The step to the boundary of the cones and of tau, kappa > 0."""
            return min(cones.step_bound(s, ds, z, dz), _ratio(tau, dtau), _ratio(kappa, dkappa))

        def affine_trial(a):
            if (
                tau + a * dtau > 0.0
                and kappa + a * dkappa > 0.0
                and _interior_point(cones, s + a * ds, z + a * dz, 0.0)
            ):
                return a
            return None

        def combined_trial(a):
            """(alpha, s, z, tau, kappa, mu, gradients) at step a, if it passes every test."""
            nonlocal guard_passed
            s_new = s + a * ds
            z_new = z + a * dz
            tau_new = tau + a * dtau
            kappa_new = kappa + a * dkappa
            if not (
                tau_new > 0.0
                and kappa_new > 0.0
                and _interior_point(cones, s_new, z_new, MARGIN)
            ):
                return None
            guard_passed = True
            mu_new = _embedding_mu(problem, s_new, z_new, tau_new, kappa_new)
            if not (mu_new > 0.0 and tau_new * kappa_new >= BETA * mu_new):
                return None
            try:
                rho, trial_gradients = block_proximity(cones, s_new, z_new)
            except (BoundaryOrExterior, NoConvergence):
                return None
            # a NaN rho fails the comparison, so it rejects the trial
            if not (rho[barrier] >= BETA * mu_new).all():
                return None
            return a, s_new, z_new, tau_new, kappa_new, mu_new, trial_gradients

        dx, dz, ds, dtau, dkappa = direction(1.0, 0.0)
        alpha_aff = _search(AFFINE_GRID, affine_trial, boundary_step()) or 0.0
        sigma = min(max((1.0 - alpha_aff) ** 3, 1e-3), 0.9)

        dx, dz, ds, dtau, dkappa = direction(1.0 - sigma, sigma)
        guard_passed = False  # set once a trial passes the interior test
        step = _search(COMBINED_GRID, combined_trial, boundary_step())
        if step is None:
            return report(
                SolveStatus.NUMERICAL_ERROR, PROXIMITY_REJECTED if guard_passed else NO_STEP_INSIDE
            )
        alpha, s, z, tau, kappa, mu, gradients = step
        x = x + alpha * dx
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
