"""Homogeneous-embedding primal-dual interior point solver.

Solves  min 0.5*x'Px + q'x  s.t.  Ax + s = b,  s in K  (dual variable z
in K*) through the self-dual embedding variable v = (x, z, s, tau,
kappa).  Directions linearize the central-path conditions G(v) =
mu*G(v0), z = -mu*grad f(s), tau*kappa = mu.  Each iteration takes an
affine direction (sigma = 0), sets the centering weight sigma =
(1 - alpha_aff)^3 from its step, clipped to [1e-3, 0.9], and takes the
combined direction at that sigma, corrected where every barrier block
has the Nesterov-Todd scaling (below).  A step is the first length of
a fixed geometric grid that keeps every block strictly interior and,
for the combined step, inside a proximity neighborhood of the path.
The search starts at the first grid value below the step to the cone
boundary, which ConeProduct.step_bound bounds in closed form (exactly
for nonnegative, second-order and PSD blocks), widened by STEP_SLACK
for rounding.  In practice it skips only lengths the interior test
would reject: on the benchmark's workloads at seeds 1-7 every iterate
equalled a full scan's bit for bit when the search replaced the scan
(.github/iterate_digest.py).
This is not guaranteed.  The interior test rounds by an absolute amount,
so an SOC point with gap/v0^2 below about 1e-10, or an ill-conditioned
PSD block, can move the test's boundary past the slack; the search then
takes a shorter step than the scan would, still strictly interior.
Each point meets one membership test: ConeProduct.is_interior and
is_interior_dual on the start and every trial, a trial's primal test
on the barrier batches alone, since its Zero rows are the start's 0
plus a multiple of ds = 0.  The kernels below (barrier_gradient,
barrier_hessian_inverse, conjugate_gradient) run the kind's formula on
the rows those tests accepted; the nonsymmetric conjugate_gradient
alone tests K* again, on the slack of M y its equation shares
(test_cones.py pins one slack call).  The checked entry points of the
same names in cones test first (warmstart calls the kernels on rows it
has tested).  No point changes after its test.  At seed 1 this cut the
kinds' interior tests per iteration 22.2 -> 12.2 on rebalance-soc,
18.8 -> 11.6 on hmcr-pow and 7.4 -> 4.4 on svm-l1-lp.
Each iterate is evaluated once, at the raw point (residual_map): the
termination test, both infeasibility certificates and the Newton right
side share its products with P, A' and A.  The optimality test reads
||r||/tau at the tau-scaled point, the certificates the raw point, each
inequality as documented.

The KKT matrix's structure, its pattern, one symmetric fill-reducing
order and every entry's position, is built once per sparsity pattern
and kept, read-only and free of values, for the next solve of that
pattern, as in a warm chain.  Each solve writes its P and A into values
of its own; each iteration writes only the barrier scaling, in place,
and factors K with static diagonal pivots, which its quasi-definiteness
allows.  _KKT builds K from the one form in which every kind gives its
scaling (cones.Scaling).  Each solve with the factor is refined against K
without its regularization until max|r| <= REFINEMENT_TOLERANCE*max|rhs|,
rounding level, for at most REFINEMENT_STEPS steps.

Each point is evaluated once (evaluate), the one place the proximity
rho_i = nu_i/<grad f(s_i), grad f*(z_i)> is computed, for solve and
warmstart.proximity alike.  One conjugate_gradient and one
barrier_hessian_inverse call per batch give every block's scaling, the
right side's grad f(s), the state of Mehrotra's term (cones.Scaling) and
rho.  The start is evaluated before the first iteration, and each
combined trial that passes the interior and tau*kappa tests before its
proximity test; the accepted trial's Scalings are the next iteration's.
So a power block pays one conjugate root per point, which its scaling
and rho share (on hmcr-pow at seed 1, 1.08 per iteration), and solve
evaluates grad f(s) nowhere else (1.10 times per iteration before).  The
scaling is the Nesterov-Todd W^2, with W^2 z = s, for nonneg coordinates
(s_j/z_j) and second-order blocks (2ww' - rJ at the Nesterov-Todd point
w); the primal-dual W^2, with W^2 z = s and W^2 grad f(s) = grad f*(z),
for power blocks off the central path, which cut hmcr-pow's iterations
at seeds 1-7 from 1218 / 839 (cold / warm) to 947 / 642; and
H(s_i)^-1/mu_i, with the path parameter mu_i its kind picks from s_i and
z_i, for exp and PSD blocks and power blocks on the path.  The global mu
scales the centering term, tau*kappa, the neighborhood and termination.
The right side's W^2 (z + sigma*mu*grad f(s)) is then s - sigma*mu*z^-1
on a Nesterov-Todd block, that scaling's own, and s +
sigma*mu*grad f*(z) on a primal-dual one.  ds comes from the linearized
primal equation, ds = eta*r_z - A dx + dtau*b, not from the scaling as
-W(dz + r_s).  s_j/z_j grows without bound where z_j goes to 0, and that
form multiplies the solve's error in dz by it: with it, three svm-l2
repro rows (.github/repro_rows.py) drifted in r_p and ended MaxIters.

The combined direction carries Mehrotra's second-order term (Mehrotra,
SIAM J. Optim. 1992; Vandenberghe, "The CVXOPT linear and quadratic
cone program solvers", 2010, sec. 5) where it is sound: on a product
whose every barrier block has the Nesterov-Todd scaling in K, its
blocks nonneg and SOC, Zero blocks having no barrier.  In the scaled
coordinates W^-1 s = W z = lambda, a block's linearized
complementarity lambda o (W^-1 ds + W dz) = sigma*mu*e - lambda o lambda
gains -(W^-1 ds_aff) o (W dz_aff), so the right side's z-rows gain
W L(lambda)^-1 of it: ds_aff_j dz_aff_j/z_j on a nonneg row.  Each kind
gives its term or none (cones.Cone.corrector), and one kind with none
leaves the whole product uncorrected (ConeProduct.corrector).  On the
benchmark's svm-l1-lp at seeds 1-7 the term cut cold iterations
1447 -> 1071 and warm ones 596 -> 459, and on rebalance-soc, with the
SOC blocks' Nesterov-Todd scaling, 7132 -> 3632 and 2688 -> 1451,
every solve Optimal (.github/iterate_digest.py --summary); the scaling
without the term took more iterations than H(s)^-1/mu_i and ended a
warm solve NumericalError.  A combined direction that no trial passes
is taken again without the term before the solve gives up: on the
frontier warm pair of .github/repro_rows.py --warm-pairs the corrected
direction found no trial at 12 iterations, and the uncorrected one went
on to Optimal.  The term has no tau*kappa part: with
dtau_aff*dkappa_aff added, the unbounded QP of .github/repro_rows.py
ended NumericalError at 12 iterations (proximity) instead of
DualInfeasible.  Nor does it cover products with an exp, pow or PSD
block, which are not Nesterov-Todd scaled: the term on the nonneg rows
beside hmcr-pow's pow blocks, then H(s)^-1/mu_i scaled, ended a warm
solve NumericalError at seed 2.
"""

import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

from .cones import is_interior, is_interior_dual
from .errors import BoundaryOrExterior, NoConvergence, RejectedWarmStart, Unsupported


class SolveStatus(Enum):
    OPTIMAL = "Optimal"
    PRIMAL_INFEASIBLE = "PrimalInfeasible"
    DUAL_INFEASIBLE = "DualInfeasible"
    MAX_ITERS = "MaxIters"
    NUMERICAL_ERROR = "NumericalError"


def _zero_free(M):
    """M as a new CSC matrix of floats in canonical form, with no stored zero."""
    M = sp.csc_matrix(M, dtype=float, copy=True)
    M.sum_duplicates()
    M.eliminate_zeros()
    return M


@dataclass
class ConicProblem:
    """Problem data; P is symmetrized, and P and A are canonical CSC copies with no stored zero.

    AT, b_max = max|b| and q_max = max|q| are derived once, here.
    """

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
        self.P = _zero_free((P + P.T) * 0.5)
        self.A = _zero_free(self.A)
        if self.A.shape != (m, n):
            raise Unsupported(f"A must be {m}x{n}, got {self.A.shape}")
        self.AT = self.A.T  # a CSR view of A's arrays, built once
        self.b_max, self.q_max = (
            float(np.max(np.abs(v))) if v.size else 0.0 for v in (self.b, self.q)
        )
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
    """The embedding's residuals at a raw point (x, s, z, tau), from one product each with P, A', A.

    r_d = Px + A'z + q*tau and r_p = -Ax + b*tau - s, which divided by tau
    are those of the tau-scaled point (x, s, z)/tau in exact arithmetic;
    g_p = 0.5*x'Px + q'x and g_d = -0.5*x'Px - b'z at that point.
    """

    x: np.ndarray
    s: np.ndarray
    z: np.ndarray
    tau: float
    Px: np.ndarray
    ATz: np.ndarray
    Ax: np.ndarray
    xPx: float
    qx: float
    bz: float
    r_d: np.ndarray
    r_p: np.ndarray
    g_p: float
    g_d: float

    def r_tau(self, kappa):
        """The embedding's last row, -q'x - b'z - x'Px/tau - kappa."""
        return -self.qx - self.bz - self.xPx / self.tau - kappa


def residual_map(problem, x, s, z, tau=1.0):
    """Residuals at (x, s, z, tau); the default tau = 1 gives the plain residuals."""
    x, s, z = (np.asarray(w, dtype=float) for w in (x, s, z))
    Px, ATz, Ax = problem.P @ x, problem.AT @ z, problem.A @ x
    xPx, qx, bz = float(x @ Px), float(problem.q @ x), float(problem.b @ z)
    return Residuals(
        x, s, z, tau, Px, ATz, Ax, xPx, qx, bz,
        r_d=Px + ATz + problem.q * tau,
        r_p=-Ax + problem.b * tau - s,
        g_p=(0.5 * xPx / tau + qx) / tau,
        g_d=(-0.5 * xPx / tau - bz) / tau,
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
    res = residual_map(problem, v.x, v.s, v.z, v.tau)
    return np.concatenate([res.r_d, res.r_p, [res.r_tau(v.kappa)]])


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
        ok = is_interior(b.spec, b.rows(s0)) & is_interior_dual(b.spec, b.rows(z0))
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
ALPHA_FLOOR = 1e-7  # both grids end here: shorter steps make no progress
MAX_ALPHA = 0.99  # the combined grid's first step; a full step may land on the boundary
STEP_SLACK = 1e-6  # relative room on the boundary step for rounding in it and in the interior test
REGULARIZATION = 1e-8  # every pivot of K nonzero, P singular or not; refinement removes its bias
# SuperLU's symmetric mode with static diagonal pivots: an LDL'-like factor of K
STATIC_PIVOTS = dict(diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
REFINEMENT_STEPS = 3  # against K without regularization; see _KKT for why three
# a refinement step stops its column once max|r| <= this * max|rhs|: a few
# roundings of r's evaluation, below which another step cannot reliably go
REFINEMENT_TOLERANCE = 8 * np.finfo(float).eps
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
KERNEL_RAISED = "barrier kernel raised at the start"  # a trial whose kernel raises is rejected
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


def check_termination(problem, res, eps=1e-8):
    """Optimality at the tau-scaled point, else infeasibility at the raw point, both from res.

    res is residual_map at the raw iterate (x, s, z, tau).  Returns
    (status, (||r_p||, ||r_d||, |g_p - g_d|)): a SolveStatus or None, and
    the norms at the tau-scaled point, ||r||/tau, which the solver
    reports.  The infeasibility inequalities are evaluated exactly as
    documented: right sides carry the factor -(b'z) resp. -(q'x),
    positive only when those products are negative.
    """
    tau = res.tau
    rp, rd = (float(np.linalg.norm(r)) / tau for r in (res.r_p, res.r_d))
    gap = abs(res.g_p - res.g_d)
    nx, ns, nz = (float(np.linalg.norm(w)) for w in (res.x, res.s, res.z))
    nb, nq = problem.b_max, problem.q_max
    if (
        rp < eps * max(1.0, nb + nx / tau + ns / tau)
        and rd < eps * max(1.0, nq + nx / tau + nz / tau)
        and gap < eps * max(1.0, min(abs(res.g_p), abs(res.g_d)))
    ):
        return SolveStatus.OPTIMAL, (rp, rd, gap)
    if res.bz < -EPS_IA and float(np.linalg.norm(res.ATz)) < -EPS_IR * max(1.0, nx + nz) * res.bz:
        return SolveStatus.PRIMAL_INFEASIBLE, (rp, rd, gap)
    if (
        res.qx < -EPS_IA
        and float(np.linalg.norm(res.Px)) < -EPS_IR * max(1.0, nx) * res.qx
        and float(np.linalg.norm(res.Ax + res.s)) < -EPS_IR * max(1.0, nx + ns) * res.qx
    ):
        return SolveStatus.DUAL_INFEASIBLE, (rp, rd, gap)
    return None, (rp, rd, gap)


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


# The kernels on rows that passed ConeProduct.is_interior (s) or
# is_interior_dual (z): the formula of cone, the batch's class, untested.


def barrier_gradient(spec, S, cone):
    return cone.gradient(spec, S)


def barrier_hessian_inverse(spec, S, Z, mu, GZ, cone):
    return cone.hessian_inverse(spec, S, Z, mu, GZ)


def conjugate_gradient(spec, Y, cone):
    return cone.conjugate_gradient(spec, Y)


def evaluate(cones, s, z, mu):
    """(stacks, rho) at a tested point: each barrier batch's Scaling and each block's proximity.

    rho_i = nu_i/<grad f(s_i), grad f*(z_i)>, NaN on a Zero block, equals
    the local path parameter mu_i exactly on the central path and is
    strictly smaller off it.  One conjugate_gradient and one
    barrier_hessian_inverse call per batch give both: rho reads the
    Scaling's grad f(s) and the grad f*(z) that the power cone's scaling
    reads too.  mu is the global path parameter.  Raises what the kernels
    raise.
    """
    stacks, rho = [], np.full(len(cones.blocks), np.nan)
    for b in cones.barrier_batches:
        gz = conjugate_gradient(b.spec, b.rows(z), b.cone)
        H = barrier_hessian_inverse(b.spec, b.rows(s), b.rows(z), mu, gz, b.cone)
        rho[b.blocks.start : b.blocks.stop] = b.degree / np.vecdot(H.gradient, gz)
        stacks.append(H)
    return stacks, rho


def _positions(M, rows, cols):
    """Indices into M.data of the entries (rows, cols) of a CSC M with sorted indices."""
    keys = np.repeat(np.arange(M.shape[1]), np.diff(M.indptr)) * M.shape[0] + M.indices
    return np.searchsorted(keys, cols * M.shape[0] + rows)


class _Pattern:
    """K's symbolic structure, built from the sparsity pattern alone and read-only (_KKT)."""

    def __init__(self, problem, stacks, key):
        self.key = key
        n, m = problem.n, problem.m
        empty = np.zeros(0, dtype=np.intp)
        rows, cols, lrows, lcols = [empty], [empty], [empty], [empty]
        signs = [np.zeros(0)]
        lifted = 0  # lifted columns so far
        for b, H in zip(problem.cones.barrier_batches, stacks):
            k, d, w, c = len(b.blocks), b.spec.dim, H.blocks.shape[-1], len(H.signs)
            t, j, i = np.indices((k * d // w, w, w)).reshape(3, -1)
            rows.append(b.sl.start + t * w + i)
            cols.append(b.sl.start + t * w + j)
            # the columns of each block, in the order of its lifts
            block = np.arange(b.sl.start, b.sl.stop).reshape(k, 1, d)
            lrows.append(np.broadcast_to(block, (k, c, d)).ravel())
            lcols.append(lifted + np.repeat(np.arange(c * k), d))
            signs.append(np.tile(H.signs, k))
            lifted += c * k
        # block by block, column by column: the CSC order of W and L.
        # Every value is a placeholder, nonzero so that the sum below
        # keeps every entry
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        lrows, lcols = np.concatenate(lrows), np.concatenate(lcols)
        # W and L, which each _KKT copies to write its own values
        self.Hinv = sp.csc_matrix(
            (np.ones(len(rows)), rows, np.searchsorted(cols, np.arange(m + 1))), shape=(m, m)
        )
        self.L = L = sp.csc_matrix(
            (np.ones(len(lrows)), lrows, np.searchsorted(lcols, np.arange(lifted + 1))),
            shape=(m, lifted),
        )
        signs = np.concatenate(signs)
        P, A = (sp.csc_matrix((np.ones(M.nnz), M.indices, M.indptr), shape=M.shape)
                for M in (problem.P, problem.A))
        K = sp.bmat(
            [[P, A.T, None], [A, self.Hinv, L], [None, L.T, sp.diags(signs)]], format="csc"
        )
        self.signs = np.r_[np.ones(n), -np.ones(m), signs]
        # the sum stores K's whole diagonal: P and A store no zero, and
        # the quasi-definite diagonal sums are nonzero
        K = K + sp.diags(REGULARIZATION * self.signs)
        self.q = reverse_cuthill_mckee(K, symmetric_mode=True)
        K = K[self.q][:, self.q]
        K.sort_indices()  # _positions needs sorted indices
        qi = np.argsort(self.q)  # entry (i, j) of K moves to (qi[i], qi[j])

        def placed(R, C):
            """The positions in K.data of the entries (R, C), and the regularization on each."""
            reg = np.where(R == C, REGULARIZATION * self.signs[R], 0.0)
            return _positions(K, qi[R], qi[C]), reg

        # every entry a _KKT writes once, P, A and A', in the order of their data
        P, A = problem.P.tocoo(), problem.A.tocoo()
        self.fixed, self.fixed_reg = placed(
            np.r_[P.row, n + A.row, A.col], np.r_[P.col, A.col, n + A.row]
        )
        # every entry factor writes, W, L, L' and D, in the order of its values
        lifted_rows = n + m + np.arange(lifted)
        self.kpos, self.reg = placed(
            np.concatenate([n + rows, n + lrows, n + m + lcols, lifted_rows]),
            np.concatenate([n + cols, n + m + lcols, n + lrows, lifted_rows]),
        )
        # K's template, which each _KKT copies: 0 where it or factor
        # writes, the regularization alone where neither does (the rows
        # of x where P has no diagonal entry, and the Zero rows)
        K.data[self.fixed] = 0.0
        K.data[self.kpos] = 0.0
        self.K = K
        self.delta = REGULARIZATION * self.signs[self.q]  # the regularization in K's order
        for v in vars(self).values():
            for a in (v.data, v.indices, v.indptr) if sp.issparse(v) else (v,):
                if isinstance(a, np.ndarray):
                    a.flags.writeable = False


# The last pattern a solve built, which a solve of an equal pattern
# reuses, as each member of a warm chain after the first does.  It is
# shared by every solve in the process, but it is read-only and holds
# no values: which one is kept decides whether a solve builds one,
# never a bit of its result.
_last_pattern = None


def _pattern(problem, stacks):
    """The _Pattern of problem's K: the last one built if its key matches, else a new one."""
    global _last_pattern
    forms = tuple((H.blocks.shape[-1], H.signs) for H in stacks)
    patterns = tuple(
        (M.shape, M.indptr.tobytes(), M.indices.tobytes()) for M in (problem.P, problem.A)
    )
    key = problem.cones.blocks, forms, patterns
    pattern = _last_pattern
    if pattern is None or pattern.key != key:
        pattern = _last_pattern = _Pattern(problem, stacks, key)
    return pattern


class _KKT:
    """K = [[P, A', 0], [A, -W, L], [0, L', D]] + REGULARIZATION * diag(signs), for one solve.

    Each barrier block's scaling blockdiag(B) + sum_c U_c U_c'/pivot_c
    (cones.Scaling) enters as its blocks B in W and one lifted row and
    column per U_c, as in ECOS (Domahidi, Chu & Boyd, ECC 2013): L holds
    the U_c, D the pivots.  Eliminating them leaves minus the scaling,
    the (2,2) block of the unlifted K.  A second-order block's
    Nesterov-Todd W^2 = 2ww' - rJ, r I + (uu' - vv')/mu_i, so takes
    d + 4d + 2 stored entries where the dense block has d^2, and r = det w
    stays an entry of its own instead of rounding away against w0^2 late
    in a solve.  The lifted rows follow the n + m rows of x and z.

    What is cached.  Everything that depends on the sparsity pattern
    alone is a _Pattern: K's pattern in its order q, the position of
    every entry, signs and the regularization.  P and A enter its bmat
    as placeholder ones, as W, L and D do, so it holds no value of any
    problem, and its arrays are read-only.  _pattern keeps the last one
    built and reuses it for every solve whose cone blocks, scaling forms
    and P and A patterns are equal, so a warm chain assembles K (one
    bmat) and orders it once.  Each _KKT copies the values it writes,
    K's, W's and L's, writes its P and A into K once, at construction,
    and never writes what another solve reads.  factor writes W, L and D
    in place, once, into K, with the float operations of a fresh
    assembly: the kernel's entry, its negation, then the regularization
    on the diagonal.

    signs is +1 on the rows of x and of the + columns, -1 on those of z
    and of the - columns.  With delta = REGULARIZATION, K is symmetric
    quasi-definite along that split: the + side is P + delta I and
    mu_i + delta, positive definite; the - side is -W - delta I bordered
    by the - columns and -mu_i - delta, whose Schur complement (for an
    SOC block's v, about -mu_i (w0 - n)^2/r, n = ||w1||) is negative.  So
    K has an LDL' factor in every symmetric order with pivots taken from
    the diagonal (Vanderbei, SIAM J. Optim. 1995), and SuperLU factors it
    with STATIC_PIVOTS, no pivot search.  The order q is reverse
    Cuthill-McKee on K's pattern; K is stored as K[q][:, q] and each
    factor takes it as NATURAL.  An exact zero (where an SOC block's NT
    point is on its axis, as at the unit points, so u = v = 0, at a pow
    unit point, or an underflow) stays a stored entry: no
    pivot leaves the diagonal, and no diagonal entry is zero.

    Nothing bounds growth without a pivot search: a pivot of delta alone
    (where P_ii = 0, or on a Zero cone's row) taken before its neighbours
    scales its updates by 1/delta.  Minimum degree (MMD_AT_PLUS_A) takes
    those first, and late in HMCR solves its refined residuals were
    100-500x partial pivoting's; this order stayed within 3x at the same
    SVM fill.  So solve refines, in K's order, against K minus its
    delta*signs diagonal: r = rhs - (K x - delta*signs*x).  A column stops
    once max|r| <= REFINEMENT_TOLERANCE*max|rhs|, the rounding of r's own
    evaluation, where another step cannot reliably lower it; else it
    takes up to REFINEMENT_STEPS steps.  Since ds comes from the primal
    equation, the solve's residual on a block's rows is an error in its
    ds: with two steps, one hmcr-pow warm solve of the benchmark (seed 8)
    ended with proximity rejecting every trial, on a pow block with s
    near 5e-8 whose rows' residual was 1.3% of ds; the third step solves
    it (.github/kkt_residuals.py measures residuals).

    hinv gives the right side's products with the scaling.
    """

    def __init__(self, problem, stacks):
        self.pattern = p = _pattern(problem, stacks)
        self.q, self.signs = p.q, p.signs
        self.K, self.Hinv, self.L = p.K.copy(), p.Hinv.copy(), p.L.copy()
        self.LT = self.L.T  # a CSR view of L's arrays
        values = np.concatenate([problem.P.data, problem.A.data, problem.A.data])
        self.K.data[p.fixed] = values + p.fixed_reg

    def factor(self, stacks):
        """Write the barrier batches' Scalings, negated, into K and factor it; RuntimeError
        if K is singular."""
        p = self.pattern
        blocks = [np.zeros(0)] + [H.blocks.swapaxes(-1, -2).ravel() for H in stacks]
        np.concatenate(blocks, out=self.Hinv.data)
        np.concatenate([np.zeros(0)] + [H.lifts.ravel() for H in stacks], out=self.L.data)
        self.pivots = np.concatenate([np.zeros(0)] + [H.pivots.ravel() for H in stacks])
        values = np.concatenate([-self.Hinv.data, self.L.data, self.L.data, self.pivots])
        self.K.data[p.kpos] = values + p.reg
        self.lu = splu(self.K, permc_spec="NATURAL", **STATIC_PIVOTS)

    def hinv(self, r):
        """The scaling times r on the barrier rows (cones.Scaling): W r + L D^-1 L' r."""
        out = self.Hinv @ r
        if len(self.pivots):
            out += self.L @ ((self.LT @ r) / self.pivots)
        return out

    def _refined(self, rhs):
        """K^-1 rhs for an (N,) or (N, k) rhs on every row of K, the lifted ones too.

        One LU solve takes every column; then each column is refined on its
        own until it stops, so its steps and its bits do not depend on the
        other columns.
        """
        b = rhs[self.q]
        x = self.lu.solve(b)
        delta = self.pattern.delta
        for bj, xj in zip(b.T, x.T) if x.ndim == 2 else [(b, x)]:
            bound = REFINEMENT_TOLERANCE * np.abs(bj).max()
            for _ in range(REFINEMENT_STEPS):
                r = bj - (self.K @ xj - delta * xj)
                if np.abs(r).max() <= bound:
                    break
                xj += self.lu.solve(r)
        sol = np.empty_like(x)
        sol[self.q] = x
        return sol

    def solve(self, rhs):
        """K^-1 [rhs; 0] for an (n + m,) or (n + m, k) rhs, without the lifted rows' entries."""
        full = np.zeros((len(self.signs),) + rhs.shape[1:])
        full[: len(rhs)] = rhs
        return self._refined(full)[: len(rhs)]


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
    if not (cones.is_interior(s) and cones.is_interior_dual(z)):
        raise RejectedWarmStart("start iterate is not strictly interior")

    kkt = stacks = None
    barrier = np.array([k for k, _, _ in cones.barrier_blocks], dtype=np.intp)
    zero_rows = np.array(
        [i for b in cones.batches if not b.degree for i in range(b.sl.start, b.sl.stop)],
        dtype=np.intp,
    )
    tau_rhs = np.concatenate([-problem.q, problem.b])  # the tau column's right side (-q, b)

    mu = _embedding_mu(problem, s, z, tau, kappa)
    trace = []
    alpha = 0.0  # the step that reached the iterate, in its trace row

    def report(status, reason=None):
        return SolveReport(
            status=status, iterations=max(steps, 1), solve_time=time.perf_counter() - t0,
            r_p=rp, r_d=rd, gap=gap, trace=trace, x=x, s=s, z=z, tau=tau, kappa=kappa,
            reason=reason,
        )

    for steps in range(max(cfg.max_iters, 0) + 1):
        # the one evaluation of the iterate: termination and the Newton right side
        res = residual_map(problem, x, s, z, tau)
        status, (rp, rd, gap) = check_termination(problem, res, cfg.eps)
        trace.append(TraceRow(mu, rp, rd, alpha))
        if status is None and steps >= cfg.max_iters:
            status = SolveStatus.MAX_ITERS
        if status is not None:
            return report(status)

        if stacks is None:  # the start; every later point brings its trial's evaluation
            try:
                stacks = evaluate(cones, s, z, mu)[0]
            except (BoundaryOrExterior, NoConvergence, np.linalg.LinAlgError) as exc:
                return report(SolveStatus.NUMERICAL_ERROR, f"{KERNEL_RAISED}: {exc}")
        grad = np.zeros(m)
        for b, H in zip(cones.barrier_batches, stacks):
            grad[b.sl] = H.gradient.ravel()
        if kkt is None:
            kkt = _KKT(problem, stacks)
        try:
            kkt.factor(stacks)
        except RuntimeError:
            return report(SolveStatus.NUMERICAL_ERROR, FACTORIZATION_FAILED)
        n, hinv = problem.n, kkt.hinv

        def system(eta, sigma):
            """The right side of the direction's KKT system."""
            r_s = z + sigma * mu * grad  # read only through hinv: no Zero-block column
            return np.concatenate([-eta * res.r_d, eta * res.r_p + hinv(r_s)])

        def direction(eta, sigma, sol):
            """The step from sol, the KKT solution of system(eta, sigma)."""
            r_tk = tau * kappa - sigma * mu
            u1, w1 = sol[:n], sol[n:]
            num = -eta * res.r_tau(kappa) + float(qp @ u1) + float(problem.b @ w1) - r_tk / tau
            dtau = num / denom_base
            dx = u1 + dtau * u2
            dz = w1 + dtau * w2
            # the linearized primal equation, not -hinv(dz + r_s), which
            # multiplies the solve's error in dz by s_j/z_j (module docstring)
            ds = eta * res.r_p - problem.A @ dx + dtau * problem.b
            ds[zero_rows] = 0.0
            dkappa = (-r_tk - kappa * dtau) / tau
            return dx, dz, ds, dtau, dkappa

        # the tau column (-q, b) and the affine system in one solve.  Each
        # solution column is copied to an array of its own: a BLAS dot
        # product's rounding can depend on where its operands start
        sol = kkt.solve(np.column_stack([tau_rhs, system(1.0, 0.0)]))
        tau_column, affine = map(np.copy, sol.T)
        u2, w2 = tau_column[:n], tau_column[n:]
        qp = problem.q + (2.0 / tau) * res.Px
        denom_base = -float(qp @ u2) - float(problem.b @ w2) + res.xPx / tau**2 + kappa / tau
        if denom_base == 0.0:
            return report(SolveStatus.NUMERICAL_ERROR, ZERO_DENOMINATOR)

        def boundary_step():
            """The step to the boundary of the cones and of tau, kappa > 0."""
            return min(cones.step_bound(s, ds, z, dz), _ratio(tau, dtau), _ratio(kappa, dkappa))

        def inside(a):
            """(s, z, tau, kappa) at step a if it is strictly interior, else None.

            The Zero batches' rows are not tested: s is 0 there at the
            start, which was, and ds is 0 there."""
            s_new = s + a * ds
            z_new = z + a * dz
            tau_new = tau + a * dtau
            kappa_new = kappa + a * dkappa
            if (
                tau_new > 0.0
                and kappa_new > 0.0
                and cones.is_interior(s_new, cones.barrier_batches)
                and cones.is_interior_dual(z_new)
            ):
                return s_new, z_new, tau_new, kappa_new
            return None

        def affine_trial(a):
            return None if inside(a) is None else a

        def combined_trial(a):
            """(alpha, s, z, tau, kappa, mu, stacks) at step a, if it passes every test.

            stacks, the point's Scalings, are the next iteration's."""
            nonlocal guard_passed
            if (point := inside(a)) is None:
                return None
            guard_passed = True
            s_new, z_new, tau_new, kappa_new = point
            mu_new = _embedding_mu(problem, s_new, z_new, tau_new, kappa_new)
            if not (mu_new > 0.0 and tau_new * kappa_new >= BETA * mu_new):
                return None
            try:
                stacks_new, rho = evaluate(cones, s_new, z_new, mu_new)
            except (BoundaryOrExterior, NoConvergence, np.linalg.LinAlgError):
                return None
            # a NaN rho fails the comparison, so it rejects the trial
            if not (rho[barrier] >= BETA * mu_new).all():
                return None
            return a, s_new, z_new, tau_new, kappa_new, mu_new, stacks_new

        dx, dz, ds, dtau, dkappa = direction(1.0, 0.0, affine)
        alpha_aff = _search(AFFINE_GRID, affine_trial, boundary_step()) or 0.0
        sigma = min(max((1.0 - alpha_aff) ** 3, 1e-3), 0.9)

        # Mehrotra's term, from the affine direction, where the product has
        # one; a combined direction that no trial passes is taken again without it
        terms = [cones.corrector(stacks, z, ds, dz)]
        if terms[0] is not None:
            terms.append(None)
        guard_passed = False  # set once a trial passes the interior test
        for term in terms:
            rhs = system(1.0 - sigma, sigma)
            if term is not None:
                rhs[n:] += term
            dx, dz, ds, dtau, dkappa = direction(1.0 - sigma, sigma, kkt.solve(rhs))
            if (step := _search(COMBINED_GRID, combined_trial, boundary_step())) is not None:
                break
        if step is None:
            return report(
                SolveStatus.NUMERICAL_ERROR, PROXIMITY_REJECTED if guard_passed else NO_STEP_INSIDE
            )
        alpha, s, z, tau, kappa, mu, stacks = step
        x = x + alpha * dx
