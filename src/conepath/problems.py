"""Parametric problem generators at desk scale.

Each generator returns a ConicProblem in the solver's canonical form
min 0.5*x'Px + q'x s.t. Ax + s = b, s in K.  Families: L1/L2 soft-margin
SVMs, minimum-risk portfolios (variance and higher-moment risk), and
horizon-stacked MPC QPs, plus the entry-perturbation rule used for
warmstart sensitivity studies.  Generators are pure functions of their
arguments; randomness always flows through an explicit seed.
"""

import csv
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .cones import ConeProduct, ConeSpec
from .errors import DegenerateData, InfeasibleTarget, ParseError, Unsupported
from .ipm import ConicProblem


@dataclass(frozen=True)
class LabeledData:
    """Feature rows X (m samples by d features) with labels y in {-1,+1}."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise DegenerateData("sample/label count mismatch")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise DegenerateData("labels must be -1 or +1")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def samples(self):
        return self.X.shape[0]

    @property
    def features(self):
        return self.X.shape[1]


@dataclass(frozen=True)
class ReturnsData:
    """Return matrix R, rows = days, columns = assets."""

    R: np.ndarray

    def __post_init__(self):
        R = np.atleast_2d(np.asarray(self.R, dtype=float))
        if R.shape[0] <= 1:
            raise DegenerateData("need more than one day of returns")
        object.__setattr__(self, "R", R)

    @property
    def days(self):
        return self.R.shape[0]

    @property
    def assets(self):
        return self.R.shape[1]

    @property
    def mean(self):
        return self.R.mean(axis=0)

    def window(self, start, length):
        """Contiguous day window, for rolling-rebalance sequences."""
        if start < 0 or start + length > self.days:
            raise DegenerateData(
                f"window [{start}, {start + length}) outside {self.days} days"
            )
        return ReturnsData(self.R[start : start + length])


def synth_samples(m, dim, seed=0, separation=2.0):
    """Two Gaussian clusters, labels by cluster; mildly overlapping."""
    rng = np.random.default_rng(seed)
    half = m // 2
    y = np.concatenate([np.ones(m - half), -np.ones(half)])
    centers = np.zeros((m, dim))
    centers[:, 0] = y * (separation / 2.0)
    return LabeledData(X=centers + rng.standard_normal((m, dim)), y=y)


def synth_returns(n, d, seed=0):
    """Factor-model daily returns: 3 common factors plus idiosyncratic noise."""
    rng = np.random.default_rng(seed)
    k = 3
    factors = 0.01 * rng.standard_normal((d, k))
    loadings = rng.uniform(0.3, 1.0, (k, n))
    drift = rng.uniform(2e-4, 1e-3, n)
    idio = 0.005 * rng.standard_normal((d, n))
    return ReturnsData(R=drift + factors @ loadings + idio)


def load_returns_csv(path):
    """Rows = days, columns = assets; an optional non-numeric header row."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for i, rec in enumerate(csv.reader(fh), start=1):
            if not rec or all(cell.strip() == "" for cell in rec):
                continue
            vals = []
            for j, cell in enumerate(rec, start=1):
                try:
                    vals.append(float(cell))
                except ValueError:
                    if i == 1 and not rows:
                        vals = None
                        break
                    raise ParseError(f"row {i}, column {j}: not a number: {cell!r}")
            if vals is None:
                continue
            if rows and len(vals) != len(rows[0]):
                raise ParseError(
                    f"row {i}: expected {len(rows[0])} columns, got {len(vals)}"
                )
            rows.append(vals)
    if len(rows) <= 1:
        raise ParseError("need at least two data rows")
    return ReturnsData(R=np.array(rows))


def _eye(k):
    """Identity as COO: sp.bmat converts every block to COO, and from the
    default DIA format that conversion dominates a small build."""
    return sp.eye(k, format="coo")


def _svm_common(data, lam):
    if lam <= 0:
        raise Unsupported("regularization weight must be positive")
    if np.all(data.y > 0) or np.all(data.y < 0):
        raise DegenerateData("need samples from both classes")
    return data.X, data.y, data.samples, data.features


def gen_svm_l1(data, lam):
    """Soft-margin SVM with an L1 penalty on w, as an LP.

    Variables (w+, w-, bias, xi) with w = w+ - w-; minimizes
    lam*|w|_1 + mean hinge loss subject to y_i(x_i'w + bias) >= 1 - xi_i.
    """
    X, y, m, d = _svm_common(data, lam)
    n = 2 * d + 1 + m
    yX, I_d, I_m = y[:, None] * X, _eye(d), _eye(m)
    # column groups (w+, w-, bias, xi); rows: margins
    # s_i = y_i(x_i'w + b) - 1 + xi_i >= 0, then the signs of w+, w-, xi
    A = sp.bmat(
        [
            [-yX, yX, -y[:, None], -I_m],
            [-I_d, None, None, None],
            [None, -I_d, None, None],
            [None, None, None, -I_m],
        ],
        format="csc",
    )
    b = np.concatenate([-np.ones(m), np.zeros(2 * d + m)])
    q = np.concatenate([lam * np.ones(2 * d), [0.0], np.ones(m) / m])
    cones = ConeProduct((ConeSpec.nonnegative(2 * m + 2 * d),))
    return ConicProblem(P=sp.csc_matrix((n, n)), q=q, A=A, b=b, cones=cones)


def gen_svm_l2(data, lam):
    """Soft-margin SVM with an L2 penalty via epigraph t >= |w|_2 (bias free)."""
    X, y, m, d = _svm_common(data, lam)
    n = d + 1 + 1 + m
    I_m = _eye(m)
    # column groups (w, bias, t, xi); rows: margins, xi >= 0, then the
    # second-order block (t, w)
    A = sp.bmat(
        [
            [-(y[:, None] * X), -y[:, None], None, -I_m],
            [None, None, None, -I_m],
            [None, None, -np.ones((1, 1)), None],
            [-_eye(d), None, None, None],
        ],
        format="csc",
    )
    b = np.concatenate([-np.ones(m), np.zeros(m + d + 1)])
    q = np.concatenate([np.zeros(d + 1), [lam], np.ones(m) / m])
    cones = ConeProduct((ConeSpec.nonnegative(2 * m), ConeSpec.second_order(d + 1)))
    return ConicProblem(P=sp.csc_matrix((n, n)), q=q, A=A, b=b, cones=cones)


def _covariance_factor(returns):
    """Upper-triangular U with U'U = sample covariance (jittered if needed)."""
    R = returns.R
    d = returns.days
    centered = R - returns.mean
    sigma = centered.T @ centered / (d - 1)
    try:
        return np.linalg.cholesky(sigma).T
    except np.linalg.LinAlgError:
        try:
            return np.linalg.cholesky(sigma + 1e-10 * np.eye(returns.assets)).T
        except np.linalg.LinAlgError:
            raise DegenerateData("covariance is not positive semidefinite")


def gen_portfolio(returns, r0):
    """Minimum-variance portfolio with a required mean return.

    min t  s.t.  e'x = 1,  (t, Ux) in K_soc,  rbar'x >= r0,  x >= 0.
    """
    rbar = returns.mean
    if r0 > np.max(rbar):
        raise InfeasibleTarget(
            f"required return {r0} exceeds best asset mean {np.max(rbar)}"
        )
    U = _covariance_factor(returns)
    na = returns.assets
    n = na + 1
    # column groups (x, t); rows: e'x = 1, rbar'x >= r0, x >= 0, then the
    # second-order block (t, Ux).  Triplets, not sp.bmat: this generator
    # runs once per rebalance step, and bmat's overhead doubles its time
    iu, ju = np.nonzero(U)
    cols = np.arange(na)
    row = np.concatenate([np.zeros(na, int), np.ones(na, int), cols + 2, [na + 2], iu + na + 3])
    col = np.concatenate([cols, cols, cols, [na], ju])
    val = np.concatenate([np.ones(na), -rbar, -np.ones(na), [-1.0], -U[iu, ju]])
    A = sp.csc_matrix((val, (row, col)), shape=(2 * na + 3, n))
    b = np.concatenate([[1.0, -r0], np.zeros(na), np.zeros(na + 1)])
    q = np.zeros(n)
    q[na] = 1.0
    cones = ConeProduct(
        (ConeSpec.zero(1), ConeSpec.nonnegative(na + 1), ConeSpec.second_order(na + 1))
    )
    return ConicProblem(P=sp.csc_matrix((n, n)), q=q, A=A, b=b, cones=cones)


def gen_hmcr(returns, r0, p, alpha, formulation="power"):
    """Portfolio with a higher-moment coherent risk objective.

    min eta + t/((1-alpha) d^(1/p)) over (x, eta, t, w, r) subject to
    e'x = 1, mean return >= r0, w >= -Rx - eta*e, x,w >= 0, and
    t >= |w|_p written as d power-cone blocks (r_i, t, w_i) with
    exponent 1/p plus sum(r) = t.  formulation="soc" (p = 2 only)
    replaces the power blocks with one second-order block, as a
    cross-check of the same model.
    """
    if p <= 1:
        raise Unsupported("p-norm risk needs p > 1")
    if not 0.0 < alpha < 1.0:
        raise Unsupported("confidence level alpha must be in (0,1)")
    rbar = returns.mean
    if r0 > np.max(rbar):
        raise InfeasibleTarget(
            f"required return {r0} exceeds best asset mean {np.max(rbar)}"
        )
    if formulation not in ("power", "soc"):
        raise Unsupported(f"unknown formulation {formulation!r}")
    if formulation == "soc" and p != 2:
        raise Unsupported("the second-order cross-check needs p = 2")
    R = returns.R
    d, na = returns.days, returns.assets
    use_r = formulation == "power"
    n = na + 2 + d + (d if use_r else 0)
    one, ones_d, I_d = np.ones((1, 1)), np.ones((d, 1)), _eye(d)
    e = np.eye(3)[:, :, None]  # e[j]: unit column j of a 3-row power block
    # column groups (x, eta, t, w, r); r exists in the power form only.
    # rows: e'x = 1 and sum(r) = t (Zero), rbar'x >= r0, w + Rx + eta >= 0,
    # x >= 0, w >= 0 (nonneg), then the power blocks (r_i, t, w_i) or the
    # second-order block (t, w)
    rows = [
        [np.ones((1, na)), None, None, None, None],
        [None, None, -one, None, np.ones((1, d))] if use_r else None,
        [-rbar[None, :], None, None, None, None],
        [-R, -ones_d, None, -I_d, None],
        [-_eye(na), None, None, None, None],
        [None, None, None, -I_d, None],
    ]
    if use_r:
        rows.append(
            [None, None, sp.kron(ones_d, -e[1], format="coo"),
             sp.kron(I_d, -e[2], format="coo"), sp.kron(I_d, -e[0], format="coo")]
        )
        tail = tuple(ConeSpec.power(1.0 / p) for _ in range(d))
    else:
        rows += [[None, None, -one, None], [None, None, None, -I_d]]
        tail = (ConeSpec.second_order(1 + d),)
    groups = 5 if use_r else 4
    A = sp.bmat([row[:groups] for row in rows if row is not None], format="csc")
    n_zero = 2 if use_r else 1
    b = np.zeros(A.shape[0])
    b[0], b[n_zero] = 1.0, -r0
    q = np.zeros(n)
    q[na] = 1.0
    q[na + 1] = 1.0 / ((1.0 - alpha) * d ** (1.0 / p))
    cones = ConeProduct(
        (ConeSpec.zero(n_zero), ConeSpec.nonnegative(1 + 2 * d + na)) + tail
    )
    return ConicProblem(P=sp.csc_matrix((n, n)), q=q, A=A, b=b, cones=cones)


def _spectral_scale(M, radius):
    r = np.max(np.abs(np.linalg.eigvals(M)))
    return M * (radius / r) if r > 0 else M


def _check_psd(M, name, strict=False):
    w = np.linalg.eigvalsh(0.5 * (M + M.T))
    if strict and w.min() <= 0:
        raise Unsupported(f"{name} must be positive definite")
    if w.min() < -1e-10:
        raise Unsupported(f"{name} must be positive semidefinite")


def gen_mpc(dims, horizon, seed=0, x0=None, x_ref=None, u_ref=None, bound=4.0,
            system=None, costs=None):
    """Horizon-stacked tracking QP for a linear system.

    dims = (nx, nu).  Variables (x_1..x_N, u_0..u_{N-1}); dynamics
    x_{k+1} = A x_k + B u_k + f enter as Zero rows, interval bounds
    |x| <= bound, |u| <= bound as doubled nonnegative rows.  The
    quadratic cost sum (x_k - x_ref)'Q(x_k - x_ref) + u'Ru plus the
    terminal (x_N - x_ref)'Pf(x_N - x_ref) is stored with the 1/2
    solver convention absorbed (P = 2*blockdiag(Q..Pf, R..)).

    system = (A, B, f) and costs = (Q, R, Pf) override the seeded
    random stable system (spectral radius 0.9) and default costs.
    """
    nx, nu = dims
    N = int(horizon)
    if N < 1 or nx < 1 or nu < 1:
        raise Unsupported("need nx, nu, horizon >= 1")
    rng = np.random.default_rng(seed)
    if system is None:
        Ad = _spectral_scale(rng.standard_normal((nx, nx)), 0.9)
        Bd = rng.standard_normal((nx, nu))
        f = np.zeros(nx)
    else:
        Ad, Bd, f = (np.asarray(M, dtype=float) for M in system)
    if costs is None:
        Q, Rc, Pf = np.eye(nx), 0.1 * np.eye(nu), np.eye(nx)
    else:
        Q, Rc, Pf = (np.asarray(M, dtype=float) for M in costs)
    _check_psd(Q, "Q")
    _check_psd(Rc, "R")
    _check_psd(Pf, "terminal cost", strict=True)
    x0 = np.zeros(nx) if x0 is None else np.asarray(x0, dtype=float)
    x_ref = np.zeros(nx) if x_ref is None else np.asarray(x_ref, dtype=float)
    u_ref = np.zeros(nu) if u_ref is None else np.asarray(u_ref, dtype=float)

    n = N * nx + N * nu
    I_x, I_u = _eye(N * nx), _eye(N * nu)
    # column groups (x_1..x_N, u_0..u_{N-1}); rows: the dynamics
    # x_{k+1} - A x_k - B u_k = f (x_0 known), then the doubled interval
    # rows bound - v >= 0 and v + bound >= 0 per group.  Every kron takes
    # the COO path: its default BSR path would store the zeros of A and B
    A = sp.bmat(
        [
            [I_x + sp.kron(sp.eye(N, k=-1), -Ad, format="coo"),
             sp.kron(_eye(N), -Bd, format="coo")],
            [I_x, None],
            [None, I_u],
            [-I_x, None],
            [None, -I_u],
        ],
        format="csc",
    )
    dyn_b = np.tile(f, N)
    dyn_b[:nx] = Ad @ x0 + f
    b = np.concatenate([dyn_b, np.full(2 * n, float(bound))])

    P = sp.block_diag(
        [sp.kron(_eye(N - 1), 2.0 * Q, format="coo"), 2.0 * Pf,
         sp.kron(_eye(N), 2.0 * Rc, format="coo")],
        format="csc",
    )
    q = np.concatenate(
        [np.tile(-2.0 * (Q @ x_ref), N - 1), -2.0 * (Pf @ x_ref),
         np.tile(-2.0 * (Rc @ u_ref), N)]
    )
    cones = ConeProduct((ConeSpec.zero(N * nx), ConeSpec.nonnegative(2 * n)))
    return ConicProblem(P=P, q=q, A=A, b=b, cones=cones)


@dataclass(frozen=True)
class PerturbationSpec:
    """Entry-perturbation rule: touch at most min(10% of entries, 20)."""

    delta: float
    targets: tuple = ("b", "q", "A")
    seed: int = 0
    fraction: float = 0.1
    cap: int = 20

    def __post_init__(self):
        if self.delta < 0:
            raise Unsupported("perturbation size must be nonnegative")
        bad = set(self.targets) - {"b", "q", "A"}
        if bad:
            raise Unsupported(f"unknown perturbation targets {sorted(bad)}")


def _draw(size, rng, pspec):
    """min(fraction*size, cap) distinct positions among `size` entries, and
    one r uniform on [-1, 1] for each."""
    k = min(math.ceil(pspec.fraction * size), pspec.cap)
    return rng.choice(size, size=k, replace=False), rng.uniform(-1.0, 1.0, size=k)


def _entry_rule(old, r, delta):
    return np.where(np.abs(old) <= 1e-6, delta * r, (1.0 + delta * r) * old)


def _perturb_sparse(A, rng, pspec):
    """A with the entry rule applied at positions drawn over all m*n
    entries in row-major order, structural zeros included."""
    m, n = A.shape
    idx, r = _draw(m * n, rng, pspec)
    i, j = np.divmod(idx, n)
    new = _entry_rule(np.asarray(A[i, j]).ravel(), r, pspec.delta)
    coo = A.tocoo()
    keep = ~np.isin(coo.row * np.int64(n) + coo.col, idx)
    return sp.csc_matrix(
        (np.r_[coo.data[keep], new], (np.r_[coo.row[keep], i], np.r_[coo.col[keep], j])),
        shape=(m, n),
    )


def perturb(problem, pspec):
    """New problem with the entry rule applied per target; input untouched.

    Entries with magnitude <= 1e-6 become delta*r, others scale by
    (1 + delta*r), r uniform on [-1,1].  delta = 0 returns an unchanged
    copy (the literal rule would zero near-zero entries).
    """
    b, q, A = problem.b.copy(), problem.q.copy(), problem.A
    if pspec.delta > 0:
        rng = np.random.default_rng(pspec.seed)
        for target in pspec.targets:
            if target == "A":
                A = _perturb_sparse(A, rng, pspec)
            else:
                v = b if target == "b" else q
                idx, r = _draw(v.size, rng, pspec)
                v[idx] = _entry_rule(v[idx], r, pspec.delta)
    return ConicProblem(P=problem.P, q=q, A=A, b=b, cones=problem.cones)


class Family(Enum):
    SVM_L1 = "svm-l1"
    SVM_L2 = "svm-l2"
    PORTFOLIO_REBALANCE = "rebalance"
    EFFICIENT_FRONTIER = "frontier"
    HMCR = "hmcr"
    MPC_PERTURB = "mpc"


@dataclass(frozen=True)
class SequenceSpec:
    """A parametric family plus the schedule that sweeps it.

    schedule meaning by family: regularization weights (SVMs), required
    returns (frontier), window start days (rebalance, hmcr), or
    perturbation seeds (mpc).  params carries family specifics:
    samples/features/seed, window/r0/p/alpha, dims/horizon/delta/targets.
    """

    family: Family
    schedule: tuple
    data: object = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.schedule) == 0:
            raise Unsupported("schedule must be non-empty")


def build_sequence(spec):
    """Materialize the problem list for a SequenceSpec."""
    fam, params = spec.family, spec.params
    if fam in (Family.SVM_L1, Family.SVM_L2):
        data = spec.data or synth_samples(
            params.get("samples", 60), params.get("features", 6), params.get("seed", 0)
        )
        gen = gen_svm_l1 if fam is Family.SVM_L1 else gen_svm_l2
        return [gen(data, lam) for lam in spec.schedule]
    if fam is Family.EFFICIENT_FRONTIER:
        returns = spec.data or synth_returns(
            params.get("assets", 20), params.get("days", 60), params.get("seed", 0)
        )
        return [gen_portfolio(returns, r0) for r0 in spec.schedule]
    if fam in (Family.PORTFOLIO_REBALANCE, Family.HMCR):
        window = params.get("window", 40)
        need = max(int(k) for k in spec.schedule) + window
        returns = spec.data or synth_returns(
            params.get("assets", 20), need, params.get("seed", 0)
        )
        r0 = params.get("r0", 5e-4)
        if fam is Family.PORTFOLIO_REBALANCE:
            return [
                gen_portfolio(returns.window(int(k), window), r0)
                for k in spec.schedule
            ]
        p, alpha = params.get("p", 3.0), params.get("alpha", 0.9)
        return [
            gen_hmcr(returns.window(int(k), window), r0, p, alpha)
            for k in spec.schedule
        ]
    if fam is Family.MPC_PERTURB:
        dims, seed, x0 = params.get("dims", (4, 2)), params.get("seed", 0), params.get("x0")
        if x0 is None:
            # a nonzero start keeps the tracking problem off the trivial optimum
            x0 = np.random.default_rng(seed + 1).uniform(-1.0, 1.0, dims[0])
        base = gen_mpc(dims, params.get("horizon", 10), seed=seed, x0=x0)
        delta, targets = params.get("delta", 1e-3), params.get("targets", ("b", "q", "A"))
        return [base] + [
            perturb(base, PerturbationSpec(delta, targets, seed=int(sd)))
            for sd in spec.schedule
        ]
    raise Unsupported(f"unknown family {fam}")
