"""Cone descriptions, logarithmically homogeneous barriers and their operators.

Every supported cone carries a barrier f with degree nu, meaning
f(t*s) = f(s) - nu*log(t) on the interior.  Each ConeKind has one class
below, found through CONES, that holds every formula of its kind:
validation, degree, interior test, barrier derivatives, unit point,
conjugate gradient, and the smoothing and projection operators that
smoothing.py exposes.  The module functions (is_interior,
barrier_gradient, ...) are the checked entry points: they test
interiority once and look the class up; class methods assume a tested
point, so the Newton loops call them directly.  Symmetric matrix blocks
travel in packed triangle form with sqrt(2) scaling so that packed
inner products equal trace inner products.
"""

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate

import numpy as np
import scipy.sparse as sp

from .errors import BoundaryOrExterior, EigenFailure, NoConvergence, Unsupported

SQRT2 = math.sqrt(2.0)

MU_MAX = 1e6  # largest smoothing weight the operators accept


class ConeKind(Enum):
    ZERO = "zero"
    NONNEGATIVE = "nonneg"
    SECOND_ORDER = "soc"
    PSD_TRIANGLE = "psd"
    EXPONENTIAL = "exp"
    POWER = "pow"


@dataclass(frozen=True)
class ConeSpec:
    """One cone block: kind, ambient dimension and parameters.

    PSD blocks are described by the matrix order; dim is the packed
    triangle length order*(order+1)/2.  Power cones carry the exponent
    alpha in (0, 1).
    """

    kind: ConeKind
    dim: int
    alpha: float | None = None
    order: int | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise Unsupported(f"cone dimension must be positive, got {self.dim}")
        CONES[self.kind].validate(self)

    @staticmethod
    def zero(n):
        return ConeSpec(ConeKind.ZERO, n)

    @staticmethod
    def nonnegative(n):
        return ConeSpec(ConeKind.NONNEGATIVE, n)

    @staticmethod
    def second_order(n):
        return ConeSpec(ConeKind.SECOND_ORDER, n)

    @staticmethod
    def psd_triangle(order):
        return ConeSpec(ConeKind.PSD_TRIANGLE, order * (order + 1) // 2, order=order)

    @staticmethod
    def exponential():
        return ConeSpec(ConeKind.EXPONENTIAL, 3)

    @staticmethod
    def power(alpha):
        return ConeSpec(ConeKind.POWER, 3, alpha=alpha)

    @property
    def degree(self):
        """Barrier degree nu; Zero contributes nothing."""
        return CONES[self.kind].degree(self)


# ---------------------------------------------------------------------------
# packed symmetric triangle


@lru_cache(maxsize=None)
def _triangle_indices(order):
    """Row/column index arrays for column-major upper-triangle packing."""
    jj, ii = np.tril_indices(order)  # row-major lower = column-major upper
    return ii, jj


def packed_dim(order):
    return order * (order + 1) // 2


def order_of_packed(dim):
    order = int(round((math.sqrt(8 * dim + 1) - 1) / 2))
    if packed_dim(order) != dim:
        raise Unsupported(f"{dim} is not a triangle number")
    return order


def svec(S):
    """Pack a symmetric matrix, scaling off-diagonals by sqrt(2)."""
    S = np.asarray(S, dtype=float)
    order = S.shape[0]
    ii, jj = _triangle_indices(order)
    v = S[ii, jj].copy()
    v[ii != jj] *= SQRT2
    return v


def smat(v):
    """Inverse of svec."""
    v = np.asarray(v, dtype=float)
    order = order_of_packed(v.shape[0])
    ii, jj = _triangle_indices(order)
    S = np.zeros((order, order))
    off = ii != jj
    w = v.copy()
    w[off] /= SQRT2
    S[ii, jj] = w
    S[jj, ii] = w
    return S


def _sym_kron(M):
    """Packed representation of V -> M V M for symmetric M."""
    order = M.shape[0]
    ii, jj = _triangle_indices(order)
    w = np.where(ii == jj, 1.0, SQRT2)
    Mik = M[np.ix_(ii, ii)]
    Mjl = M[np.ix_(jj, jj)]
    Mil = M[np.ix_(ii, jj)]
    Mjk = M[np.ix_(jj, ii)]
    H = 0.5 * (Mik * Mjl + Mil * Mjk)
    return H * np.outer(w, w)


def _eigh(S):
    try:
        d, U = np.linalg.eigh(S)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"eigendecomposition failed: {exc}") from None
    return d, U


# ---------------------------------------------------------------------------
# checked entry points: one interior test, then the kind's class


def is_interior(spec, s, margin=0.0):
    """Strict membership in int(K) with all defining inequalities > margin.

    Zero cones have empty interior; membership means s == 0 exactly.
    """
    s = np.asarray(s, dtype=float)
    if s.shape != (spec.dim,) or not np.all(np.isfinite(s)):
        return False
    return CONES[spec.kind].interior(spec, s, margin)


def dual_coords(spec, y):
    """Map a dual-cone point into primal-cone coordinates."""
    return CONES[spec.kind].dual_coords(spec, y)


def is_interior_dual(spec, y, margin=0.0):
    """Strict membership in int(K*); symmetric kinds are self-dual."""
    y = np.asarray(y, dtype=float)
    if y.shape != (spec.dim,) or not np.all(np.isfinite(y)):
        return False
    return CONES[spec.kind].interior_dual(spec, y, margin)


def _checked(formula, spec, s):
    """The kind's formula at s, once s has passed the interior test."""
    s = np.asarray(s, dtype=float)
    if not is_interior(spec, s, 0.0):
        raise BoundaryOrExterior(f"point is not strictly interior to {spec.kind.value}({spec.dim})")
    return getattr(CONES[spec.kind], formula)(spec, s)


def barrier_value(spec, s):
    """f(s) for strictly interior s."""
    return _checked("value", spec, s)


def barrier_gradient(spec, s):
    return _checked("gradient", spec, s)


def barrier_hessian(spec, s):
    """Dense Hessian of the barrier at strictly interior s."""
    return _checked("hessian", spec, s)


def barrier_hessian_inverse(spec, s):
    """Inverse Hessian; closed forms where available.

    Nonnegative blocks give a sparse CSC diagonal, which stores dim
    entries; every other kind gives a dense (dim, dim) array.
    """
    return _checked("hessian_inverse", spec, s)


def unit_point(spec):
    """Canonical interior pair (e_s, e_z) with e_z = -grad f(e_s)."""
    return CONES[spec.kind].unit_point(spec)


def conjugate_gradient(spec, y, hint=None):
    """Gradient of the conjugate barrier, grad f*(y), for y in int(K*).

    Satisfies grad f(-grad f*(y)) = -y and lies in -int(K).  hint, if
    interior, seeds the Newton solve on nonsymmetric cones (pass the
    previous -grad f*(y) when tracking a path).
    """
    y = np.asarray(y, dtype=float)
    if not is_interior_dual(spec, y, 0.0):
        raise BoundaryOrExterior(f"point is not strictly interior to the dual of {spec.kind.value}")
    return CONES[spec.kind].conjugate_gradient(spec, y, hint)


def conjugate_value(spec, y):
    """f*(y) = sup_s { -<y,s> - f(s) }."""
    sbar = -conjugate_gradient(spec, y)
    return float(-(y @ sbar) - barrier_value(spec, sbar))


# ---------------------------------------------------------------------------
# Newton solves: conjugate barrier, smoothing and projection homotopies

_LAMBDA_STAR = 2.0 - math.sqrt(3.0)


def _omega(t):
    return t - math.log1p(t)


def damped_newton_minimize(
    value,
    grad,
    hess,
    inside,
    s0,
    *,
    decrement_tol=1e-12,
    grad_tol=None,
    max_iters=100,
    collect_trace=False,
):
    """Damped Newton descent for a standard self-concordant objective.

    Steps of size 1/(1+lambda) are provably safe; a backtracking search
    first tries longer steps subject to the same omega(lambda) decrease
    guarantee and strict domain membership.  Returns (s, iters, trace)
    where trace rows are (decrement, objective, step) sampled before
    each step.

    The decrement criterion is authoritative.  grad_tol is a best-effort
    polish target: near a stiff boundary one ulp of the iterate can move
    the gradient by more than grad_tol, so once the decrement criterion
    holds the search gets two extra iterations to meet grad_tol and then
    accepts the point as float64-stationary.  Inside the quadratic tail
    (lambda <= 2 - sqrt(3)) exact arithmetic at least halves lambda per
    full step, so a run of steps without halving means the iterate sits
    on the float64 lattice floor and is likewise accepted.
    """
    s = np.asarray(s0, dtype=float).copy()
    if not inside(s):
        raise BoundaryOrExterior("newton start point is outside the domain")
    trace = []
    fs = value(s)
    if not math.isfinite(fs):
        raise NoConvergence("objective overflows at the start point")
    polish = 0
    best_lam = math.inf
    tail_stall = 0
    for it in range(max_iters):
        g = grad(s)
        H = hess(s)
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(H))):
            raise NoConvergence("derivatives overflow; no descent direction")
        try:
            d = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            d = np.linalg.lstsq(H, g, rcond=None)[0]
        lam2 = float(g @ d)
        if not math.isfinite(lam2):
            raise NoConvergence("newton decrement overflows")
        lam = math.sqrt(max(lam2, 0.0))
        if lam <= decrement_tol:
            done = (
                grad_tol is None
                or np.linalg.norm(g) <= grad_tol
                or polish >= 2
            )
            if done:
                if collect_trace:
                    trace.append((lam, fs, 0.0))
                return s, it, trace
            polish += 1
        else:
            polish = 0
        if lam <= _LAMBDA_STAR:
            tail_stall = 0 if lam <= 0.5 * best_lam else tail_stall + 1
            if tail_stall >= 8:
                if collect_trace:
                    trace.append((lam, fs, 0.0))
                return s, it, trace
        best_lam = min(best_lam, lam)
        slack = 1e-12 * max(1.0, abs(fs))
        need = _omega(lam)
        alpha = None
        if lam <= _LAMBDA_STAR:
            # the full step keeps quadratic contraction, but its worst-case
            # decrease falls short of omega(lambda) by ~lambda^4/2 near the
            # phase boundary; gating on the decrease means the damped
            # fallback restores the guarantee whenever that bites
            trial = s - d
            if inside(trial) and value(trial) <= fs - need + slack:
                alpha, s_new = 1.0, trial
        if alpha is None:
            a = 1.0
            floor = 1.0 / (1.0 + lam)
            while a > floor:
                trial = s - a * d
                if inside(trial) and value(trial) <= fs - need + slack:
                    alpha, s_new = a, trial
                    break
                a *= 0.8
            if alpha is None:
                a = floor
                while a > 1e-14:
                    trial = s - a * d
                    if inside(trial):
                        ft = value(trial)
                        if ft <= fs - need + slack or ft < fs:
                            alpha, s_new = a, trial
                            break
                    a *= 0.8
            if alpha is None:
                if lam <= decrement_tol:
                    # converged in decrement; no float64 step can improve
                    if collect_trace:
                        trace.append((lam, fs, 0.0))
                    return s, it, trace
                raise NoConvergence("newton line search stalled")
        if collect_trace:
            trace.append((lam, fs, alpha))
        s = s_new
        fs = value(s)
    raise NoConvergence(f"newton did not converge in {max_iters} iterations")


@dataclass
class SmoothingResult:
    """Output of one smoothing solve.

    optimality_residual is ||s - c + mu*grad f(s)|| evaluated with the
    stable per-cone kernel; newton_iters is zero on analytic paths.
    trace rows (decrement, objective, step) are kept only on request,
    with the objective normalized by min(mu, 1) so that the standard
    damped-Newton decrease inequality applies for every mu.
    """

    s: np.ndarray
    newton_iters: int
    optimality_residual: float
    trace: list | None = None


def _smoothing_newton(c, mu, oracles, s0, collect_trace):
    """Damped Newton on (0.5||s-c||^2 + mu*f(s)) / min(mu, 1).

    For mu >= 1 the objective itself is standard self-concordant; for
    mu < 1 only the normalized version is, so decrements and the
    omega-decrease rule are taken on that scaling.
    """
    value, grad, hess, inside = oracles
    mt = min(mu, 1.0)
    norm_c = max(1.0, float(np.linalg.norm(c)))

    def phi(s):
        d = s - c
        return (0.5 * float(d @ d) + mu * value(s)) / mt

    def phi_grad(s):
        return (s - c + mu * grad(s)) / mt

    def phi_hess(s):
        H = mu * hess(s)
        H[np.diag_indices_from(H)] += 1.0
        return H / mt

    return damped_newton_minimize(
        phi, phi_grad, phi_hess, inside, s0,
        decrement_tol=1e-10 / math.sqrt(mt), grad_tol=1e-9 * norm_c / mt,
        max_iters=100, collect_trace=collect_trace,
    )


_PATH_MUS = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14)


def _project_path(c, oracles, s0):
    """Interior-point homotopy: follow smooth(c, mu) as mu -> 0."""
    s = np.asarray(s0, dtype=float)
    for mu in _PATH_MUS:
        s, _, _ = _smoothing_newton(c, mu, oracles, s, False)
    return s


# ---------------------------------------------------------------------------
# one class per cone kind


class Cone:
    """The formulas of one cone kind; every method takes the block's ConeSpec.

    Apart from validate, degree, the interior tests and the operators
    on arbitrary targets (smooth*, project*), methods assume a point
    strictly inside the cone, or inside its dual for conjugate_gradient.
    """

    takes_alpha = takes_order = False

    def validate(self, spec):
        if spec.alpha is not None and not self.takes_alpha:
            raise Unsupported("alpha is only valid for power cones")
        if spec.order is not None and not self.takes_order:
            raise Unsupported("order is only valid for psd cones")

    def dual_coords(self, spec, y):
        return y

    def interior_dual(self, spec, y, margin):
        return is_interior(spec, self.dual_coords(spec, y), margin)

    def oracles(self, spec):
        """(value, gradient, Hessian, interior test) for damped_newton_minimize,
        which calls the first three only on points the interior test passed."""
        return (
            lambda s: self.value(spec, s),
            lambda s: self.gradient(spec, s),
            lambda s: self.hessian(spec, s),
            lambda s: is_interior(spec, s, 0.0),
        )

    def smooth_newton(self, spec, c, mu, hint=None, collect_trace=False):
        """Newton route of prox_{mu f}(c); see smoothing.smooth_newton."""
        if float(np.max(np.abs(c))) > 1e100:
            raise NoConvergence("smoothing target exceeds the float64 working range")
        oracles = self.oracles(spec)
        s, iters = None, 0
        if hint is not None and is_interior(spec, hint, 0.0):
            try:
                s, iters, trace = _smoothing_newton(c, mu, oracles, hint, collect_trace)
            except NoConvergence:
                pass  # retried along the continuation below
        if s is None:
            s, _ = self.unit_point(spec)
            # the damped phase shrinks the normalized objective by a fixed
            # amount per step, so the start must keep the initial gap O(1):
            # at mu ~ ||c||^2 the barrier term dominates and the unit point
            # qualifies, then each factor-10 rung stays in the Newton basin
            lead = min(max(1e-2, float(c @ c)), MU_MAX)
            while lead > mu:
                s, k, _ = _smoothing_newton(c, lead, oracles, s, False)
                iters += k
                lead *= 0.1
            s, k, trace = _smoothing_newton(c, mu, oracles, s, collect_trace)
            iters += k
        resid = float(np.linalg.norm(s - c + mu * self.gradient(spec, s)))
        return SmoothingResult(s, iters, resid, trace if collect_trace else None)

    smooth = smooth_newton  # kinds with a closed form override smooth


class ZeroCone(Cone):
    """{0}: no interior and no barrier; its dual is the whole space."""

    def degree(self, spec):
        return 0

    def interior(self, spec, s, margin):
        return bool(np.all(s == 0.0))

    def interior_dual(self, spec, y, margin):
        return True

    def no_barrier(self, spec, *args, **kwargs):
        raise Unsupported("zero cones carry no barrier")

    value = gradient = hessian = hessian_inverse = no_barrier
    unit_point = conjugate_gradient = smooth = smooth_newton = no_barrier

    def project(self, spec, c):
        return np.zeros_like(c)

    def project_dual(self, spec, c):
        return c.copy()


class SelfDualCone(Cone):
    """Nonnegative, second-order and PSD cones: K* = K and f*(y) = f(y) + const."""

    def conjugate_gradient(self, spec, y, hint=None):
        return self.gradient(spec, y)

    def project_dual(self, spec, c):
        return self.project(spec, c)


def _nn_root(c, mu):
    """Componentwise root s = (c + sqrt(c^2 + 4 mu)) / 2, cancellation free."""
    r = np.sqrt(c * c + 4.0 * mu)
    out = 0.5 * (c + r)
    neg = c < 0.0
    if np.any(neg):
        # rationalized form; r - c cannot cancel when c < 0
        out[neg] = 2.0 * mu / (r[neg] - c[neg])
    return out


class NonnegativeCone(SelfDualCone):
    def degree(self, spec):
        return spec.dim

    def interior(self, spec, s, margin):
        return bool(np.min(s) > margin)

    def value(self, spec, s):
        return float(-np.sum(np.log(s)))

    def gradient(self, spec, s):
        return -1.0 / s

    def hessian(self, spec, s):
        return np.diag(1.0 / s**2)

    def hessian_inverse(self, spec, s):
        return sp.diags(s**2, format="csc")

    def unit_point(self, spec):
        e = np.ones(spec.dim)
        return e, e.copy()

    def smooth(self, spec, c, mu, hint=None):
        s = _nn_root(c, mu)
        return SmoothingResult(s, 0, float(np.linalg.norm(s - c - mu / s)))

    def project(self, spec, c):
        return np.maximum(c, 0.0)


class SecondOrderCone(SelfDualCone):
    # below this, the leading entry of a smoothing target counts as zero
    # and the boundary-active closed form applies
    C0_TINY = 1e-13

    def validate(self, spec):
        super().validate(spec)
        if spec.dim < 2:
            raise Unsupported("second-order cone needs dimension >= 2")

    def degree(self, spec):
        return 1

    def interior(self, spec, s, margin):
        return bool(s[0] - np.linalg.norm(s[1:]) > margin)

    def value(self, spec, s):
        t = s[0] ** 2 - float(s[1:] @ s[1:])
        return float(-0.5 * math.log(t))

    def gradient(self, spec, s):
        g = s / (s[0] ** 2 - float(s[1:] @ s[1:]))
        g[0] = -g[0]
        return g

    def hessian(self, spec, s):
        t = s[0] ** 2 - float(s[1:] @ s[1:])
        J = np.diag(np.r_[1.0, -np.ones(spec.dim - 1)])
        Js = J @ s
        return -J / t + 2.0 * np.outer(Js, Js) / t**2

    def hessian_inverse(self, spec, s):
        t = s[0] ** 2 - float(s[1:] @ s[1:])
        J = np.diag(np.r_[1.0, -np.ones(spec.dim - 1)])
        return 2.0 * np.outer(s, s) - t * J

    def unit_point(self, spec):
        e = np.zeros(spec.dim)
        e[0] = 1.0
        return e, e.copy()

    def smooth(self, spec, c, mu, hint=None):
        """Closed form; ts = s0^2 - ||s1||^2 enters the residual.

        The solution satisfies s0 = rho/(rho-1) c0 and s1 = rho/(rho+1) c1
        where gamma = rho + 1/rho solves gamma^2 - beta*gamma - delta = 0,
        beta = (c0^2-||c1||^2)/mu, delta = 2(c0^2+||c1||^2)/mu + 4.  We
        recover eps = gamma - 2 from eps^2 + (4-beta)*eps - 4 c0^2/mu = 0,
        whose constant term is exact, so no catastrophic cancellation
        occurs for small c0.
        """
        c0, c1 = float(c[0]), c[1:]
        nc1 = float(np.linalg.norm(c1))
        s = np.empty_like(c)
        if abs(c0) <= self.C0_TINY * max(1.0, nc1):
            s[1:] = 0.5 * c1
            s[0] = math.sqrt(mu + 0.25 * nc1 * nc1)
            ts = mu
        else:
            beta = (c0 - nc1) * (c0 + nc1) / mu
            q = 4.0 - beta
            w = 16.0 * c0 * c0 / mu
            rad = math.sqrt(q * q + w)
            eps = w / (2.0 * (q + rad)) if q >= 0.0 else 0.5 * (rad - q)
            gamma = 2.0 + eps
            sq = math.sqrt(eps * (4.0 + eps))
            if c0 > 0.0:
                rho = 0.5 * (gamma + sq)
                s[0] = (gamma + sq) / (eps + sq) * c0
                s[1:] = (gamma + sq) / (gamma + sq + 2.0) * c1
            else:
                rho = 2.0 / (gamma + sq)
                s[0] = -2.0 * c0 / (eps + sq)
                s[1:] = 2.0 / (gamma + sq + 2.0) * c1
            ts = mu * rho
        r = np.empty_like(s)
        r[0] = s[0] - c[0] - mu * s[0] / ts
        r[1:] = s[1:] - c[1:] + mu * s[1:] / ts
        return SmoothingResult(s, 0, float(np.linalg.norm(r)))

    def project(self, spec, c):
        c0, c1 = c[0], c[1:]
        nc1 = float(np.linalg.norm(c1))
        if c0 >= nc1:
            return c.copy()
        if c0 <= -nc1:
            return np.zeros_like(c)
        t = 0.5 * (c0 + nc1)
        out = np.empty_like(c)
        out[0] = t
        out[1:] = t * c1 / nc1
        return out


class PsdTriangleCone(SelfDualCone):
    takes_order = True

    def validate(self, spec):
        super().validate(spec)
        if spec.order is None or spec.order < 1:
            raise Unsupported("psd cone needs a positive matrix order")
        if spec.dim != spec.order * (spec.order + 1) // 2:
            raise Unsupported(f"psd dim {spec.dim} does not match order {spec.order}")

    def degree(self, spec):
        return spec.order

    def interior(self, spec, s, margin):
        d, _ = _eigh(smat(s))
        return bool(d[0] > margin)

    def value(self, spec, s):
        d, _ = _eigh(smat(s))
        return float(-np.sum(np.log(d)))

    def gradient(self, spec, s):
        d, U = _eigh(smat(s))
        return -svec((U / d) @ U.T)

    def hessian(self, spec, s):
        d, U = _eigh(smat(s))
        return _sym_kron((U / d) @ U.T)

    def hessian_inverse(self, spec, s):
        return _sym_kron(smat(s))

    def unit_point(self, spec):
        e = svec(np.eye(spec.order))
        return e, e.copy()

    def smooth(self, spec, c, mu, hint=None):
        """Eigenvalue smoothing: the nonnegative root on the spectrum of C."""
        d, U = _eigh(smat(c))
        e = _nn_root(d, mu)
        s = svec((U * e) @ U.T)
        return SmoothingResult(s, 0, float(np.linalg.norm(e - d - mu / e)))

    def project(self, spec, c):
        d, U = _eigh(smat(c))
        return svec((U * np.maximum(d, 0.0)) @ U.T)


class NonsymmetricCone(Cone):
    """Exponential and power cones in R^3.

    Both barriers are f = -log u - c1 log x1 - c2 log x2: each kind
    supplies u with its derivatives up to an order, the weights
    (c1, c2), the slack its interior test bounds, a unit point and the
    linear map M with y in int(K*) iff M y in int(K).  Conjugate
    gradients, smoothing and projections run damped Newton on those.
    """

    def validate(self, spec):
        super().validate(spec)
        if spec.dim != 3:
            raise Unsupported(f"{spec.kind.value} cone lives in R^3")

    def degree(self, spec):
        return 3

    def interior(self, spec, s, margin):
        # x1, x2 > 0 first: the slack takes their logarithm or power
        return bool(s[0] > margin and s[1] > margin and self.slack(spec, s) > margin)

    def dual_coords(self, spec, y):
        return self.dual_map(spec) @ y

    def value(self, spec, s):
        x1, x2, _ = s
        c1, c2 = self.weights(spec)
        return float(-math.log(self.u(spec, s)) - c1 * math.log(x1) - c2 * math.log(x2))

    def gradient(self, spec, s):
        x1, x2, _ = s
        c1, c2 = self.weights(spec)
        u, du = self.u(spec, s, order=1)
        g = -du / u
        g[0] -= c1 / x1
        g[1] -= c2 / x2
        return g

    def hessian(self, spec, s):
        x1, x2, _ = s
        c1, c2 = self.weights(spec)
        u, du, d2u = self.u(spec, s, order=2)
        H = np.outer(du, du) / u**2 - d2u / u
        H[0, 0] += c1 / x1**2
        H[1, 1] += c2 / x2**2
        return H

    def hessian_inverse(self, spec, s):
        w, U = np.linalg.eigh(self.hessian(spec, s))
        # the exact Hessian is positive definite, so eigenvalues at rounding
        # scale are noise; flooring them keeps the inverse finite when the
        # point rides the boundary and plain inversion would break down
        w = np.maximum(w, float(w[-1]) * 1e-14)
        return (U / w) @ U.T

    def conjugate_gradient(self, spec, y, hint=None):
        # minimize <y, s> + f(s) over int K
        if hint is not None and is_interior(spec, hint, 0.0):
            s0 = hint
        else:
            e_s, _ = self.unit_point(spec)
            s0 = e_s * (spec.degree / float(y @ e_s))
        value, grad, hess, inside = self.oracles(spec)
        sbar, _, _ = damped_newton_minimize(
            lambda s: float(y @ s) + value(s), lambda s: y + grad(s), hess, inside, s0,
            decrement_tol=1e-12, grad_tol=1e-10 * max(1.0, float(np.linalg.norm(y))),
        )
        return -sbar

    def project(self, spec, c):
        return _project_path(c, self.oracles(spec), self.unit_point(spec)[0])

    def project_dual(self, spec, c):
        # the dual cone is M^-1 K, so the same homotopy runs on the
        # pulled-back barrier y -> f(M y), independent of project()
        M = self.dual_map(spec)
        _, e_z = self.unit_point(spec)
        oracles = (
            lambda y: self.value(spec, M @ y),
            lambda y: M.T @ self.gradient(spec, M @ y),
            lambda y: M.T @ self.hessian(spec, M @ y) @ M,
            lambda y: is_interior(spec, M @ y, 0.0),
        )
        return _project_path(c, oracles, e_z)


# Interior point of the exponential cone mapped (approximately) onto
# itself by s -> -grad f(s); the dual pairing is computed at runtime.
_EXP_UNIT = (1.290928, 0.805102, -0.827838)
_EXP_DUAL_MAP = np.array([[math.e, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, -1.0, 0.0]])


class ExponentialCone(NonsymmetricCone):
    """cl{x : x2 > 0, x1 >= x2 exp(x3/x2)}, with u = x2 log(x1/x2) - x3."""

    def weights(self, spec):
        return 1.0, 1.0

    def u(self, spec, s, order=0):
        x1, x2, x3 = s
        L = math.log(x1 / x2)
        u = x2 * L - x3
        if order == 0:
            return u
        du = np.array([x2 / x1, L - 1.0, -1.0])
        if order == 1:
            return u, du
        d2u = np.array(
            [[-x2 / x1**2, 1.0 / x1, 0.0], [1.0 / x1, -1.0 / x2, 0.0], [0.0, 0.0, 0.0]]
        )
        return u, du, d2u

    slack = u

    def unit_point(self, spec):
        e_s = np.array(_EXP_UNIT)
        return e_s, -self.gradient(spec, e_s)

    def dual_map(self, spec):
        return _EXP_DUAL_MAP


class PowerCone(NonsymmetricCone):
    """{x : x1, x2 >= 0, x1^a x2^(1-a) >= |x3|}, with u = (x1^a x2^(1-a))^2 - x3^2."""

    takes_alpha = True

    def validate(self, spec):
        super().validate(spec)
        if spec.alpha is None or not (0.0 < spec.alpha < 1.0):
            raise Unsupported(f"power cone needs alpha in (0,1), got {spec.alpha}")

    def weights(self, spec):
        return 1 - spec.alpha, spec.alpha

    def slack(self, spec, s):
        x1, x2, x3 = s
        a = spec.alpha
        return x1**a * x2 ** (1.0 - a) - abs(x3)

    def u(self, spec, s, order=0):
        x1, x2, x3 = s
        a = spec.alpha
        # factored through v = x1^a x2^(1-a), the same primitive the
        # membership test uses, so interior points never see u <= 0
        v = x1**a * x2 ** (1.0 - a)
        u = (v - abs(x3)) * (v + abs(x3))
        if order == 0:
            if u <= 0.0:
                raise BoundaryOrExterior("power cone point is too close to the boundary")
            return u
        A = v * v
        du = np.array([2 * a * A / x1, 2 * (1 - a) * A / x2, -2 * x3])
        if order == 1:
            return u, du
        d2u = np.array(
            [
                [2 * a * (2 * a - 1) * A / x1**2, 4 * a * (1 - a) * A / (x1 * x2), 0.0],
                [4 * a * (1 - a) * A / (x1 * x2), 2 * (1 - a) * (1 - 2 * a) * A / x2**2, 0.0],
                [0.0, 0.0, -2.0],
            ]
        )
        return u, du, d2u

    def unit_point(self, spec):
        a = spec.alpha
        e_s = np.array([math.sqrt(1.0 + a), math.sqrt(2.0 - a), 0.0])
        return e_s, -self.gradient(spec, e_s)

    def dual_map(self, spec):
        return np.diag([1.0 / spec.alpha, 1.0 / (1.0 - spec.alpha), 1.0])


CONES = {
    ConeKind.ZERO: ZeroCone(),
    ConeKind.NONNEGATIVE: NonnegativeCone(),
    ConeKind.SECOND_ORDER: SecondOrderCone(),
    ConeKind.PSD_TRIANGLE: PsdTriangleCone(),
    ConeKind.EXPONENTIAL: ExponentialCone(),
    ConeKind.POWER: PowerCone(),
}


# ---------------------------------------------------------------------------
# products


class ConeProduct:
    """Ordered product of cone blocks with slice bookkeeping.

    barrier_blocks lists (k, spec, slice) of every block but the Zero ones.
    """

    def __init__(self, blocks):
        self.blocks = tuple(blocks)
        offs = [0, *accumulate(spec.dim for spec in self.blocks)]
        self._slices = tuple(slice(a, b) for a, b in zip(offs, offs[1:]))
        self.dim = offs[-1]
        self.degree = sum(b.degree for b in self.blocks)
        self.barrier_blocks = tuple(
            (k, spec, sl)
            for k, (spec, sl) in enumerate(zip(self.blocks, self._slices))
            if spec.degree
        )

    def __iter__(self):
        return iter(self.blocks)

    def __len__(self):
        return len(self.blocks)

    def __eq__(self, other):
        return isinstance(other, ConeProduct) and self.blocks == other.blocks

    def __repr__(self):
        inner = ", ".join(
            f"{b.kind.value}({b.order or b.dim}"
            + (f", alpha={b.alpha}" if b.alpha is not None else "")
            + ")"
            for b in self.blocks
        )
        return f"ConeProduct[{inner}]"

    def slices(self):
        return self._slices

    def split(self, v):
        return [v[sl] for sl in self._slices]

    def is_interior(self, s, margin=0.0):
        """Blockwise strict interiority; Zero blocks require exact zeros."""
        return all(
            is_interior(spec, s[sl], margin)
            for spec, sl in zip(self.blocks, self._slices)
        )

    def is_interior_dual(self, z, margin=0.0):
        return all(
            is_interior_dual(spec, z[sl], margin)
            for spec, sl in zip(self.blocks, self._slices)
        )

    def unit_points(self):
        """Concatenated (e_s, e_z); Zero blocks contribute zeros."""
        e_s = np.zeros(self.dim)
        e_z = np.zeros(self.dim)
        for _, spec, sl in self.barrier_blocks:
            e_s[sl], e_z[sl] = unit_point(spec)
        return e_s, e_z
