"""Cone descriptions and logarithmically homogeneous barrier kernels.

Every supported cone carries a barrier f with degree nu, meaning
f(t*s) = f(s) - nu*log(t) on the interior.  The kernels here expose
value/gradient/Hessian, strict-interiority tests for the cone and its
dual, canonical interior unit points, and conjugate-barrier gradients.
Symmetric matrix blocks travel in packed triangle form with sqrt(2)
scaling so that packed inner products equal trace inner products.
"""

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .errors import BoundaryOrExterior, EigenFailure, NoConvergence, Unsupported

SQRT2 = math.sqrt(2.0)

# Interior point of the exponential cone mapped (approximately) onto
# itself by s -> -grad f(s); the dual pairing is computed at runtime.
_EXP_UNIT = (1.290928, 0.805102, -0.827838)


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
        if self.kind is ConeKind.SECOND_ORDER and self.dim < 2:
            raise Unsupported("second-order cone needs dimension >= 2")
        if self.kind in (ConeKind.EXPONENTIAL, ConeKind.POWER) and self.dim != 3:
            raise Unsupported(f"{self.kind.value} cone lives in R^3")
        if self.kind is ConeKind.POWER:
            if self.alpha is None or not (0.0 < self.alpha < 1.0):
                raise Unsupported(f"power cone needs alpha in (0,1), got {self.alpha}")
        elif self.alpha is not None:
            raise Unsupported(f"alpha is only valid for power cones")
        if self.kind is ConeKind.PSD_TRIANGLE:
            if self.order is None or self.order < 1:
                raise Unsupported("psd cone needs a positive matrix order")
            if self.dim != self.order * (self.order + 1) // 2:
                raise Unsupported(
                    f"psd dim {self.dim} does not match order {self.order}"
                )
        elif self.order is not None:
            raise Unsupported("order is only valid for psd cones")

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
        if self.kind is ConeKind.ZERO:
            return 0
        if self.kind is ConeKind.NONNEGATIVE:
            return self.dim
        if self.kind is ConeKind.SECOND_ORDER:
            return 1
        if self.kind is ConeKind.PSD_TRIANGLE:
            return self.order
        return 3


# ---------------------------------------------------------------------------
# packed symmetric triangle


@lru_cache(maxsize=None)
def _triangle_indices(order):
    """Row/column index arrays for column-major upper-triangle packing."""
    ii, jj = [], []
    for j in range(order):
        for i in range(j + 1):
            ii.append(i)
            jj.append(j)
    return np.array(ii), np.array(jj)


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
# interiority


def is_interior(spec, s, margin=0.0):
    """Strict membership in int(K) with all defining inequalities > margin.

    Zero cones have empty interior; membership means s == 0 exactly.
    """
    s = np.asarray(s, dtype=float)
    if s.shape != (spec.dim,) or not np.all(np.isfinite(s)):
        return False
    kind = spec.kind
    if kind is ConeKind.ZERO:
        return bool(np.all(s == 0.0))
    if kind is ConeKind.NONNEGATIVE:
        return bool(np.min(s) > margin)
    if kind is ConeKind.SECOND_ORDER:
        return bool(s[0] - np.linalg.norm(s[1:]) > margin)
    if kind is ConeKind.PSD_TRIANGLE:
        d, _ = _eigh(smat(s))
        return bool(d[0] > margin)
    if kind is ConeKind.EXPONENTIAL:
        x1, x2, x3 = s
        if x1 <= margin or x2 <= margin:
            return False
        return bool(x2 * math.log(x1 / x2) - x3 > margin)
    # power
    x1, x2, x3 = s
    if x1 <= margin or x2 <= margin:
        return False
    a = spec.alpha
    return bool(x1**a * x2 ** (1.0 - a) - abs(x3) > margin)


# Linear maps identifying the dual exponential / power cones with the
# primal ones: y in int(K*) iff map @ y in int(K).
_EXP_DUAL_MAP = np.array(
    [[math.e, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, -1.0, 0.0]]
)


def _pow_dual_map(alpha):
    return np.diag([1.0 / alpha, 1.0 / (1.0 - alpha), 1.0])


def dual_coords(spec, y):
    """Map a dual-cone point into primal-cone coordinates."""
    if spec.kind is ConeKind.EXPONENTIAL:
        return _EXP_DUAL_MAP @ y
    if spec.kind is ConeKind.POWER:
        return _pow_dual_map(spec.alpha) @ y
    return y


def is_interior_dual(spec, y, margin=0.0):
    """Strict membership in int(K*); symmetric kinds are self-dual."""
    y = np.asarray(y, dtype=float)
    if y.shape != (spec.dim,) or not np.all(np.isfinite(y)):
        return False
    if spec.kind is ConeKind.ZERO:
        return True  # dual of {0} is everything
    return is_interior(spec, dual_coords(spec, y), margin)


def _require_interior(spec, s, what="point"):
    if not is_interior(spec, s, 0.0):
        raise BoundaryOrExterior(
            f"{what} is not strictly interior to {spec.kind.value}({spec.dim})"
        )


# ---------------------------------------------------------------------------
# barrier kernels


def barrier_value(spec, s):
    """f(s) for strictly interior s."""
    s = np.asarray(s, dtype=float)
    _require_interior(spec, s)
    kind = spec.kind
    if kind is ConeKind.ZERO:
        raise Unsupported("zero cones carry no barrier")
    if kind is ConeKind.NONNEGATIVE:
        return float(-np.sum(np.log(s)))
    if kind is ConeKind.SECOND_ORDER:
        t = s[0] ** 2 - float(s[1:] @ s[1:])
        return float(-0.5 * math.log(t))
    if kind is ConeKind.PSD_TRIANGLE:
        d, _ = _eigh(smat(s))
        return float(-np.sum(np.log(d)))
    if kind is ConeKind.EXPONENTIAL:
        x1, x2, x3 = s
        u = x2 * math.log(x1 / x2) - x3
        return float(-math.log(u) - math.log(x1) - math.log(x2))
    x1, x2, x3 = s
    a = spec.alpha
    # factored through v = x1^a x2^(1-a), the same primitive the
    # membership test uses, so interior points never see u <= 0
    v = x1**a * x2 ** (1.0 - a)
    u = (v - abs(x3)) * (v + abs(x3))
    if u <= 0.0:
        raise BoundaryOrExterior("power cone point is too close to the boundary")
    return float(-math.log(u) - (1 - a) * math.log(x1) - a * math.log(x2))


def barrier_gradient(spec, s):
    s = np.asarray(s, dtype=float)
    _require_interior(spec, s)
    kind = spec.kind
    if kind is ConeKind.ZERO:
        raise Unsupported("zero cones carry no barrier")
    if kind is ConeKind.NONNEGATIVE:
        return -1.0 / s
    if kind is ConeKind.SECOND_ORDER:
        t = s[0] ** 2 - float(s[1:] @ s[1:])
        g = np.empty_like(s)
        g[0] = -s[0] / t
        g[1:] = s[1:] / t
        return g
    if kind is ConeKind.PSD_TRIANGLE:
        d, U = _eigh(smat(s))
        Sinv = (U / d) @ U.T
        return -svec(Sinv)
    if kind is ConeKind.EXPONENTIAL:
        x1, x2, x3 = s
        L = math.log(x1 / x2)
        u = x2 * L - x3
        return np.array(
            [-(x2 / x1) / u - 1.0 / x1, -(L - 1.0) / u - 1.0 / x2, 1.0 / u]
        )
    x1, x2, x3 = s
    a = spec.alpha
    v = x1**a * x2 ** (1.0 - a)
    A = v * v
    u = (v - abs(x3)) * (v + abs(x3))
    du = np.array([2 * a * A / x1, 2 * (1 - a) * A / x2, -2 * x3])
    g = -du / u
    g[0] -= (1 - a) / x1
    g[1] -= a / x2
    return g


def barrier_hessian(spec, s):
    """Dense Hessian of the barrier at strictly interior s."""
    s = np.asarray(s, dtype=float)
    _require_interior(spec, s)
    kind = spec.kind
    if kind is ConeKind.ZERO:
        raise Unsupported("zero cones carry no barrier")
    if kind is ConeKind.NONNEGATIVE:
        return np.diag(1.0 / s**2)
    if kind is ConeKind.SECOND_ORDER:
        t = s[0] ** 2 - float(s[1:] @ s[1:])
        J = np.diag(np.r_[1.0, -np.ones(spec.dim - 1)])
        Js = J @ s
        return -J / t + 2.0 * np.outer(Js, Js) / t**2
    if kind is ConeKind.PSD_TRIANGLE:
        d, U = _eigh(smat(s))
        Sinv = (U / d) @ U.T
        return _sym_kron(Sinv)
    if kind is ConeKind.EXPONENTIAL:
        x1, x2, x3 = s
        L = math.log(x1 / x2)
        u = x2 * L - x3
        du = np.array([x2 / x1, L - 1.0, -1.0])
        d2u = np.array(
            [[-x2 / x1**2, 1.0 / x1, 0.0], [1.0 / x1, -1.0 / x2, 0.0], [0.0, 0.0, 0.0]]
        )
        H = np.outer(du, du) / u**2 - d2u / u
        H[0, 0] += 1.0 / x1**2
        H[1, 1] += 1.0 / x2**2
        return H
    x1, x2, x3 = s
    a = spec.alpha
    v = x1**a * x2 ** (1.0 - a)
    A = v * v
    u = (v - abs(x3)) * (v + abs(x3))
    du = np.array([2 * a * A / x1, 2 * (1 - a) * A / x2, -2 * x3])
    d2u = np.array(
        [
            [2 * a * (2 * a - 1) * A / x1**2, 4 * a * (1 - a) * A / (x1 * x2), 0.0],
            [4 * a * (1 - a) * A / (x1 * x2), 2 * (1 - a) * (1 - 2 * a) * A / x2**2, 0.0],
            [0.0, 0.0, -2.0],
        ]
    )
    H = np.outer(du, du) / u**2 - d2u / u
    H[0, 0] += (1 - a) / x1**2
    H[1, 1] += a / x2**2
    return H


def barrier_hessian_inverse(spec, s):
    """Inverse Hessian; closed forms where available.

    Nonnegative blocks give a sparse CSC diagonal, which stores dim
    entries; every other kind gives a dense (dim, dim) array.
    """
    s = np.asarray(s, dtype=float)
    _require_interior(spec, s)
    kind = spec.kind
    if kind is ConeKind.NONNEGATIVE:
        return sp.diags(s**2, format="csc")
    if kind is ConeKind.SECOND_ORDER:
        t = s[0] ** 2 - float(s[1:] @ s[1:])
        J = np.diag(np.r_[1.0, -np.ones(spec.dim - 1)])
        return 2.0 * np.outer(s, s) - t * J
    if kind is ConeKind.PSD_TRIANGLE:
        return _sym_kron(smat(s))
    w, U = np.linalg.eigh(barrier_hessian(spec, s))
    # the exact Hessian is positive definite, so eigenvalues at rounding
    # scale are noise; flooring them keeps the inverse finite when the
    # point rides the boundary and plain inversion would break down
    w = np.maximum(w, float(w[-1]) * 1e-14)
    return (U / w) @ U.T


# ---------------------------------------------------------------------------
# canonical interior points


def unit_point(spec):
    """Canonical interior pair (e_s, e_z) with e_z = -grad f(e_s)."""
    kind = spec.kind
    if kind is ConeKind.ZERO:
        raise Unsupported("zero cones have no interior unit point")
    if kind is ConeKind.NONNEGATIVE:
        e = np.ones(spec.dim)
        return e, e.copy()
    if kind is ConeKind.SECOND_ORDER:
        e = np.zeros(spec.dim)
        e[0] = 1.0
        return e, e.copy()
    if kind is ConeKind.PSD_TRIANGLE:
        e = svec(np.eye(spec.order))
        return e, e.copy()
    if kind is ConeKind.EXPONENTIAL:
        e_s = np.array(_EXP_UNIT)
    else:
        a = spec.alpha
        e_s = np.array([math.sqrt(1.0 + a), math.sqrt(2.0 - a), 0.0])
    e_z = -barrier_gradient(spec, e_s)
    return e_s, e_z


# ---------------------------------------------------------------------------
# conjugate barrier

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


def conjugate_gradient(spec, y, hint=None):
    """Gradient of the conjugate barrier, grad f*(y), for y in int(K*).

    Satisfies grad f(-grad f*(y)) = -y and lies in -int(K).  hint, if
    interior, seeds the Newton solve on nonsymmetric cones (pass the
    previous -grad f*(y) when tracking a path).
    """
    y = np.asarray(y, dtype=float)
    kind = spec.kind
    if kind is ConeKind.ZERO:
        raise Unsupported("zero cones carry no conjugate barrier")
    if kind in (ConeKind.NONNEGATIVE, ConeKind.SECOND_ORDER, ConeKind.PSD_TRIANGLE):
        # self-dual with f*(y) = f(y) + const, so the gradients agree
        return barrier_gradient(spec, y)
    if not is_interior_dual(spec, y, 0.0):
        raise BoundaryOrExterior(
            f"point is not strictly interior to the dual of {spec.kind.value}"
        )
    # exponential / power: minimize <y, s> + f(s) over int K
    if hint is not None and is_interior(spec, hint, 0.0):
        s0 = np.asarray(hint, dtype=float)
    else:
        e_s, _ = unit_point(spec)
        s0 = e_s * (spec.degree / float(y @ e_s))
    sbar, _, _ = damped_newton_minimize(
        lambda s: float(y @ s) + barrier_value(spec, s),
        lambda s: y + barrier_gradient(spec, s),
        lambda s: barrier_hessian(spec, s),
        lambda s: is_interior(spec, s, 0.0),
        s0,
        decrement_tol=1e-12,
        grad_tol=1e-10 * max(1.0, float(np.linalg.norm(y))),
    )
    return -sbar


def conjugate_value(spec, y):
    """f*(y) = sup_s { -<y,s> - f(s) }."""
    sbar = -conjugate_gradient(spec, y)
    return float(-(y @ sbar) - barrier_value(spec, sbar))


# ---------------------------------------------------------------------------
# products


class ConeProduct:
    """Ordered product of cone blocks with slice bookkeeping."""

    def __init__(self, blocks):
        self.blocks = tuple(blocks)
        offs = [0]
        for spec in self.blocks:
            offs.append(offs[-1] + spec.dim)
        self._offsets = tuple(offs)

    def __iter__(self):
        return iter(self.blocks)

    def __len__(self):
        return len(self.blocks)

    def __eq__(self, other):
        return isinstance(other, ConeProduct) and self.blocks == other.blocks

    def __repr__(self):
        inner = ", ".join(
            f"{b.kind.value}({b.order if b.kind is ConeKind.PSD_TRIANGLE else b.dim}"
            + (f", alpha={b.alpha}" if b.kind is ConeKind.POWER else "")
            + ")"
            for b in self.blocks
        )
        return f"ConeProduct[{inner}]"

    @property
    def dim(self):
        return self._offsets[-1]

    @property
    def degree(self):
        return sum(b.degree for b in self.blocks)

    def slices(self):
        return [
            slice(self._offsets[k], self._offsets[k + 1])
            for k in range(len(self.blocks))
        ]

    def split(self, v):
        return [v[sl] for sl in self.slices()]

    def is_interior(self, s, margin=0.0):
        """Blockwise strict interiority; Zero blocks require exact zeros."""
        return all(
            is_interior(spec, s[sl], margin)
            for spec, sl in zip(self.blocks, self.slices())
        )

    def is_interior_dual(self, z, margin=0.0):
        return all(
            is_interior_dual(spec, z[sl], margin)
            for spec, sl in zip(self.blocks, self.slices())
        )

    def unit_points(self):
        """Concatenated (e_s, e_z); Zero blocks contribute zeros."""
        e_s = np.zeros(self.dim)
        e_z = np.zeros(self.dim)
        for spec, sl in zip(self.blocks, self.slices()):
            if spec.kind is ConeKind.ZERO:
                continue
            bs, bz = unit_point(spec)
            e_s[sl] = bs
            e_z[sl] = bz
        return e_s, e_z
