"""Cone descriptions, logarithmically homogeneous barriers and their operators.

Every supported cone carries a barrier f with degree nu, meaning
f(t*s) = f(s) - nu*log(t) on the interior.  Each ConeKind has one class
below, found through CONES, that holds every formula of its kind:
validation, degree, interior test, step bound, barrier derivatives, unit
point, conjugate gradient, the smoothing and projection operators that
smoothing.py exposes, and the block's scaling in K: hessian_inverse
gives it, grad f(s) and the term's state from one evaluation of the
rows of s and z, with grad f*(z) given (Scaling), and ipm builds K and
its right side from it without knowing the kind.  The nonnegative and
second-order kinds give their Nesterov-Todd scaling W^2, with W^2 z = s,
and Mehrotra's term of the combined step (corrector), which ipm applies
only where every barrier kind gives one.  The power cone gives the
primal-dual scaling W^2, with W^2 z = s and W^2 grad f(s) = grad f*(z),
off the central path and H(s_i)^-1/mu_i on it (_primal_dual); the
exponential and PSD kinds give H(s_i)^-1/mu_i, each taking its own path
parameter mu_i.  None of these three has a term.

The formulas work on stacks.  A stack is a (k, dim) array whose rows
are k points of one cone; formulas give one result per row: (k,) values
and interior tests, (k, dim) gradients, (k, dim, dim) Hessians.  A
ConeProduct groups each run of consecutive blocks with an equal ConeSpec
into one batch, and a batch's slice of s or z, reshaped to (k, dim), is
such a stack, so one call covers the whole batch.  The exponential
cone's smoothing and smooth_newton run one masked damped Newton over the
rows of a stack (_newton.py), with one derivatives call per step for the
gradient and Hessian together: each row keeps its own step, tests and
exit, and a row that fails does not stop the others.  The nonsymmetric
conjugate gradients and the power cone's smoothing solve one increasing
scalar equation per row, all rows in one bracketed Halley iteration
whose equations give their first and second derivatives in closed form.
The nonsymmetric kinds' inverse Hessians are closed forms too, from an
LDL' factorization of each 3 x 3 row (NonsymmetricCone._inverse):
no eigendecomposition runs unless a row's pivots fail.  A nonsymmetric
kind projects by its own smoothing of the unit-scaled target, scaled
back, and onto its dual cone by the Moreau identity.

One interior test per point.  The module functions (is_interior,
barrier_gradient, conjugate_gradient, ...) are the checked entry points,
for warmstart, smoothing and users.  They take one point (dim,) or a
stack (k, dim) -- one point is the k = 1 case of the same code -- test
interiority once (require_interior) and look the class up.  Class
methods assume tested rows, so whatever has tested a point calls them
directly: the Newton loops, and ipm, whose only membership tests are
ConeProduct.is_interior and is_interior_dual on its start and trial
points.  A ConeProduct binds each batch's class once (_Batch.cone).
Symmetric matrix blocks travel in packed triangle form with sqrt(2)
scaling so that packed inner products equal trace inner products.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from itertools import accumulate, groupby
from typing import NamedTuple

import numpy as np

from ._newton import bracketed_root, smoothing_newton
from ._newton import norms as _norms
from .errors import BoundaryOrExterior, EigenFailure, NoConvergence, Unsupported

SQRT2 = math.sqrt(2.0)

MU_MAX = 1e6  # largest smoothing weight the operators accept
PROJECTION_MU = 1e-14  # smoothing weight of a projection, on its unit-scaled target


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
    """Pack a symmetric matrix, or a stack of them, scaling off-diagonals by sqrt(2)."""
    S = np.asarray(S, dtype=float)
    ii, jj = _triangle_indices(S.shape[-1])
    v = S[..., ii, jj]
    v[..., ii != jj] *= SQRT2
    return v


def smat(v):
    """Inverse of svec."""
    v = np.asarray(v, dtype=float)
    order = order_of_packed(v.shape[-1])
    ii, jj = _triangle_indices(order)
    S = np.zeros(v.shape[:-1] + (order, order))
    w = v.copy()
    w[..., ii != jj] /= SQRT2
    S[..., ii, jj] = w
    S[..., jj, ii] = w
    return S


def _sym_kron(M):
    """Packed representation of V -> M V M for symmetric M, per matrix of a stack."""
    ii, jj = _triangle_indices(M.shape[-1])
    w = np.where(ii == jj, 1.0, SQRT2)
    Mik = M[..., ii[:, None], ii[None, :]]
    Mjl = M[..., jj[:, None], jj[None, :]]
    Mil = M[..., ii[:, None], jj[None, :]]
    Mjk = M[..., jj[:, None], ii[None, :]]
    H = 0.5 * (Mik * Mjl + Mil * Mjk)
    return H * np.outer(w, w)


def _eigh(S):
    try:
        d, U = np.linalg.eigh(S)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"eigendecomposition failed: {exc}") from None
    return d, U


def _t(M):
    """Transpose of every matrix of a stack."""
    return M.transpose(0, 2, 1)


def _symmetric3(a11, a12, a13, a22, a23, a33):
    """The stack of symmetric 3 x 3 matrices with these upper triangles, one (k,) array each."""
    return np.array([a11, a12, a13, a12, a22, a23, a13, a23, a33]).T.reshape(-1, 3, 3)


# ---------------------------------------------------------------------------
# checked entry points: one interior test, then the kind's class


def _interior_rows(test, spec, S):
    """test on the rows of a stack; a row with a non-finite entry is not interior."""
    # skipping the mask on a finite stack nearly halves a short test.  The
    # solver's iterations run this only in the exp/pow dual test: at seed
    # 1, 2.1 times each on hmcr-pow, never on svm-l1-lp or rebalance-soc
    if np.isfinite(S).all():
        return test(spec, S)
    ok = np.isfinite(S).all(axis=1)
    if ok.any():
        ok[ok] = test(spec, S[ok])
    return ok


def _membership(test, spec, s):
    """_interior_rows for a point (dim,), which gets a bool, or a stack (k, dim).

    A wrong shape is not interior.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim not in (1, 2) or s.shape[-1] != spec.dim:
        return False
    ok = _interior_rows(test, spec, s.reshape(-1, spec.dim))
    return bool(ok[0]) if s.ndim == 1 else ok


def is_interior(spec, s):
    """Strict membership in int(K): every defining inequality > 0.

    Zero cones have empty interior; membership means s == 0 exactly.
    A stack gets one answer per row.
    """
    return _membership(CONES[spec.kind].interior, spec, s)


def dual_coords(spec, y):
    """Map a dual-cone point, or each row of a stack, into primal-cone coordinates."""
    return CONES[spec.kind].dual_coords(spec, np.asarray(y, dtype=float))


def is_interior_dual(spec, y):
    """Strict membership in int(K*); symmetric kinds are self-dual."""
    return _membership(CONES[spec.kind].interior_dual, spec, y)


def require_interior(spec, s, dual=False):
    """s as a stack (k, dim) once every row has passed the interior test of K, or of K*.

    Raises BoundaryOrExterior otherwise, a wrong shape included.  The
    checked entry points run it once before the kind's formula.
    """
    s = np.asarray(s, dtype=float)
    cone = CONES[spec.kind]
    if not np.all(_membership(cone.interior_dual if dual else cone.interior, spec, s)):
        where = f"the dual of {spec.kind.value}" if dual else f"{spec.kind.value}({spec.dim})"
        raise BoundaryOrExterior(f"point is not strictly interior to {where}")
    return s.reshape(-1, spec.dim)


def _checked(formula, spec, s, *args):
    """The kind's formula on every row of a point or stack once each row has
    passed the interior test of K; one point gets its row."""
    out = getattr(CONES[spec.kind], formula)(spec, require_interior(spec, s), *args)
    return out[0] if np.ndim(s) == 1 else out


def barrier_value(spec, s):
    """f(s) for strictly interior s."""
    return _checked("value", spec, s)


def barrier_gradient(spec, s):
    return _checked("gradient", spec, s)


def barrier_hessian(spec, s):
    """Dense Hessian of the barrier at strictly interior s."""
    return _checked("hessian", spec, s)


@dataclass(frozen=True)
class Scaling:
    """A block's scaling per row of a stack, in the one form ipm's KKT matrix takes.

    The scaling is the Nesterov-Todd W^2, with W^2 z = s, for a
    nonnegative coordinate (s/z) and a second-order block (P(w) =
    2ww' - rJ at the Nesterov-Todd point w), the primal-dual W^2, with
    W^2 z = s and W^2 grad f(s) = grad f*(z), for a power block off the
    central path (_primal_dual), and H(s)^-1/mu_i for an exponential or
    PSD block and a power block on the path.  It is blockdiag(blocks) +
    sum_c U_c U_c'/pivots[c] per row.  blocks is (k, dim/w, w, w): dense
    w x w blocks along the row's coordinates, a diagonal at w = 1.  lifts
    is (k, c, dim), the c columns U_c, which ipm lifts into rows of K of
    their own, with pivots (k, c), signs[c]*mu_i, as their entries of K's
    diagonal D.  mu_i is <s_i, z_i>/nu_i for each nonnegative coordinate
    and each second-order, exponential or power block, the global mu for
    a PSD block.  The same evaluation gives gradient, grad f(s) per row,
    and point, what the kind's term reads (Cone.corrector): SOC's (w, r,
    det lambda) (SecondOrderCone._nt_point), empty for the other kinds.
    Indexing gives one row's form, as the other kernels give a point its row.
    """

    blocks: np.ndarray
    lifts: np.ndarray
    pivots: np.ndarray
    signs: tuple
    gradient: np.ndarray
    point: tuple = ()

    def __getitem__(self, i):
        return replace(self, blocks=self.blocks[i], lifts=self.lifts[i], pivots=self.pivots[i],
                       gradient=self.gradient[i], point=tuple(p[i] for p in self.point))


def _unlifted(blocks, G):
    """The Scaling of blocks (k, dim/w, w, w) and gradients G (k, dim), with no lifted column."""
    return Scaling(blocks, np.zeros((len(G), 0, G.shape[-1])), np.zeros((len(G), 0)), (), G)


def _path_parameters(S, Z, degree):
    """mu_i = <s_i, z_i>/nu_i per row, the products summed left to right."""
    return np.add.accumulate(S * Z, axis=1)[:, -1] / degree


def barrier_hessian_inverse(spec, s, z, mu):
    """The block's Scaling (Scaling) once s has passed the interior test of K and z, of
    s's shape, that of K*; mu is the global path parameter, which only PSD reads.

    The kind's kernel also takes grad f*(z), which the power cone's scaling
    reads; this entry point computes it, so it raises what conjugate_gradient
    raises."""
    if np.shape(z) != np.shape(s):
        raise BoundaryOrExterior(f"z has shape {np.shape(z)}, s {np.shape(s)}")
    Z = require_interior(spec, z, dual=True)
    return _checked("hessian_inverse", spec, s, Z, mu, CONES[spec.kind].conjugate_gradient(spec, Z))


def unit_point(spec):
    """Canonical interior pair (e_s, e_z) with e_z = -grad f(e_s)."""
    return CONES[spec.kind].unit_point(spec)


def conjugate_gradient(spec, y):
    """Gradient of the conjugate barrier, grad f*(y), for y in int(K*).

    Satisfies grad f(-grad f*(y)) = -y and lies in -int(K).  Self-dual
    kinds have it in closed form; exponential and power cones solve one
    scalar equation per row.  Raises BoundaryOrExterior if a row is not
    strictly inside K*, and NoConvergence if a row's point -grad f*(y)
    leaves the float64 range (its u overflows or underflows, as for
    |y| ~ 1e300 on a power cone).
    """
    out = CONES[spec.kind].conjugate_gradient(spec, require_interior(spec, y, dual=True))
    return out[0] if np.ndim(y) == 1 else out


def conjugate_value(spec, y):
    """f*(y) = sup_s { -<y,s> - f(s) }."""
    sbar = -conjugate_gradient(spec, y)
    return -np.vecdot(y, sbar) - barrier_value(spec, sbar)


# ---------------------------------------------------------------------------
# smoothing results


_OUT_OF_RANGE = "smoothing target exceeds the float64 working range"
_NOT_INTERIOR = "no strictly interior smoothing point found in float64"


def _working_rows(C):
    """The mask of rows of C inside the float64 working range, and errors naming the others."""
    todo = ~(np.max(np.abs(C), axis=1) > 1e100)
    return todo, [None if ok else _OUT_OF_RANGE for ok in todo]


@dataclass
class SmoothingResult:
    """Output of one smoothing solve, or of one per row of a stack.

    optimality_residual is ||s - c + mu*grad f(s)|| evaluated with the
    stable per-cone kernel; newton_iters is zero on analytic paths.
    trace rows (decrement, objective, step) are kept only on request,
    with the objective normalized by min(mu, 1) so that the standard
    damped-Newton decrease inequality applies for every mu.  For a
    stack, s is (k, dim), newton_iters and optimality_residual hold one
    entry per row and trace one list per row.  A row holds NaN in s and
    optimality_residual exactly when its solve failed: a Newton row that
    did not converge, a row whose point is not strictly interior, or any
    row whose target leaves the float64 range.
    """

    s: np.ndarray
    newton_iters: int
    optimality_residual: float
    trace: list | None = None


# ---------------------------------------------------------------------------
# one class per cone kind


class Cone:
    """The formulas of one cone kind; every method takes the block's ConeSpec.

    Points arrive as stacks (k, dim), one point per row.  Apart from
    validate, degree, the interior tests and the operators on arbitrary
    targets (smooth*, project*), methods assume rows that passed the
    interior test: of K, or of K* for conjugate_gradient.
    interior(spec, S) and interior_dual(spec, Y) tell per row whether
    every defining inequality of K, resp. K*, is > 0.
    step_bound(spec, V, D) gives per row an upper bound on the alpha
    with V + alpha*D strictly inside, inf when nothing binds; a row of
    V outside the cone gets a bound that is still valid, or inf.
    unit_s, unit_point and project* take and give single points.
    hessian_inverse(spec, S, Z, mu, GZ) gives the rows' Scaling from the
    rows of s and z, the global mu and GZ = grad f*(z) per row, which
    only the power cone's scaling reads.
    """

    takes_alpha = takes_order = False

    def validate(self, spec):
        if spec.alpha is not None and not self.takes_alpha:
            raise Unsupported("alpha is only valid for power cones")
        if spec.order is not None and not self.takes_order:
            raise Unsupported("order is only valid for psd cones")

    def dual_coords(self, spec, y):
        return y

    def interior_dual(self, spec, Y):
        return _interior_rows(self.interior, spec, self.dual_coords(spec, Y))

    def derivatives(self, spec, S):
        """(gradients, Hessians) of the barrier on a stack."""
        return self.gradient(spec, S), self.hessian(spec, S)

    # corrector(spec, H, Z, DS, DZ): Mehrotra's second-order term on the
    # z-rows of the combined step, from the iterate's Scaling H and rows Z
    # and the affine direction DS, DZ.  A kind defines it once its block of
    # K is its Nesterov-Todd scaling, as the nonnegative and second-order
    # kinds' are; None says it has none, which leaves the product uncorrected
    corrector = None

    def oracles(self, spec):
        """(value, derivatives, interior test) on stacks, for the Newton
        solves, which call the first two only on rows the interior test passed."""
        return (
            lambda S: self.value(spec, S),
            lambda S: self.derivatives(spec, S),
            lambda S: is_interior(spec, S),
        )

    def smooth_newton(self, spec, C, mu, hint=None, collect_trace=False):
        """Newton route of prox_{mu f}(c) for every row of C; see smoothing.smooth_newton.

        mu holds one weight per row and hint, if given, one candidate
        start per row.  Returns (SmoothingResult, errors): errors[i] is
        None or the NoConvergence message of row i, whose s is NaN.
        """
        k = len(C)
        oracles = self.oracles(spec)
        S = np.full(C.shape, np.nan)
        iters = np.zeros(k, dtype=int)
        traces = [None] * k
        todo, errors = _working_rows(C)

        def solve(rows, weights, start, trace):
            """One Newton solve per row; records each row's outcome, returns the converged mask."""
            out, its, trs, errs = smoothing_newton(C[rows], weights, oracles, start, trace)
            ok = np.array([e is None for e in errs], dtype=bool)
            S[rows[ok]] = out[ok]
            iters[rows[ok]] += its[ok]
            for j, i in enumerate(rows):
                errors[i] = errs[j]
                if trace and ok[j]:
                    traces[i] = trs[j]
            return ok

        if hint is not None:
            r = np.flatnonzero(todo)
            r = r[is_interior(spec, hint[r])]
            if r.size:
                # a row whose hint solve fails is retried along the continuation
                todo[r[solve(r, mu[r], hint[r], collect_trace)]] = False
        r = np.flatnonzero(todo)
        if r.size:
            # the damped phase shrinks the normalized objective by a fixed
            # amount per step, so the start must keep the initial gap O(1):
            # at mu ~ ||c||^2 the barrier term dominates and the unit point
            # qualifies, then each factor-10 rung stays in the Newton basin
            S[r] = self.unit_s(spec)
            lead = np.minimum(np.maximum(1e-2, np.vecdot(C[r], C[r])), MU_MAX)
            alive = np.ones(r.size, dtype=bool)
            while (rung := alive & (lead > mu[r])).any():
                alive[rung] = solve(r[rung], lead[rung], S[r[rung]], False)
                lead[rung] *= 0.1
            if alive.any():
                solve(r[alive], mu[r[alive]], S[r[alive]], collect_trace)
        traces = traces if collect_trace else None
        return self._smoothing_result(spec, C, mu, S, iters, errors, traces)

    def _smoothing_result(self, spec, C, mu, S, iters, errors, traces=None):
        """(SmoothingResult, errors): NaN in failed rows, ||s - c + mu*grad f(s)|| in the others."""
        failed = np.array([e is not None for e in errors], dtype=bool)
        S[failed] = np.nan
        resid = np.full(len(S), np.nan)
        if not failed.all():
            R = S[~failed] - C[~failed] + mu[~failed, None] * self.gradient(spec, S[~failed])
            resid[~failed] = _norms(R)
        return SmoothingResult(S, iters, resid, traces), errors

    smooth = smooth_newton  # the exponential cone; the other kinds override smooth

    def project_dual(self, spec, c):
        """The Moreau identity c = proj_K(c) - proj_K*(-c), solved for proj_K*(c)."""
        return c + self.project(spec, -c)


class ZeroCone(Cone):
    """{0}: no interior and no barrier; its dual is the whole space."""

    def degree(self, spec):
        return 0

    def interior(self, spec, S):
        return np.all(S == 0.0, axis=1)

    def interior_dual(self, spec, Y):
        return np.ones(len(Y), dtype=bool)

    def no_barrier(self, spec, *args, **kwargs):
        raise Unsupported("zero cones carry no barrier")

    value = gradient = hessian = hessian_inverse = no_barrier
    unit_s = unit_point = conjugate_gradient = smooth = smooth_newton = no_barrier

    def project(self, spec, c):
        return np.zeros_like(c)


class SelfDualCone(Cone):
    """Nonnegative, second-order and PSD cones: K* = K and f*(y) = f(y) + const."""

    def interior_dual(self, spec, Y):
        return self.interior(spec, Y)

    def unit_point(self, spec):
        e = self.unit_s(spec)
        return e, e.copy()

    def conjugate_gradient(self, spec, Y):
        return self.gradient(spec, Y)

    def project_dual(self, spec, c):
        return self.project(spec, c)

    def _closed_form(self, spec, S, residual):
        """A closed-form smoothing result S, with no Newton steps; residual() gives each row's.

        A row fails alone, as a Newton row does (NaN in s and
        optimality_residual, and a message), if the interior test rejects
        it: a non-finite entry, or a boundary point rounded onto at mu
        near the float floor.
        """
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            resid = residual()
        finite = np.isfinite(S).all(axis=1)
        inside = _interior_rows(self.interior, spec, S)
        S[~inside] = resid[~inside] = np.nan
        errors = [
            None if ok else _NOT_INTERIOR if f else _OUT_OF_RANGE for ok, f in zip(inside, finite)
        ]
        return SmoothingResult(S, np.zeros(len(S), dtype=int), resid), errors


def _nn_root(c, mu):
    """Componentwise root s = (c + sqrt(c^2 + 4 mu)) / 2, cancellation free.

    With q = |c| + sqrt(c^2 + 4 mu), a sum of nonnegative terms, s = q/2
    for c >= 0 and, rationalized, s = 2 mu/q for c < 0: neither cancels.
    c^2 overflows from |c| ~ 1.3e154 on; q is then inf, and the caller's
    interior test judges the row, with no warning.
    """
    with np.errstate(over="ignore"):
        q = np.abs(c) + np.sqrt(c * c + 4.0 * mu)
    return np.where(c < 0.0, 2.0 * mu / q, 0.5 * q)


def _ratio_test(V, D):
    """Per row, the largest alpha with every entry of V + alpha*D positive: min of V/-D over D < 0."""
    return np.divide(V, -D, out=np.full(V.shape, np.inf), where=D < 0.0).min(axis=1)


def _quadratic(X, det, Y):
    """P(x) y = 2 x <x, y> - det(x) J y per row, given det(x) = x0^2 - ||x1||^2 per row:
    x's quadratic representation in the second-order cone's algebra."""
    out = 2.0 * np.vecdot(X, Y)[:, None] * X
    out[:, 0] -= det * Y[:, 0]
    out[:, 1:] += det[:, None] * Y[:, 1:]
    return out


class NonnegativeCone(SelfDualCone):
    def degree(self, spec):
        return spec.dim

    def interior(self, spec, S):
        return np.min(S, axis=1) > 0.0

    def step_bound(self, spec, V, D):
        return _ratio_test(V, D)

    def value(self, spec, S):
        return -np.sum(np.log(S), axis=1)

    def gradient(self, spec, S):
        return -1.0 / S

    def hessian(self, spec, S):
        H = np.zeros((len(S), spec.dim, spec.dim))
        i = np.arange(spec.dim)
        H[:, i, i] = 1.0 / S**2
        return H

    def hessian_inverse(self, spec, S, Z, mu, GZ):
        """The diagonal s^2/(s z), each coordinate's mu_j = s_j z_j: the Nesterov-Todd
        s_j/z_j (Nesterov & Todd, Math. OR 1997)."""
        return _unlifted((S**2 / (S * Z))[:, :, None, None], self.gradient(spec, S))

    def corrector(self, spec, H, Z, DS, DZ):
        """ds*dz/z: z ds + s dz = sigma mu - s z - ds_aff dz_aff, divided by z as K's s/z is.

        The general W L(lambda)^-1 ((W^-1 ds) o (W dz)) with W = sqrt(s/z)
        and lambda = sqrt(s z) reduces to it, with no use of s."""
        return DS * DZ / Z

    def unit_s(self, spec):
        return np.ones(spec.dim)

    def smooth(self, spec, C, mu, hint=None):
        S = _nn_root(C, mu[:, None])
        return self._closed_form(spec, S, lambda: _norms(S - C - mu[:, None] / S))

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

    def _signs(self, spec):
        """The diagonal of J = diag(1, -1, ..., -1)."""
        j = -np.ones(spec.dim)
        j[0] = 1.0
        return j

    def interior(self, spec, S):
        return S[:, 0] - _norms(S[:, 1:]) > 0.0

    def step_bound(self, spec, V, D):
        """The smaller positive root of q(alpha) = (v0 + alpha d0)^2 - ||v1 + alpha d1||^2.

        q = gap + 2 b alpha + a alpha^2 is positive on the interior, so its
        smallest positive root is where the ray leaves the cone.  With
        r = sqrt(b^2 - a gap), that root is gap/(r - b) for b < 0 and
        (b + r)/(-a) for b >= 0, a < 0: neither form cancels.  No real root
        (r is NaN), or b >= 0 with a >= 0, leaves the ray inside: inf.
        gap is (v0 - ||v1||)(v0 + ||v1||), whose first factor is the
        interior test's own, so a row that passes the test has gap > 0;
        a row that fails it gets inf.
        """
        v0 = V[:, 0]
        nv1 = _norms(V[:, 1:])
        inside = v0 - nv1
        gap = inside * (v0 + nv1)
        JD = -D
        JD[:, 0] = D[:, 0]
        a = np.vecdot(JD, D)
        b = np.vecdot(JD, V)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.sqrt(b * b - a * gap)
            alpha = np.where(b < 0.0, gap / (r - b), (b + r) / -a)
        return np.where((alpha > 0.0) & (inside > 0.0), alpha, np.inf)

    def value(self, spec, S):
        return -0.5 * np.log(self._det(S))

    def gradient(self, spec, S):
        G = S / self._det(S)[:, None]
        G[:, 0] = -G[:, 0]
        return G

    def hessian(self, spec, S):
        """-J/t + 2 (Js)(Js)'/t^2, with J's diagonal added in place."""
        t = self._det(S)[:, None]
        j = self._signs(spec)
        JS = S * j
        H = 2.0 * (JS[:, :, None] * JS[:, None, :]) / (t**2)[:, :, None]
        i = np.arange(spec.dim)
        H[:, i, i] += -j / t
        return H

    def _det(self, S):
        """det s = (s0 - ||s1||)(s0 + ||s1||) per row, a product of two positive factors inside."""
        n = _norms(S[:, 1:])
        return (S[:, 0] - n) * (S[:, 0] + n)

    def _nt_point(self, S, Z):
        """The Nesterov-Todd point w per row, with r = det w and det(lambda) (corrector).

        With a = det s, c = det z, p = <s, z> and r = sqrt(a/c),
        w = (s + r J z)/sqrt(2 (p + sqrt(ac))), whose det is r; P(w) =
        2ww' - rJ satisfies P(w) z = s and P(w) grad f(s) = grad f*(z)
        (Nesterov & Todd, Math. OR 1997; Vandenberghe, "The CVXOPT linear
        and quadratic cone program solvers", 2010, sec. 4).  P(x) =
        2xx' - det(x) J is the quadratic representation of x (_quadratic).
        lambda = P(w^1/2) z has det r c = sqrt(a) sqrt(c).
        """
        ra, rc = np.sqrt(self._det(S)), np.sqrt(self._det(Z))
        r = ra / rc
        W = Z * r[:, None]
        W[:, 1:] = -W[:, 1:]
        W += S
        W /= np.sqrt(2.0 * (np.vecdot(S, Z) + ra * rc))[:, None]
        return W, r, ra * rc

    def hessian_inverse(self, spec, S, Z, mu, GZ):
        """The Nesterov-Todd W^2 = P(w) = 2ww' - rJ (_nt_point) split by its eigenvectors: the
        diagonal r I and the lifts u (pivot +mu_i) and v (pivot -mu_i) of sqrt(mu_i) w, with
        mu_i = <s, z> for the whole block.

        With n = ||w1||, u = sqrt(mu_i n (w0 + n)) (1, w1/n) and
        v = sqrt(mu_i n (w0 - n)) (1, -w1/n), so that (uu' - vv')/mu_i =
        2ww' - 2r e0 e0'; both are 0 at n = 0.  w0 - n is taken as
        r/(w0 + n), from det w = r, so the diagonal is r itself and never
        a difference: a w formed by subtraction rounds out of the cone.
        Then r - ||v||^2/(2 mu_i) = r w0/(w0 + n) > 0 in floats, and
        ipm's lifted KKT block stays quasi-definite.  W^2 z = s, so the
        right side's W^2 (z + sigma mu grad f(s)) is s - sigma mu z^-1,
        the Nesterov-Todd one.
        """
        point = w, r, _ = self._nt_point(S, Z)
        mu_i = _path_parameters(S, Z, 1)
        n = _norms(w[:, 1:])
        high = w[:, 0] + n
        low = r / high
        unit = w[:, 1:] / np.where(n > 0.0, n, 1.0)[:, None]  # w1/n, 0 at n = 0
        out = np.empty((len(S), 3, spec.dim))
        out[:, 0] = r[:, None]
        lifts = ((1, np.sqrt(mu_i * n * high), 1.0), (2, np.sqrt(mu_i * n * low), -1.0))
        for row, scale, sign in lifts:
            out[:, row, 0] = scale
            out[:, row, 1:] = (sign * scale)[:, None] * unit
        signs, G = (1.0, -1.0), self.gradient(spec, S)
        return Scaling(out[:, 0, :, None, None], out[:, 1:], mu_i[:, None] * signs, signs, G, point)

    def corrector(self, spec, H, Z, DS, DZ):
        """W L(lambda)^-1 ((W^-1 ds) o (W dz)) per row, with W = P(v), v = w^1/2 and lambda = W z.

        In the scaled coordinates W^-1 s = W z = lambda the linearized
        complementarity lambda o (W^-1 ds + W dz) = sigma mu e - lambda o lambda
        gains -(W^-1 ds_aff) o (W dz_aff); solved for ds, that is
        -W L(lambda)^-1 of it, which enters K's z-rows as ds does
        (Vandenberghe 2010, sec. 5).  x o y = (x'y, x0 y1 + y0 x1) is the
        Jordan product and L(lambda) y = lambda o y.  With d = det v =
        sqrt(r), v = (w + d e)/sqrt(2 (w0 + d)), W^-1 = P(v^-1) and
        v^-1 = Jv/d.  L(lambda)^-1 y is x with x0 = (lambda0 y0 -
        lambda1'y1)/det(lambda) and x1 = (y1 - x0 lambda1)/lambda0.
        """
        w, r, det_lam = H.point  # hessian_inverse's _nt_point at the same (s, z)
        d = np.sqrt(r)
        V = w.copy()
        V[:, 0] += d
        V /= np.sqrt(2.0 * V[:, 0])[:, None]
        V_inv = V / d[:, None]
        V_inv[:, 1:] = -V_inv[:, 1:]
        lam = _quadratic(V, d, Z)
        X, Y = _quadratic(V_inv, 1.0 / d, DS), _quadratic(V, d, DZ)
        # y = (W^-1 ds) o (W dz), then L(lambda)^-1 y
        y0 = np.vecdot(X, Y)
        y1 = X[:, :1] * Y[:, 1:] + Y[:, :1] * X[:, 1:]
        out = np.empty_like(Y)
        out[:, 0] = (lam[:, 0] * y0 - np.vecdot(lam[:, 1:], y1)) / det_lam
        out[:, 1:] = (y1 - out[:, :1] * lam[:, 1:]) / lam[:, :1]
        return _quadratic(V, d, out)

    def unit_s(self, spec):
        e = np.zeros(spec.dim)
        e[0] = 1.0
        return e

    def smooth(self, spec, C, mu, hint=None):
        """Closed form per row; ts = s0^2 - ||s1||^2 enters the residual.

        The solution satisfies s0 = rho/(rho-1) c0 and s1 = rho/(rho+1) c1
        where gamma = rho + 1/rho solves gamma^2 - beta*gamma - delta = 0,
        beta = (c0^2-||c1||^2)/mu, delta = 2(c0^2+||c1||^2)/mu + 4.  We
        recover eps = gamma - 2 from eps^2 + (4-beta)*eps - 4 c0^2/mu = 0,
        whose constant term is exact, so no catastrophic cancellation
        occurs for small c0.  Rows with c0 ~ 0 take the boundary-active
        form s = (sqrt(mu + ||c1||^2/4), c1/2).
        """
        c0, c1 = C[:, 0], C[:, 1:]
        nc1 = _norms(c1)
        on_axis = np.abs(c0) <= self.C0_TINY * np.maximum(1.0, nc1)
        pos = c0 > 0.0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            beta = (c0 - nc1) * (c0 + nc1) / mu
            q = 4.0 - beta
            w = 16.0 * c0 * c0 / mu
            rad = np.sqrt(q * q + w)
            eps = np.where(q >= 0.0, w / (2.0 * (q + rad)), 0.5 * (rad - q))
            gamma = 2.0 + eps
            sq = np.sqrt(eps * (4.0 + eps))
            rho = np.where(pos, 0.5 * (gamma + sq), 2.0 / (gamma + sq))
            s0 = np.where(pos, (gamma + sq) / (eps + sq) * c0, -2.0 * c0 / (eps + sq))
            f1 = np.where(pos, (gamma + sq) / (gamma + sq + 2.0), 2.0 / (gamma + sq + 2.0))
        S = np.empty_like(C)
        S[:, 0] = np.where(on_axis, np.sqrt(mu + 0.25 * nc1 * nc1), s0)
        S[:, 1:] = np.where(on_axis, 0.5, f1)[:, None] * c1
        ts = np.where(on_axis, mu, mu * rho)[:, None]
        j = self._signs(spec)
        return self._closed_form(spec, S, lambda: _norms(S - C - mu[:, None] * S / ts * j))

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

    def _inverse(self, S):
        """X^-1 of every packed row, from its eigendecomposition."""
        d, U = _eigh(smat(S))
        return (U / d[:, None, :]) @ _t(U)

    def interior(self, spec, S):
        d, _ = _eigh(smat(S))
        return d[:, 0] > 0.0

    def step_bound(self, spec, V, D):
        """-1/lambda_min of S^-1/2 dS S^-1/2 where lambda_min < 0, else inf.

        S^-1/2 dS S^-1/2 has the spectrum of L^-1 dS L^-T, S = LL'; S^-1/2
        comes from an eigendecomposition of S, the one the interior test
        computes, done again here.  A row that fails that test gets inf.  Non-finite entries of dS are
        read as 0, which the eigensolver takes: such a direction passes
        no trial, whatever its bound.
        """
        d, U = _eigh(smat(V))
        W = U / np.sqrt(np.where(d > 0.0, d, 1.0))[:, None, :]
        lam = _eigh(_t(W) @ smat(np.where(np.isfinite(D), D, 0.0)) @ W)[0][:, 0]
        with np.errstate(divide="ignore"):
            alpha = np.where(lam < 0.0, -1.0 / lam, np.inf)
        return np.where(d[:, 0] > 0.0, alpha, np.inf)

    def value(self, spec, S):
        d, _ = _eigh(smat(S))
        return -np.sum(np.log(d), axis=1)

    def gradient(self, spec, S):
        return -svec(self._inverse(S))

    def hessian(self, spec, S):
        return _sym_kron(self._inverse(S))

    def hessian_inverse(self, spec, S, Z, mu, GZ):
        """Dense H^-1/mu with the global mu, the one kernel that reads it: with its own
        mu_i, the order-30 trace-one SDP (.github/repro_rows.py) ends NumericalError at
        25 iterations, every trial rejected by proximity; with mu it ends Optimal in 19."""
        return _unlifted(_sym_kron(smat(S))[:, None] / mu, self.gradient(spec, S))

    def unit_s(self, spec):
        return svec(np.eye(spec.order))

    def smooth(self, spec, C, mu, hint=None):
        """Eigenvalue smoothing: the nonnegative root on the spectrum of each C."""
        d, U = _eigh(smat(C))
        e = _nn_root(d, mu[:, None])
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite e fails the row
            S = svec((U * e[:, None, :]) @ _t(U))
        return self._closed_form(spec, S, lambda: _norms(e - d - mu[:, None] / e))

    def project(self, spec, c):
        d, U = _eigh(smat(c))
        return svec((U * np.maximum(d, 0.0)) @ U.T)


_SQRT_EPS = math.sqrt(np.finfo(float).eps)
_NEXT, _PREV = [1, 2, 0], [2, 0, 1]  # the cyclic neighbours of each coordinate in R^3


def _outer(U):
    """u u' per row of a (k, 3) stack."""
    return U[:, :, None] * U[:, None, :]


def _primal_dual(S, Z, G, GZ, mu_i, h):
    """(W, kept): the primal-dual scaling W^2 per row, and the mask of rows that keep
    H(s)^-1/mu_i instead, where W holds no meaningful value.

    With s~ = -grad f*(z), z~ = -grad f(s), ds = s - mu_i s~, dz = z - mu_i z~
    and a = z x z~ (GZ, G and h, H(s)'s upper triangle, are the row's),

        W^2 = s s'/<s, z> + ds ds'/<ds, dz> + a a'/(mu_i a'H(s)a),

    which is symmetric and satisfies W^2 z = s and W^2 grad f(s) = grad f*(z):
    <s~, z> = <s, z~> = 3 by logarithmic homogeneity, so <ds, z> = 0 and
    <ds, z~> = -<ds, dz>/mu_i, and a is orthogonal to z and z~.  It is the
    two-sided BFGS update S (S'Z)^-1 S' + B - B Z (Z'B Z)^-1 Z'B of
    B = H(s)^-1/mu_i, with S = (s, s~) and Z = (z, z~) (Tuncel, Found.
    Comput. Math. 2001; Myklebust & Tuncel, arXiv 1411.2129; Dahl &
    Andersen, Math. Program. 2022): in R^3, B's part is the rank-one
    a a'/(a'B^-1 a).  <ds, dz> = 3 mu_i (mu_i mu~_i - 1) with
    mu~_i = <s~, z~>/3, and mu_i mu~_i >= 1 with equality exactly on the
    central path z = -mu_i grad f(s), where W^2 = H(s)^-1/mu_i.  So a
    row keeps H(s)^-1/mu_i where mu_i mu~_i - 1 <= sqrt(eps) c, whose ds
    and dz are rounding, and where <ds, dz> or a'H(s)a is not positive or
    W^2 not finite.  c >= 1 is the mean of sum |s_j z_j|/<s, z> and the
    same ratio for s~, z~, the factor by which the two sums' rounding
    exceeds eps: near the boundary a central-path row's mu_i mu~_i - 1
    rounds to 1e-6, while c is 1e10.  On hmcr-pow's solves at seeds 1-2,
    5.7% of rows kept it, with c below 1e3.
    """
    h11, h12, h13, h22, h23, h33 = h
    St, Zt = -GZ, -G
    DS = S - mu_i[:, None] * St
    DZ = Z - mu_i[:, None] * Zt
    A = Z[:, _NEXT] * Zt[:, _PREV] - Z[:, _PREV] * Zt[:, _NEXT]  # z x z~
    a1, a2, a3 = A.T
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        sz, stz = np.vecdot(S, Z), np.vecdot(St, Zt)
        off_path = sz * stz / 9.0 - 1.0
        # the rounding of off_path grows with the cancellation in its two sums
        cancellation = 0.5 * (np.vecdot(np.abs(S), np.abs(Z)) / sz
                              + np.vecdot(np.abs(St), np.abs(Zt)) / stz)
        dd = np.vecdot(DS, DZ)
        aha = (h11 * a1 * a1 + h22 * a2 * a2 + h33 * a3 * a3
               + 2.0 * (h12 * a1 * a2 + h13 * a1 * a3 + h23 * a2 * a3))
        W = (_outer(S) / sz[:, None, None] + _outer(DS) / dd[:, None, None]
             + _outer(A) / (mu_i * aha)[:, None, None])
        kept = ~((off_path > _SQRT_EPS * cancellation) & (dd > 0.0) & (aha > 0.0)
                 & np.isfinite(W).all(axis=(1, 2)))
    return W, kept


class NonsymmetricCone(Cone):
    """Exponential and power cones in R^3.

    Both barriers are f = -log u - c1 log x1 - c2 log x2: each kind
    supplies u, alone or with its first (and second) derivatives, the
    weights (c1, c2), the slack its interior test bounds, a unit point
    and the linear map M with y in int(K*) iff M y in int(K), which
    dual_coords applies entry by entry (M is diagonal for the power cone
    and a scaled signed permutation for the exponential cone).  u is
    separable in x3, so its Hessian has four entries, and H and H^-1 are
    closed forms in u's derivatives (hessian_inverse says when it falls
    back to an eigendecomposition).  The power cone's block of K updates
    H^-1/mu_i to the primal-dual scaling (_primal_dual); the exponential
    cone's keeps H^-1/mu_i: with the update, the log-sum-exp rows of
    .github/repro_rows.py took 19/15/18/16 -> 20/22/20/21 iterations.  smooth_newton and the exponential
    cone's smoothing run damped Newton on those.  For the conjugate
    gradient each kind reduces grad f(s) = -y to one increasing scalar
    equation per row (conjugate_root), with its value, slope and second
    derivative in closed form, solved by one bracketed Halley iteration
    (_newton.bracketed_root: cubic steps, a midpoint where a step leaves
    the bracket, and a stop once the next step would be below 1e-16, as
    cubic convergence predicts it from the last two); the power cone's
    smoothing reduces the same way, and project calls smooth.
    """

    # whether the kind's block of K is the primal-dual scaling (_primal_dual) on the rows
    # that have one, or H(s)^-1/mu_i on every row
    primal_dual = False

    def validate(self, spec):
        super().validate(spec)
        if spec.dim != 3:
            raise Unsupported(f"{spec.kind.value} cone lives in R^3")

    def degree(self, spec):
        return 3

    def interior(self, spec, S):
        # x1, x2 > 0 first: the slack takes their logarithm or power.  An
        # iterate's rows all pass, and then the slack needs no masked copy
        ok = (S[:, 0] > 0.0) & (S[:, 1] > 0.0)
        if ok.all():
            return self.slack(spec, S) > 0.0
        if ok.any():
            ok[ok] = self.slack(spec, S[ok]) > 0.0
        return ok

    def step_bound(self, spec, V, D):
        """The ratio test on x1 and x2, which the interior test needs positive.

        A valid bound, not the exact one: the ray can leave through the
        slack first.
        """
        return _ratio_test(V[:, :2], D[:, :2])

    def value(self, spec, S):
        c1, c2 = self.weights(spec)
        return -np.log(self.u(spec, S)) - c1 * np.log(S[:, 0]) - c2 * np.log(S[:, 1])

    def _gradient(self, spec, S, u, du):
        c1, c2 = self.weights(spec)
        G = -du / u[:, None]
        G[:, 0] -= c1 / S[:, 0]
        G[:, 1] -= c2 / S[:, 1]
        return G

    def _hessian_entries(self, spec, S, u, du, d2u):
        """The upper triangle (h11, h12, h13, h22, h23, h33) of H, one (k,) array each.

        H = g g' - d2u/u + diag(c1/x1^2, c2/x2^2, 0) with g = du/u; u is
        separable in x3, so d2u holds the four entries (d11, d12, d22, d33).
        """
        c1, c2 = self.weights(spec)
        d11, d12, d22, d33 = d2u
        g1, g2, g3 = (du / u[:, None]).T
        x1, x2 = S[:, 0], S[:, 1]
        return (
            g1 * g1 - d11 / u + c1 / (x1 * x1), g1 * g2 - d12 / u, g1 * g3,
            g2 * g2 - d22 / u + c2 / (x2 * x2), g2 * g3, g3 * g3 - d33 / u,
        )

    def _hessian(self, spec, S, u, du, d2u):
        return _symmetric3(*self._hessian_entries(spec, S, u, du, d2u))

    def derivatives(self, spec, S):
        """(gradients, Hessians) from one evaluation of u and its derivatives."""
        u, du, d2u = self.u(spec, S, order=2)
        return self._gradient(spec, S, u, du), self._hessian(spec, S, u, du, d2u)

    def gradient(self, spec, S):
        return self._gradient(spec, S, *self.u(spec, S, order=1))

    def hessian(self, spec, S):
        return self._hessian(spec, S, *self.u(spec, S, order=2))

    def hessian_inverse(self, spec, S, Z, mu, GZ):
        """H^-1/mu_i per row, mu_i = <s, z>/3 (_inverse); on a power cone, the primal-dual
        scaling (_primal_dual) on the rows that have one, and H^-1/mu_i, computed only if
        needed, on the others."""
        u, du, d2u = self.u(spec, S, order=2)
        h = self._hessian_entries(spec, S, u, du, d2u)
        mu_i = _path_parameters(S, Z, 3)
        G = self._gradient(spec, S, u, du)
        X, kept = _primal_dual(S, Z, G, GZ, mu_i, h) if self.primal_dual else (None, None)
        if kept is None or kept.any():
            closed = self._inverse(spec, S, h) / mu_i[:, None, None]
            X = closed if kept is None else np.where(kept[:, None, None], closed, X)
        return _unlifted(X[:, None], G)

    def _inverse(self, spec, S, h):
        """H^-1 per row from the upper triangle h of H = L diag(d) L', L unit lower triangular.

        Each entry of L^-T diag(1/d) L^-1 is a short sum of products, so
        a row costs a few dozen flops and its inverse is as accurate as a
        Cholesky solve: ||H X - I|| stays within a small multiple of
        eps cond(H).  The exact H is positive definite, but where cond(H)
        nears 1/eps, as at relative slack 1e-10, rounding can leave a
        pivot zero or negative.  A row whose pivots d are not all finite
        and positive, or whose inverse overflows, takes the
        eigendecomposition instead, with eigenvalues floored at 1e-14 of
        the largest, which keeps its inverse finite.  A row whose H holds an entry that is not finite
        (an overflow near the float64 range) has no inverse to floor and
        raises LinAlgError, which ipm reports as a kernel failure.
        """
        h11, h12, h13, h22, h23, h33 = h
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            l21, l31 = h12 / h11, h13 / h11
            d2 = h22 - l21 * h12
            e = h23 - l31 * h12
            l32 = e / d2
            d3 = h33 - l31 * h13 - l32 * e
            # the rows of L^-1 are (1, 0, 0), (-l21, 1, 0) and (m31, -l32, 1)
            m31 = l21 * l32 - l31
            i1, i2, i3 = 1.0 / h11, 1.0 / d2, 1.0 / d3
            a, b = m31 * i3, -l32 * i3
            x11, x12, x22 = i1 + l21 * l21 * i2 + m31 * a, m31 * b - l21 * i2, i2 - l32 * b
            X = _symmetric3(x11, x12, a, x22, b, i3)
            # 1/d > 0 fails on a pivot d < 0, +inf or not a number, and a
            # finite X rules out d = 0 and any overflow on the way
            bad = ~((np.minimum(np.minimum(i1, i2), i3) > 0.0) & np.isfinite(X).all(axis=(1, 2)))
        if bad.any():
            H = self.hessian(spec, S[bad])
            if not np.isfinite(H).all():
                raise np.linalg.LinAlgError("barrier Hessian is not finite")
            w, U = np.linalg.eigh(H)
            w = np.maximum(w, w[:, -1:] * 1e-14)
            X[bad] = (U / w[:, None, :]) @ _t(U)
        return X

    def unit_point(self, spec):
        e_s = self.unit_s(spec)
        return e_s, -self.gradient(spec, e_s[None])[0]

    def conjugate_gradient(self, spec, Y):
        # the checks below catch what float64 cannot hold: a bracket end,
        # a step or a point that overflows, underflows or is not a number.
        # ok is the interior test of M y, and its slack v is kept for the
        # equation; a row outside x1, x2 > 0 gets a meaningless v and fails.
        # With x1, x2 > 0, an entry of M y that is not finite leaves v
        # infinite or not a number, so 0 < v < inf also tests finiteness
        MY = self.dual_coords(spec, Y)
        with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
            v = self.slack(spec, MY)
            ok = (MY[:, 0] > 0.0) & (MY[:, 1] > 0.0) & (v > 0.0) & (v < np.inf)
            if not ok.all():
                raise BoundaryOrExterior(
                    f"point is not strictly interior to the dual of {spec.kind.value}"
                )
            equation, lo, hi, x0, point = self.conjugate_root(spec, Y, v)
            S, u = point(bracketed_root(equation, lo, hi, x0))
        if not (np.isfinite(S).all() and np.all((u >= np.finfo(float).tiny) & np.isfinite(u))):
            raise NoConvergence("no conjugate point within the float64 range")
        return -S

    def project(self, spec, c):
        # proj(t c) = t proj(c): the unit-scaled target's prox, scaled back
        t = np.max(np.abs(c))
        if t == 0.0:
            return np.zeros_like(c)
        result, errors = self.smooth(spec, c[None] / t, np.array([PROJECTION_MU]))
        if errors[0] is not None:
            raise NoConvergence(errors[0])
        return t * result.s[0]


# Interior point of the exponential cone mapped (approximately) onto
# itself by s -> -grad f(s); the dual pairing is computed at runtime.
_EXP_UNIT = (1.290928, 0.805102, -0.827838)
_EXP_DUAL_MAP = np.array([[math.e, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, -1.0, 0.0]])
_EXP_DUAL_SIGNS = np.array([math.e, -1.0, -1.0])  # the nonzero of each row of the map


class ExponentialCone(NonsymmetricCone):
    """cl{x : x2 > 0, x1 >= x2 exp(x3/x2)}, with u = x2 log(x1/x2) - x3."""

    def weights(self, spec):
        return 1.0, 1.0

    def u(self, spec, S, order=0):
        x1, x2, x3 = S.T
        L = np.log(x1 / x2)
        u = x2 * L - x3
        if order == 0:
            return u
        du = np.stack([x2 / x1, L - 1.0, np.full_like(x1, -1.0)], axis=1)
        if order == 1:
            return u, du
        return u, du, (-x2 / x1**2, 1.0 / x1, -1.0 / x2, 0.0)

    slack = u

    def conjugate_root(self, spec, Y, v):
        """grad f(s) = -y as one increasing equation per row in l = -log s2.

        With p = -y3 > 0 and w = s2, s1 = (1 + p w)/y1 and
        s3 = w log(s1/w) - 1/p, so that u = 1/p; q = 1/w = e^l solves
        q + p log(1 + q/p) = v, where v > 0 is the dual slack of y, the
        slack of M y.  The left side lies between q and 2q, so the root
        lies in [v/2, v]; the iteration starts at the upper end.  With
        f = p/(p + q), the slope is q (1 + f) and the second derivative
        q (1 + f^2).
        """
        y1, p = Y[:, 0], -Y[:, 2]
        hi = np.log(v)

        def equation(l, rows):
            q = np.exp(l)
            pk = p[rows]
            f = pk / (pk + q)
            return q + pk * np.log1p(q / pk) - v[rows], q * (1.0 + f), q * (1.0 + f * f)

        def point(l):
            w = np.exp(-l)
            s1 = (1.0 + p * w) / y1
            return np.stack([s1, w, w * np.log(s1 / w) - 1.0 / p], axis=1), 1.0 / p

        return equation, hi - math.log(2.0), hi, hi, point

    def unit_s(self, spec):
        return np.array(_EXP_UNIT)

    def dual_map(self, spec):
        return _EXP_DUAL_MAP

    def dual_coords(self, spec, y):
        """M y = (e y1, -y3, -y2): M, a scaled signed permutation, moves entries."""
        return y[..., [0, 2, 1]] * _EXP_DUAL_SIGNS


class PowerCone(NonsymmetricCone):
    """{x : x1, x2 >= 0, x1^a x2^(1-a) >= |x3|}, with u = (x1^a x2^(1-a))^2 - x3^2."""

    takes_alpha = True
    primal_dual = True

    def validate(self, spec):
        super().validate(spec)
        if spec.alpha is None or not (0.0 < spec.alpha < 1.0):
            raise Unsupported(f"power cone needs alpha in (0,1), got {spec.alpha}")

    def weights(self, spec):
        return 1 - spec.alpha, spec.alpha

    def slack(self, spec, S):
        x1, x2, x3 = S.T
        a = spec.alpha
        return x1**a * x2 ** (1.0 - a) - np.abs(x3)

    def u(self, spec, S, order=0):
        x1, x2, x3 = S.T
        a = spec.alpha
        # factored through v = x1^a x2^(1-a), the same primitive the
        # membership test uses, so interior points never see u <= 0
        v = x1**a * x2 ** (1.0 - a)
        u = (v - np.abs(x3)) * (v + np.abs(x3))
        if order == 0:
            if np.any(u <= 0.0):
                raise BoundaryOrExterior("power cone point is too close to the boundary")
            return u
        A = v * v
        du = np.stack([2 * a * A / x1, 2 * (1 - a) * A / x2, -2 * x3], axis=1)
        if order == 1:
            return u, du
        d11 = 2 * a * (2 * a - 1) * A / x1**2
        d12 = 4 * a * (1 - a) * A / (x1 * x2)
        d22 = 2 * (1 - a) * (1 - 2 * a) * A / x2**2
        return u, du, (d11, d12, d22, -2.0)

    def conjugate_root(self, spec, Y, v):
        """grad f(s) = -y as one increasing equation per row in l = log t, t = s3^2/u.

        With r = 1 + t, s1 = (2ar + 1 - a)/y1, s2 = (2(1-a)r + a)/y2 and
        s3 = -y3 phi/(2r), phi = (s1^a s2^(1-a))^2, so that u = phi/r; t
        solves h = 2 log(m/|y3|) - D(1/t) = 0, where m - |y3| > 0 is the
        dual slack of y (the slack of M y) and
        D(x) = 2a log(1 + Ax) + 2(1-a) log(1 + Bx) - log(1 + x),
        A = (1+a)/(2a), B = (2-a)/(2(1-a)).  h increases and is concave
        in l, and the iteration starts from the lower end.  Each term
        log(1 + e^z), z = log(A) - l and so on, has slope -e^z/(1 + e^z)
        and second derivative e^z/(1 + e^z)^2 in l.
        log(1 + x) <= D(x) <= 3x and D(x) >= log x + 2a log A + 2(1-a) log B
        bracket the root.  y3 = 0 gives t = 0: an empty bracket at -inf.
        """
        a = spec.alpha
        c = np.array([math.log((1 + a) / (2 * a)), math.log((2 - a) / (2 * (1 - a))), 0.0])
        w = np.array([2 * a, 2 * (1 - a), -1.0])
        y1, y2, y3 = Y.T
        h_inf = 2.0 * np.log1p(v / np.abs(y3))
        lo = np.maximum(-np.log(np.expm1(h_inf)), w[:2] @ c[:2] - h_inf)

        def equation(l, rows):
            z = c[:, None] - l
            P = np.logaddexp(0.0, z)  # log(1 + e^z), one row per term of D
            zP = z - P
            # D's terms, their slopes e^z/(1 + e^z) and curvatures e^z/(1 + e^z)^2
            D, dD, d2D = w @ np.array([P, np.exp(zP), np.exp(zP - P)])
            return h_inf[rows] - D, dD, -d2D

        def point(l):
            t = np.exp(l)
            s1 = (2 * a * t + (1 + a)) / y1
            s2 = (2 * (1 - a) * t + (2 - a)) / y2
            u = s1 ** (2 * a) * s2 ** (2 - 2 * a) / (1 + t)  # phi/r
            return np.stack([s1, s2, -0.5 * y3 * u], axis=1), u

        return equation, lo, math.log(3.0) - np.log(h_inf), lo, point

    def smooth(self, spec, C, mu, hint=None):
        """prox_{mu f}(c) per row by one increasing equation in l = log t, t = s3^2/u.

        With r = 1 + t and nn(c, m) the positive root of s^2 - c s - m
        (_nn_root), the s1 and s2 rows of s - c + mu grad f(s) = 0 give
        s1 = nn(c1, m1), m1 = mu(2ar + 1 - a), and s2 = nn(c2, m2),
        m2 = mu(2(1-a)r + a).  Then A = (s1^a s2^(1-a))^2 = u r, and the
        s3 row gives s3 = c3 A/(A + 2 mu r).  t = s3^2 r/A leaves
        F(t) = c3^2 with F(t) = t (A + 2 mu r)^2/(A r), that is
        h(l) = l - log r - log A + 2 log(A + 2 mu r) - 2 log|c3| = 0.
        F(t) = t (A/r + 4 mu + 4 mu^2 r/A) increases: s1 and s2 grow with
        r, each with an elasticity of at most 1 in r, so A grows with an
        elasticity 0 <= e <= 2 in r, and the three terms of F have
        elasticities 1 + (e - 1) t/r, 1 and 1 + (1 - e) t/r in t, all
        >= 1/r.  The slope is h' = 1/r + N/E, N = 4 mu t - g (2 mu r - A),
        E = A + 2 mu r, g = d log A/dl = 4 mu t sum_i w_i^2/Q_i with
        Q_i = s_i^2 + m_i and w = (a, 1-a).  Since ds_i/dl = 2 mu w_i t s_i/Q_i,
        g' = g - 8 mu^2 t^2 sum_i w_i^3 (2 s_i^2 + Q_i)/Q_i^3, and
        h'' = (N' - N E'/E)/E - t/r^2 with E' = A g + 2 mu t and
        N' = 4 mu t - g' (2 mu r - A) - g (2 mu t - A g).

        F(t) >= 8 mu t (the geometric mean of A/r and 4 mu^2 r/A) gives
        the upper end hi = log(c3^2/(8 mu)).  A root with t <= 1 has
        F(t) <= t K, K = A(r=2) + 4 mu + 8 mu^2/A(r=1), so the lower end is
        lo = min(0, log(c3^2/K), hi).  The iteration starts from the small-t
        root log(c3^2 A1/(A1 + 2 mu)^2), A1 = A(r=1), inside the bracket.
        c3 = 0 gives t = 0: an empty bracket at -inf and s3 = 0 exactly.
        A row outside the working range, or whose point is not finite and
        strictly interior, fails alone.
        """
        w = np.array([spec.alpha, 1.0 - spec.alpha])  # A = s1^(2 w1) s2^(2 w2)
        todo, errors = _working_rows(C)
        S = np.full(C.shape, np.nan)
        C12, c3, m = C[todo, :2], C[todo, 2], mu[todo]

        def nn_roots(r, rows=slice(None)):
            """((s1, s2), (m1, m2), A) at r = 1 + t on the given rows."""
            M = m[rows, None] * (2.0 * w * r[:, None] + (1.0 - w))
            X = _nn_root(C12[rows], M)
            P = X ** (2.0 * w)
            return X, M, P[:, 0] * P[:, 1]

        def equation(l, rows):
            t = np.exp(l)
            r = 1.0 + t
            X, M, A = nn_roots(r, rows)
            mt = m[rows] * t
            B = 2.0 * m[rows] * r
            E = A + B
            Q = X * X + M
            W = w * w / Q
            g = 4.0 * mt * np.sum(W, axis=1)
            N = 4.0 * mt - g * (B - A)
            h = l - np.log(r) - np.log(A) + 2.0 * np.log(E) - log_c3sq[rows]
            # g' = g - 8 m^2 t^2 sum w^3 (2 s^2 + Q)/Q^3, and N' and E' follow
            dg = g - 8.0 * mt * mt * np.sum(W * w * (2.0 * X * X + Q) / (Q * Q), axis=1)
            dN = 4.0 * mt - dg * (B - A) - g * (2.0 * mt - A * g)
            dE = A * g + 2.0 * mt
            return h, 1.0 / r + N / E, (dN - N * dE / E) / E - t / (r * r)

        # a non-finite bracket end, step or point is caught by the tests below
        with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
            log_c3sq = np.log(c3 * c3)  # -inf where c3 = 0
            A1 = nn_roots(np.ones(len(m)))[2]
            A2 = nn_roots(np.full(len(m), 2.0))[2]
            hi = log_c3sq - np.log(8.0 * m)
            lo = np.minimum(np.minimum(0.0, log_c3sq - np.log(A2 + 4.0 * m + 8.0 * m * m / A1)), hi)
            x0 = np.clip(log_c3sq + np.log(A1) - 2.0 * np.log(A1 + 2.0 * m), lo, hi)
            r = 1.0 + np.exp(bracketed_root(equation, lo, hi, x0))
            X, _, A = nn_roots(r)
            S[todo, :2] = X
            S[todo, 2] = c3 * A / (A + 2.0 * m * r)
        for i in np.flatnonzero(todo & ~_interior_rows(self.interior, spec, S)):
            errors[i] = _NOT_INTERIOR
        return self._smoothing_result(spec, C, mu, S, np.zeros(len(S), dtype=int), errors)

    def unit_s(self, spec):
        a = spec.alpha
        return np.array([math.sqrt(1.0 + a), math.sqrt(2.0 - a), 0.0])

    def dual_map(self, spec):
        return np.diag(self._dual_scale(spec))

    def _dual_scale(self, spec):
        return np.array([1.0 / spec.alpha, 1.0 / (1.0 - spec.alpha), 1.0])

    def dual_coords(self, spec, y):
        """M y with the diagonal M, entry by entry."""
        return y * self._dual_scale(spec)


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


class _Batch(NamedTuple):
    """A run of consecutive blocks with an equal ConeSpec, bound to its kind once.

    sl covers the run's coordinates in the product and blocks its
    indices in ConeProduct.blocks; cone is the kind's class, shape the
    run's stack shape (len(blocks), spec.dim) and degree each block's.
    """

    spec: ConeSpec
    sl: slice
    blocks: range
    cone: Cone
    shape: tuple
    degree: int

    def rows(self, v):
        """The run's part of v as a (k, spec.dim) stack; a view of v."""
        return v[self.sl].reshape(self.shape)


class ConeProduct:
    """Ordered product of cone blocks with slice bookkeeping.

    barrier_blocks lists (k, spec, slice) of every block but the Zero
    ones.  batches groups each run of consecutive equal blocks into one
    _Batch, whose rows(v) is the stack the cone formulas take;
    barrier_batches lists the batches of every kind but Zero.  corrected
    tells whether every barrier kind gives Mehrotra's term (corrector).
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
        runs = groupby(range(len(self.blocks)), self.blocks.__getitem__)
        self.batches = tuple(
            _Batch(
                spec, slice(offs[r[0]], offs[r[-1] + 1]), range(r[0], r[-1] + 1),
                CONES[spec.kind], (len(r), spec.dim), spec.degree,
            )
            for spec, r in ((spec, list(run)) for spec, run in runs)
        )
        self.barrier_batches = tuple(b for b in self.batches if b.degree)
        self.corrected = all(b.cone.corrector is not None for b in self.barrier_batches)

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

    def is_interior(self, s, batches=None):
        """Blockwise strict interiority, one test per batch; Zero blocks require exact zeros.

        batches, if given, are the only ones tested (ipm's trials, whose
        Zero rows are 0 by construction, pass barrier_batches).  A point
        with an entry that is not finite is not interior: one finiteness
        pass covers every batch.
        """
        return self._all_rows(self.batches if batches is None else batches, "interior", s)

    def is_interior_dual(self, z):
        # a Zero block's dual is the whole space: its finite rows pass
        return self._all_rows(self.barrier_batches, "interior_dual", z)

    def step_bound(self, s, ds, z, dz):
        """An upper bound on every alpha with s + alpha*ds in int K and z + alpha*dz in int K*.

        One step_bound call per barrier batch takes the batch's rows of s
        and, mapped into K by dual_coords (which is linear, so it maps dz
        too), of z.  The bound is exact where the kind's is (nonneg, SOC,
        PSD).  Zero blocks impose none, and with no bound the result is
        inf.  A direction that is not finite passes no trial, whatever
        the bound.
        """
        bound = np.inf
        for b in self.barrier_batches:
            cone = b.cone
            V = np.concatenate([b.rows(s), cone.dual_coords(b.spec, b.rows(z))])
            D = np.concatenate([b.rows(ds), cone.dual_coords(b.spec, b.rows(dz))])
            bound = min(bound, cone.step_bound(b.spec, V, D).min())
        return float(bound)

    def corrector(self, stacks, z, ds, dz):
        """Mehrotra's second-order term for the rows of z in the combined step, or None.

        Each barrier batch's kind gives its rows' term from its Scaling at
        the iterate (stacks) and the affine direction (ds, dz)
        (Cone.corrector), and Zero rows take 0.  One barrier kind without
        a term leaves the whole product uncorrected.
        """
        if not self.corrected:
            return None
        out = np.zeros(self.dim)
        for b, H in zip(self.barrier_batches, stacks):
            b.rows(out)[:] = b.cone.corrector(b.spec, H, b.rows(z), b.rows(ds), b.rows(dz))
        return out

    @staticmethod
    def _all_rows(batches, test, v):
        if not np.isfinite(v).all():
            return False
        for b in batches:
            if not getattr(b.cone, test)(b.spec, b.rows(v)).all():
                return False
        return True

    def unit_points(self):
        """Concatenated (e_s, e_z); Zero blocks contribute zeros."""
        e_s = np.zeros(self.dim)
        e_z = np.zeros(self.dim)
        for b in self.barrier_batches:
            b.rows(e_s)[:], b.rows(e_z)[:] = unit_point(b.spec)
        return e_s, e_z
