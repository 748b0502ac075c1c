"""Smoothing operators: proximal points of the scaled barriers.

smooth(spec, c, mu) returns argmin_s 0.5*||s - c||^2 + mu*f(s), which is
strictly interior for every c and converges to the Euclidean projection
onto the cone as mu -> 0.  Nonnegative, second-order and PSD cones have
closed forms; exponential and power cones run a safeguarded damped
Newton method on the (self-concordance normalized) objective.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import cones as _c
from .cones import ConeKind, damped_newton_minimize, is_interior, smat, svec
from .errors import NoConvergence, Unsupported

MU_MAX = 1e6

# Below this, a second-order block's leading entry is treated as zero
# and the boundary-active closed form applies.
_SOC_C0_TINY = 1e-13


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


def _check_mu(mu):
    if not (0.0 < mu <= MU_MAX) or not math.isfinite(mu):
        raise Unsupported(f"smoothing weight must lie in (0, {MU_MAX:g}], got {mu}")


def _nn_kernel(c, mu):
    """Componentwise root s = (c + sqrt(c^2 + 4 mu)) / 2, cancellation free."""
    c = np.asarray(c, dtype=float)
    r = np.sqrt(c * c + 4.0 * mu)
    out = 0.5 * (c + r)
    neg = c < 0.0
    if np.any(neg):
        # rationalized form; r - c cannot cancel when c < 0
        out[neg] = 2.0 * mu / (r[neg] - c[neg])
    return out


def _soc_kernel(c, mu):
    """Second-order smoothing; returns (s, t_s) with t_s = s0^2 - ||s1||^2.

    The solution satisfies s0 = rho/(rho-1) c0 and s1 = rho/(rho+1) c1
    where gamma = rho + 1/rho solves gamma^2 - beta*gamma - delta = 0,
    beta = (c0^2-||c1||^2)/mu, delta = 2(c0^2+||c1||^2)/mu + 4.  We
    recover eps = gamma - 2 from eps^2 + (4-beta)*eps - 4 c0^2/mu = 0,
    whose constant term is exact, so no catastrophic cancellation occurs
    for small c0.
    """
    c = np.asarray(c, dtype=float)
    c0 = float(c[0])
    c1 = c[1:]
    nc1 = float(np.linalg.norm(c1))
    s = np.empty_like(c)
    if abs(c0) <= _SOC_C0_TINY * max(1.0, nc1):
        s[1:] = 0.5 * c1
        s[0] = math.sqrt(mu + 0.25 * nc1 * nc1)
        return s, mu
    beta = (c0 - nc1) * (c0 + nc1) / mu
    q = 4.0 - beta
    w = 16.0 * c0 * c0 / mu
    rad = math.sqrt(q * q + w)
    if q >= 0.0:
        eps = w / (2.0 * (q + rad))
    else:
        eps = 0.5 * (rad - q)
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
    return s, mu * rho


def _psd_kernel(c, mu):
    """Eigenvalue smoothing; returns (s, eigenvalues of S, eigenvalues of C)."""
    d, U = _c._eigh(smat(np.asarray(c, dtype=float)))
    e = _nn_kernel(d, mu)
    S = (U * e) @ U.T
    return svec(S), e, d


def _sc_newton(c, mu, value, grad, hess, inside, s0, collect_trace):
    """Damped Newton on (0.5||s-c||^2 + mu*f(s)) / min(mu, 1).

    For mu >= 1 the objective itself is standard self-concordant; for
    mu < 1 only the normalized version is, so decrements and the
    omega-decrease rule are taken on that scaling.
    """
    c = np.asarray(c, dtype=float)
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
        phi,
        phi_grad,
        phi_hess,
        inside,
        s0,
        decrement_tol=1e-10 / math.sqrt(mt),
        grad_tol=1e-9 * norm_c / mt,
        max_iters=100,
        collect_trace=collect_trace,
    )


def smooth_newton(spec, c, mu, hint=None, collect_trace=False):
    """Newton route of the smoothing operator, valid for any barrier kind.

    Without an interior hint, small mu puts the minimizer near the cone
    boundary, far from the unit start; a short continuation down from
    mu = 1e-2 supplies a start inside the quadratic basin.  A hint skips
    the continuation, but a hint far from the small-mu minimizer can
    stall the damped phase, so a failed hint solve is retried along the
    continuation.  newton_iters counts all Newton steps including the
    continuation; the trace covers only the final solve at the
    requested mu.
    """
    _check_mu(mu)
    if spec.kind is ConeKind.ZERO:
        raise Unsupported("zero cones have no smoothing operator")
    c = np.asarray(c, dtype=float)
    value = lambda s: _c.barrier_value(spec, s)
    grad = lambda s: _c.barrier_gradient(spec, s)
    hess = lambda s: _c.barrier_hessian(spec, s)
    inside = lambda s: is_interior(spec, s, 0.0)
    if float(np.max(np.abs(c))) > 1e100:
        raise NoConvergence("smoothing target exceeds the float64 working range")

    def from_unit_start():
        s0, _ = _c.unit_point(spec)
        # the damped phase shrinks the normalized objective by a fixed
        # amount per step, so the start must keep the initial gap O(1):
        # at mu ~ ||c||^2 the barrier term dominates and the unit point
        # qualifies, then each factor-10 rung stays in the Newton basin
        lead = min(max(1e-2, float(c @ c)), MU_MAX)
        total = 0
        while lead > mu:
            s0, k, _ = _sc_newton(c, lead, value, grad, hess, inside, s0, False)
            total += k
            lead *= 0.1
        return s0, total

    lead_iters = 0
    if hint is not None and is_interior(spec, hint, 0.0):
        try:
            s, iters, trace = _sc_newton(
                c, mu, value, grad, hess, inside,
                np.asarray(hint, dtype=float), collect_trace,
            )
        except NoConvergence:
            s0, lead_iters = from_unit_start()
            s, iters, trace = _sc_newton(
                c, mu, value, grad, hess, inside, s0, collect_trace
            )
    else:
        s0, lead_iters = from_unit_start()
        s, iters, trace = _sc_newton(c, mu, value, grad, hess, inside, s0, collect_trace)
    resid = float(np.linalg.norm(s - c + mu * grad(s)))
    return SmoothingResult(
        s, iters + lead_iters, resid, trace if collect_trace else None
    )


def smooth(spec, c, mu, hint=None):
    """Dispatch to the closed form where one exists, Newton otherwise."""
    _check_mu(mu)
    c = np.asarray(c, dtype=float)
    if c.shape != (spec.dim,) or not np.all(np.isfinite(c)):
        raise Unsupported(f"target must be a finite vector of length {spec.dim}")
    kind = spec.kind
    if kind is ConeKind.ZERO:
        raise Unsupported("zero cones have no smoothing operator")
    if kind is ConeKind.NONNEGATIVE:
        s = _nn_kernel(c, mu)
        resid = float(np.linalg.norm(s - c - mu / s))
        return SmoothingResult(s, 0, resid)
    if kind is ConeKind.SECOND_ORDER:
        s, ts = _soc_kernel(c, mu)
        r = np.empty_like(s)
        r[0] = s[0] - c[0] - mu * s[0] / ts
        r[1:] = s[1:] - c[1:] + mu * s[1:] / ts
        return SmoothingResult(s, 0, float(np.linalg.norm(r)))
    if kind is ConeKind.PSD_TRIANGLE:
        s, e, d = _psd_kernel(c, mu)
        resid = float(np.linalg.norm(e - d - mu / e))
        return SmoothingResult(s, 0, resid)
    return smooth_newton(spec, c, mu, hint=hint)


def smooth_product(product, c, mu, hints=None):
    """Blockwise smoothing over a ConeProduct.

    mu may be a scalar or one value per block.  Zero blocks pass through
    unchanged (their members are fixed points of the operator's limit).
    Returns (s, per-block SmoothingResult-or-None list).
    """
    c = np.asarray(c, dtype=float)
    blocks = product.blocks
    mus = np.broadcast_to(np.asarray(mu, dtype=float), (len(blocks),))
    s = np.zeros(product.dim)
    results = []
    for k, (spec, sl) in enumerate(zip(blocks, product.slices())):
        if spec.kind is ConeKind.ZERO:
            s[sl] = c[sl]
            results.append(None)
            continue
        hint = None if hints is None else hints[k]
        res = smooth(spec, c[sl], float(mus[k]), hint=hint)
        s[sl] = res.s
        results.append(res)
    return s, results


# ---------------------------------------------------------------------------
# Euclidean projections

_PATH_MUS = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14)


def _project_path(c, value, grad, hess, inside, s0):
    """Interior-point homotopy: follow smooth(c, mu) as mu -> 0."""
    s = np.asarray(s0, dtype=float)
    for mu in _PATH_MUS:
        s, _, _ = _sc_newton(c, mu, value, grad, hess, inside, s, False)
    return s


def project(spec, c):
    """Euclidean projection onto the cone.

    Analytic for zero/nonnegative/second-order/PSD blocks; exponential
    and power cones follow the smoothing path down to mu = 1e-14, which
    resolves the projection to roughly sqrt(mu) accuracy near kinks.
    """
    c = np.asarray(c, dtype=float)
    kind = spec.kind
    if kind is ConeKind.ZERO:
        return np.zeros_like(c)
    if kind is ConeKind.NONNEGATIVE:
        return np.maximum(c, 0.0)
    if kind is ConeKind.SECOND_ORDER:
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
    if kind is ConeKind.PSD_TRIANGLE:
        d, U = _c._eigh(smat(c))
        return svec((U * np.maximum(d, 0.0)) @ U.T)
    s0, _ = _c.unit_point(spec)
    return _project_path(
        c,
        lambda s: _c.barrier_value(spec, s),
        lambda s: _c.barrier_gradient(spec, s),
        lambda s: _c.barrier_hessian(spec, s),
        lambda s: is_interior(spec, s, 0.0),
        s0,
    )


def project_dual(spec, c):
    """Euclidean projection onto the dual cone.

    Symmetric kinds are self-dual.  For exponential and power cones the
    dual is a linear image of the primal cone, so the same homotopy runs
    on the pulled-back barrier; this keeps the route independent of
    project() for Moreau-decomposition checks.
    """
    c = np.asarray(c, dtype=float)
    kind = spec.kind
    if kind is ConeKind.ZERO:
        return c.copy()
    if kind in (ConeKind.NONNEGATIVE, ConeKind.SECOND_ORDER, ConeKind.PSD_TRIANGLE):
        return project(spec, c)
    M = (
        _c._EXP_DUAL_MAP
        if kind is ConeKind.EXPONENTIAL
        else _c._pow_dual_map(spec.alpha)
    )
    _, e_z = _c.unit_point(spec)
    return _project_path(
        c,
        lambda y: _c.barrier_value(spec, M @ y),
        lambda y: M.T @ _c.barrier_gradient(spec, M @ y),
        lambda y: M.T @ _c.barrier_hessian(spec, M @ y) @ M,
        lambda y: is_interior(spec, M @ y, 0.0),
        e_z,
    )
