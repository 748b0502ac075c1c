"""Shared helpers for the test suite: seeded interior-point sampling."""

import numpy as np
from scipy.optimize import linprog

from conepath.cones import ConeKind, ConeSpec, svec

ALL_KINDS = ("nonneg", "soc", "psd", "exp", "pow")


def make_spec(kind, rng=None, dim=4, order=3, alpha=None):
    if kind == "nonneg":
        return ConeSpec.nonnegative(dim)
    if kind == "soc":
        return ConeSpec.second_order(dim)
    if kind == "psd":
        return ConeSpec.psd_triangle(order)
    if kind == "exp":
        return ConeSpec.exponential()
    if kind == "pow":
        if alpha is None:
            alpha = rng.uniform(0.1, 0.9) if rng is not None else 0.6
        return ConeSpec.power(alpha)
    raise ValueError(kind)


def random_interior(spec, rng, scale=1.0):
    """A strictly interior point of the cone, moderate conditioning."""
    kind = spec.kind
    if kind is ConeKind.NONNEGATIVE:
        return scale * np.exp(rng.uniform(-1.5, 1.5, spec.dim))
    if kind is ConeKind.SECOND_ORDER:
        x1 = rng.standard_normal(spec.dim - 1)
        x0 = np.linalg.norm(x1) + scale * np.exp(rng.uniform(-1.0, 1.0))
        return np.concatenate([[x0], x1])
    if kind is ConeKind.PSD_TRIANGLE:
        M = rng.standard_normal((spec.order, spec.order))
        S = M @ M.T + scale * np.exp(rng.uniform(-1.0, 1.0)) * np.eye(spec.order)
        return svec(S)
    if kind is ConeKind.EXPONENTIAL:
        x1 = np.exp(rng.uniform(-1.0, 1.0))
        x2 = np.exp(rng.uniform(-1.0, 1.0))
        x3 = x2 * np.log(x1 / x2) - scale * np.exp(rng.uniform(-1.0, 1.0))
        return np.array([x1, x2, x3])
    if kind is ConeKind.POWER:
        x1 = np.exp(rng.uniform(-1.0, 1.0))
        x2 = np.exp(rng.uniform(-1.0, 1.0))
        lim = x1**spec.alpha * x2 ** (1.0 - spec.alpha)
        return np.array([x1, x2, rng.uniform(-0.85, 0.85) * lim])
    raise ValueError(kind)


def row_mu(cones, s, z, mu):
    """The path parameter that scales each row of a ConeProduct's scaling in K: <s_i, z_i>/nu_i
    per block, s_j z_j per nonneg coordinate, mu on PSD blocks; a left-to-right sum."""
    out = np.full(cones.dim, np.nan)
    for b in cones.barrier_batches:
        for rows in np.split(np.arange(b.sl.start, b.sl.stop), len(b.blocks)):
            if b.spec.kind is ConeKind.NONNEGATIVE:
                out[rows] = s[rows] * z[rows]
            elif b.spec.kind is ConeKind.PSD_TRIANGLE:
                out[rows] = mu
            else:
                total = 0.0
                for product in s[rows] * z[rows]:
                    total += product
                out[rows] = total / b.spec.degree
    return out


def finite_difference_gradient(fn, s, h=1e-6):
    g = np.zeros_like(s)
    for i in range(s.size):
        up = s.copy()
        dn = s.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (fn(up) - fn(dn)) / (2.0 * h)
    return g


def finite_difference_hessian(grad_fn, s, h=1e-6):
    n = s.size
    H = np.zeros((n, n))
    for i in range(n):
        up = s.copy()
        dn = s.copy()
        up[i] += h
        dn[i] -= h
        H[:, i] = (grad_fn(up) - grad_fn(dn)) / (2.0 * h)
    return 0.5 * (H + H.T)


def highs_objective(problem):
    """HiGHS's optimal objective for an LP: P = 0, Zero blocks as Ax = b, nonneg ones as Ax <= b."""
    assert problem.P.nnz == 0, "HiGHS takes linear objectives only"
    eq, ub = [], []
    for spec, sl in zip(problem.cones.blocks, problem.cones.slices()):
        rows = {ConeKind.ZERO: eq, ConeKind.NONNEGATIVE: ub}[spec.kind]
        rows.extend(range(sl.start, sl.stop))
    A = problem.A.tocsr()
    res = linprog(
        problem.q,
        A_ub=A[ub] if ub else None,
        b_ub=problem.b[ub] if ub else None,
        A_eq=A[eq] if eq else None,
        b_eq=problem.b[eq] if eq else None,
        bounds=(None, None),
        method="highs",
    )
    assert res.status == 0, res.message
    return float(res.fun)
