"""Correctness checks the benchmark applies to every Optimal result.

The checks use only the problem data and the returned ``(x, s, z)``;
they do not call back into the solver's own residual or cone code.

- Primal residual ``b - Ax - s``, dual residual ``Px + A'z + q`` and the
  gap between primal and dual objectives, relative to the size of the
  terms they are made of.
- Membership of ``s`` in the cone and of ``z`` in the dual cone, with
  small formulas written here for the kinds the workloads use.
- For a linear program, the objective against scipy's HiGHS.
"""

import numpy as np

RESIDUAL_TOL = 1e-6
OBJECTIVE_TOL = 1e-6
CONE_TOL = 1e-9


def objective(problem, x):
    return float(0.5 * x @ (problem.P @ x) + problem.q @ x)


def _relative(numerator, *terms):
    return numerator / (1.0 + max(terms))


def _inf(v):
    return float(np.max(np.abs(v))) if v.size else 0.0


def cone_violation(kind, v, alpha=None, dual=False):
    """How far ``v`` lies outside the cone (or its dual); 0 when inside.

    The measure is relative to ``1 + max|v|``.
    """
    scale = 1.0 + _inf(v)
    if kind == "zero":
        return 0.0 if dual else _inf(v) / scale
    if kind == "nonneg":
        return max(0.0, -float(np.min(v))) / scale
    if kind == "soc":
        return max(0.0, float(np.linalg.norm(v[1:])) - float(v[0])) / scale
    if kind == "pow":
        a = alpha
        x1, x2, x3 = (float(t) for t in v)
        if dual:
            # K*_a = {(u, v, w): (u/a)^a (v/(1-a))^(1-a) >= |w|, u, v >= 0}
            x1, x2 = x1 / a, x2 / (1.0 - a)
        if min(x1, x2) < 0.0:
            return max(-x1, -x2, 0.0) / scale
        return max(0.0, abs(x3) - x1**a * x2 ** (1.0 - a)) / scale
    raise ValueError(f"no membership formula for cone kind {kind!r}")


def check_solution(problem, x, s, z):
    """List of failed checks for an Optimal ``(x, s, z)``; empty when it passes."""
    x, s, z = (np.asarray(v, dtype=float) for v in (x, s, z))
    failures = []
    if not all(np.all(np.isfinite(v)) for v in (x, s, z)):
        return ["non-finite solution entries"]
    Ax = problem.A @ x
    Px = problem.P @ x
    ATz = problem.A.T @ z
    r_p = _relative(_inf(problem.b - Ax - s), _inf(problem.b), _inf(Ax), _inf(s))
    r_d = _relative(_inf(Px + ATz + problem.q), _inf(problem.q), _inf(Px), _inf(ATz))
    xPx = float(x @ Px)
    p_obj = 0.5 * xPx + float(problem.q @ x)
    d_obj = -0.5 * xPx - float(problem.b @ z)
    gap = _relative(abs(p_obj - d_obj), abs(p_obj), abs(d_obj))
    for label, value, tol in (
        ("primal residual", r_p, RESIDUAL_TOL),
        ("dual residual", r_d, RESIDUAL_TOL),
        ("duality gap", gap, OBJECTIVE_TOL),
    ):
        if not value <= tol:
            failures.append(f"{label} {value:.3e} > {tol:.0e}")
    offset = 0
    for k, spec in enumerate(problem.cones.blocks):
        sl = slice(offset, offset + spec.dim)
        offset += spec.dim
        kind = spec.kind.value
        for vec, dual, label in ((s, False, "s"), (z, True, "z")):
            viol = cone_violation(kind, vec[sl], spec.alpha, dual=dual)
            if not viol <= CONE_TOL:
                failures.append(f"block {k} ({kind}): {label} outside by {viol:.3e}")
    return failures


def objectives_agree(a, b):
    return abs(a - b) <= OBJECTIVE_TOL * max(1.0, abs(a), abs(b))


def highs_objective(problem):
    """Optimal objective of an LP (P = 0; zero and nonneg cones) by HiGHS."""
    from scipy.optimize import linprog

    if problem.P.nnz:
        raise ValueError("HiGHS reference needs a linear objective")
    eq, ub = [], []
    offset = 0
    for spec in problem.cones.blocks:
        rows = range(offset, offset + spec.dim)
        offset += spec.dim
        if spec.kind.value == "zero":
            eq.extend(rows)
        elif spec.kind.value == "nonneg":
            ub.extend(rows)
        else:
            raise ValueError(f"HiGHS reference cannot take {spec.kind.value} cones")
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
    if res.status != 0:
        raise RuntimeError(f"HiGHS reference failed: {res.message}")
    return float(res.fun)
