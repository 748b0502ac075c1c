"""Central-path warmstarts from a previous conic solution.

Given an optimum (x*, s*, z*) of a nearby problem, each cone block is
re-centered by smoothing c = s* - lambda*z* with a weight mu0 sized from
the new problem's residual, which lands (s0, z0) exactly on the new
central path at parameter mu0/lambda.  The module also certifies that
membership, evaluates the worst-case residual-growth bounds for
nonnegative / second-order / PSD compositions, and measures proximity
to the path for arbitrary interior points by ipm.evaluate's rho, its
one home.  Gradients come from the solver's kernel on rows tested here.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import ipm
from .cones import (
    ConeKind,
    is_interior,
    is_interior_dual,
    require_interior,
    smat,
    unit_point,
)
from .errors import NotApplicable, Unsupported
from .smoothing import smooth

MU0_FLOOR = 1e-12
MU0_CEIL = 1.0

# Below this relative size, a second-order block's leading previous
# values count as degenerate and the scale-free rule applies.
SOC_DEGENERACY_TOL = 1e-10

# certify_central_path's tolerances; z0 comes from grad f(s0), so only rounding is left
_GRAD_TOL = 1e-8  # (a), scaled by the block: grad f(s0) grows large near the boundary
_COMP_TOL = 1e-10  # (b), relative: <s0, z0> = nu*mu0/lambda is one rounded dot product


@dataclass
class PreviousSolution:
    """Optimal triple from the previous problem, attached to the new one.

    problem supplies (P, q, A, b) for residual sizing; it may be None
    when every block's mu0 is overridden explicitly.
    """

    x_star: np.ndarray
    s_star: np.ndarray
    z_star: np.ndarray
    problem: object | None = None


class SelectedParameters(NamedTuple):
    lam: float
    mu0: float
    rule: str


@dataclass
class BlockParameters:
    lam: float
    mu0: float
    nu: int
    complementarity: float
    rule: str


@dataclass
class WarmStartResult:
    x0: np.ndarray
    s0: np.ndarray
    z0: np.ndarray
    per_block: list
    fallback_blocks: list = field(default_factory=list)


def _clamp_mu0(value):
    return float(min(max(value, MU0_FLOOR), MU0_CEIL))


_RULES = {
    ConeKind.ZERO: "zero",
    ConeKind.NONNEGATIVE: "nn",
    ConeKind.PSD_TRIANGLE: "psd",
    ConeKind.EXPONENTIAL: "nonsymmetric-heuristic",
    ConeKind.POWER: "nonsymmetric-heuristic",
}


def select_parameters(spec, s_star_block, z_star_block, r_inf):
    """Per-block (lambda, mu0) from previous block values and ||R||_inf.

    Second-order blocks with healthy leading entries use lambda =
    s0*/z0* and mu0 = lambda*r_inf, which makes every block's local
    path parameter mu0/lambda equal to the clamped r_inf; all other
    kinds use lambda = 1.  mu0 is clamped to [1e-12, 1].
    """
    if not (math.isfinite(r_inf) and r_inf >= 0.0):
        raise Unsupported(f"residual norm must be finite and >= 0, got {r_inf}")
    lam, rule = 1.0, _RULES.get(spec.kind)
    if spec.kind is ConeKind.SECOND_ORDER:
        s0 = float(s_star_block[0])
        z0 = float(z_star_block[0])
        if z0 <= SOC_DEGENERACY_TOL * max(1.0, s0) or s0 <= SOC_DEGENERACY_TOL * max(1.0, z0):
            rule = "soc-degenerate"
        else:
            lam, rule = s0 / z0, "soc"
    return SelectedParameters(lam, _clamp_mu0(lam * r_inf), rule)


def residual_infinity(problem, x, s, z):
    """||R(x,s,z)||_inf with R = (r_d, r_p) of ipm.residual_map."""
    res = ipm.residual_map(problem, x, s, z)
    return float(max(np.max(np.abs(res.r_d)), np.max(np.abs(res.r_p))))


def warmstart(prev, cones, overrides=None):
    """Re-center a previous optimum onto the new problem's central path.

    Per non-Zero block: c = s* - lambda*z*, s0 = smooth(c, mu0), and
    z0 = -(mu0/lambda)*grad f(s0), the form the smoothing optimality
    condition gives for (s0 - c)/lambda; evaluating the gradient instead
    of the difference keeps complementarity exact at small mu0.  Zero
    blocks pass (0, z*) through.  x0 = x*.

    Each block starts from select_parameters.  overrides maps block
    index -> {"lambda": ..., "mu0": ...} (either key optional) and
    replaces those values; a lambda-only override keeps mu0 at the
    clamped residual norm.  Each batch of equal blocks is smoothed in
    one call; a block whose smoothing fails (a Newton solve or scalar
    root that does not converge, a target out of the float64 range, or
    a point that rounds onto the cone's boundary), or whose z0 rounds
    out of the dual cone, falls back alone to the cold unit point and is
    listed in fallback_blocks.
    """
    x_star, s_star, z_star = (np.asarray(v, float) for v in (prev.x_star, prev.s_star, prev.z_star))
    if s_star.shape != (cones.dim,) or z_star.shape != (cones.dim,):
        raise Unsupported("previous solution does not match the cone product size")
    overrides = overrides or {}

    r_inf = 0.0
    if any("mu0" not in overrides.get(k, {}) for k, _, _ in cones.barrier_blocks):
        if prev.problem is None:
            raise Unsupported("problem data is required to size mu0; pass overrides instead")
        r_inf = residual_infinity(prev.problem, x_star, s_star, z_star)

    # one record per block; Zero blocks keep theirs and pass z* through
    per_block = []
    for k, (spec, sl) in enumerate(zip(cones.blocks, cones.slices())):
        lam, mu0, rule = select_parameters(spec, s_star[sl], z_star[sl], r_inf)
        ov = overrides.get(k, {}) if spec.degree else {}
        if "lambda" in ov:
            lam, mu0, rule = float(ov["lambda"]), _clamp_mu0(r_inf), "override"
        if "mu0" in ov:
            mu0, rule = float(ov["mu0"]), "override"
        if spec.degree and not (lam > 0.0 and mu0 > 0.0):
            raise Unsupported(f"block {k}: lambda and mu0 must be positive")
        per_block.append(BlockParameters(lam, mu0, spec.degree, 0.0, rule))
    s0 = np.zeros(cones.dim)
    z0 = z_star.copy()
    for b in cones.barrier_batches:
        spec = b.spec
        records = [per_block[k] for k in b.blocks]
        lam, mu0 = np.array([(p.lam, p.mu0) for p in records]).T
        sb = b.rows(s_star)
        # a row whose smoothing fails, its interior test included, comes
        # back NaN and falls back alone; the kept rows need no second test
        s_blk = smooth(spec, sb - lam[:, None] * b.rows(z_star), mu0, hint=sb).s
        failed = np.isnan(s_blk).any(axis=1)
        z_blk = np.full_like(s_blk, np.nan)
        if not failed.all():
            G = ipm.barrier_gradient(spec, s_blk[~failed], b.cone)
            z_blk[~failed] = -(mu0 / lam)[~failed, None] * G
        # so does a z0 that rounds out of K*, from an s0 next to the boundary
        failed |= ~is_interior_dual(spec, z_blk)
        s_blk[failed], z_blk[failed] = unit_point(spec)
        b.rows(s0)[:], b.rows(z0)[:] = s_blk, z_blk
        for p, comp, f in zip(records, np.vecdot(s_blk, z_blk), failed):
            p.complementarity = float(comp)
            if f:
                p.lam, p.mu0, p.rule = 1.0, 1.0, "fallback"
    fallback = [k for k, p in enumerate(per_block) if p.rule == "fallback"]
    return WarmStartResult(x_star.copy(), s0, z0, per_block, fallback)


# ---------------------------------------------------------------------------
# certification


@dataclass
class BlockCertificate:
    block: int
    applicable: bool
    gradient_ok: bool | None = None
    complementarity_ok: bool | None = None
    interior_ok: bool | None = None
    gradient_residual: float | None = None
    complementarity_error: float | None = None


@dataclass
class CertReport:
    blocks: list

    @property
    def ok(self):
        return all(
            b.gradient_ok and b.complementarity_ok and b.interior_ok
            for b in self.blocks
            if b.applicable
        )


def certify_central_path(result, cones):
    """Check the path-membership identities of each block, one batch at a time.

    (a) lambda*z0 + mu0*grad f(s0) = 0 within _GRAD_TOL (scaled),
    (b) <s0, z0> = nu*mu0/lambda within _COMP_TOL relative,
    (c) s0 strictly interior to K and z0 to K*.
    Zero blocks are reported as not applicable.
    """
    blocks = [BlockCertificate(k, applicable=False) for k in range(len(cones))]
    for b in cones.barrier_batches:
        records = [result.per_block[k] for k in b.blocks]
        lam, mu0 = np.array([(p.lam, p.mu0) for p in records]).T
        S, Z = b.rows(result.s0), b.rows(result.z0)
        interior = is_interior(b.spec, S) & is_interior_dual(b.spec, Z)
        resid = np.full(len(b.blocks), np.inf)
        if interior.any():
            G = ipm.barrier_gradient(b.spec, S[interior], b.cone)
            R = lam[interior, None] * Z[interior] + mu0[interior, None] * G
            resid[interior] = np.sqrt(np.vecdot(R, R))
        norm_s, norm_z = np.sqrt(np.vecdot(S, S)), np.sqrt(np.vecdot(Z, Z))
        scale = np.maximum(np.maximum(1.0, norm_s), lam * norm_z)
        target = b.degree * mu0 / lam
        comp_abs = np.abs(np.vecdot(S, Z) - target)
        # a dot product cannot resolve below eps times its cancellation
        # mass, so near-boundary blocks at tiny mu0 get that much slack
        float_floor = 16.0 * np.finfo(float).eps * np.vecdot(np.abs(S), np.abs(Z))
        gradient_ok = resid <= _GRAD_TOL * scale
        complementarity_ok = comp_abs <= _COMP_TOL * target + float_floor
        for row, k in enumerate(b.blocks):
            blocks[k] = BlockCertificate(
                k, True, bool(gradient_ok[row]), bool(complementarity_ok[row]),
                bool(interior[row]), float(resid[row]), float(comp_abs[row] / target[row]),
            )
    return CertReport(blocks)


# ---------------------------------------------------------------------------
# worst-case residual growth (nonnegative / second-order / PSD)


@dataclass
class BoundReport:
    family: str
    applicable: bool
    reason: str | None
    bound: float | None = None
    actual: float | None = None
    mu0: float | None = None
    r_star_inf: float | None = None
    delta_s_inf: float | None = None
    delta_s_bound: float | None = None

    @property
    def satisfied(self):
        if not self.applicable:
            return None
        return (
            self.actual <= self.bound * (1.0 + 1e-9) + 1e-300
            and self.delta_s_inf <= self.delta_s_bound * (1.0 + 1e-9) + 1e-300
        )


def _not_applicable(family, reason):
    return BoundReport(family, False, reason)


def _matrix_max(packed):
    """Entrywise max magnitude of the symmetric matrix a packed vector encodes."""
    return float(np.max(np.abs(smat(packed))))


def residual_bound_check(prev, result, problem):
    """Evaluate the worst-case warmstart residual-growth inequality.

    Supported compositions: any number of nonnegative blocks, a single
    second-order block, or a single PSD block (Zero blocks may
    accompany them).  For PSD compositions, infinity norms of slack
    rows are taken entrywise over the encoded matrices, not over the
    sqrt(2)-scaled packed coordinates.  Returns a report; compositions
    or previous solutions outside the covered assumptions come back
    not-applicable rather than failing.
    """
    live = problem.cones.barrier_blocks
    kinds = {spec.kind for _, spec, _ in live}
    if len(kinds) != 1:
        return _not_applicable("mixed", "needs exactly one non-Zero cone family")
    family = next(iter(kinds)).value
    if result.fallback_blocks:
        return _not_applicable(family, "cold-start fallback occurred")

    x_star, s_star, z_star = (np.asarray(v, float) for v in (prev.x_star, prev.s_star, prev.z_star))
    r_star = residual_infinity(problem, x_star, s_star, z_star)
    lam0 = result.per_block[live[0][0]].lam
    mu0 = result.per_block[live[0][0]].mu0
    for k, spec, sl in live:
        p = result.per_block[k]
        if abs(p.mu0 - mu0) > 1e-12 * mu0 or abs(p.lam - lam0) > 1e-12 * lam0:
            return _not_applicable(family, "blocks disagree on lambda or mu0")
    expected = _clamp_mu0(lam0 * r_star)
    if abs(mu0 - expected) > 1e-9 * expected:
        return _not_applicable(
            family, "mu0 was not sized from the previous residual norm"
        )

    A_inf = float(abs(problem.A).sum(axis=1).max())  # max absolute row sum
    kind = live[0][1].kind

    if kind is ConeKind.NONNEGATIVE:
        cmin = min(float(np.min(np.abs(s_star[sl] - z_star[sl]))) for _, _, sl in live)
        if cmin <= 0.0:
            return _not_applicable(family, "previous block has s* = z* = 0 in some coordinate")
        ds = float(max(np.max(np.abs(result.s0[sl] - s_star[sl])) for _, _, sl in live))
        ds_bound = min(mu0 / cmin, math.sqrt(mu0))
        bound = (1.0 + (A_inf + 1.0) / cmin) * mu0
    elif kind is ConeKind.SECOND_ORDER:
        if len(live) != 1:
            return _not_applicable(family, "needs a single second-order block")
        _, spec, sl = live[0]
        sb = s_star[sl]
        zb = z_star[sl]
        s0h, s1 = float(sb[0]), sb[1:]
        z0h, z1 = float(zb[0]), zb[1:]
        scale = max(1.0, s0h, z0h)
        tol = 1e-7 * scale
        if s0h <= tol or z0h <= tol:
            return _not_applicable(family, "leading entries are not positive")
        lam = s0h / z0h
        active = (
            abs(s0h - np.linalg.norm(s1)) <= tol
            and abs(z0h - np.linalg.norm(z1)) <= tol
            and np.max(np.abs(s1 + lam * z1)) <= tol
        )
        if not active:
            return _not_applicable(
                family, "previous optimum is not boundary-active and aligned"
            )
        ds = float(np.max(np.abs(result.s0[sl] - sb)))
        ds_bound = mu0 / (2.0 * s0h)
        bound = (1.0 + (A_inf + lam) / (2.0 * s0h)) * r_star
    else:
        if kind is not ConeKind.PSD_TRIANGLE:
            return _not_applicable(family, "unsupported cone family")
        if len(live) != 1:
            return _not_applicable(family, "needs a single PSD block")
        _, spec, sl = live[0]
        C = smat(s_star[sl] - z_star[sl])
        d = np.linalg.eigvalsh(C)
        dmin = float(np.min(np.abs(d)))
        if dmin <= 0.0:
            return _not_applicable(family, "previous difference matrix is singular")
        # A columns reinterpreted as symmetric matrices over the block rows;
        # a column with no stored entry is the zero matrix and adds nothing
        A_blk = problem.A[sl].tocsc()
        A_blk.sum_duplicates()
        tr_max = 0.0
        for lo, hi in zip(A_blk.indptr[:-1], A_blk.indptr[1:]):
            if lo == hi:
                continue
            col = np.zeros(spec.dim)
            col[A_blk.indices[lo:hi]] = A_blk.data[lo:hi]
            tr_max = max(tr_max, float(np.sum(np.abs(np.linalg.eigvalsh(smat(col))))))
        ds = _matrix_max(result.s0[sl] - s_star[sl])
        ds_bound = min(mu0 / dmin, math.sqrt(mu0))
        bound = (1.0 + (tr_max + 1.0) / dmin) * mu0

    # actual residual with PSD slack rows measured in matrix entries
    res = ipm.residual_map(problem, result.x0, result.s0, result.z0)
    parts = [float(np.max(np.abs(res.r_d)))] if res.r_d.size else [0.0]
    for spec, sl in zip(problem.cones.blocks, problem.cones.slices()):
        block = res.r_p[sl]
        parts.append(
            _matrix_max(block) if spec.kind is ConeKind.PSD_TRIANGLE
            else float(np.max(np.abs(block)))
        )
    actual = max(parts)

    return BoundReport(
        family,
        True,
        None,
        bound=bound,
        actual=actual,
        mu0=mu0,
        r_star_inf=r_star,
        delta_s_inf=ds,
        delta_s_bound=ds_bound,
    )


# ---------------------------------------------------------------------------
# proximity to the central path: rho from ipm.evaluate, its one home, the
# measure the solver's step rule also applies


@dataclass
class ProximityReport:
    rho: np.ndarray
    mu: float
    beta: float
    ok: np.ndarray

    @property
    def all_ok(self):
        return bool(np.all(self.ok))


def proximity(result, cones, beta=ipm.BETA):
    """Neighborhood test rho_i >= beta*mu for a warmstart output.

    mu is the aggregate <s0, z0>/nu; each non-Zero block must keep its
    proximity value (ipm.evaluate's rho) above beta*mu to count as
    well-centered.  Raises BoundaryOrExterior unless each such block of s0
    is in int K, of z0 in int K*, and otherwise what ipm.evaluate raises.
    """
    if not (0.0 < beta <= 1.0):
        raise Unsupported(f"beta must lie in (0, 1], got {beta}")
    if cones.degree == 0:
        raise NotApplicable("proximity is undefined for all-Zero compositions")
    for b in cones.barrier_batches:
        require_interior(b.spec, b.rows(result.z0), dual=True)
        require_interior(b.spec, b.rows(result.s0))
    mu = float(result.s0 @ result.z0) / cones.degree
    rho = ipm.evaluate(cones, result.s0, result.z0, mu)[1]
    ok = np.isnan(rho) | (rho >= beta * mu * (1.0 - 1e-9))
    return ProximityReport(rho, mu, beta, ok)
