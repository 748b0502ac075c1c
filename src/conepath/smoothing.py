"""Smoothing operators: proximal points of the scaled barriers.

smooth(spec, c, mu) returns argmin_s 0.5*||s - c||^2 + mu*f(s), which is
strictly interior for every c and converges to the Euclidean projection
onto the cone as mu -> 0.  This module checks the arguments; the
formulas live with each kind's class in cones.py.  Nonnegative,
second-order and PSD cones have closed forms.  The power cone reduces
to one increasing scalar equation per row, all rows solved by one
bracketed Newton.  The exponential cone, and smooth_newton for every
kind, run a safeguarded damped Newton method on the (self-concordance
normalized) objective.  Exponential and power cones project by their
own smooth at one fixed small weight on the unit-scaled target (see
project).

smooth and smooth_newton take one target c (dim,) or a stack (k, dim)
of targets of the same cone, with one mu or one per row: a stack is
smoothed in one call, its Newton rows in one masked Newton.  A stack
row whose solve fails -- a Newton solve or scalar root that does not
converge, or a target whose solution leaves the float64 range or
rounds onto the cone's boundary, closed forms included -- comes back as
NaN and leaves the other rows alone; for one target the failure raises
NoConvergence.
smooth_product smooths each batch of a ConeProduct as one stack.
"""

import numpy as np

from .cones import CONES, MU_MAX, SmoothingResult
from .errors import NoConvergence, Unsupported


def _smooth_rows(route, spec, c, mu, hint, *args):
    """Checked stack call of a kind's smoothing route: (c as given, result, errors)."""
    c = np.asarray(c, dtype=float)
    mus = np.asarray(mu, dtype=float)
    bad = ~((mus > 0.0) & (mus <= MU_MAX))
    if bad.any():
        raise Unsupported(f"smoothing weight must lie in (0, {MU_MAX:g}], got {mus[bad].flat[0]}")
    if c.ndim not in (1, 2) or c.shape[-1] != spec.dim or not np.all(np.isfinite(c)):
        raise Unsupported(f"target must be a finite vector of length {spec.dim}")
    C = c.reshape(-1, spec.dim)
    if hint is not None:
        hint = np.asarray(hint, dtype=float).reshape(-1, spec.dim)
    mus = np.broadcast_to(mus, (len(C),))
    result, errors = getattr(CONES[spec.kind], route)(spec, C, mus, hint, *args)
    return c, result, errors


def _as_given(c, result, errors):
    """One target's result, or its NoConvergence; a stack's result as it is."""
    if c.ndim == 2:
        return result
    if errors[0] is not None:
        raise NoConvergence(errors[0])
    trace = None if result.trace is None else result.trace[0]
    return SmoothingResult(
        result.s[0], int(result.newton_iters[0]), float(result.optimality_residual[0]), trace
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
    requested mu.  For a stack, each row takes its own path and hint
    row; a NaN hint row means no hint.
    """
    return _as_given(*_smooth_rows("smooth_newton", spec, c, mu, hint, collect_trace))


def smooth(spec, c, mu, hint=None):
    """The kind's closed form or scalar root where one exists, else Newton, which reads hint."""
    return _as_given(*_smooth_rows("smooth", spec, c, mu, hint))


def smooth_product(product, c, mu, hints=None):
    """Batchwise smoothing over a ConeProduct.

    mu may be a scalar or one value per block; hints, if given, holds
    one start (or None) per block.  Zero blocks pass through unchanged
    (their members are fixed points of the operator's limit).  Returns
    (s, per-block SmoothingResult-or-None list); a block whose smoothing
    fails raises NoConvergence.
    """
    c = np.asarray(c, dtype=float)
    mus = np.broadcast_to(np.asarray(mu, dtype=float), (len(product),))
    s = c.copy()
    results = [None] * len(product)
    for b in product.barrier_batches:
        hint = None
        if hints is not None:
            hint = np.full((len(b.blocks), b.spec.dim), np.nan)
            for row, k in enumerate(b.blocks):
                if hints[k] is not None:
                    hint[row] = hints[k]
        _, res, errors = _smooth_rows("smooth", b.spec, b.rows(c), mus[b.blocks], hint)
        for row, k in enumerate(b.blocks):
            if errors[row] is not None:
                raise NoConvergence(f"block {k}: {errors[row]}")
            results[k] = SmoothingResult(
                res.s[row], int(res.newton_iters[row]), float(res.optimality_residual[row])
            )
        b.rows(s)[:] = res.s
    return s, results


def project(spec, c):
    """Euclidean projection onto the cone.

    Analytic for zero/nonnegative/second-order/PSD blocks.  A projection
    onto a cone is positively homogeneous, proj(t c) = t proj(c), and the
    prox tends to it as mu -> 0, so exponential and power cones return
    t * smooth(spec, c/t, PROJECTION_MU) with t = max|c_i|: one weight on
    the unit-scaled target serves every scale, to about
    sqrt(PROJECTION_MU) * t near the cone's kinks.  A zero target gives
    zeros; a failed smoothing raises NoConvergence.
    """
    return CONES[spec.kind].project(spec, np.asarray(c, dtype=float))


def project_dual(spec, c):
    """Euclidean projection onto the dual cone.

    Nonnegative, second-order and PSD cones are self-dual, so this is
    project.  Every other kind takes the Moreau identity
    c = proj_K(c) - proj_K*(-c), as proj_K*(c) = c + proj_K(-c).
    """
    return CONES[spec.kind].project_dual(spec, np.asarray(c, dtype=float))
