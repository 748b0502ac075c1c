"""Smoothing operators: proximal points of the scaled barriers.

smooth(spec, c, mu) returns argmin_s 0.5*||s - c||^2 + mu*f(s), which is
strictly interior for every c and converges to the Euclidean projection
onto the cone as mu -> 0.  This module checks the arguments; the
formulas live with each kind's class in cones.py.  Nonnegative,
second-order and PSD cones have closed forms; exponential and power
cones run a safeguarded damped Newton method on the (self-concordance
normalized) objective, and project by following it as mu -> 0.
"""

import math

import numpy as np

from .cones import CONES, MU_MAX, SmoothingResult  # noqa: F401  (SmoothingResult re-exported)
from .errors import Unsupported


def _check_mu(mu):
    if not (0.0 < mu <= MU_MAX) or not math.isfinite(mu):
        raise Unsupported(f"smoothing weight must lie in (0, {MU_MAX:g}], got {mu}")


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
    c = np.asarray(c, dtype=float)
    return CONES[spec.kind].smooth_newton(spec, c, mu, hint, collect_trace)


def smooth(spec, c, mu, hint=None):
    """The kind's closed form where one exists, Newton otherwise."""
    _check_mu(mu)
    c = np.asarray(c, dtype=float)
    if c.shape != (spec.dim,) or not np.all(np.isfinite(c)):
        raise Unsupported(f"target must be a finite vector of length {spec.dim}")
    return CONES[spec.kind].smooth(spec, c, mu, hint)


def smooth_product(product, c, mu, hints=None):
    """Blockwise smoothing over a ConeProduct.

    mu may be a scalar or one value per block.  Zero blocks pass through
    unchanged (their members are fixed points of the operator's limit).
    Returns (s, per-block SmoothingResult-or-None list).
    """
    c = np.asarray(c, dtype=float)
    mus = np.broadcast_to(np.asarray(mu, dtype=float), (len(product),))
    s = c.copy()
    results = [None] * len(product)
    for k, spec, sl in product.barrier_blocks:
        results[k] = smooth(spec, c[sl], float(mus[k]), hint=None if hints is None else hints[k])
        s[sl] = results[k].s
    return s, results


def project(spec, c):
    """Euclidean projection onto the cone.

    Analytic for zero/nonnegative/second-order/PSD blocks; exponential
    and power cones follow the smoothing path down to mu = 1e-14, which
    resolves the projection to roughly sqrt(mu) accuracy near kinks.
    """
    return CONES[spec.kind].project(spec, np.asarray(c, dtype=float))


def project_dual(spec, c):
    """Euclidean projection onto the dual cone.

    Symmetric kinds are self-dual.  For exponential and power cones the
    dual is a linear image of the primal cone, so the same homotopy runs
    on the pulled-back barrier; this keeps the route independent of
    project() for Moreau-decomposition checks.
    """
    return CONES[spec.kind].project_dual(spec, np.asarray(c, dtype=float))
