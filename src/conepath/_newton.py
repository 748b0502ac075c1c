"""Newton solves over the rows of a stack.

The damped Newton serves two callers only: the exponential cone's
smoothing, and smooth_newton, the reference route of every kind.  Both
minimize a self-concordant objective per point.  newton_rows runs one
masked damped Newton over a (k, d) stack of such points: each row keeps
its own step, tests and exit, and a row that fails does not stop the
others.  One point is the k = 1 stack.

The nonsymmetric conjugate gradients and the power cone's smoothing need
no minimization: each leaves one unknown per row, the root of an
increasing scalar equation, and bracketed_root finds the roots of all
rows with one vectorized Halley iteration.
"""

import math

import numpy as np


def norms(V):
    """Euclidean norm of every row; sqrt of np.vecdot is bitwise the 1-D norm."""
    return np.sqrt(np.vecdot(V, V))


_LAMBDA_STAR = 2.0 - math.sqrt(3.0)


def _newton_step(H, g):
    """Newton directions H^-1 g, one per row; a singular row falls back to least squares."""
    try:
        return np.linalg.solve(H, g[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        d = np.empty_like(g)
        for i in range(len(g)):
            try:
                d[i] = np.linalg.solve(H[i], g[i])
            except np.linalg.LinAlgError:
                d[i] = np.linalg.lstsq(H[i], g[i], rcond=None)[0]
        return d


def _line_search(value, inside, S, D, fs, lam, rows):
    """Per-row step lengths for s - a*d, each row backtracking on its own.

    A row first tries a = 1, 0.8, 0.64, ... above its damped floor
    1/(1+lambda), asking for the omega(lambda) decrease; the full step
    keeps quadratic contraction in the tail, but its worst-case decrease
    falls short of omega(lambda) by ~lambda^4/2 near the phase boundary,
    so gating it on the decrease lets the damped steps restore the
    guarantee whenever that bites.  From the floor down to 1e-14 any
    decrease is accepted.  Each round tests every pending row's trial
    once.  Returns (alpha, S_new, f_new); alpha is NaN where no step
    was found.
    """
    need = lam - np.log1p(lam)
    target = fs - need + 1e-12 * np.maximum(1.0, np.abs(fs))
    floor = 1.0 / (1.0 + lam)
    a = np.ones(len(S))
    weak = ~(a > floor)  # no step above the floor: start at it
    a[weak] = floor[weak]
    pending = ~weak | (a > 1e-14)
    alpha = np.full(len(S), np.nan)
    S_new = np.empty_like(S)
    f_new = np.empty(len(S))
    while pending.any():
        p = np.flatnonzero(pending)
        trial = S[p] - a[p, None] * D[p]
        ok = inside(trial)
        ft = np.full(p.size, np.nan)
        if ok.any():
            ft[ok] = value(trial[ok], rows[p[ok]])
        hit = ok & ((ft <= target[p]) | (weak[p] & (ft < fs[p])))
        alpha[p[hit]] = a[p[hit]]
        S_new[p[hit]] = trial[hit]
        f_new[p[hit]] = ft[hit]
        pending[p[hit]] = False
        miss = p[~hit]
        a[miss] *= 0.8
        enter = miss[~weak[miss] & ~(a[miss] > floor[miss])]
        a[enter] = floor[enter]
        weak[enter] = True
        pending[miss[weak[miss] & ~(a[miss] > 1e-14)]] = False
    return alpha, S_new, f_new


def newton_rows(
    value, derivatives, inside, S0, *, decrement_tol, grad_tol, max_iters, collect_trace
):
    """Damped Newton descent on a standard self-concordant objective, per row of S0.

    Steps of size 1/(1+lambda) are provably safe; _line_search tries
    longer ones first.  value and derivatives take (T, rows): a stack T
    of points and the indices of their rows in S0, so that per-row data
    can follow; derivatives returns (gradients, Hessians) from one call.
    inside takes a stack.  decrement_tol and grad_tol are scalars or one
    value per row.  The rows of S0 must be strictly interior: callers
    test their starts.

    The decrement criterion is authoritative.  grad_tol (or None) is a
    polish target: near a stiff boundary one ulp of the iterate can move
    the gradient by more than grad_tol, so a row that meets the decrement
    gets two more steps to meet it and is then accepted.  In the
    quadratic tail (lambda <= 2 - sqrt(3)) exact arithmetic at least
    halves lambda per full step, so a run of steps that does not sits on
    the float64 floor and is accepted too.  Returns (S, iters, traces,
    errors): traces[i] lists row i's (decrement, objective, step) before
    each step; errors[i] is None or row i's NoConvergence message, and a
    failed row keeps its last iterate.
    """
    S = np.array(S0, dtype=float)
    k = len(S)
    iters = np.zeros(k, dtype=int)
    traces = [[] for _ in range(k)] if collect_trace else None
    errors = [None] * k
    dtol = np.broadcast_to(np.asarray(decrement_tol, dtype=float), (k,))
    gtol = None if grad_tol is None else np.broadcast_to(np.asarray(grad_tol, dtype=float), (k,))
    fs = value(S, np.arange(k))
    active = np.isfinite(fs)
    for i in np.flatnonzero(~active):
        errors[i] = "objective overflows at the start point"
    polish = np.zeros(k, dtype=int)
    tail_stall = np.zeros(k, dtype=int)
    best_lam = np.full(k, np.inf)

    def fail(rows, why):
        for i in rows:
            errors[i] = why
        active[rows] = False

    def finish(rows, lam, it):
        if collect_trace:
            for i, li in zip(rows, lam):
                traces[i].append((float(li), float(fs[i]), 0.0))
        iters[rows] = it
        active[rows] = False

    for it in range(max_iters):
        r = np.flatnonzero(active)
        if not r.size:
            break
        g, H = derivatives(S[r], r)
        good = np.isfinite(g).all(axis=1) & np.isfinite(H).all(axis=(1, 2))
        fail(r[~good], "derivatives overflow; no descent direction")
        r, g, H = r[good], g[good], H[good]
        d = _newton_step(H, g)
        lam2 = np.vecdot(g, d)
        good = np.isfinite(lam2)
        fail(r[~good], "newton decrement overflows")
        r, g, d, lam2 = r[good], g[good], d[good], lam2[good]
        lam = np.sqrt(np.maximum(lam2, 0.0))

        small = lam <= dtol[r]
        met = True if gtol is None else norms(g) <= gtol[r]
        done = small & (met | (polish[r] >= 2))
        finish(r[done], lam[done], it)
        polish[r] = np.where(small, polish[r] + 1, 0)
        keep = ~done
        r, d, lam = r[keep], d[keep], lam[keep]

        tail = lam <= _LAMBDA_STAR
        tail_stall[r] = np.where(
            tail, np.where(lam <= 0.5 * best_lam[r], 0, tail_stall[r] + 1), tail_stall[r]
        )
        stalled = tail & (tail_stall[r] >= 8)
        finish(r[stalled], lam[stalled], it)
        r, d, lam = r[~stalled], d[~stalled], lam[~stalled]
        best_lam[r] = np.minimum(best_lam[r], lam)
        if not r.size:
            continue

        alpha, S_new, f_new = _line_search(value, inside, S[r], d, fs[r], lam, r)
        found = ~np.isnan(alpha)
        converged = ~found & (lam <= dtol[r])  # no float64 step can improve
        finish(r[converged], lam[converged], it)
        fail(r[~found & ~converged], "newton line search stalled")
        r, lam, alpha = r[found], lam[found], alpha[found]
        if collect_trace:
            for i, li, ai in zip(r, lam, alpha):
                traces[i].append((float(li), float(fs[i]), float(ai)))
        S[r] = S_new[found]
        fs[r] = f_new[found]
    fail(np.flatnonzero(active), f"newton did not converge in {max_iters} iterations")
    return S, iters, traces, errors


def bracketed_root(equation, lo, hi, x0):
    """Root of an increasing scalar equation per row, by Halley's method inside a bracket.

    equation takes (x, rows), points and the indices of their rows, and
    returns (values, slopes, second derivatives) from one call.  Row i's
    root lies in [lo[i], hi[i]] and its iteration starts at x0[i].  Each
    evaluation moves one end of the row's bracket to the point, by the
    sign of the value, then takes Halley's step
    x - (f/f') / (1 - (f/f') f''/(2 f')), which converges cubically where
    Newton's converges quadratically.  A step that leaves the bracket, or
    is not a number, is replaced by the bracket's midpoint.  That covers
    a negative denominator too: the step then points away from the root,
    past the end just moved to x.

    A row stops once its step is at most 1e-12, or its value is exactly
    0, or its Halley step d after a Halley step d_prev has
    d^4 <= 1e-16 d_prev^3.  Near the root Halley's error contracts as
    e' = K e^3, so K is about d/d_prev^3 and the step after d would be
    about K d^3 = d^4/d_prev^3, at most 1e-16: the row keeps x + d, one
    evaluation before a step of 1e-12 would show.  A midpoint step tells
    nothing of K, so the step after it must meet 1e-12.  A row with an
    empty bracket, lo == hi, has its root already.  A row that has not
    stopped after 50 evaluations comes back as NaN, and the other rows
    keep their roots, with one exception: where the slope is small,
    rounding in the value can leave the iteration alternating for ever
    between two points more than 1e-12 apart.  A row whose (x, lo, hi)
    after the 50 evaluations equals the one of two evaluations before is
    in such a cycle, and keeps its x.
    """
    x = np.array(x0, dtype=float)
    r = np.flatnonzero(lo < hi)
    xr, lo, hi = x[r], lo[r], hi[r]  # the rows still running
    tol = np.full(r.size, 1e-12)  # each row's stop test on its next step
    for k in range(50):
        if not r.size:
            return x
        if k == 48:  # two evaluations before the end
            back = np.full((3, len(x)), np.nan)
            back[:, r] = xr, lo, hi
        f, df, d2f = equation(xr, r)
        lo = np.where(f <= 0.0, xr, lo)
        hi = np.where(f >= 0.0, xr, hi)
        step = f / df  # Newton's, then Halley's, in ratios that cannot overflow
        new = xr - step / (1.0 - 0.5 * step * d2f / df)
        inside = (new >= lo) & (new <= hi)
        midpoints = not inside.all()
        if midpoints:
            new = np.where(inside, new, 0.5 * (lo + hi))
            tol[~inside] = 1e-12
        # a value of exactly 0 leaves lo = hi = x, and so a step of 0
        d = np.abs(new - xr)
        run = d > tol
        tol = np.maximum(1e-4 * d**0.75, 1e-12)  # d'^4 <= 1e-16 d^3 for the next step d'
        if midpoints:
            tol[~inside] = 1e-12
        xr = new
        if not run.all():  # keep the roots of the rows that stopped, then drop them
            x[r] = xr
            r, xr, lo, hi, tol = r[run], xr[run], lo[run], hi[run], tol[run]
    x[r] = xr
    cycle = (np.stack([xr, lo, hi]) == back[:, r]).all(axis=0)
    x[r[~cycle]] = np.nan
    return x


def smoothing_newton(C, mu, oracles, S0, collect_trace):
    """Damped Newton on (0.5||s-c||^2 + mu*f(s)) / min(mu, 1), per row of C.

    For mu >= 1 the objective itself is standard self-concordant; for
    mu < 1 only the normalized version is, so decrements and the
    omega-decrease rule are taken on that scaling.  mu holds one weight
    per row; returns what newton_rows returns.
    """
    value, derivatives, inside = oracles
    mt = np.minimum(mu, 1.0)

    def phi(T, r):
        D = T - C[r]
        return (0.5 * np.vecdot(D, D) + mu[r] * value(T)) / mt[r]

    def phi_derivatives(T, r):
        G, H = derivatives(T)
        H = mu[r, None, None] * H
        i = np.arange(T.shape[1])
        H[:, i, i] += 1.0
        return (T - C[r] + mu[r, None] * G) / mt[r, None], H / mt[r, None, None]

    return newton_rows(
        phi, phi_derivatives, inside, S0,
        decrement_tol=1e-10 / np.sqrt(mt), grad_tol=1e-9 * np.maximum(1.0, norms(C)) / mt,
        max_iters=100, collect_trace=collect_trace,
    )

