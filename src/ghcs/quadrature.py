"""Adaptive Gauss-Kronrod quadrature of real, complex or vector integrands.

A 7-point Gauss / 15-point Kronrod embedded pair on each panel drives
bisection (Piessens et al., QUADPACK, 1983), in refinement rounds rather
than QUADPACK's one-panel-at-a-time heap: a round bisects the fewest worst
panels whose errors cover what each component lacks, and evaluates all
their halves in one call of the integrand.  The integrand maps an array of
m nodes to shape (m,) or (m, k), real or complex; as in
scipy.integrate.quad_vec, the k components share one pass, which stops
when every one meets err_i <= max(abs_tol, rel_tol*|I_i|).  Helpers map
the half-open ranges used by the weight functions ([0, 1) with endpoint
singularities, [0, inf)) onto finite intervals with power-law
substitutions that tame integrable endpoint behavior; both halves of
(0, 1) share one pass.  Only the weight-function integrals call it;
specfun's integral representations use their own trapezoid rule.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError

MAX_INTERVALS = 2000  # live panels a pass may reach before integrate gives up

# rows (node, Gauss weight, Kronrod weight); Gauss weight 0 marks Kronrod-only nodes
_NODES, _WG, _WK = np.array((
    (+0.991455371120813, 0.0, 0.022935322010529),
    (-0.991455371120813, 0.0, 0.022935322010529),
    (+0.949107912342759, 0.129484966168870, 0.063092092629979),
    (-0.949107912342759, 0.129484966168870, 0.063092092629979),
    (+0.864864423359769, 0.0, 0.104790010322250),
    (-0.864864423359769, 0.0, 0.104790010322250),
    (+0.741531185599394, 0.279705391489277, 0.140653259715525),
    (-0.741531185599394, 0.279705391489277, 0.140653259715525),
    (+0.586087235467691, 0.0, 0.169004726639267),
    (-0.586087235467691, 0.0, 0.169004726639267),
    (+0.405845151377397, 0.381830050505119, 0.190350578064785),
    (-0.405845151377397, 0.381830050505119, 0.190350578064785),
    (+0.207784955007898, 0.0, 0.204432940075298),
    (-0.207784955007898, 0.0, 0.204432940075298),
    (0.0, 0.417959183673469, 0.209482141084728),
)).T.copy()


def scatter_rows(keep, rows):
    """rows, one per True entry of the mask keep, with zero rows where keep is False."""
    out = np.zeros(keep.shape + rows.shape[1:], dtype=rows.dtype)
    out[keep] = rows
    return out


def _gk_panels(f, lo, hi):
    """G7/K15 panels on [lo_i, hi_i], one call of f on all their nodes, 15 per
    panel; returns (K15 values, error estimates), one row per panel."""
    half = 0.5 * (hi - lo)
    fx = f((0.5 * (lo + hi)[:, None] + half[:, None] * _NODES).ravel())
    shape = (len(lo),) + fx.shape[1:]
    fx, half = fx.reshape(len(lo), 15, -1), half[:, None]
    k = _WK @ fx
    diff = np.abs(k - _WG @ fx) * half
    err = np.minimum(diff, (200.0 * diff) ** 1.5 / half**0.5)
    err = np.maximum(err, np.abs(k) * half * 1e-16)
    return (k * half).reshape(shape), err.reshape(shape)


def integrate(f, a: float, b: float, rel_tol: float = 1e-10,
              abs_tol: float = 1e-14, points=()):
    """Adaptive bisection integral of f over [a, b] in refinement rounds.

    f maps an array of m nodes to shape (m,) or (m, k), real or complex, and
    is called once per round, on the nodes of every panel the round makes.
    The pass starts from the panels between the break points in points
    inside (a, b), as QUADPACK's QAGP does.  A round bisects, per component
    i, the fewest worst panels whose errors cover err_i - max(abs_tol,
    rel_tol*|I_i|), and the union of these over the components.  Returns
    (value, error_estimate), componentwise; raises ConvergenceError when a
    round would pass MAX_INTERVALS live panels before every component meets
    its tolerance.
    """
    edges = np.array([a, *sorted({p for p in points if a < p < b}), b], dtype=float)
    lo, hi = edges[:-1], edges[1:]
    val, err = _gk_panels(f, lo, hi)
    while True:
        total, total_err = val.sum(axis=0), err.sum(axis=0)
        short = np.reshape(total_err - np.maximum(abs_tol, rel_tol * np.abs(total)), -1)
        if short.max() <= 0.0:
            return total, total_err
        e = err.reshape(len(lo), -1)
        order = np.argsort(-e, axis=0)  # panels by error, worst first, per component
        need = (np.cumsum(np.take_along_axis(e, order, 0), axis=0) < short).sum(axis=0)
        split = (np.argsort(order, axis=0) < need + ~(short <= 0.0)).any(axis=1)  # NaN splits too
        if len(lo) + split.sum() > MAX_INTERVALS:
            raise ConvergenceError(f"quadrature stalled: a round would pass the budget of "
                                   f"{MAX_INTERVALS} intervals, worst component error "
                                   f"{short.max():.3g} above its target")
        mid = 0.5 * (lo[split] + hi[split])
        new_lo, new_hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
        new_val, new_err = _gk_panels(f, new_lo, new_hi)
        keep = ~split
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        val, err = np.concatenate([val[keep], new_val]), np.concatenate([err[keep], new_err])


def integrate_unit(f, rel_tol: float = 1e-10, abs_tol: float = 1e-14, points=()):
    """Integral of f(x, om) over x in (0, 1), om = 1 - x, tolerating
    integrable endpoint singularities.

    Both halves lie on one axis s in (-u_half, u_half), split at 0: s > 0 is
    the left half, x = s^m, and s < 0 the right half, om = (-s)^m, so f gets
    the exact distance om to the endpoint 1 (before 1 - om rounds) and
    densities singular there keep full precision.  This turns x^gamma
    behavior at either end (gamma > -1) into a bounded integrand for m >=
    1/(1+gamma); m = 8 covers gamma >= -7/8.  One integrate pass takes both
    halves, one call of f per round on the nodes of both, and starts split
    at the images of the break points in points (points outside (0, 1)
    split nothing).
    """
    m = 8.0
    u_half = 0.5 ** (1.0 / m)
    ps = [min(max(p, 0.0), 1.0) for p in points]

    def pulled(s):  # f at x(s), om(s) times |dx/ds|; (v.T * w).T scales (m,) or (m, k) rows
        r, left = np.abs(s) ** m, s > 0.0
        return (f(np.where(left, r, 1.0 - r), np.where(left, 1.0 - r, r)).T
                * m * np.abs(s) ** (m - 1.0)).T

    return integrate(pulled, -u_half, u_half, rel_tol=rel_tol, abs_tol=abs_tol,
                     points=[0.0, *(p ** (1.0 / m) if p < 0.5 else -(1.0 - p) ** (1.0 / m)
                                    for p in ps)])


def integrate_half_line(f, rel_tol: float = 1e-10, abs_tol: float = 1e-14, points=()):
    """Integral of f over (0, inf) via x = t/(1-t), dx = dt/(1-t)^2.

    The transformed integrand must vanish as t -> 1 (exponential decay of f
    beats the Jacobian): f never sees rows t >= 1, which are 0.  The origin is
    handled like integrate_unit, which gets the break points as t = x/(1+x),
    and x = t/om is formed from the exact om = 1 - t that it hands over.
    """

    def g(t, om):
        keep = om > 0.0
        om = om[keep]
        return scatter_rows(keep, (f(t[keep] / om).T / (om * om)).T)

    return integrate_unit(g, rel_tol=rel_tol, abs_tol=abs_tol,
                          points=[p / (1.0 + p) for p in points])
