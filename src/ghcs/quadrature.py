"""Adaptive Gauss-Kronrod quadrature of real, complex or vector integrands.

A 7-point Gauss / 15-point Kronrod embedded pair drives bisection of the
worst interval, kept in a heap (QUADPACK's scheme, Piessens et al. 1983).
The integrand maps an array of m nodes to shape (m,) or (m, k), real or
complex, one call per panel; as in scipy.integrate.quad_vec, the k
components share one pass, which stops when every one meets
err_i <= max(abs_tol, rel_tol*|I_i|).  Helpers map the half-open ranges
used by the weight functions ([0, 1) with endpoint singularities,
[0, inf)) onto finite intervals with power-law substitutions that tame
integrable endpoint behavior.  Only the weight-function integrals call it;
specfun's integral representations use their own trapezoid rule.
"""

from __future__ import annotations

import heapq

import numpy as np

from .errors import ConvergenceError

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


def _gk_panel(f, a, b):
    """One G7/K15 panel on [a, b], one call of f on its 15 nodes; returns (K15
    value, error estimate, worst component of the estimate), componentwise."""
    half = 0.5 * (b - a)
    fx = f(0.5 * (a + b) + half * _NODES)
    k = _WK @ fx
    diff = np.abs(k - _WG @ fx) * half
    err = np.minimum(diff, (200.0 * diff) ** 1.5 / half**0.5)
    err = np.maximum(err, np.abs(k) * half * 1e-16)
    return k * half, err, err.max()


def _shortfall(total, total_err, rel_tol, abs_tol):
    """Largest err_i - max(abs_tol, rel_tol*|I_i|); <= 0 means done."""
    return (total_err - np.maximum(abs_tol, rel_tol * np.abs(total))).max()


def integrate(f, a: float, b: float, rel_tol: float = 1e-10,
              abs_tol: float = 1e-14, max_intervals: int = 2000, points=()):
    """Adaptive bisection integral of f over [a, b].

    f maps an array of m nodes to shape (m,) or (m, k), real or complex, and
    is called once per panel.  The pass starts from the panels between the
    break points in points inside (a, b), as QUADPACK's QAGP does.  Returns
    (value, error_estimate), componentwise; raises ConvergenceError when the
    interval budget runs out before every component meets its tolerance.
    """
    heap = []  # (-worst component error, lo, hi, value, error); lo breaks ties

    def add(lo, hi):
        val, err, worst = _gk_panel(f, lo, hi)
        heapq.heappush(heap, (-worst, lo, hi, val, err))
        return val, err

    edges = [a, *sorted(p for p in points if a < p < b), b]
    total = total_err = 0.0
    for lo, hi in zip(edges, edges[1:]):
        v, e = add(lo, hi)
        total, total_err = total + v, total_err + e
    while True:
        full = len(heap) >= max_intervals
        if full or _shortfall(total, total_err, rel_tol, abs_tol) <= 0.0:
            # fresh sums: rounding in the running totals never reaches the result
            total, total_err = sum(it[3] for it in heap), sum(it[4] for it in heap)
            short = _shortfall(total, total_err, rel_tol, abs_tol)
            if short <= 0.0:
                return total, total_err
            if full:
                raise ConvergenceError(f"quadrature stalled: {len(heap)} intervals, "
                                       f"worst component error {short:.3g} above its target")
        _, lo, hi, v, e = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        (v1, e1), (v2, e2) = add(lo, mid), add(mid, hi)
        total, total_err = total + (v1 + v2 - v), total_err + (e1 + e2 - e)


def integrate_unit(f, rel_tol: float = 1e-10, abs_tol: float = 1e-14, right_f=None,
                   points=()):
    """Integral of f over (0, 1) tolerating integrable endpoint singularities.

    Each half is pulled toward its endpoint with x = u^m (resp. 1 - u^m),
    which turns x^gamma behavior (gamma > -1) into a bounded integrand for
    m >= 1/(1+gamma); m = 8 covers gamma >= -7/8.  Each half starts split
    at the images of the break points in points that it holds (points
    outside (0, 1) split nothing).

    When right_f is given, the right half evaluates right_f(1 - x) with the
    exact distance to the endpoint (u^m before rounding), so densities
    singular at 1 keep full precision where 1 - u^m would round to 1.
    """
    m = 8.0
    u_half = 0.5 ** (1.0 / m)
    ps = [min(max(p, 0.0), 1.0) for p in points]

    def pulled(g):  # g(u^m) du^m/du; (v.T * w).T scales the rows of (m,) or (m, k) values
        return lambda u: (g(u**m).T * m * u ** (m - 1.0)).T

    v1, e1 = integrate(pulled(f), 0.0, u_half, rel_tol=rel_tol, abs_tol=abs_tol / 2,
                       points=[p ** (1.0 / m) for p in ps])
    v2, e2 = integrate(pulled(right_f or (lambda om: f(1.0 - om))), 0.0, u_half,
                       rel_tol=rel_tol, abs_tol=abs_tol / 2,
                       points=[(1.0 - p) ** (1.0 / m) for p in ps])
    return v1 + v2, e1 + e2


def integrate_half_line(f, rel_tol: float = 1e-10, abs_tol: float = 1e-14, points=()):
    """Integral of f over (0, inf) via x = t/(1-t), dx = dt/(1-t)^2.

    The transformed integrand must vanish as t -> 1 (exponential decay of f
    beats the Jacobian): f never sees rows t >= 1, which are 0.  The origin is
    handled like integrate_unit, which gets the break points as t = x/(1+x).
    The right half forms x = (1 - om)/om from the exact om = 1 - t.
    """

    def g(t, om):
        keep = om > 0.0
        om = om[keep]
        return scatter_rows(keep, (f(t[keep] / om).T / (om * om)).T)

    return integrate_unit(lambda t: g(t, 1.0 - t), rel_tol=rel_tol, abs_tol=abs_tol,
                          right_f=lambda om: g(1.0 - om, om),
                          points=[p / (1.0 + p) for p in points])
