"""Adaptive Gauss-Kronrod quadrature of scalar, complex or vector integrands.

A 7-point Gauss / 15-point Kronrod embedded pair drives bisection of the
worst interval, kept in a heap (QUADPACK's scheme, Piessens et al. 1983).
As in scipy.integrate.quad_vec, an integrand returning 1-D arrays gets one
pass for all components, which stops when every component meets
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

# (node, Gauss weight, Kronrod weight); Gauss weight 0 marks Kronrod-only nodes
_GK15 = (
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
)


def _gk_panel(f, a, b):
    """One G7/K15 panel on [a, b]; returns (K15 value, error estimate, worst
    component of the estimate), componentwise when f returns arrays."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    g = 0.0
    k = 0.0
    for xi, wg, wk in _GK15:
        fx = f(mid + half * xi)
        g = g + wg * fx  # not in place: a scalar 0.0 may precede arrays
        k = k + wk * fx
    diff = abs(k - g) * half
    if isinstance(diff, np.ndarray):  # scalars keep builtins: numpy costs ~1 us a call
        err = np.minimum(diff, (200.0 * diff) ** 1.5 / half**0.5)
        err = np.maximum(err, abs(k) * half * 1e-16)
        return k * half, err, err.max()
    err = diff if diff == 0.0 else min(diff, (200.0 * diff) ** 1.5 / half**0.5)
    err = max(err, abs(k) * half * 1e-16)
    return k * half, err, err


def _shortfall(total, total_err, rel_tol, abs_tol):
    """Largest err_i - max(abs_tol, rel_tol*|I_i|); <= 0 means done."""
    if isinstance(total_err, np.ndarray):
        return (total_err - np.maximum(abs_tol, rel_tol * abs(total))).max()
    return total_err - max(abs_tol, rel_tol * abs(total))


def integrate(f, a: float, b: float, rel_tol: float = 1e-10,
              abs_tol: float = 1e-14, max_intervals: int = 2000):
    """Adaptive bisection integral of f over [a, b].

    f(x) is called at scalar x and returns a float, a complex or a 1-D
    array.  Returns (value, error_estimate), componentwise for arrays;
    raises ConvergenceError when the interval budget runs out before every
    component meets its tolerance.
    """
    heap = []  # (-worst component error, lo, hi, value, error); lo breaks ties

    def add(lo, hi):
        val, err, worst = _gk_panel(f, lo, hi)
        heapq.heappush(heap, (-worst, lo, hi, val, err))
        return val, err

    total, total_err = add(a, b)
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


def integrate_unit(f, rel_tol: float = 1e-10, abs_tol: float = 1e-14, right_f=None):
    """Integral of f over (0, 1) tolerating integrable endpoint singularities.

    Each half is pulled toward its endpoint with x = u^m (resp. 1 - u^m),
    which turns x^gamma behavior (gamma > -1) into a bounded integrand for
    m >= 1/(1+gamma); m = 8 covers gamma >= -7/8.

    When right_f is given, the right half evaluates right_f(1 - x) with the
    exact distance to the endpoint (u^m before rounding), so densities
    singular at 1 keep full precision where 1 - u^m would round to 1.
    """
    m = 8.0
    u_half = 0.5 ** (1.0 / m)

    def left(u):
        return f(u**m) * m * u ** (m - 1.0)

    if right_f is None:
        def right(u):
            return f(1.0 - u**m) * m * u ** (m - 1.0)
    else:
        def right(u):
            return right_f(u**m) * m * u ** (m - 1.0)

    v1, e1 = integrate(left, 0.0, u_half, rel_tol=rel_tol, abs_tol=abs_tol / 2)
    v2, e2 = integrate(right, 0.0, u_half, rel_tol=rel_tol, abs_tol=abs_tol / 2)
    return v1 + v2, e1 + e2


def integrate_half_line(f, rel_tol: float = 1e-10, abs_tol: float = 1e-14):
    """Integral of f over (0, inf) via x = t/(1-t), dx = dt/(1-t)^2.

    The transformed integrand must vanish as t -> 1 (exponential decay of f
    beats the Jacobian); the origin is handled like integrate_unit.
    """

    def g(t):
        om = 1.0 - t
        if om <= 0.0:
            return 0.0  # x -> inf limit; f must decay faster than 1/x^2
        return f(t / om) / (om * om)

    return integrate_unit(g, rel_tol=rel_tol, abs_tol=abs_tol)
