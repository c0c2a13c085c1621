"""Resolution-of-unity weight functions for the standard state families.

For plane and disk families the identity operator expands over projectors
weighted by w(|z|^2); writing wt = w/N, the moment condition

    integral_0^R x^n wt(x) dx = rho(n),   R = inf (plane) or 1 (disk)

pins wt down as the solution of a Stieltjes/Hausdorff moment problem.
This module evaluates the closed-form weights of the five families:

    CS :  w = 1                                   wt = exp(-x)
    F01:  w = 2 I_{b-1}(2 sqrt x) K_{b-1}(2 sqrt x)
    F11:  w = G(a)/G(b) M(a;b;x) e^{-x} U(a-b; 2-b; x)
    F10:  w = (a-1)/(1-x)^2          (a > 1)
    F21:  w = G(a1)G(a2)/[G(b)G(a1+a2-b-1)] (1-x)^{a1+a2-b-2}
             * 2F1(a1,a2;b;x) 2F1(a2-b,a1-b;a1+a2-b-1;1-x)   (a1+a2-b > 1)

verifies the moment condition by adaptive quadrature, and refuses the
circle-state moment problem, whose only solution is the phase-state
constant 1/(2 pi).  Positivity of w is family-specific and not guaranteed
in general.

density_integral is the one radial integral integral_0^R g(x) wt(x) dx of
the package: the moment checks here, the radially integrated Husimi phase
distribution (phase) and the measure inner products (analytic) all pass
their g to it, and it alone picks the quadrature by support radius and
evaluates the disk density at the exact distance to x = 1.  Each density
is written once, uncut, as (log |wt|, sign) in _ln_density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quadrature, specfun
from .errors import CircleNoGoError, ParameterError, RangeError
from .states import ParameterSet, family_params, log_terms, normalization, rho_steps


def support_radius(family: str) -> float:
    """Upper limit R of the radial moment integrals: inf for plane families,
    1 for disk families."""
    if family in ("CS", "F01", "F11"):
        return math.inf
    return 1.0


def _checked_vals(family: str, params: ParameterSet, x=None) -> tuple:
    """The family's parameters, checked for a weight function and, when given,
    for the arguments x (an array): finite and in [0, R), and x > 0 for F01
    and F11."""
    vals = family_params(family, params)
    if any(isinstance(v, complex) for v in vals):
        raise ParameterError("weight functions take real parameters")
    if family == "F01" and vals[0] <= 0:
        raise ParameterError("F01 weight needs b > 0")
    if family == "F10" and vals[0] <= 1:
        raise ParameterError(
            "F10 weight needs a > 1 (the disk moment problem is solvable only "
            "for eta > 1; the a -> 1 weight vanishes)"
        )
    if family == "F21" and vals[0] + vals[1] - vals[2] <= 1:
        raise ParameterError("F21 weight needs a1 + a2 - b > 1")
    if x is None:
        return vals
    bad = x[~((x >= 0) & (x < support_radius(family)))]  # nan too
    if bad.size:
        raise ValueError(f"weight argument {bad[0]} outside [0, {support_radius(family)})")
    if family in ("F01", "F11") and not x.all():
        # F01/F11 limits at 0 are singular or family-specific; N(0) = 1
        # makes the F21 case well defined through its density
        raise ValueError(f"{family} weight needs x > 0")
    return vals


def _nodes(x) -> np.ndarray:
    """A float or a 1-D array x as a 1-D float array of nodes."""
    return np.atleast_1d(np.asarray(x, dtype=float))


def _as_given(v: np.ndarray, x):
    """v over the nodes of x: a float for a float x, else the array."""
    return v if np.ndim(x) else float(v[0])


def weight(family: str, params: ParameterSet, x):
    """Weight function w(x) of the resolution of unity, x = |z|^2 in [0, R), a
    float or a 1-D array.  Plane families form w = sign exp(log|wt| + log N),
    finite where wt underflows and N overflows; log N takes one log_terms
    pass per octave of x, on the slice of the octave's largest point."""
    xs = _nodes(x)
    vals = _checked_vals(family, params, xs)
    if family == "CS":
        w = np.ones_like(xs)
    elif family == "F10":
        w = (vals[0] - 1.0) / (1.0 - xs) ** 2
    else:
        ln, sign = _ln_density(family, vals, xs)
        if family == "F21":
            w = sign * np.exp(ln) * normalization(params, xs)
        else:
            octave = np.floor(np.log2(xs))
            for k in np.unique(octave):
                ln[octave == k] += log_terms(params, xs[octave == k])[1]
            w = sign * np.exp(ln)
    return _as_given(w, x)


def weight_tilde(family: str, params: ParameterSet, x):
    """wt(x) = w(x)/N(x), the moment-problem density, a float or a 1-D array:
    sign exp(log|wt|), finite where N(x) and w(x) separately overflow."""
    xs = _nodes(x)
    ln, sign = _ln_density(family, _checked_vals(family, params, xs), xs)
    return _as_given(sign * np.exp(ln), x)


def log_weight_tilde(family: str, params: ParameterSet, x: float) -> tuple:
    """(log |wt(x)|, sign of wt(x)), finite where wt underflows."""
    xs = _nodes(x)
    ln, sign = _ln_density(family, _checked_vals(family, params, xs), xs)
    return float(ln[0]), float(sign[0])


def _ln_density(family: str, vals: tuple, x: np.ndarray, om=None) -> tuple:
    """(log |wt|, sign of wt) at nodes x in [0, R) for parameters already
    checked by the caller (x > 0 for F01 and F11); disk families take the
    exact distances om = 1 - x where the caller knows them.  A zero of wt
    gives log 0 = -inf and sign 0."""
    if family == "CS":
        return -x, np.ones_like(x)
    if family == "F01":
        b = vals[0]
        return (math.log(2.0) + 0.5 * (b - 1.0) * np.log(x) + specfun.ln_gamma_ratio((), (b,))[0]
                + specfun.ln_bessel_k(b - 1.0, 2.0 * np.sqrt(x))), np.ones_like(x)
    if family == "F11":
        a, b = vals
        ln_pref, sign = specfun.ln_gamma_ratio((a,), (b,))
        ln_pref, y = ln_pref - x, specfun.tricomi_u(a - b, 2.0 - b, x)
    else:
        om = 1.0 - x if om is None else om
        if family == "F10":
            return math.log(vals[0] - 1.0) + (vals[0] - 2.0) * np.log(om), np.ones_like(x)
        a1, a2, b = vals
        s = a1 + a2 - b
        ln_pref, sign = specfun.ln_gamma_ratio((a1, a2), (b, s - 1.0))
        ln_pref = ln_pref + (s - 2.0) * np.log(om)
        # x is the exact distance of the 2F1 argument om to 1
        y = specfun.gauss_2f1(a2 - b, a1 - b, s - 1.0, om, w=x, tol=1e-14).value
    with np.errstate(divide="ignore"):
        return ln_pref + np.log(np.abs(y)), sign * np.sign(y)


@dataclass(frozen=True)
class MomentRecord:
    n: int
    quad: float
    rho: float
    rel_error: float
    quad_err: float  # quadrature error estimate of quad


@dataclass(frozen=True)
class MomentReport:
    family: str
    params: ParameterSet
    records: tuple
    max_rel_error: float

    def __iter__(self):
        return iter(self.records)


def density_integral(family: str, params: ParameterSet, g,
                     rel_tol: float, abs_tol: float, n_peak: int = 0):
    """(integral_0^R g(x) wt(x) dx, error estimate) by adaptive quadrature.

    g(x, log_wt) maps m nodes x > 0 and log |wt| there to g(x) |wt(x)|,
    shape (m,) or (m, k), real or complex, with log_wt in its exponent (so
    it is finite where wt underflows or g overflows); the sign of wt is
    applied here, once.  The k components share one adaptive pass, which
    stops when each meets err_i <= max(abs_tol, rel_tol*|I_i|).

    The pass starts split at x_m = rho(m+1)/rho(m), m = n_peak, the mean of
    the density x^m wt(x)/rho(m): callers name the Fock order that carries
    g's weight, and the first panels meet at its peak (QUADPACK's break
    points, QAGP).  A peak much narrower than those panels can still be
    missed (F01 (;2) at m = 3000).  R = inf is mapped to (0,1) via x = t/(1-t) and
    integrable endpoint behavior is absorbed by power substitutions.  One
    quadrature.integrate pass evaluates the density once per refinement
    round on the nodes of both halves of (0, 1), each with its exact
    om = 1 - x: the disk densities, singular at x = 1, are taken at om.
    """
    vals = _checked_vals(family, params)
    lr = rho_steps(params, n_peak + 1)[1]
    points = (math.exp(lr[n_peak + 1] - lr[n_peak]),)

    def f(x, om=None):
        pos = x > 0.0 if om is None else om > 0.0
        ln, sign = _ln_density(family, vals, x[pos], None if om is None else om[pos])
        return quadrature.scatter_rows(pos, (g(x[pos], ln).T * sign).T)

    if math.isinf(support_radius(family)):
        return quadrature.integrate_half_line(f, rel_tol=rel_tol, abs_tol=abs_tol, points=points)
    return quadrature.integrate_unit(f, rel_tol=rel_tol, abs_tol=abs_tol, points=points)


def _moment_integrals(family: str, params: ParameterSet, ns, quad_tol: float):
    """(integral_0^R x^n wt(x) dx, error estimate, rho(n)) for every n in ns,
    in one density_integral pass over g(x) = x^n/rho(n), rescaled."""
    lr = rho_steps(params, int(ns.max()))[1][ns]
    if lr.max() > 700.0:
        raise RangeError(f"rho({ns[lr.argmax()]}) exceeds double range; reduce n_max")
    val, err = density_integral(
        family, params, lambda x, ln: np.exp(np.multiply.outer(np.log(x), ns) - lr + ln[:, None]),
        rel_tol=quad_tol, abs_tol=1e-14, n_peak=int(ns.max()))
    rho = np.exp(lr)
    return val * rho, err * rho, rho


def moment_check(family: str, params: ParameterSet, n_max: int = 20,
                 quad_tol: float = 1e-10) -> MomentReport:
    """Verify integral_0^R x^n wt(x) dx = rho(n) for n = 0..n_max, all n in
    one adaptive pass."""
    if n_max < 0:
        raise ValueError(f"moment_check needs n_max >= 0, got n_max = {n_max}")
    quads, errs, rhos = _moment_integrals(family, params, np.arange(n_max + 1), quad_tol)
    records = [MomentRecord(n, q, r, abs(q - r) / r, e)
               for n, (q, e, r) in enumerate(zip(quads.tolist(), errs.tolist(), rhos.tolist()))]
    return MomentReport(family, params, tuple(records), max(r.rel_error for r in records))


def circle_weight_attempt(params: ParameterSet):
    """Moment problem for states on the unit circle.

    The angular moment condition forces every nonzero Fourier component of
    the candidate density to vanish, i.e. a constant; a constant can match
    the moments only if rho(n) is itself constant, which happens exactly in
    the phase-state limit (p;q) = (1;0), a = 1, where the density is the
    uniform 1/(2 pi).  Every other circle family is refused.
    """
    if params.p != params.q + 1:
        raise ParameterError(
            f"circle families have p = q + 1; got ({params.p};{params.q})"
        )
    if (params.p, params.q) == (1, 0) and abs(complex(params.a[0]) - 1.0) <= 1e-12:
        return 1.0 / (2.0 * math.pi)
    eta = params.eta
    raise CircleNoGoError(
        "no circle-state resolution of unity: the off-diagonal moment "
        "conditions annihilate all Fourier components of the density, and "
        f"the resulting constant cannot reproduce varying moments "
        f"(family ({params.p};{params.q}), eta = {eta:g}); only the "
        "phase-state limit a = 1 of (1;0) admits the constant 1/(2 pi)"
    )
