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

verifies the moment condition by adaptive quadrature, scans positivity
(which is family-specific and not guaranteed in general), and refuses the
circle-state moment problem, whose only solution is the phase-state
constant 1/(2 pi).

density_integral is the one radial integral integral_0^R g(x) wt(x) dx of
the package: the moment checks here, the radially integrated Husimi phase
distribution (phase) and the measure inner products (analytic) all pass
their g to it, and it alone picks the quadrature by support radius and
evaluates the disk density at the exact distance to x = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quadrature, specfun
from .errors import CircleNoGoError, ParameterError, RangeError
from .photstat import family_params, sf_2f1
from .states import ParameterSet, normalization, rho_steps


def support_radius(family: str) -> float:
    """Upper limit R of the radial moment integrals: inf for plane families,
    1 for disk families."""
    if family in ("CS", "F01", "F11"):
        return math.inf
    return 1.0


def _checked_vals(family: str, params: ParameterSet, x: float = 0.0) -> tuple:
    """The family's parameters, checked for a weight function and argument x."""
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
    if x < 0 or x >= support_radius(family):
        raise ValueError(f"weight argument {x} outside [0, {support_radius(family)})")
    return vals


def weight(family: str, params: ParameterSet, x: float) -> float:
    """Weight function w(x) of the resolution of unity, x = |z|^2 in [0, R)."""
    vals = _checked_vals(family, params, x)
    if family == "CS":
        return 1.0
    if family == "F10":
        return (vals[0] - 1.0) / (1.0 - x) ** 2
    if x == 0.0 and family != "F21":
        # F01/F11 limits at 0 are singular or family-specific; N(0) = 1
        # makes the F21 case well defined through its density
        raise ValueError(f"{family} weight needs x > 0")
    return _density(family, vals, x) * normalization(params, x)


def weight_tilde(family: str, params: ParameterSet, x: float) -> float:
    """wt(x) = w(x)/N(x), the moment-problem density.  Evaluated directly in
    forms that stay stable where N(x) and w(x) separately overflow."""
    return _density(family, _checked_vals(family, params, x), x)


def log_weight_tilde(family: str, params: ParameterSet, x: float) -> tuple:
    """(log |wt(x)|, sign of wt(x)) at x > 0: closed log forms for CS and F01,
    finite where wt underflows; log |weight_tilde| (-inf at 0) otherwise."""
    vals = _checked_vals(family, params, x)
    if family in ("CS", "F01"):
        return _ln_density(family, vals, x), 1.0
    wt = _density(family, vals, x)
    return (math.log(abs(wt)) if wt else -math.inf), math.copysign(1.0, wt)


def _ln_density(family: str, vals: tuple, x):
    """log wt(x) of CS and F01 at x > 0, a float or an array like x."""
    if family == "CS":
        return -x
    b, m = vals[0], np if isinstance(x, np.ndarray) else math
    return (math.log(2.0) + 0.5 * (b - 1.0) * m.log(x) - math.lgamma(b)
            + specfun.ln_bessel_k(b - 1.0, 2.0 * m.sqrt(x)))


def _density(family: str, vals: tuple, x, om=None):
    """wt(x) for parameters already checked by the caller, x in [0, R), a
    float or an array of nodes x > 0; disk families take the exact distance
    om = 1 - x where the caller knows it."""
    m = np if isinstance(x, np.ndarray) else math
    if family == "CS":
        return m.exp(-x)
    if family in ("F10", "F21"):
        om = 1.0 - x if om is None else om
        if family == "F21":
            return _f21_density(vals, x, om)
        return (vals[0] - 1.0) * om ** (vals[0] - 2.0)
    if family == "F01":
        ln = _ln_density(family, vals, x)
        return m.exp(ln) * (ln > -700.0)  # cut to 0 below e^-700
    a, b = vals
    c = math.lgamma(a) - math.lgamma(b)
    if m is math:
        return math.exp(c - x) * specfun.tricomi_u(a - b, 2.0 - b, x) if x <= 700.0 else 0.0
    keep = x <= 700.0  # beyond, e^{-x} underflows
    y = x[keep]
    return quadrature.scatter_rows(keep, np.exp(c - y) * specfun.tricomi_u(a - b, 2.0 - b, y))


def _f21_density(vals: tuple, x, om):
    """F21 density pref * om^{s-2} 2F1(a2-b, a1-b; s-1; om) with om = 1-x, the
    2F1 (row by row) fed by whichever of x, om is exact: near x = 0 the 2F1
    argument approaches 1 (connection formula needs the exact distance x),
    near x = 1 the small-om direct series side is exact."""
    a1, a2, b = vals
    s = a1 + a2 - b
    pref = math.exp(math.lgamma(a1) + math.lgamma(a2) - math.lgamma(b) - math.lgamma(s - 1.0))

    def gauss(x, om):
        if x == 0.0:
            return specfun.gauss_2f1_unit(a2 - b, a1 - b, s - 1.0)  # finite iff b > 1
        if x <= 0.5:
            return complex(specfun.gauss_2f1_near_unit(a2 - b, a1 - b, s - 1.0, x).value).real
        return sf_2f1(a2 - b, a1 - b, s - 1.0, om)

    f = np.array(list(map(gauss, x.tolist(), om.tolist()))) if np.ndim(x) else gauss(x, om)
    return pref * om ** (s - 2.0) * f


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
                     rel_tol: float, abs_tol: float):
    """(integral_0^R g(x) wt(x) dx, error estimate) by adaptive quadrature.

    R = inf is mapped to (0,1) via x = t/(1-t) and integrable endpoint
    behavior is absorbed by power substitutions.  On the disk the right
    half evaluates the density at the exact distance om = 1 - x (where it
    is power-law singular) and hands g the point 1 - om.  g maps an array of
    m points x > 0 (never one where the density underflowed to 0) to shape
    (m,) or (m, k), real or complex; the k components share one adaptive pass
    and its densities, which stops when each meets
    err_i <= max(abs_tol, rel_tol*|I_i|).
    """
    vals = _checked_vals(family, params)

    def product(x, wt):  # wt * g(x) by rows
        live = wt != 0.0
        gx = g(x[live])
        return quadrature.scatter_rows(live, (gx.T * wt[live]).T)

    def f(x):
        pos = x > 0.0
        return product(x, quadrature.scatter_rows(pos, _density(family, vals, x[pos])))

    if math.isinf(support_radius(family)):
        return quadrature.integrate_half_line(f, rel_tol=rel_tol, abs_tol=abs_tol)

    def f_right(om):  # om = 1 - x, exact from the endpoint substitution
        pos = om > 0.0
        x = 1.0 - om
        return product(x, quadrature.scatter_rows(pos, _density(family, vals, x[pos], om[pos])))

    return quadrature.integrate_unit(f, rel_tol=rel_tol, abs_tol=abs_tol, right_f=f_right)


def _moment_integrals(family: str, params: ParameterSet, ns, quad_tol: float):
    """(integral_0^R x^n wt(x) dx, error estimate, rho(n)) for every n in ns,
    in one density_integral pass over g(x) = x^n/rho(n), rescaled."""
    lr = rho_steps(params, int(ns.max()))[1][ns]
    if lr.max() > 700.0:
        raise RangeError(f"rho({ns[lr.argmax()]}) exceeds double range; reduce n_max")
    val, err = density_integral(family, params,
                                lambda x: np.exp(np.multiply.outer(np.log(x), ns) - lr),
                                rel_tol=quad_tol, abs_tol=1e-14)
    rho = np.exp(lr)
    return val * rho, err * rho, rho


def moment_integral(family: str, params: ParameterSet, n: int,
                    quad_tol: float = 1e-10) -> float:
    """integral_0^R x^n wt(x) dx, integrated as x^n/rho(n) and rescaled."""
    return float(_moment_integrals(family, params, np.array([n]), quad_tol)[0][0])


def moment_check(family: str, params: ParameterSet, n_max: int = 20,
                 quad_tol: float = 1e-10) -> MomentReport:
    """Verify integral_0^R x^n wt(x) dx = rho(n) for n = 0..n_max, all n in
    one adaptive pass."""
    quads, errs, rhos = _moment_integrals(family, params, np.arange(n_max + 1), quad_tol)
    records = [MomentRecord(n, q, r, abs(q - r) / r, e)
               for n, (q, e, r) in enumerate(zip(quads.tolist(), errs.tolist(), rhos.tolist()))]
    return MomentReport(family, params, tuple(records), max(r.rel_error for r in records))


@dataclass(frozen=True)
class PositivityReport:
    family: str
    params: ParameterSet
    min_value: float
    argmin: float
    negative: bool
    grid_size: int


def positivity_scan(family: str, params: ParameterSet, grid_size: int = 2000,
                    x_min: float = 1e-6, x_max: float | None = None) -> PositivityReport:
    """Evaluate the weight on a log-dense grid over (0, R) and report the
    minimum.  Reports only; positivity is asserted by the caller where the
    family guarantees it."""
    r = support_radius(family)
    if math.isinf(r):
        grid = np.logspace(math.log10(x_min), 4.0, grid_size)
    else:
        half = grid_size // 2
        left = np.logspace(math.log10(x_min), math.log10(0.5), half)
        right = 1.0 - np.logspace(math.log10(0.5), -8, grid_size - half)
        grid = np.concatenate([left, right])
    values = np.array([weight(family, params, float(x)) for x in grid])
    k = int(np.argmin(values))
    return PositivityReport(
        family, params, float(values[k]), float(grid[k]), bool(values[k] < 0.0), grid_size
    )


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
