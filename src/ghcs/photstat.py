"""Photon number statistics of generalized hypergeometric states.

Generic path, with x = |z|^2 and the terms t_n = x^n / rho(n) of
N(x) = pFq(a; b; x): for plane and disk states P(n) = t_n / N(x), and the
factorial moments x^k [prod (a_i)_k / prod (b_j)_k] N_k(x) / N(x) with N_k
the normalization of the shifted set (a+k; b+k), all in log space from one
slice of the rho sequence (states.log_terms): no pFq series is summed.
Normalized circle states, whose terms fall only like n^(eta-1), take N and
N_k from the Gauss sum at unit argument (states.normalization).  Mean and
Mandel parameter come from the first two factorial moments.  Every P(n) is
cut by one rule (_pn_series).

Closed-form path: the Bessel / Kummer / geometric / Gauss expressions of
the five standard families, with P(n) stepped from its own anchor and
ratios; it shares none of the sums above and serves as their oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import ConvergenceError, DivergenceError, ParameterError
from .states import (
    MAX_CUTOFF,
    DomainKind,
    ParameterSet,
    StateSpec,
    classify,
    family_params,
    log_terms,
    normalization,
    rho_steps,
)

PN_CUMULATIVE = 1.0 - 1e-12
PN_FLOOR = 1e-16


@dataclass(frozen=True)
class DistributionSeries:
    """Sampled 1-D distribution with grid metadata and the residual of its
    normalization sum/integral."""

    grid: np.ndarray
    values: np.ndarray
    norm_residual: float
    label: str = ""


@dataclass(frozen=True)
class PhotonStats:
    pn: DistributionSeries
    mean: float
    mandel_q: float
    x: float


def _pn_series(log_p, n: int, label: str) -> DistributionSeries:
    """P(n) cut at the first length whose cumulative sum reaches
    PN_CUMULATIVE and whose last term is below PN_FLOOR of the running peak.
    log_p(n) returns log P(0..n-1); n doubles up to MAX_CUTOFF until the rule
    is met (ConvergenceError otherwise)."""
    while True:
        lp = log_p(n)
        ok = (np.cumsum(np.exp(lp)) >= PN_CUMULATIVE) & (
            lp < np.maximum.accumulate(lp) + math.log(PN_FLOOR))
        if ok.any():
            values = np.exp(lp[: int(np.argmax(ok)) + 1])
            return DistributionSeries(
                np.arange(len(values)), values, float(abs(values.sum() - 1.0)), label)
        if n >= MAX_CUTOFF:
            raise ConvergenceError(f"P(n) did not accumulate to 1 within {MAX_CUTOFF} terms")
        n = min(2 * n, MAX_CUTOFF)


def pn_distribution(spec: StateSpec, tol: float = specfun.DEFAULT_TOL) -> DistributionSeries:
    """Photon number distribution P(n) = x^n / (rho(n) N(x)); tol applies to
    the Gauss sum of normalized circle states."""
    kind = spec.domain_kind()
    if kind is DomainKind.CIRCLE_UNNORMALIZABLE:
        raise DivergenceError("unnormalizable circle states have no photon distribution")
    params = spec.params
    x = abs(complex(spec.z)) ** 2
    if x == 0.0:
        return DistributionSeries(np.array([0]), np.array([1.0]), 0.0, params.label())
    if kind is DomainKind.CIRCLE_NORMALIZED:
        ln_n = math.log(normalization(params, x, tol=tol))
        return _pn_series(lambda n: -rho_steps(params, n - 1)[1] - ln_n, 64, params.label())
    log_t, (ln_n,) = log_terms(params, x)
    return _pn_series(lambda n: log_t - ln_n, len(log_t), params.label())


def _factorial_moments(params: ParameterSet, x, k: int, tol: float) -> tuple:
    """(moments, step): the factorial moments of orders 1..k at x = |z|^2 > 0
    (see factorial_moment), and their last ratio moment_k / moment_{k-1}
    formed directly as x [prod (a_i+k-1) / prod (b_j+k-1)] N_k / N_{k-1}, or
    arrays of them over a 1-D array x of plane and disk points."""
    many = isinstance(x, np.ndarray)
    exp, fmax = (np.exp, np.maximum) if many else (math.exp, max)  # scalars stay Python floats
    if many or StateSpec(params, math.sqrt(x)).domain_kind() in (
            DomainKind.PLANE, DomainKind.UNIT_DISK):
        log_n = log_terms(params, x, k + 1)[1].T
    else:  # circle: terms fall like n^(eta-1); normalization() uses the Gauss sum
        log_n = [math.log(normalization(params.shifted(j), x, tol=tol)) for j in range(k + 1)]
    shift, moments = 1.0 + 0.0j, []
    for j in range(1, k + 1):  # shift = prod (a_i)_j / prod (b_j)_j
        ratio = math.prod(v + j - 1 for v in params.a) / math.prod(v + j - 1 for v in params.b)
        shift *= ratio
        val = x**j * shift * exp(log_n[j] - log_n[0])
        bad = abs(val.imag) > 1e-10 * fmax(1.0, abs(val.real))
        if bad.any() if many else bad:
            raise ParameterError(f"factorial moment has imaginary residue {np.max(val.imag):g}")
        moments.append(val.real)
    return moments, (x * ratio * exp(log_n[k] - log_n[k - 1])).real


def factorial_moment(params: ParameterSet, x: float, k: int,
                     tol: float = specfun.DEFAULT_TOL) -> float:
    """k-th factorial moment <n(n-1)...(n-k+1)> at x = |z|^2:
    x^k [prod (a_i)_k / prod (b_j)_k] pFq(a+k; b+k; x) / pFq(a; b; x)."""
    if k < 1:
        raise ValueError("factorial moment order must be >= 1")
    if x == 0.0:
        return 0.0
    return _factorial_moments(params, x, k, tol)[0][-1]


def mean_and_mandel(params: ParameterSet, x, tol: float = specfun.DEFAULT_TOL):
    """(mean photon number, Mandel Q) at x = |z|^2.

    Q = -mean + n2/mean with n2 the second factorial moment, n2/mean formed
    directly as x [prod (a_i+1) / prod (b_j+1)] N_2/N_1 (so the coherent
    state's Q is exactly 0); at x = 0 both vanish linearly so Q is returned as
    its continuous-extension value 0.
    A 1-D numpy array x gives arrays: its plane and open-disk points share one
    log_terms pass, the rest take scalar calls (circle points, domain errors).
    """
    if isinstance(x, np.ndarray) and x.ndim > 0:
        plane = classify(params).kind is DomainKind.PLANE
        sweep = (x > 0.0) & (x < (math.inf if plane else 1.0 - 3e-14))  # off the circle band
        out = np.zeros((2, len(x)))
        if sweep.any():
            (mean, _), step = _factorial_moments(params, x[sweep], 2, tol)
            out[:, sweep] = mean, -mean + step
        for i in np.flatnonzero(~sweep & (x != 0.0)):
            out[:, i] = mean_and_mandel(params, float(x[i]), tol)
        return out[0], out[1]
    if x == 0.0:
        return 0.0, 0.0
    (mean, _), step = _factorial_moments(params, x, 2, tol)
    return mean, -mean + step


def closed_form_stats(family: str, params: ParameterSet, x: float) -> PhotonStats:
    """Closed-form photon statistics of the standard families.

    CS:  Poisson, mean x, Q = 0.
    F01: Bessel ratios,  mean = sqrt(x) I_b(2 sqrt x)/I_{b-1}(2 sqrt x),
         Q = sqrt(x) (I_{b+1}/I_b - I_b/I_{b-1}).
    F11: Kummer ratios of M(a+j; b+j; x).
    F10: geometric forms, mean = a x/(1-x), Q = x/(1-x) (a-independent).
    F21: Gauss ratios of 2F1(a1+j, a2+j; b+j; x).

    Entirely independent of the generic pfq/rho path, so the two can be
    cross-checked against each other.
    """
    vals = family_params(family, params)
    if x < 0:
        raise ValueError("x = |z|^2 must be non-negative")
    label = f"{family}{params.label()}"
    if x == 0.0:
        pn = DistributionSeries(np.array([0]), np.array([1.0]), 0.0, label)
        return PhotonStats(pn, 0.0, 0.0, x)

    if any(isinstance(v, complex) for v in vals):
        raise ParameterError(
            "closed-form statistics take real parameters; use the generic path "
            "for conjugate-pair parameter sets"
        )

    # per family: mean, Q, log P(0) and the step ratio P(n+1)/P(n)
    if family == "CS":
        mean, q, lp0, ratio = x, 0.0, -x, lambda n: x / (n + 1.0)
    elif family == "F01":
        (b,) = vals
        y = 2.0 * math.sqrt(x)
        i_b, i_bp1 = specfun.bessel_i(b, y), specfun.bessel_i(b + 1.0, y)
        i_bm1 = i_bp1 + (2.0 * b / y) * i_b  # DLMF 10.29.1; b > 0, so no terms cancel
        mean = math.sqrt(x) * i_b / i_bm1
        q = math.sqrt(x) * (i_bp1 / i_b - i_b / i_bm1)
        lp0 = 0.5 * (b - 1.0) * math.log(x) - math.lgamma(b) - math.log(i_bm1)
        ratio = lambda n: x / ((n + 1.0) * (b + n))
    elif family == "F11":
        a, b = vals
        m0, m1, m2 = (specfun.kummer_m(a + j, b + j, x) for j in (0.0, 1.0, 2.0))
        mean = x * (a / b) * m1 / m0
        q = -mean + x * ((a + 1.0) / (b + 1.0)) * m2 / m1
        lp0, ratio = -math.log(m0), lambda n: x * (a + n) / ((b + n) * (n + 1.0))
    elif x >= 1.0:
        raise DivergenceError("disk family needs x < 1")
    elif family == "F10":
        (a,) = vals
        mean, q = a * x / (1.0 - x), x / (1.0 - x)
        lp0, ratio = a * math.log1p(-x), lambda n: x * (a + n) / (n + 1.0)
    else:  # F21
        a1, a2, b = vals
        f0, f1, f2 = (specfun.gauss_2f1(a1 + j, a2 + j, b + j, x).value for j in (0.0, 1.0, 2.0))
        mean = x * (a1 * a2 / b) * f1 / f0
        q = -mean + x * ((a1 + 1.0) * (a2 + 1.0) / (b + 1.0)) * f2 / f1
        lp0, ratio = -math.log(f0), lambda n: x * (a1 + n) * (a2 + n) / ((b + n) * (n + 1.0))

    def log_p(n):  # summed term by term from the anchor, as a scalar loop would
        r = ratio(np.arange(n - 1.0))
        if not np.all(r > 0):  # positivity of the joint ratio is the validity rule
            raise ParameterError(f"P(n+1)/P(n) turned non-positive at n={np.argmin(r > 0)}")
        return np.add.accumulate(np.concatenate(([lp0], np.log(r))))

    return PhotonStats(_pn_series(log_p, 64, label), mean, q, x)

