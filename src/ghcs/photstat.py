"""Photon number statistics of generalized hypergeometric states.

Generic path: P(n) = x^n / (rho(n) N(x)) with x = |z|^2, factorial moments
through parameter-shifted normalization ratios, mean and Mandel parameter
from the first two.  Closed-form path: the Bessel / Kummer / geometric /
Gauss expressions of the five standard families, used as an independent
oracle for the generic machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DivergenceError, ParameterError
from .states import (
    DomainKind,
    ParameterSet,
    StateSpec,
    log_rho,
    normalization,
)

PN_CUMULATIVE = 1.0 - 1e-12
PN_FLOOR = 1e-16

FAMILIES = ("CS", "F01", "F11", "F10", "F21")


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


def _truncation_length(log_p) -> int:
    """Smallest length with cumulative >= PN_CUMULATIVE and a negligible
    last term; log_p(n) must eventually decrease superlinearly."""
    total = 0.0
    peak = -math.inf
    n = 0
    while True:
        lp = log_p(n)
        peak = max(peak, lp)
        total += math.exp(lp)
        if total >= PN_CUMULATIVE and lp < peak + math.log(PN_FLOOR):
            return n + 1
        if n > 100_000:
            raise DivergenceError("photon distribution did not accumulate to 1")
        n += 1


def pn_distribution(spec: StateSpec, tol: float = specfun.DEFAULT_TOL) -> DistributionSeries:
    """Photon number distribution P(n) = x^n / (rho(n) N(x))."""
    kind = spec.domain_kind()
    if kind is DomainKind.CIRCLE_UNNORMALIZABLE:
        raise DivergenceError("unnormalizable circle states have no photon distribution")
    params = spec.params
    x = abs(complex(spec.z)) ** 2
    if x == 0.0:
        return DistributionSeries(np.array([0]), np.array([1.0]), 0.0, params.label())
    ln_n = math.log(normalization(params, x, tol=tol))
    lnx = math.log(x)
    return _pn_from_logs(lambda n: n * lnx - log_rho(params, n) - ln_n, params.label())


def factorial_moment(params: ParameterSet, x: float, k: int,
                     tol: float = specfun.DEFAULT_TOL) -> float:
    """k-th factorial moment <n(n-1)...(n-k+1)> at x = |z|^2:
    x^k [prod (a_i)_k / prod (b_j)_k] pFq(a+k; b+k; x) / pFq(a; b; x)."""
    if k < 1:
        raise ValueError("factorial moment order must be >= 1")
    if x == 0.0:
        return 0.0
    shift = 1.0 + 0.0j
    for ai in params.a:
        shift *= specfun.pochhammer(ai, k)
    for bj in params.b:
        shift /= specfun.pochhammer(bj, k)
    # normalization() rather than raw pfq: it routes (2;1) families through
    # the Gauss evaluator, which stays fast and accurate near the disk edge
    num = normalization(params.shifted(k), x, tol=tol)
    den = normalization(params, x, tol=tol)
    val = x**k * shift * num / den
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise ParameterError(f"factorial moment has imaginary residue {val.imag:g}")
    return val.real


def mean_and_mandel(params: ParameterSet, x: float,
                    tol: float = specfun.DEFAULT_TOL):
    """(mean photon number, Mandel Q) at x = |z|^2.

    Q = -mean + n2/mean with n2 the second factorial moment; at x = 0 both
    vanish linearly so Q is returned as its continuous-extension value 0.
    """
    if x == 0.0:
        return 0.0, 0.0
    mean = factorial_moment(params, x, 1, tol=tol)
    n2 = factorial_moment(params, x, 2, tol=tol)
    return mean, -mean + n2 / mean


def family_params(family: str, params: ParameterSet) -> tuple:
    """Check that params matches the family shape; returns the bare values."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    shapes = {"CS": (0, 0), "F01": (0, 1), "F11": (1, 1), "F10": (1, 0), "F21": (2, 1)}
    if (params.p, params.q) != shapes[family]:
        raise ParameterError(
            f"family {family} expects (p;q) = {shapes[family]}, got "
            f"({params.p};{params.q})"
        )
    return tuple(params.a) + tuple(params.b)


def _pn_from_logs(log_p, label) -> DistributionSeries:
    count = _truncation_length(log_p)
    values = np.exp([log_p(n) for n in range(count)])
    return DistributionSeries(
        np.arange(count), values, float(abs(values.sum() - 1.0)), label
    )


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

    if family == "CS":
        return PhotonStats(
            _pn_from_ratio(-x, lambda n: x / (n + 1.0), label), x, 0.0, x
        )

    if family == "F01":
        (b,) = vals
        y = 2.0 * math.sqrt(x)
        i_bm1 = specfun.bessel_i(b - 1.0, y)
        i_b = specfun.bessel_i(b, y)
        i_bp1 = specfun.bessel_i(b + 1.0, y)
        mean = math.sqrt(x) * i_b / i_bm1
        q = math.sqrt(x) * (i_bp1 / i_b - i_b / i_bm1)
        lp0 = 0.5 * (b - 1.0) * math.log(x) - math.lgamma(b) - math.log(i_bm1)
        return PhotonStats(
            _pn_from_ratio(lp0, lambda n: x / ((n + 1.0) * (b + n)), label), mean, q, x
        )

    if family == "F11":
        a, b = vals
        m0 = specfun.kummer_m(a, b, x)
        m1 = specfun.kummer_m(a + 1.0, b + 1.0, x)
        m2 = specfun.kummer_m(a + 2.0, b + 2.0, x)
        mean = x * (a / b) * m1 / m0
        q = -mean + x * ((a + 1.0) / (b + 1.0)) * m2 / m1
        return PhotonStats(
            _pn_from_ratio(
                -math.log(m0), lambda n: x * (a + n) / ((b + n) * (n + 1.0)), label
            ),
            mean, q, x,
        )

    if family == "F10":
        (a,) = vals
        if x >= 1.0:
            raise DivergenceError("disk family needs x < 1")
        mean = a * x / (1.0 - x)
        q = x / (1.0 - x)
        return PhotonStats(
            _pn_from_ratio(
                a * math.log1p(-x), lambda n: x * (a + n) / (n + 1.0), label
            ),
            mean, q, x,
        )

    # F21
    a1, a2, b = vals
    if x >= 1.0:
        raise DivergenceError("disk family needs x < 1")
    f0 = sf_2f1(a1, a2, b, x)
    f1 = sf_2f1(a1 + 1.0, a2 + 1.0, b + 1.0, x)
    f2 = sf_2f1(a1 + 2.0, a2 + 2.0, b + 2.0, x)
    mean = x * (a1 * a2 / b) * f1 / f0
    q = -mean + x * ((a1 + 1.0) * (a2 + 1.0) / (b + 1.0)) * f2 / f1
    return PhotonStats(
        _pn_from_ratio(
            -math.log(f0),
            lambda n: x * (a1 + n) * (a2 + n) / ((b + n) * (n + 1.0)),
            label,
        ),
        mean, q, x,
    )


def sf_2f1(a1, a2, b, x):
    return complex(specfun.gauss_2f1(a1, a2, b, x).value).real


def _pn_from_ratio(log_p0: float, ratio_fn, label: str) -> DistributionSeries:
    """Distribution from log P(0) and the positive step ratio P(n+1)/P(n)
    (positivity of the joint ratio is exactly the family validity rule)."""
    logs = [log_p0]

    def log_p(n):
        while len(logs) <= n:
            k = len(logs) - 1
            r = ratio_fn(k)
            if r <= 0:
                raise ParameterError(f"P(n+1)/P(n) turned non-positive at n={k}")
            logs.append(logs[k] + math.log(r))
        return logs[n]

    return _pn_from_logs(log_p, label)
