"""Photon number statistics of generalized hypergeometric states.

Generic path, with x = |z|^2 and the terms t_n = x^n / rho(n) of
N(x) = pFq(a; b; x): for plane and disk states P(n) = t_n / N(x) and the
factorial moments m_k = sum_n t_n g_n...g_(n+k-1) / sum_n t_n, with the term
ratio g_j = x (j+1)/f^2(j), all from one slice of the rho sequence
(states.log_terms): no pFq series is summed and no log N enters a moment.
Normalized circle states, whose terms fall only like n^(eta-1), take N from
the row kept on the set (states.circle_row) and the shifted N_k from the Gauss
sum at unit argument (states.normalization).
Mean and Mandel Q are r_1 and r_2 - r_1, r_k = m_k/m_(k-1).  Every P(n)
is cut by one rule (_pn_series).

Closed-form path: the five standard families from their own formulas, with
P(n) = t_n/N for terms stepped by the family's ratio (_summed); it shares
none of the sums above and serves as their oracle.  The mean and Q of F01,
F11 and F21 come from continued fractions for contiguous ratios
(closed_form_stats), so no whole Bessel, Kummer or Gauss value is formed,
nothing overflows and no specfun series is summed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import ConvergenceError, DivergenceError, ParameterError
from .states import (MAX_CUTOFF, DomainKind, ParameterSet, StateSpec, circle_row, classify,
                     family_params, log_shares, log_terms, normalization, rho_steps)

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
    is met (ConvergenceError otherwise).  A longer slice cuts at the same
    length, so P(n) does not depend on the first n."""
    while True:
        lp = log_p(n)
        p = np.exp(lp)
        ok = (np.cumsum(p) >= PN_CUMULATIVE) & (lp < np.maximum.accumulate(lp) + math.log(PN_FLOOR))
        k = int(np.argmax(ok)) + 1
        if ok[k - 1]:
            return DistributionSeries(np.arange(k), p[:k], float(abs(p[:k].sum() - 1.0)), label)
        if n >= MAX_CUTOFF:
            raise ConvergenceError(f"P(n) did not accumulate to 1 within {MAX_CUTOFF} terms")
        n = min(2 * n, MAX_CUTOFF)


def pn_distribution(spec: StateSpec, tol: float = specfun.DEFAULT_TOL) -> DistributionSeries:
    """Photon number distribution P(n) = x^n / (rho(n) N(x)), the log_shares
    of the slice on the plane and disk.  A normalized circle state reads N(1),
    summed at tol, from its kept row (states.circle_row) and cuts from the
    row's length, so the job's Fock vector and P(n) share one rho build."""
    kind = spec.domain_kind()
    if kind is DomainKind.CIRCLE_UNNORMALIZABLE:
        raise DivergenceError("unnormalizable circle states have no photon distribution")
    params = spec.params
    x = abs(complex(spec.z)) ** 2
    if x == 0.0:
        return DistributionSeries(np.array([0]), np.array([1.0]), 0.0, params.label())
    if kind is DomainKind.CIRCLE_NORMALIZED:  # on the circle: |z| = 1
        _, n1, lc, _, _ = circle_row(params, tol)
        ln_n = math.log(n1)
        return _pn_series(lambda n: -rho_steps(params, n - 1)[1] - ln_n,
                          min(len(lc), MAX_CUTOFF), params.label())
    log_p = log_shares(log_terms(params, x)[0])
    return _pn_series(lambda n: log_p, len(log_p), params.label())


def _checked_x(x: float) -> None:
    """Refuse a non-finite x = |z|^2, as StateSpec does, or a negative one."""
    if not math.isfinite(x):
        raise DivergenceError("x = |z|^2 must be finite")
    if x < 0.0:
        raise ValueError("x = |z|^2 must be non-negative")


def _moment_ratios(params: ParameterSet, x, tol: float) -> list:
    """[r_1, r_2], r_j = m_j/m_(j-1) of the factorial moments (m_0 = 1) at x > 0,
    or arrays of them over a 1-D array x of plane and disk points.  With the
    term ratio g_j = (j+1) t_(j+1)/t_j = x (j+1)/f^2(j), r_j is the mean of
    g_(n+j-1) under the weights t_n g_n...g_(n+j-2), taken against its value
    v_m at the mode m of t_n as v_m + sum w (v - v_m)/sum w: a constant g
    gives x to the bit, and a g_0 far above the mean (F01, small b) cancels
    nothing.  Circle points, taken at x = 1, have r_j = g_(j-1) N_j/N_(j-1)
    from the shifted Gauss sums."""
    many = isinstance(x, np.ndarray)
    if not many and StateSpec(params, math.sqrt(x)).domain_kind() not in (
            DomainKind.PLANE, DomainKind.UNIT_DISK):  # circle: terms fall like n^(eta-1)
        f2 = rho_steps(params, 2)[0].tolist()
        norms = [circle_row(params, tol)[1]] + [normalization(params.shifted(j), 1.0, tol=tol)
                                                for j in (1, 2)]
        return [(j / f2[j - 1]) * (norms[j] / norms[j - 1]) for j in (1, 2)]
    log_t = log_terms(params, x)[0]
    n = log_t.shape[-1]
    h = np.arange(1.0, n + 2) / rho_steps(params, n + 1)[0]  # g_j / x
    w = np.exp(log_t - log_t.max(axis=-1, keepdims=True))
    mode = log_t.argmax(axis=-1)
    ratios = []
    for j in range(2):
        v = h[j: j + n]
        r = x * (v[mode] + (w * (v - v[mode][..., None])).sum(axis=-1) / w.sum(axis=-1))
        ratios.append(r if many else float(r))
        w = w * v
    return ratios


def mean_and_mandel(params: ParameterSet, x, tol: float = specfun.DEFAULT_TOL):
    """(mean photon number, Mandel Q) at x = |z|^2: the moment ratios r_1
    and r_2 - r_1 = m_2/m_1 - m_1, so the coherent state's Q is exactly 0;
    at x = 0 both vanish linearly and Q takes its continuous extension 0.
    A 1-D numpy array x gives arrays: its plane and open-disk points share one
    log_terms pass, the rest take scalar calls (circle points, domain errors)."""
    if isinstance(x, np.ndarray) and x.ndim > 0:
        plane = classify(params).kind is DomainKind.PLANE
        az = np.sqrt(np.abs(x))  # |z| for StateSpec's circle test; x < 0 is refused below
        inside = az < math.inf if plane else (az < 1.0) & ~specfun.on_unit_circle(az)
        sweep = (x > 0.0) & inside
        out = np.zeros((2, len(x)))
        for i in np.flatnonzero(~sweep & (x != 0.0)):  # first, so bad points raise at once
            out[:, i] = mean_and_mandel(params, float(x[i]), tol)
        if sweep.any():
            r1, r2 = _moment_ratios(params, x[sweep], tol)
            out[:, sweep] = r1, r2 - r1
        return out[0], out[1]
    _checked_x(x)
    r1, r2 = _moment_ratios(params, x, tol) if x != 0.0 else (0.0, 0.0)
    return r1, r2 - r1


def _lentz(b0: float, term) -> float:
    """The continued fraction b0 + a_1/(b_1 + a_2/(b_2 + ...)), term(j) =
    (a_j, b_j).  Modified Lentz (Thompson & Barnett, J. Comput. Phys. 64
    (1986) 490) finds the depth: the first step that moves the value by at
    most one ulp of 1.  The value is then summed backward from that depth,
    tail first, which damps each rounding where the Lentz product keeps them
    all: the F21 Q for x in [0.8, 0.9409] is within 2e-14 of mpmath, against
    1.2e-13 from the product.  The step cap is specfun.DEFAULT_MAX_TERMS,
    read at call time; reaching it raises ConvergenceError."""
    tiny = 1e-30
    c, d, links, prev = b0 or tiny, 0.0, [], b0
    for j in range(1, specfun.DEFAULT_MAX_TERMS + 1):
        a, b = term(j)
        links.append((a, prev))
        prev = b
        d = 1.0 / ((b + a * d) or tiny)
        c = (b + a / c) or tiny
        if abs(c * d - 1.0) <= 2.0**-52:  # the Lentz step f_j / f_(j-1)
            for a, b in reversed(links):
                prev = b + a / (prev or tiny)
            return prev
    raise ConvergenceError(
        f"continued fraction did not settle within {specfun.DEFAULT_MAX_TERMS} steps")


def _summed(ratio, limit: float = 0.0) -> np.ndarray:
    """log P(n) = log t_n - log N for the positive terms t_0 = 1, t_(n+1) =
    ratio(n) t_n, on a slice that holds the cut of _pn_series.  The log
    ratios are summed outward from m, the first ratio below 1, by one
    reversed and one forward accumulate, so the partial sums stay small
    where P(n) is large (summed up from n = 0 they reach about x and carry
    about n u x of rounding); log_shares normalizes the row.  With r the
    ratio joined with its n -> inf limit (0 for CS, F01 and F11, x for F10
    and F21), the slice doubles from 64 terms until r(n/2 - 1)^(n/2 - 1) <=
    1e-17, and then until r(n - 2) < 1 and the last term times r/(1 - r) is
    below 1e-17 of the largest.  Each ratio = 1 is at most a quadratic in n,
    so past the first few terms the ratios of CS, F01 and F11 only fall once
    below 1 and those of F10 and F21 fall towards x or rise towards it: r
    bounds the terms left out, below 1e-17 of N, and the P(n) rule is met
    inside the slice."""
    ln_lim = math.log(limit) if limit > 0.0 else -math.inf
    n = 64
    while n < MAX_CUTOFF and min(max(ratio(n / 2 - 1.0), limit), 1.0) ** (n / 2 - 1) > 1e-17:
        n = min(2 * n, MAX_CUTOFF)
    while True:
        r = ratio(np.arange(n - 1.0))  # ratio(0..n-2); positive for valid parameters
        if not r.min() > 0.0:
            raise ParameterError(f"P(n+1)/P(n) turned non-positive at n={np.argmin(r > 0)}")
        log_r = np.log(r)
        ln_r = max(log_r[-1], ln_lim)
        m = int(np.argmax(log_r < 0.0))
        log_t = np.concatenate((-np.add.accumulate(log_r[:m][::-1])[::-1], [0.0],
                                np.add.accumulate(log_r[m:])))
        if ln_r < 0.0 and (log_t[-1] + ln_r - math.log1p(-math.exp(ln_r))
                           < log_t.max() + math.log(1e-17)):
            return log_shares(log_t)
        if n >= MAX_CUTOFF:
            raise ConvergenceError(f"the normalization sum did not settle within {MAX_CUTOFF} terms")
        n = min(2 * n, MAX_CUTOFF)


def closed_form_stats(family: str, params: ParameterSet, x: float) -> PhotonStats:
    """Closed-form photon statistics of the standard families.

    CS:  Poisson, mean x, Q = 0.
    F01: Bessel ratios r(v) = I_v/I_(v-1)(2 sqrt x): r(b+1) by its continued
         fraction (DLMF 10.33.1), r(b) = 1/(r(b+1) + b/sqrt x) (DLMF 10.29.1,
         no terms cancel for b > 0); mean = sqrt(x) r(b) and
         Q = sqrt(x) (r(b+1) - r(b)).
    F11: Kummer ratios.  mean = x M'(a; b; x)/M(a; b; x) = x + (a - b) x/g
         with b/g = M(a; b+1; x)/M(a; b; x), the fraction of the recurrence
         in b (DLMF 13.3.2), whose minimal solution is M(a; b+n; x):
         g = b + x - (b+1-a)x/(b+1+x - (b+2-a)x/(b+2+x - ...)).  Q =
         n2/mean - mean is the mean of the shifted set (a+1; b+1) less the
         mean.  (The fraction of DLMF 13.5.1 for M(a+1; b+1; x)/M(a; b; x)
         cancels where a << b: 7e-11 at (0.37; 5.16), x = 877.)
    F10: geometric forms, mean = a x/(1-x), Q = x/(1-x) (a-independent).
    F21: Gauss ratios, a1 >= a2.  mean = x (a1 a2/b) R with R = F(a1+1,
         a2+1; b+1; x)/F(a1, a2; b; x) = g/(1 - x (a2/b) g) by F(a+1, b; c) =
         F + (b x/c) F(a+1, b+1; c+1), and 1/g = F(a1+1, a2; b)/F(a1+1,
         a2+1; b+1) by Gauss's continued fraction (DLMF §15.7); shifting
         the larger a keeps the subtraction's loss, 1 + mean/a1, smallest.
         Q is the mean of the shifted set (a1+1, a2+1; b+1) less the mean.

    The three fractions are summed by _lentz, so no whole Bessel, Kummer or
    Gauss value is formed.  Against 40-digit mpmath (mean relative to
    itself, Q relative to max(1, mean)): F01 within 1e-13 for b in [0.2, 6],
    x in [0.01, 1e5]; F11 within 1e-13 for a, b in [0.3, 6], x in
    [0.01, 1e4] (worst measured 7.0e-15); F21 within 1e-13 for a1, a2, b in
    [0.3, 5] and |z| <= 0.97 (x <= 0.9409), s = b - a1 - a2 near an integer
    included (worst measured 1.9e-14); from x = 0.9409 to 0.99 the
    subtraction costs digits (4.5e-13 measured, no bound claimed).  P(n) of
    every family is t_n/N, the positive-term sum of _summed: within 2e-13 of
    40-digit mpmath wherever P(n) >= 1e-16 of its peak; for CS and F11 it
    takes about x + 9 sqrt(x) terms, so past x of about 6.3e4 it raises
    ConvergenceError.

    Entirely independent of the generic pfq/rho path (log_terms, rho_steps),
    so the two can be cross-checked against each other.
    """
    vals = family_params(family, params)
    _checked_x(x)
    label = f"{family}{params.label()}"
    if x == 0.0:
        pn = DistributionSeries(np.array([0]), np.array([1.0]), 0.0, label)
        return PhotonStats(pn, 0.0, 0.0, x)

    if any(isinstance(v, complex) for v in vals):
        raise ParameterError(
            "closed-form statistics take real parameters; use the generic path "
            "for conjugate-pair parameter sets"
        )

    # per family: mean, Q and log P(n), from the step ratio P(n+1)/P(n)
    if family == "CS":
        mean, q, log_p = x, 0.0, _summed(lambda n: x / (n + 1.0))
    elif family == "F01":
        (b,) = vals
        log_p = _summed(lambda n: x / ((n + 1.0) * (b + n)))
        t = math.sqrt(x)
        r_up = 1.0 / _lentz((b + 1.0) / t, lambda j: (1.0, (b + 1.0 + j) / t))
        r_b = 1.0 / (r_up + b / t)
        mean, q = t * r_b, t * (r_up - r_b)
    elif family == "F11":
        a, b = vals
        log_p = _summed(lambda n: x * (a + n) / ((b + n) * (n + 1.0)))

        def kummer_mean(a, b):  # x + (a - b) x / g
            return x + (a - b) * x / _lentz(b + x, lambda j: (-(b + j - a) * x, b + j + x))

        mean = kummer_mean(a, b)
        q = kummer_mean(a + 1.0, b + 1.0) - mean
    elif x >= 1.0:
        raise DivergenceError("disk family needs x < 1")
    elif family == "F10":
        (a,) = vals
        mean, q = a * x / (1.0 - x), x / (1.0 - x)
        log_p = _summed(lambda n: x * (a + n) / (n + 1.0), x)
    else:  # F21
        a2, a1, b = vals  # a1 >= a2: the larger numerator parameter is shifted
        log_p = _summed(lambda n: x * (a1 + n) * (a2 + n) / ((b + n) * (n + 1.0)), x)

        def gauss_mean(a1, a2, b):  # x (a1 a2/b) R with 1/R = 1/g - x a2/b
            def term(j):  # Gauss's fraction for 1/g = F(a1+1, a2; b)/F(a1+1, a2+1; b+1)
                n = j // 2
                top = (a1 + 1.0 + n) * (b - a2 + n) if j % 2 else (a2 + n) * (b - a1 - 1.0 + n)
                return -x * top / ((b + j - 1.0) * (b + j)), 1.0
            return x * (a1 * a2 / b) / (_lentz(1.0, term) - x * (a2 / b))

        mean = gauss_mean(a1, a2, b)
        q = gauss_mean(a1 + 1.0, a2 + 1.0, b + 1.0) - mean

    return PhotonStats(_pn_series(lambda n: log_p, len(log_p), label), mean, q, x)
