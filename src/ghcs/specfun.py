"""Self-contained special-function kernel.

Everything downstream (state construction, photon statistics, weight
functions, phase distributions) is built on the evaluators in this module:
log-gamma and its ratios, the generalized hypergeometric series pFq,
the modified Bessel function K, the Tricomi confluent hypergeometric
function U, and the Gauss function 2F1 including its unit argument and
near-unit-argument connection formulas.  The Bessel I and Kummer M ratios
of the closed-form photon statistics are continued fractions in photstat.

All evaluators are pure functions in double precision.  pfq is the one
series loop (the 2F1 logarithmic case sums through it, its terms weighted):
convergence is declared when three consecutive terms are below tol relative
to the partial sum and so is their geometric tail, which is reported
alongside the value and sum |t_n|.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DivergenceError, PoleError, RangeError

DEFAULT_TOL = 1e-12
DEFAULT_MAX_TERMS = 100_000
UNIT_BAND = 1e-14  # a modulus within this of 1 lies on the unit circle (on_unit_circle)

# Lanczos coefficients, g = 7, n = 9 (used for complex log-gamma only;
# real arguments go through math.lgamma).
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_LN_SQRT_2PI = 0.9189385332046727


@dataclass(frozen=True)
class SeriesResult:
    """Outcome of a truncated series evaluation.

    tail_estimate bounds the truncation error, at most tol * max(1, |value|)
    for the tol the series was run at (an evaluator that misses it raises).
    A sum over an array of arguments holds arrays of values and tail estimates.
    abs_sum is pfq's sum of |t_n| over the terms it summed, before any weight
    (u abs_sum scales the rounding of the sum); None where several sums combine.
    """

    value: complex
    terms_used: int
    tail_estimate: float
    abs_sum: float | None = None


def _is_nonpositive_integer(v) -> bool:
    if isinstance(v, complex):
        if abs(v.imag) > 1e-14 * max(1.0, abs(v.real)):
            return False
        v = v.real
    r = round(v)
    return r <= 0 and abs(v - r) <= 1e-12 * max(1.0, abs(v))


def _as_real_if_possible(v):
    if isinstance(v, complex) and v.imag == 0.0:
        return v.real
    return v


def ln_gamma(x):
    """Principal-branch log-gamma for real or complex x.

    Real positive arguments return a float (math.lgamma); everything else
    goes through a complex Lanczos evaluation with reflection for
    Re(x) < 0.5.  Raises PoleError at non-positive integers.
    """
    if _is_nonpositive_integer(x):
        raise PoleError(f"ln_gamma pole at {x}")
    x = _as_real_if_possible(x)
    if not isinstance(x, complex):
        if x > 0:
            return math.lgamma(x)
        # Gamma alternates sign between negative integers: go complex.
        x = complex(x)
    v = _ln_gamma_complex(x)
    # fold onto the principal branch: exp is 2 pi i periodic, so this still
    # satisfies exp(ln_gamma(x)) = Gamma(x)
    if not -math.pi < v.imag <= math.pi:
        v = complex(v.real, math.remainder(v.imag, 2.0 * math.pi))
    return v


def _ln_gamma_complex(z: complex) -> complex:
    if z.real < 0.5:
        # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
        return (
            math.log(math.pi)
            - cmath.log(cmath.sin(math.pi * z))
            - _ln_gamma_complex(1.0 - z)
        )
    z = z - 1.0
    s = _LANCZOS[0]
    for k in range(1, len(_LANCZOS)):
        s += _LANCZOS[k] / (z + k)
    t = z + 7.5
    return _LN_SQRT_2PI + (z + 0.5) * cmath.log(t) - t + cmath.log(s)


def ln_gamma_ratio(up, down) -> tuple:
    """(log |prod Gamma(up) / prod Gamma(down)|, sign of the ratio), the log
    terms summed in the order given, for real arguments and complex ones in
    conjugate pairs (each pair's |Gamma|^2 is positive).  A pole in down gives
    the ratio's zero, (-inf, 0.0); a pole in up raises PoleError.  exp of the
    log carries a relative error of about u sum |ln Gamma|."""
    ln, sign = 0.0, 1.0
    for k, v in enumerate((*up, *down)):  # every up is tested before a down pole returns
        if _is_nonpositive_integer(v):
            if k < len(up):
                raise PoleError(f"Gamma ratio pole at {v} in the numerator")
            return -math.inf, 0.0
        if isinstance(v, complex):
            term = ln_gamma(v).real
        else:
            term = math.lgamma(v)
            if v < 0 and math.ceil(-v) % 2 == 1:
                sign = -sign
        ln = ln + term if k < len(up) else ln - term
    return ln, sign


def _exp_ratio(ln: float) -> float:
    """exp of a ln_gamma_ratio log; past the double range RangeError names the log."""
    try:
        return math.exp(ln)
    except OverflowError:
        raise RangeError(f"Gamma ratio exp({ln:.6g}) exceeds double range") from None


def digamma(x: float) -> float:
    """Digamma function for real x (poles excluded).

    Uses the shift recurrence up to x >= 10 and the asymptotic Bernoulli
    expansion through B14; reflection handles x < 1/2.  Measured on real x
    in [0.5, 40]: within 9e-16 of mpmath (absolute, or relative where
    |psi| > 1).
    """
    if _is_nonpositive_integer(x):
        raise PoleError(f"digamma pole at {x}")
    if x < 0.5:
        return digamma(1.0 - x) - math.pi / math.tan(math.pi * x)
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x = x + 1.0
    inv2 = 1.0 / (x * x)
    # Bernoulli numbers B2/2, B4/4, ..., B14/14 over x^{2k}; the first term
    # left out is below 5e-17 at x >= 10
    tail = inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (
        1.0 / 240.0 - inv2 * (1.0 / 132.0 - inv2 * (691.0 / 32760.0 - inv2 / 12.0))))))
    return acc + math.log(x) - 0.5 / x - tail


def on_unit_circle(r):
    """Whether the modulus r (a float or an array) lies on the unit circle,
    within UNIT_BAND of 1: the one test of the circle, for the pfq argument
    here and for the state point |z| (states.StateSpec)."""
    return abs(r - 1.0) <= UNIT_BAND


def _check_pfq_domain(a, b, x: np.ndarray):
    p, q = len(a), len(b)
    if p <= q or any(_is_nonpositive_integer(ai) for ai in a):
        return  # entire, or a terminating series
    ax = np.abs(x)
    if p > q + 1 and ax.any():
        raise DivergenceError(f"{p}F{q} diverges for any x != 0 (p > q + 1)")
    inside = ax < 1.0 - UNIT_BAND
    if inside.all():
        return
    eta = sum(complex(ai).real for ai in a) - sum(complex(bj).real for bj in b)
    ok = inside | on_unit_circle(ax) & (eta < 0)  # inside the disk, or on the ring with eta < 0
    if not ok.all():
        raise DivergenceError(
            f"{p}F{q} diverges at |x| = {ax[~ok][0]:g} (unit-disk family)"
        )


def pfq(a, b, x, tol: float = DEFAULT_TOL, weight=None) -> SeriesResult:
    """Generalized hypergeometric series sum_n [prod (a_i)_n / prod (b_j)_n] x^n / n!.

    Parameters
    ----------
    a, b : sequences of real or complex parameters; no b_j may be a
        non-positive integer.
    x : real or complex argument, or a 1-D array of them, inside the
        convergence domain (any x for p <= q, |x| < 1 for p = q+1, or
        |x| = 1 with eta < 0).
    tol : requested relative truncation error.
    weight : start weights g_0, one per node (a float for a float x).  The
        sum is then sum_n t_n g_n, with g_(n+1) = g_n + sum 1/(a_i+n)
        - sum 1/(b_j+n) - 1/(n+1): the derivative of log(t_(n+1)/t_n)
        under a common shift of every parameter and of n, as the psi
        differences of the 2F1 logarithmic case step.

    All nodes are summed at once, in blocks of terms formed by
    np.multiply.accumulate and np.add.accumulate over the term ratios, so
    each partial sum is the one a term-by-term loop forms.  A node stops at
    its own first term where the rule holds: three successive terms below
    tol of the partial sum and a geometric tail |t_n|/(1 - |t_n/t_(n-1)|)
    (the last three |t| if that ratio is not below 1) below tol max(1, |sum|).

    Returns a SeriesResult (for an array x, value and tail_estimate are
    arrays and terms_used counts the terms of all nodes); raises
    DivergenceError outside the domain, RangeError if a partial sum leaves
    the double range and ConvergenceError if the term cap DEFAULT_MAX_TERMS
    is reached first.
    """
    a, b = tuple(a), tuple(b)
    for bj in b:
        if _is_nonpositive_integer(bj):
            raise PoleError(f"pfq denominator parameter {bj} is a non-positive integer")
    xs = np.atleast_1d(x)
    _check_pfq_domain(a, b, xs)
    # the nodes still summing, their last term, partial sum and sum of |t|,
    # and |t| of the two terms before those and whether they were small (no
    # run of three small terms starts before n = 2, so any start values do)
    g = None if weight is None else np.atleast_1d(weight)  # the weight of the last term
    rows, xr, term, s, s_abs = np.arange(len(xs)), xs[:, None], 1.0, 1.0 if g is None else g, 1.0
    prev_abs = prev_small = np.zeros((len(xs), 2), bool)
    value = tail = abs_sum = None  # allocated when the first node stops
    n0, k, used = 0, 128, 0
    with np.errstate(all="ignore"):  # nodes run on past their stop within a block
        while True:
            if n0 >= DEFAULT_MAX_TERMS:
                raise ConvergenceError(
                    f"pfq did not reach tol={tol:g} within {DEFAULT_MAX_TERMS} terms "
                    f"(last |term|/|sum| = {np.abs(term).flat[0] / max(np.abs(s).flat[0], 1e-300):.3g})"
                )
            k = max(8, min(k, 2**17 // max(1, len(rows))))  # at most about 2^17 terms in a block
            n = np.arange(n0, min(n0 + k, DEFAULT_MAX_TERMS), dtype=float)
            num = xr
            for ai in a:
                num = num * (ai + n)
            den = n + 1.0
            for bj in b:
                den = den * (bj + n)
            t = num / den  # the ratios t_n / t_(n-1), then the terms in place
            if num.dtype.kind == "c" and den.dtype.kind != "c":  # part by part, as Python divides
                t.real, t.imag = num.real / den, num.imag / den
            r = np.abs(t)
            if n0:
                t[:, 0] *= term
            np.multiply.accumulate(t, axis=1, out=t)
            abs_sums = np.abs(t)
            abs_sums[:, 0] += s_abs
            np.add.accumulate(abs_sums, axis=1, out=abs_sums)
            add = t
            if g is not None:  # the weights g_n of the block's terms
                steps = sum(1.0 / (ai + n) for ai in a) - sum(1.0 / (bj + n) for bj in b) - 1.0 / (n + 1.0)
                gn = g[:, None] + np.add.accumulate(steps)
                add = t * gn
            sums = add.copy()
            sums[:, 0] += s
            np.add.accumulate(sums, axis=1, out=sums)
            at, lim = np.abs(add), tol * np.abs(sums)
            small = np.concatenate((prev_small, at <= lim), axis=1)
            run = small[:, 2:] & small[:, 1:-1] & small[:, :-2]  # three small terms in a row
            tails = at / (1.0 - r)
            if (run & (r >= 1.0)).any():  # the last three |t| where the ratio is not below 1
                last3 = np.concatenate((prev_abs, at), axis=1)
                tails = np.where(r < 1.0, tails, last3[:, :-2] + last3[:, 1:-1] + last3[:, 2:])
            stop = run & (tails <= np.maximum(lim, tol))  # and a tail below tol max(1, |sum|)
            if not at.all():  # a zero term ends the sum: terminating or underflowed series
                stop |= at == 0
                tails[at == 0] = 0.0
            done, end = stop.any(axis=1), stop.argmax(axis=1)
            if not lim.max(initial=0.0) < math.inf:
                end[~done] = len(n) - 1
                bad = ~(lim < math.inf) & (np.arange(len(n)) <= end[:, None])
                if bad.any():
                    raise RangeError(f"pfq partial sum overflowed at term {n0 + bad.any(axis=0).argmax() + 1}")
            if value is None and done.all():  # all stop together: rows is still 0..m-1
                value, tail, abs_sum = sums[rows, end], tails[rows, end], abs_sums[rows, end]
                used = int(end.sum()) + len(rows) * (n0 + 2)
                break
            if value is None:
                value, tail, abs_sum = np.empty(len(xs), sums.dtype), np.empty(len(xs)), np.empty(len(xs))
            i = np.flatnonzero(done)
            ri, ei = rows[i], end[i]
            value[ri], tail[ri], abs_sum[ri] = sums[i, ei], tails[i, ei], abs_sums[i, ei]
            used += int(ei.sum()) + len(i) * (n0 + 2)
            if len(i) == len(rows):
                break
            keep = ~done
            rows, xr, t, sums, at, small = rows[keep], xr[keep], t[keep], sums[keep], at[keep], small[keep]
            term, s, s_abs = t[:, -1], sums[:, -1], abs_sums[keep, -1]
            prev_abs, prev_small = at[:, -2:], small[:, -2:]
            if g is not None:
                g = gn[keep, -1]
            n0, k = n0 + len(n), min(2 * k, 1024)
    if np.ndim(x):
        return SeriesResult(value, used, tail, abs_sum)
    return SeriesResult(_as_real_if_possible(value[0].item()), used, float(tail[0]), float(abs_sum[0]))


def _log_trapezoid(log_f, lo, hi, n: int, *cols) -> np.ndarray:
    """log of integral_lo^hi exp(log_f(s)) ds by the trapezoid rule (exponentially
    convergent for analytic integrands negligible at both ends), a row per window
    of the arrays lo, hi; log_f maps an (m, j) grid of nodes and the (m, 1) columns
    of cols (per-row parameters) at the same m rows to the log integrand.  Each
    row halves its step (hi - lo)/n, re-using every node, until |T_h - T_2h| <=
    1e-13 T_h (T_2h sums the even nodes), and keeps that first sum; log_f sees the
    open rows only, so a row takes the nodes and bits of its one-row call.  Raises
    ConvergenceError when an end value exceeds 1e-13 times its row's largest or
    2^12 n nodes miss the tolerance."""
    lo, hi = np.reshape(lo, (-1, 1)), np.reshape(hi, (-1, 1))
    cols = [np.reshape(c, (-1, 1)) for c in cols]
    h, n_max, tol = (hi - lo) / n, 4096 * n, 1e-13
    lf = log_f(lo + h * np.arange(n + 1), *cols)
    top = lf.max(axis=1, keepdims=True)
    cut = ~(np.maximum(lf[:, 0], lf[:, -1]) <= top[:, 0] + math.log(tol))  # also catches nan
    if cut.any():
        lo_k, hi_k = lo[cut.argmax(), 0], hi[cut.argmax(), 0]
        raise ConvergenceError(f"trapezoid window [{lo_k:g}, {hi_k:g}] cuts off the integrand")
    w, h = np.exp(lf - top), h[:, 0]
    coarse, fine = 2.0 * h * w[:, ::2].sum(axis=1), h * w.sum(axis=1)  # T_2h, T_h, over e^top
    rows = np.flatnonzero(~(np.abs(fine - coarse) <= tol * fine))  # the open rows
    while rows.size:
        if n == n_max:
            raise ConvergenceError(f"trapezoid rule missed tol={tol:g} with {n + 1} nodes")
        hr = h[rows]
        nodes = lo[rows] + hr[:, None] * (np.arange(n) + 0.5)
        odd = np.exp(log_f(nodes, *(c[rows] for c in cols)) - top[rows]).sum(axis=1)
        coarse, fine[rows] = fine[rows], 0.5 * (fine[rows] + hr * odd)
        h[rows], n = 0.5 * hr, 2 * n
        rows = rows[~(np.abs(fine[rows] - coarse) <= tol * fine[rows])]
    return top[:, 0] + np.log(fine)


def _bessel_k_integral(nu: float, x: np.ndarray) -> np.ndarray:
    """log K_nu(x) for an array x, from K_nu(x) = (1/2) integral_-inf^inf
    exp(-x cosh t) cosh(nu t) dt by one trapezoid rule on the windows
    [-t_max, t_max] (even, entire integrand).  The exponent is written as
    -x - 2x sinh^2(t/2) and -x is taken out of the integral, so the log stays
    finite where K underflows and no node carries the rounding of x cosh t
    (which stalls the rule near x = 1e8)."""
    t_max = 2.0 * np.arcsinh(np.sqrt(25.0 / x))
    while (short := 2.0 * x * np.sinh(0.5 * t_max) ** 2 - nu * t_max < 45.0).any():
        t_max[short] += 0.5

    def log_f(t, xc):
        return np.logaddexp(nu * t, -nu * t) - 2.0 * xc * np.sinh(0.5 * t) ** 2

    return _log_trapezoid(log_f, -t_max, t_max, 64, x) - math.log(4.0) - x


def ln_bessel_k(nu: float, x):
    """log K_nu(x), x > 0, finite where K itself underflows; a float x gives a
    float, an array x an array.

    Every order at every x is the cosh integral of _bessel_k_integral, all
    rows in one trapezoid call.  On seeded draws with nu in [0, 6] the
    relative error of K against 40-digit mpmath stays below 2e-14 for x in
    [1e-4, 3) (worst 1.0e-14 on 600 draws) and below 2e-12 for x in
    [3, 1e9) (worst 5.6e-14 up to x = 700), where above x = 700, K having
    underflowed, log K is held to 2e-12 plus its own rounding.
    """
    if not isinstance(x, np.ndarray):
        return float(ln_bessel_k(nu, np.array([float(x)]))[0])
    if not np.all(x > 0):
        raise ValueError(f"ln_bessel_k requires x > 0, got {x.min()}")
    return _bessel_k_integral(abs(nu), x)


def _tricomi_polynomial(m: int, b, x):
    # U(-m, b, x) terminates: (-1)^m sum_k (-1)^k C(m,k) (b+k)_{m-k} x^k
    s = 0.0
    for k in range(m + 1):
        s += (-1.0) ** k * math.comb(m, k) * math.prod(b + k + j for j in range(m - k)) * x**k
    return (-1.0) ** m * s


def _tricomi_laplace(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """U(a,b,x) = (1/Gamma(a)) int_0^inf e^{-xt} t^{a-1} (1+t)^{b-a-1} dt for
    a > 0 and an array x > 0, by one trapezoid rule in s, t = exp(v),
    v = v_mid + (pi/2) sinh s.

    In v the log integrand a v - x e^v + c log(1 + e^v), c = b - a - 1, rises
    for t < t_lo = a/(x + max(0, -c)) and falls for t > t_hi = max(a, b-1)/x;
    it is 50 below its peak at v = log t_lo - 50/a - 2 and at log(3 t_hi + 60/x).
    Centred between t_lo and t_hi, the map makes the integrand decay
    double-exponentially in s at both ends, for every a > 0.
    """
    c = b - a - 1.0
    t_lo, t_hi = a / (x + max(0.0, -c)), max(a, b - 1.0) / x
    v_mid = 0.5 * np.log(t_lo * t_hi)
    v_lo, v_hi = np.log(t_lo) - 50.0 / a - 2.0, np.log(3.0 * t_hi + 60.0 / x)

    def log_f(s, vc, xc):  # log of the integrand in s, less the constant log(pi/2)
        v = vc + 0.5 * math.pi * np.sinh(s)
        t = np.exp(v)
        return a * v - xc * t + c * np.log1p(t) + np.log(np.cosh(s))

    lo, hi = (np.arcsinh((v - v_mid) / (0.5 * math.pi)) for v in (v_lo, v_hi))
    ln = _log_trapezoid(log_f, lo, hi, 128, v_mid, x) + math.log(0.5 * math.pi) - math.lgamma(a)
    if np.any(ln > 709.78):
        k = int(np.argmax(ln))
        raise RangeError(f"U({a:g}, {b:g}, {x[k]:g}) = exp({ln[k]:.6g}) exceeds double range")
    return np.exp(ln)


def tricomi_u(a: float, b: float, x):
    """Tricomi confluent hypergeometric function U(a; b; x), x > 0.

    Dispatch: terminating polynomial for non-positive-integer a (exact); the
    Laplace integral for a > 0, and for a - b + 1 > 0 through the x^{1-b}
    reflection; otherwise the downward recurrence in a.  Relative error
    against 40-digit mpmath is below 1e-10 for a in [-6, 6], b in [-4, 4],
    x in [0.05, 40] (worst measured 8.0e-13, the recurrence at small x), and
    below 1e-13 for x in [30, 1e10).  An array x takes each branch in one
    array expression.
    """
    if not isinstance(x, np.ndarray):
        return float(tricomi_u(a, b, np.array([float(x)]))[0])
    if not np.all(x > 0):
        raise ValueError(f"tricomi_u requires x > 0, got {x.min()}")
    if _is_nonpositive_integer(a):
        return _tricomi_polynomial(-round(a), b, x)
    if a > 0:
        return _tricomi_laplace(a, b, x)
    if a - b + 1.0 > 0:
        return x ** (1.0 - b) * _tricomi_laplace(a - b + 1.0, 2.0 - b, x)
    return _tricomi_a_recurrence(a, b, x)


def _tricomi_a_recurrence(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Downward contiguous recurrence
    U(a-1,b,x) = (2a - b + x) U(a,b,x) - a(a-b+1) U(a+1,b,x) on an array x,
    anchored by the Laplace integral at the first arguments a0 + 1 > a0 > 0;
    stable in the decreasing-a direction at machine precision."""
    m = int(math.ceil(-a)) + 1
    ak = a + m
    u_hi, u_lo = _tricomi_laplace(ak + 1.0, b, x), _tricomi_laplace(ak, b, x)
    for _ in range(m):
        u_hi, u_lo = u_lo, (2.0 * ak - b + x) * u_lo - ak * (ak - b + 1.0) * u_hi
        ak -= 1.0
    return u_lo


def gauss_2f1_unit(a1: float, a2: float, b: float) -> float:
    """2F1(a1, a2; b; 1) = Gamma(b) Gamma(b-a1-a2) / (Gamma(b-a1) Gamma(b-a2)),
    valid for b - a1 - a2 > 0."""
    s = b - a1 - a2
    if s <= 0:
        raise DivergenceError("2F1 at unit argument requires b - a1 - a2 > 0")
    ln, sign = ln_gamma_ratio((b, s), (b - a1, b - a2))
    return sign * _exp_ratio(ln)


def _gauss_log_case(a1: float, a2: float, b: float, w: np.ndarray, tol) -> tuple:
    """Connection formula at integer m = b - a1 - a2 >= 0 in powers of w = 1-x,
    an array (DLMF 15.8.10): a finite part of m terms, and a log part that pfq
    sums as the terms t_n of 2F1(a1+m, a2+m; m+1; w)/m! weighted by
    g_n = log w + psi(a1+m+n) - psi(n+1) + psi(a2+m+n) - psi(m+n+1).
    Returns the SeriesResult and the size whose rounding the value carries:
    every g_n carries the rounding of g_0, u (|log w| + sum |psi|), times
    sum |t_n|, which grows past the value as a1 does."""
    m = round(b - a1 - a2)
    total, size, used = np.zeros_like(w), np.zeros_like(w), m * len(w)
    if m > 0:
        # finite part: Gamma(m) Gamma(b) / (Gamma(a1+m) Gamma(a2+m)) * sum_{n<m}
        ln, sign = ln_gamma_ratio((float(m), b), (a1 + m, a2 + m))
        coeff = sign * _exp_ratio(ln)
        t = np.ones_like(w)
        s_fin = s_abs = 0.0
        for n in range(m):
            s_fin, s_abs = s_fin + t, s_abs + np.abs(t)
            if n + 1 < m:
                t = t * (a1 + n) * (a2 + n) * w / ((n + 1.0) * (n + 1.0 - m))
        total, size = coeff * s_fin, abs(coeff) * s_abs
    # log part: -(-1)^m Gamma(b)/(Gamma(a1)Gamma(a2)) w^m sum_n t_n g_n
    ln, sign = ln_gamma_ratio((b,), (a1, a2))
    if sign == 0.0:
        # 1/Gamma(a1) or 1/Gamma(a2) is zero: 2F1 is a polynomial through the finite part only
        return SeriesResult(total, max(used, 1), np.zeros_like(w)), size
    coeff = -((-1.0) ** m) * sign * _exp_ratio(ln) * w**m / math.factorial(m)
    psi, log_w = (digamma(a1 + m), digamma(1.0), digamma(a2 + m), digamma(m + 1.0)), np.log(w)
    r = pfq((a1 + m, a2 + m), (m + 1.0,), w, tol=tol, weight=log_w + (psi[0] - psi[1]) + (psi[2] - psi[3]))
    size = size + np.abs(coeff) * r.abs_sum * (np.abs(log_w) + sum(map(abs, psi)))
    return SeriesResult(total + coeff * r.value, used + r.terms_used, np.abs(coeff) * r.tail_estimate), size


def _gauss_nonint_connection(a1, a2, b, w: np.ndarray, tol) -> tuple:
    """Two-term connection formula c1 r1 + c2 r2 in an array w = 1-x, s =
    b - a1 - a2 not an integer and a1, a2 not non-positive integers.  Near
    an integer m both terms carry the rounding of s amplified 1/|s - m|
    times, so the size whose rounding the value carries, returned with the
    SeriesResult, is (|c1 r1| + |c2 r2|)/|s - m|."""
    s = b - a1 - a2
    ln2, sign2 = ln_gamma_ratio((b, -s), (a1, a2))
    c2 = sign2 * _exp_ratio(ln2) * w**s
    r2 = pfq((b - a1, b - a2), (s + 1.0,), w, tol=tol)
    one, used, tail = 0.0, r2.terms_used, np.abs(c2) * r2.tail_estimate
    ln1, sign1 = ln_gamma_ratio((b, s), (b - a1, b - a2))
    if sign1 != 0.0:  # else 1/Gamma(b - a1) or 1/Gamma(b - a2) is zero
        c1 = sign1 * _exp_ratio(ln1)
        r1 = pfq((a1, a2), (a1 + a2 - b + 1.0,), w, tol=tol)
        one, used, tail = c1 * r1.value, used + r1.terms_used, tail + abs(c1) * r1.tail_estimate
    two = c2 * r2.value
    return SeriesResult(one + two, used, tail), (np.abs(one) + np.abs(two)) / abs(s - round(s))


def _gauss_branch(k: int, a1, a2, b, x, w, tol) -> SeriesResult:
    """2F1 at nodes x with exact distances w = 1 - x, floats or arrays, that
    all lie on branch k = (x > 0.8) + (w == 0) of gauss_2f1.  Both connection
    formulas share one cancellation rule: a node whose error estimate
    u size/|value| passes about 2e-13 (size > 1000 |value|) and x <= 0.9
    takes the direct series at tol 1e-14 instead (a few hundred terms there)."""
    if k == 0:
        return pfq((a1, a2), (b,), x, tol=tol)
    if k == 2:
        return SeriesResult(gauss_2f1_unit(a1, a2, b), 1, 0.0)
    if not isinstance(w, np.ndarray):  # the connection formulas sum arrays
        r = _gauss_branch(1, a1, a2, b, np.array([x]), np.array([w]), tol)
        return SeriesResult(float(r.value[0]), r.terms_used, float(r.tail_estimate[0]))
    s = b - a1 - a2
    if abs(s - round(s)) >= 1e-10:
        r, size = _gauss_nonint_connection(a1, a2, b, w, tol)
    elif round(s) >= 0:
        r, size = _gauss_log_case(a1, a2, b, w, tol)
    else:  # Euler: 2F1(a1, a2; b; x) = w^s 2F1(b - a1, b - a2; b; x), exponent -s > 0
        f, (r, size) = w**s, _gauss_log_case(b - a1, b - a2, b, w, tol)
        r, size = SeriesResult(f * r.value, r.terms_used, f * r.tail_estimate), f * size
    direct = (size > 1e3 * np.abs(r.value)) & (x <= 0.9)
    if direct.any():
        d = pfq((a1, a2), (b,), x[direct], tol=1e-14)
        r.value[direct], r.tail_estimate[direct] = d.value, d.tail_estimate
        r = SeriesResult(r.value, r.terms_used + d.terms_used, r.tail_estimate)
    return r


def gauss_2f1(a1: float, a2: float, b: float, x, tol: float = DEFAULT_TOL,
              w=None) -> SeriesResult:
    """Gauss function 2F1(a1, a2; b; x) for real parameters and real x in
    [0, 1], the |z|^2 of the states, a float or a 1-D array (whose result
    holds arrays, as pfq's).

    w is the distance 1 - x, formed as 1 - x unless given (exact for
    x >= 0.5): the F21 density passes it and stays accurate where x rounds
    to 1.  Each branch takes all its nodes in one call: x <= 0.8 the direct
    series (the connection formulas can lose ~8 digits just past 0.5);
    0.8 < x < 1 the connection formulas in w (logarithmic case at integer
    b - a1 - a2, after the Euler transformation if negative; two terms
    otherwise; the direct series where either cancels at x <= 0.9); w = 0
    the gamma formula, b - a1 - a2 > 0.  A terminating series (a1 or a2 a
    non-positive integer) is summed directly.
    """
    if _is_nonpositive_integer(b):
        raise PoleError(f"gauss_2f1 pole: b = {b}")
    nodes, w = isinstance(x, np.ndarray), 1.0 - x if w is None else w
    inside = (x >= 0.0) & (w >= 0.0)  # a bool, or one per node
    if not (inside.all() if nodes else inside):
        raise DivergenceError(f"gauss_2f1 requires 0 <= x <= 1, got {x}")
    if _is_nonpositive_integer(a1) or _is_nonpositive_integer(a2):
        return pfq((a1, a2), (b,), x, tol=tol)  # terminating
    branch = 1 * (x > 0.8) + (w == 0.0)  # numpy adds bools as or
    if not nodes:
        return _gauss_branch(branch, a1, a2, b, x, w, tol)
    value, tail, used = np.empty_like(x), np.empty_like(x), 0
    for k in np.flatnonzero(np.bincount(branch)):  # the branches that hold nodes
        on = branch == k
        r = _gauss_branch(k, a1, a2, b, x[on], w[on], tol)
        value[on], tail[on], used = r.value, r.tail_estimate, used + r.terms_used
    return SeriesResult(value, used, tail)
