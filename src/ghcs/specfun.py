"""Self-contained special-function kernel.

Everything downstream (state construction, photon statistics, weight
functions, phase distributions) is built on the evaluators in this module:
log-gamma and its ratios, the generalized hypergeometric series pFq,
the modified Bessel function K, the Tricomi confluent hypergeometric
function U, and the Gauss function 2F1 including its unit-argument formula
and one connection formula near x = 1.  The Bessel I and Kummer M ratios of
the closed-form photon statistics are continued fractions in photstat.

All evaluators are pure functions in double precision.  pfq is the one
series loop (the 2F1 connection formula sums through it, its terms weighted):
it stops when three consecutive terms are below tol relative to the partial
sum and so is their geometric tail, reported with the value and sum |t_n|.
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
    abs_sum is pfq's sum of |t_n| (of |t_n df_n/dg_n| for a weighted sum, see
    pfq): u abs_sum scales the rounding of the sum; None where sums combine.
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


def ln_gamma_slope(x: float, eps: float = 0.0) -> float:
    """(ln|Gamma(x + eps)| - ln|Gamma(x)|)/eps for real x, |eps| <= 0.5, x and x + eps off the
    poles; psi(x) at eps = 0 (reflected below x = 1/2).  The shift recurrence to x, x + eps >= 10,
    then the divided difference of Stirling's series through B14: within 2e-15 of mpmath for x in
    [-6, 40], eps in +-[1e-12, 0.5] (absolute, or relative where the slope exceeds 1)."""
    if _is_nonpositive_integer(x) or _is_nonpositive_integer(x + eps):
        raise PoleError(f"ln Gamma pole at {x} or {x + eps}")
    if x < 0.5 and not eps:
        return ln_gamma_slope(1.0 - x) - math.pi / math.tan(math.pi * x)
    acc, lo = 0.0, x + min(eps, 0.0)
    while lo < 10.0:  # log|1 + v|/eps, 1 + v < 0 where a pole lies between x, x + eps
        v = eps / x
        acc, x, lo = acc - (math.log1p(max(v, -2.0 - v)) / eps if eps else 1.0 / x), x + 1.0, lo + 1.0
    if not eps:
        inv2 = 1.0 / (x * x)  # B2/2, ..., B14/14 over x^2k; the first left out is below 5e-17
        tail = inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (
            1.0 / 240.0 - inv2 * (1.0 / 132.0 - inv2 * (691.0 / 32760.0 - inv2 / 12.0))))))
        return acc + math.log(x) - 0.5 / x - tail
    # the tail r Q(r^2) of ln Gamma, r = 1/x, Q(u) = sum B_2k/(2k (2k-1)) u^(k-1), has the
    # difference quotient -r t (Q(t^2) + r (t + r) Q[t^2, r^2]) at t = 1/(x + eps): Horner for both
    r, t, q_t, dd = 1.0 / x, 1.0 / (x + eps), 0.0, 0.0
    for c in (1 / 156, -691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12):
        q_t, dd = q_t * (t * t) + c, dd * (r * r) + q_t
    lead = math.log(x + eps) + (x - 0.5) * math.log1p(eps / x) / eps - 1.0
    return acc + lead - r * t * (q_t + r * (t + r) * dd)


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
    weight : (g_0, eps), start weights g_0, one per node (a float for a float
        x), and a shift |eps| <= 0.5: the sum is then sum_n t_n f_n, f_n =
        (sigma_n exp(eps g_n) - 1)/eps, g stepped by the slope of log|t_(n+1)/t_n|
        under a shift eps of every parameter and of n, sigma_n = -1 where Gamma
        changes sign between c+n and c+n+eps for an odd number of parameters c;
        at eps = 0, f_n = g_n and g steps by sum 1/(a_i+n) - sum 1/(b_j+n) - 1/(n+1).

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
    g, eps = (None, 0.0) if weight is None else (np.atleast_1d(weight[0]), weight[1])  # g of the last term

    def factor(gn, n):  # f_n of the terms t_n at weights g_n, and |df_n/dg_n| = exp(eps g_n)
        if not eps:
            return gn, 1.0
        em, cs = np.expm1(eps * gn), [c for c in (*a, *b) if c < 0.5]  # Gamma keeps its sign above 1/2
        if not cs:
            return em / eps, 1.0 + em
        z = np.add.outer(cs, n)  # a pole between c + n and c + n + eps flips the sign
        odd = ((np.floor(z) != np.floor(z + eps)) & (np.minimum(z, z + eps) < 0.0)).sum(axis=0) % 2
        return np.where(odd, -2.0 - em, em) / eps, 1.0 + em

    rows, xr, term = np.arange(len(xs)), xs[:, None], 1.0
    s, s_abs = (1.0, 1.0) if g is None else factor(g, 0.0)
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
            add, dr = t, 1.0
            if g is not None:  # the weights g_n of the block's terms
                if eps:  # (log|c + n + eps| - log|c + n|)/eps for every parameter c, the n! as b = 1
                    v = eps / np.add.outer((*a, *b, 1.0), n)
                    lv = np.log1p(np.maximum(v, -2.0 - v)) / eps  # log|1 + v|, 1 + v < 0 too
                    steps = lv[:len(a)].sum(axis=0) - lv[len(a):].sum(axis=0)
                else:
                    steps = (sum(1.0 / (ai + n) for ai in a) - sum(1.0 / (bj + n) for bj in b)
                             - 1.0 / (n + 1.0))
                gn = g[:, None] + np.add.accumulate(steps)
                f, dr = factor(gn, n + 1.0)
                add = t * f
            abs_sums = np.abs(t) * dr if eps else np.abs(t)
            abs_sums[:, 0] += s_abs
            np.add.accumulate(abs_sums, axis=1, out=abs_sums)
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
    """The connection formula in w = 1-x (an array) around the integer m >= 0
    nearest s = b - a1 - a2 = m + eps (Buhring, SIAM J. Math. Anal. 18 (1987)
    884): pairing term m + j of the first connection series with term j of the
    second leaves, exactly, a finite part of m terms and -(-1)^m Gamma(b)
    Gamma(1+eps) Gamma(1-eps) w^(m+eps) / (Gamma(a1) Gamma(a2) Gamma(m+1+eps))
    sum_j t_j f_j, t_j the terms of 2F1(a1+m+eps, a2+m+eps; m+1+eps; w) and
    f_j = (R_j - 1)/(-eps), R_j = +-exp(-eps g_j) the ratio of the paired terms,
    g_0 = log w + the ln Gamma slopes over [v, v + eps] at v = a1+m, a2+m less
    those at m+1, 1-eps.  At eps = 0 f_j = g_j (DLMF 15.8.10).  Needs
    1/Gamma(b - a_i) != 0 at eps != 0.  Also returns the size whose rounding
    the value carries, u (|log w| + sum |slopes|) sum |t_j df_j/dg_j|."""
    m = round(b - (a1 + a2))
    eps = (b - m) - (a1 + a2)  # b - m is exact; (a1, a2) and (a2, a1) give the same eps
    total, size, used = np.zeros_like(w), np.zeros_like(w), m * len(w)
    if m > 0:
        # finite part: Gamma(b) Gamma(m+eps) / (Gamma(b-a1) Gamma(b-a2)) * sum_{n<m}
        ln, sign = ln_gamma_ratio((b, m + eps), (b - a1, b - a2))
        coeff = sign * _exp_ratio(ln)
        t = s_fin = s_abs = np.ones_like(w)
        for n in range(m - 1):
            t = t * (a1 + n) * (a2 + n) * w / ((n + 1.0) * (n + 1.0 - m - eps))
            s_fin, s_abs = s_fin + t, s_abs + np.abs(t)
        total, size = coeff * s_fin, abs(coeff) * s_abs
    ln, sign = ln_gamma_ratio((b, 1.0 + eps, 1.0 - eps), (a1, a2, m + 1.0 + eps))
    if sign == 0.0:
        # 1/Gamma(a1) or 1/Gamma(a2) is zero: 2F1 is a polynomial through the finite part only
        return SeriesResult(total, max(used, 1), np.zeros_like(w)), size
    coeff = -((-1.0) ** m) * sign * _exp_ratio(ln) * w**m * w**eps
    sl, log_w = [ln_gamma_slope(v, eps) for v in (a1 + m, 1.0 - eps, a2 + m, m + 1.0)], np.log(w)
    g0 = log_w + (sl[0] - sl[1]) + (sl[2] - sl[3])
    r = pfq((a1 + m + eps, a2 + m + eps), (m + 1.0 + eps,), w, tol=tol, weight=(g0, -eps))
    size = size + np.abs(coeff) * r.abs_sum * (np.abs(log_w) + sum(map(abs, sl)))
    return SeriesResult(total + coeff * r.value, used + r.terms_used, np.abs(coeff) * r.tail_estimate), size


def _gauss_branch(k: int, a1, a2, b, x, w, tol) -> SeriesResult:
    """2F1 at node arrays x, w = 1 - x, on branch k = (x > 0.8) + (w == 0) of
    gauss_2f1.  On (0.8, 1) _gauss_log_case, or where 1/Gamma(b - a_i) = 0 at
    non-integer s = b - a1 - a2 the second connection term, which terminates.
    A node whose error estimate u size/|value| passes about 2e-13 (size > 1000
    |value|) and x <= 0.9 takes the direct series at tol 1e-14 instead."""
    if k == 0:
        return pfq((a1, a2), (b,), x, tol=tol)
    if k == 2:
        return SeriesResult(gauss_2f1_unit(a1, a2, b), 1, 0.0)
    s = b - (a1 + a2)
    if s != round(s) and (_is_nonpositive_integer(b - a1) or _is_nonpositive_integer(b - a2)):
        ln, sign = ln_gamma_ratio((b, -s), (a1, a2))
        c2, r = sign * _exp_ratio(ln) * w**s, pfq((b - a1, b - a2), (s + 1.0,), w, tol=tol)
        return SeriesResult(c2 * r.value, r.terms_used, np.abs(c2) * r.tail_estimate)
    f, p1, p2 = (1.0, a1, a2) if round(s) >= 0 else (w**s, b - a1, b - a2)  # Euler below s = -1/2
    r, size = _gauss_log_case(p1, p2, b, w, tol)
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
    [0, 1], the |z|^2 of the states: a 1-D array (whose result holds arrays,
    as pfq's), or a float, summed as a one-node array.  w is the distance
    1 - x, formed as 1 - x unless given (exact for x >= 0.5): the F21 density
    passes it and stays accurate where x rounds to 1.  Each branch takes all
    its nodes in one call: x <= 0.8 the direct series (the connection formula
    can lose ~8 digits just past 0.5); 0.8 < x < 1 the one connection formula
    in w (the direct series where it cancels at x <= 0.9); w = 0 the gamma
    formula, b - a1 - a2 > 0.  A terminating series (a1 or a2 a non-positive
    integer) is summed directly.
    """
    if _is_nonpositive_integer(b):
        raise PoleError(f"gauss_2f1 pole: b = {b}")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    ws = 1.0 - xs if w is None else np.atleast_1d(w)
    if not ((xs >= 0.0) & (ws >= 0.0)).all():
        raise DivergenceError(f"gauss_2f1 requires 0 <= x <= 1, got {x}")
    if _is_nonpositive_integer(a1) or _is_nonpositive_integer(a2):
        return pfq((a1, a2), (b,), x, tol=tol)  # terminating
    branch = 1 * (xs > 0.8) + (ws == 0.0)  # numpy adds bools as or
    value, tail, used = np.empty_like(xs), np.empty_like(xs), 0
    for k in np.flatnonzero(np.bincount(branch)):  # the branches that hold nodes
        on = branch == k
        r = _gauss_branch(k, a1, a2, b, xs[on], ws[on], tol)
        value[on], tail[on], used = r.value, r.tail_estimate, used + r.terms_used
    if np.ndim(x):
        return SeriesResult(value, used, tail)
    return SeriesResult(float(value[0]), used, float(tail[0]))
