"""Self-contained special-function kernel.

Everything downstream (state construction, photon statistics, weight
functions, phase distributions) is built on the evaluators in this module:
log-gamma, Pochhammer symbols, the generalized hypergeometric series pFq,
modified Bessel functions I and K, the Kummer and Tricomi confluent
hypergeometric functions, and the Gauss function 2F1 including its unit
argument and near-unit-argument connection formulas.

All evaluators are pure functions in double precision.  Series are summed
by term-ratio recurrences; convergence is declared when three consecutive
terms are below tol relative to the partial sum, and a tail estimate is
reported alongside the value.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DivergenceError, PoleError, RangeError

DEFAULT_TOL = 1e-12
DEFAULT_MAX_TERMS = 100_000

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

    tail_estimate bounds the truncation error; when converged is True it is
    at most tol * max(1, |value|) for the tol the series was run at.
    """

    value: complex
    terms_used: int
    tail_estimate: float
    converged: bool


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


def gamma_sign(x: float) -> float:
    """Sign of Gamma(x) for real non-pole x."""
    if x > 0:
        return 1.0
    return -1.0 if math.ceil(-x) % 2 == 1 else 1.0


def rgamma(x) -> float:
    """1/Gamma(x) for real x; exactly 0.0 at the poles."""
    if _is_nonpositive_integer(x):
        return 0.0
    return gamma_sign(x) * math.exp(-math.lgamma(x))


def digamma(x):
    """Digamma function for real or complex x (poles excluded).

    Uses the shift recurrence up to Re >= 10 and the asymptotic Bernoulli
    expansion through B14; reflection handles Re(x) < 1/2.  Measured on
    real x in [0.5, 40]: within 9e-16 of mpmath (absolute, or relative
    where |psi| > 1).
    """
    if _is_nonpositive_integer(x):
        raise PoleError(f"digamma pole at {x}")
    x = _as_real_if_possible(x)
    if isinstance(x, complex):
        if x.real < 0.5:
            return digamma(1.0 - x) - math.pi / cmath.tan(math.pi * x)
    elif x < 0.5:
        return digamma(1.0 - x) - math.pi / math.tan(math.pi * x)
    acc = 0.0
    while (x.real if isinstance(x, complex) else x) < 10.0:
        acc -= 1.0 / x
        x = x + 1.0
    inv2 = 1.0 / (x * x)
    # Bernoulli numbers B2/2, B4/4, ..., B14/14 over x^{2k}; the first term
    # left out is below 5e-17 at x >= 10
    tail = inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (
        1.0 / 240.0 - inv2 * (1.0 / 132.0 - inv2 * (691.0 / 32760.0 - inv2 / 12.0))))))
    log = cmath.log(x) if isinstance(x, complex) else math.log(x)
    return acc + log - 0.5 / x - tail


def pochhammer(a, n: int):
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), empty product for n = 0.

    Computed by explicit product (never a gamma ratio), so negative and
    complex arguments are exact up to rounding.
    """
    if n < 0:
        raise ValueError("pochhammer order must be non-negative")
    acc = 1.0
    for k in range(n):
        acc = acc * (a + k)
    return acc


def _check_pfq_domain(a, b, x):
    if x == 0:
        return
    if any(_is_nonpositive_integer(ai) for ai in a):
        return  # terminating series: entire
    p, q = len(a), len(b)
    if p <= q:
        return
    if p == q + 1:
        ax = abs(x)
        if ax < 1.0 - 1e-14:
            return
        if abs(ax - 1.0) <= 1e-14:
            eta = sum(complex(ai).real for ai in a) - sum(complex(bj).real for bj in b)
            if eta < 0:
                return
            if eta < 1 and abs(x - 1.0) > 1e-14:
                return  # conditionally convergent ring point
        raise DivergenceError(
            f"{p}F{q} diverges at |x| = {abs(x):g} (unit-disk family)"
        )
    raise DivergenceError(f"{p}F{q} diverges for any x != 0 (p > q + 1)")


def pfq(a, b, x, tol: float = DEFAULT_TOL, max_terms: int | None = None,
        compensated: bool = False) -> SeriesResult:
    """Generalized hypergeometric series sum_n [prod (a_i)_n / prod (b_j)_n] x^n / n!.

    Parameters
    ----------
    a, b : sequences of real or complex parameters; no b_j may be a
        non-positive integer.
    x : real or complex argument inside the convergence domain
        (any x for p <= q, |x| < 1 for p = q+1, |x| = 1 with eta < 0,
        or |x| = 1, x != 1 with 0 <= eta < 1).
    tol : requested relative truncation error.
    compensated : use Kahan summation for the partial sums (helps the
        high-order moment checks where terms span many magnitudes).

    Returns a SeriesResult; raises DivergenceError outside the domain and
    ConvergenceError if the term cap is reached first.
    """
    a = tuple(a)
    b = tuple(b)
    for bj in b:
        if _is_nonpositive_integer(bj):
            raise PoleError(f"pfq denominator parameter {bj} is a non-positive integer")
    _check_pfq_domain(a, b, x)
    if max_terms is None:
        max_terms = DEFAULT_MAX_TERMS

    term = 1.0 + 0.0j if (isinstance(x, complex) or any(isinstance(v, complex) for v in a + b)) else 1.0
    s = term
    comp = 0.0
    small_streak = 0
    last_abs = [abs(term)]
    ratio = 0.0
    for n in range(max_terms):
        num = x
        for ai in a:
            num = num * (ai + n)
        den = n + 1.0
        for bj in b:
            den = den * (bj + n)
        ratio = num / den
        term = term * ratio
        if term == 0:
            return SeriesResult(_as_real_if_possible(s + comp), n + 2, 0.0, True)
        if compensated:
            y = term - comp
            t_new = s + y
            comp = (t_new - s) - y
            s = t_new
        else:
            s = s + term
        if not (abs(s) < math.inf):
            raise RangeError(f"pfq partial sum overflowed at term {n + 1}")
        last_abs.append(abs(term))
        if len(last_abs) > 3:
            last_abs.pop(0)
        if abs(term) <= tol * abs(s):
            small_streak += 1
        else:
            small_streak = 0
        if small_streak >= 3:
            r = abs(ratio)
            if r < 1.0:
                tail = abs(term) / (1.0 - r)
            else:
                tail = sum(last_abs)
            if tail <= tol * max(1.0, abs(s)):
                value = s - comp if compensated else s
                return SeriesResult(_as_real_if_possible(value), n + 2, tail, True)
            # small terms but a ratio near 1 (disk edge): the geometric tail
            # still exceeds the contract; keep summing
            small_streak = 2
    raise ConvergenceError(
        f"pfq did not reach tol={tol:g} within {max_terms} terms "
        f"(last |term|/|sum| = {abs(term) / max(abs(s), 1e-300):.3g})"
    )


def kummer_m(a, b, x, tol: float = 1e-14, max_terms: int | None = None):
    """Kummer confluent series M(a; b; x), standalone term loop.

    Allows non-positive non-integer b (needed with epsilon-offset
    parameters); raises PoleError if b is a non-positive integer, unless a
    terminates the series before the pole index is reached, and RangeError
    if the sum leaves the double range.  max_terms defaults to DEFAULT_MAX_TERMS at call time.
    """
    if max_terms is None:
        max_terms = DEFAULT_MAX_TERMS
    terminating = _is_nonpositive_integer(a)
    n_stop = -round(complex(a).real) if terminating else None
    if _is_nonpositive_integer(b):
        if not (terminating and n_stop <= -round(complex(b).real)):
            raise PoleError(f"kummer_m pole: b = {b}")
    term = 1.0
    s = 1.0
    small_streak = 0
    for n in range(max_terms):
        if terminating and n >= n_stop:
            break
        term = term * (a + n) * x / ((b + n) * (n + 1.0))
        if term == 0:
            break
        s = s + term
        if abs(term) <= tol * abs(s):  # an overflowed sum passes this test too
            small_streak += 1
            if small_streak >= 3:
                break
        else:
            small_streak = 0
    else:
        raise ConvergenceError(f"kummer_m({a}, {b}, {x}) did not converge")
    if not abs(s) < math.inf:
        raise RangeError(f"kummer_m({a}, {b}, {x}) exceeds double range")
    return _as_real_if_possible(s)


def _bessel_i_series(nu: float, x: float, tol: float = 1e-15) -> float:
    """Ascending series for I_nu(x), x > 0; nu may be any non-integer
    (including nu < -1, used internally by bessel_k)."""
    if x == 0.0:
        if nu == 0:
            return 1.0
        if nu > 0:
            return 0.0
        raise ValueError("bessel I series needs x > 0 for negative order")
    h = 0.25 * x * x
    # leading term (x/2)^nu / Gamma(nu+1), sign-correct for negative nu
    t = math.exp(nu * math.log(0.5 * x) - math.lgamma(nu + 1.0)) * (
        gamma_sign(nu + 1.0) if nu + 1.0 < 0 else 1.0
    )
    s = t
    for k in range(DEFAULT_MAX_TERMS):
        t = t * h / ((k + 1.0) * (nu + k + 1.0))
        s += t
        if abs(t) <= tol * abs(s) and k > 2:
            return s
    raise ConvergenceError(f"bessel_i series stalled at nu={nu}, x={x}")


def bessel_i(nu: float, x: float) -> float:
    """Modified Bessel function of the first kind I_nu(x), nu > -1, x >= 0."""
    if nu <= -1:
        raise ValueError(f"bessel_i requires nu > -1, got {nu}")
    if x < 0:
        raise ValueError(f"bessel_i requires x >= 0, got {x}")
    if x == 0.0:
        return 1.0 if nu == 0 else 0.0
    return _bessel_i_series(nu, x)


def _bessel_k_asymptotic(nu: float, x: float) -> float:
    v = math.exp(_ln_bessel_k_asymptotic(nu, x)) if x < 700 else 0.0
    return v


def _ln_bessel_k_asymptotic(nu: float, x: float) -> float:
    """log K_nu(x) via the large-argument expansion (min-term truncated)."""
    mu = 4.0 * nu * nu
    a = 1.0
    s = 1.0
    prev = math.inf
    for k in range(1, 60):
        a = a * (mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        if abs(a) >= prev:
            break
        s += a
        prev = abs(a)
        if abs(a) <= 1e-17 * abs(s):
            break
    return 0.5 * math.log(math.pi / (2.0 * x)) - x + math.log(s)


def _bessel_k_nonint(nu: float, x: float) -> float:
    # K_nu = (pi/2) (I_{-nu} - I_nu) / sin(nu pi); even in nu automatically.
    return (
        0.5
        * math.pi
        * (_bessel_i_series(-nu, x) - _bessel_i_series(nu, x))
        / math.sin(nu * math.pi)
    )


_EULER_GAMMA = 0.5772156649015329


def _bessel_k_integer_series(n: int, x: float) -> float:
    """Limiting-form ascending series for K_n(x), integer n >= 0 (small x)."""
    h = 0.25 * x * x
    lnx2 = math.log(0.5 * x)
    s1 = 0.0
    if n > 0:
        c = 0.5 * (0.5 * x) ** (-n)
        for k in range(n):
            s1 += c * math.factorial(n - k - 1) / math.factorial(k) * (-h) ** k
    s2 = (-1.0) ** (n + 1) * lnx2 * _bessel_i_series(float(n), x)
    psi_k = -_EULER_GAMMA
    psi_nk = -_EULER_GAMMA + sum(1.0 / j for j in range(1, n + 1))
    c = 1.0 / math.factorial(n)
    s3 = (psi_k + psi_nk) * c
    for k in range(1, DEFAULT_MAX_TERMS):
        c = c * h / (k * (n + k))
        psi_k += 1.0 / k
        psi_nk += 1.0 / (n + k)
        term = (psi_k + psi_nk) * c
        s3 += term
        if abs(term) <= 1e-17 * abs(s3):
            break
    else:
        raise ConvergenceError(f"bessel_k integer series stalled at n={n}, x={x}")
    s3 *= (-1.0) ** n * 0.5 * (0.5 * x) ** n
    return s1 + s2 + s3


def _log_trapezoid(log_f, lo, hi, n: int) -> np.ndarray:
    """log of integral_lo^hi exp(log_f(s)) ds by the trapezoid rule (exponentially
    convergent for analytic integrands negligible at both ends), a row per window
    of the arrays lo, hi; log_f maps an (m, j) grid of nodes to the log integrand.
    The rows halve their step (hi - lo)/n together, re-using every node; each
    keeps, as its one-row call would, its first sum with |T_h - T_2h| <= 1e-13 T_h
    (T_2h sums the even nodes).  Raises ConvergenceError when an end value
    exceeds 1e-13 times its row's largest or 2^12 n nodes miss the tolerance."""
    lo, hi = np.reshape(lo, (-1, 1)), np.reshape(hi, (-1, 1))
    h, n_max, tol = (hi - lo) / n, 4096 * n, 1e-13
    lf = log_f(lo + h * np.arange(n + 1))
    top = lf.max(axis=1, keepdims=True)
    cut = ~(np.maximum(lf[:, 0], lf[:, -1]) <= top[:, 0] + math.log(tol))  # also catches nan
    if cut.any():
        lo_k, hi_k = lo[cut.argmax(), 0], hi[cut.argmax(), 0]
        raise ConvergenceError(f"trapezoid window [{lo_k:g}, {hi_k:g}] cuts off the integrand")
    w, h = np.exp(lf - top), h[:, 0]
    coarse, fine = 2.0 * h * w[:, ::2].sum(axis=1), h * w.sum(axis=1)  # T_2h, T_h, over e^top
    done = np.abs(fine - coarse) <= tol * fine
    while not done.all():
        if n == n_max:
            raise ConvergenceError(f"trapezoid rule missed tol={tol:g} with {n + 1} nodes")
        odd = np.exp(log_f(lo + h[:, None] * (np.arange(n) + 0.5)) - top).sum(axis=1)
        coarse, fine = fine, np.where(done, fine, 0.5 * (fine + h * odd))
        h, n = 0.5 * h, 2 * n
        done |= np.abs(fine - coarse) <= tol * fine
    return top[:, 0] + np.log(fine)


def _bessel_k_integral(nu: float, x: np.ndarray) -> np.ndarray:
    """K_nu(x) = (1/2) integral_-inf^inf exp(-x cosh t) cosh(nu t) dt for an
    array x by one trapezoid rule on the windows [-t_max, t_max] (even, entire
    integrand)."""
    t_max = np.arccosh(1.0 + 50.0 / x)
    while (short := x * np.cosh(t_max) - nu * t_max < x + 45.0).any():
        t_max[short] += 0.5
    xc = x[:, None]

    def log_f(t):
        return np.logaddexp(nu * t, -nu * t) - xc * np.cosh(t)

    return np.exp(_log_trapezoid(log_f, -t_max, t_max, 64) - math.log(4.0))


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function of the second kind K_nu(x), x > 0.

    x >= max(16, nu^2/2): asymptotic expansion.  x < 3: I reflection for
    orders at least 0.05 from an integer, log series for integer orders; every
    other case by the cosh integral and the trapezoid rule.  On seeded draws
    (nu in [0, 6], x in [1e-4, 16)) the relative error against 40-digit mpmath
    stays below 2e-12 (worst 1.2e-12, the reflection just below x = 3).
    """
    if x <= 0:
        raise ValueError(f"bessel_k requires x > 0, got {x}")
    nu = abs(nu)
    if x >= max(16.0, 0.5 * nu * nu):
        return _bessel_k_asymptotic(nu, x)
    off = abs(nu - round(nu))
    if x >= 3.0 or 0.0 < off < 0.05:
        return float(_bessel_k_integral(nu, np.array([float(x)]))[0])
    if off == 0.0:
        return _bessel_k_integer_series(round(nu), x)
    return _bessel_k_nonint(nu, x)


def ln_bessel_k(nu: float, x):
    """log K_nu(x); safe for large x where K itself underflows.  An array x
    takes the cosh-integral rows in one trapezoid call, the rest row by row."""
    nu = abs(nu)
    if not isinstance(x, np.ndarray):
        if x >= max(16.0, 0.5 * nu * nu):
            return _ln_bessel_k_asymptotic(nu, x)
        return math.log(bessel_k(nu, x))
    out, off = np.empty_like(x), abs(nu - round(nu))  # rows x <= 0: the scalar code raises
    trap = (0 < x) & (x < max(16.0, 0.5 * nu * nu)) & ((x >= 3.0) | (0.0 < off < 0.05))
    if trap.any():
        out[trap] = np.log(_bessel_k_integral(nu, x[trap]))
    out[~trap] = [ln_bessel_k(nu, v) for v in x[~trap].tolist()]
    return out


def _tricomi_polynomial(m: int, b, x):
    # U(-m, b, x) terminates: (-1)^m sum_k (-1)^k C(m,k) (b+k)_{m-k} x^k
    s = 0.0
    for k in range(m + 1):
        s += (-1.0) ** k * math.comb(m, k) * pochhammer(b + k, m - k) * x**k
    return (-1.0) ** m * s


def _tricomi_asymptotic(a: float, b: float, x: float):
    """x^{-a} 2F0(a, a-b+1; -1/x) with min-term truncation; returns
    (value, ok) where ok says the smallest term met 1e-12 relative."""
    t = 1.0
    s = 1.0
    prev = math.inf
    ok = False
    for k in range(400):
        t = t * (a + k) * (a - b + 1.0 + k) / (-(k + 1.0) * x)
        if abs(t) >= prev:
            break
        s += t
        prev = abs(t)
        if abs(t) <= 1e-13 * abs(s):
            ok = True
            break
    return math.exp(-a * math.log(x)) * s, ok or prev <= 1e-12 * abs(s)


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
    vc, xc = v_mid[:, None], x[:, None]

    def log_f(s):  # log of the integrand in s, less the constant log(pi/2)
        v = vc + 0.5 * math.pi * np.sinh(s)
        t = np.exp(v)
        return a * v - xc * t + c * np.log1p(t) + np.log(np.cosh(s))

    lo, hi = (np.arcsinh((v - v_mid) / (0.5 * math.pi)) for v in (v_lo, v_hi))
    ln = _log_trapezoid(log_f, lo, hi, 128) + math.log(0.5 * math.pi) - math.lgamma(a)
    if np.any(ln > 709.78):
        k = int(np.argmax(ln))
        raise RangeError(f"U({a:g}, {b:g}, {x[k]:g}) = exp({ln[k]:.6g}) exceeds double range")
    return np.exp(ln)


def _tricomi_nonint_b(a: float, b: float, x: float) -> float:
    c1 = math.gamma(1.0 - b) if abs(1.0 - b) < 170 else math.inf
    c1 = c1 * rgamma(a - b + 1.0)
    c2 = math.gamma(b - 1.0) if abs(b - 1.0) < 170 else math.inf
    c2 = c2 * rgamma(a)
    out = 0.0
    if c1 != 0.0:
        out += c1 * kummer_m(a, b, x)
    if c2 != 0.0:
        out += c2 * x ** (1.0 - b) * kummer_m(a - b + 1.0, 2.0 - b, x)
    return out


def tricomi_u(a: float, b: float, x):
    """Tricomi confluent hypergeometric function U(a; b; x), x > 0.

    Dispatch: terminating polynomial for non-positive-integer a (exact);
    large-argument asymptotic series when it certifies itself; the Laplace
    integral for a > 0, and for a - b + 1 > 0 through the x^{1-b} reflection;
    otherwise the downward recurrence in a at x >= 5 or b near an integer,
    and the two-Kummer combination (accurate for small x).  Relative error
    against 40-digit mpmath is below 1e-10 for a in [-6, 6], b in [-4, 4],
    x in [0.05, 40] (worst measured 1.6e-12, two-Kummer).  An array x takes
    the Laplace rows in one trapezoid call, the rest row by row.
    """
    if not isinstance(x, np.ndarray):
        return float(tricomi_u(a, b, np.array([float(x)]))[0])
    if not np.all(x > 0):
        raise ValueError(f"tricomi_u requires x > 0, got {x.min()}")
    if _is_nonpositive_integer(a):
        return np.array([_tricomi_polynomial(-round(a), b, v) for v in x.tolist()])
    out = np.empty_like(x)
    rest = np.ones(len(x), dtype=bool)
    for i in np.flatnonzero((x >= 30.0) & (abs(a * (a - b + 1.0)) < 0.25 * x)):
        out[i], ok = _tricomi_asymptotic(a, b, float(x[i]))
        rest[i] = not ok
    if not rest.any():
        return out
    if a > 0:
        out[rest] = _tricomi_laplace(a, b, x[rest])
    elif a - b + 1.0 > 0:
        out[rest] = x[rest] ** (1.0 - b) * _tricomi_laplace(a - b + 1.0, 2.0 - b, x[rest])
    else:
        int_b = abs(b - round(b)) < 1e-3
        out[rest] = [(_tricomi_a_recurrence if v >= 5.0 or int_b else _tricomi_nonint_b)(a, b, v)
                     for v in x[rest].tolist()]
    return out


def _tricomi_a_recurrence(a: float, b: float, x: float) -> float:
    """Downward contiguous recurrence
    U(a-1,b,x) = (2a - b + x) U(a,b,x) - a(a-b+1) U(a+1,b,x),
    anchored at positive first arguments (Laplace-representable); stable in
    the decreasing-a direction at machine precision."""
    m = int(math.ceil(-a)) + 1
    a0 = a + m
    u_hi = tricomi_u(a0 + 1.0, b, x)
    u_lo = tricomi_u(a0, b, x)
    ak = a0
    for _ in range(m):
        u_hi, u_lo = u_lo, (2.0 * ak - b + x) * u_lo - ak * (ak - b + 1.0) * u_hi
        ak -= 1.0
    return u_lo


def _gamma_ratio(up, down) -> float:
    """Signed prod Gamma(up) / prod Gamma(down) for real non-pole arguments,
    formed as exp(sum log|Gamma|) times the product of gamma_sign."""
    ln = 0.0
    sign = 1.0
    for v in up:
        ln += math.lgamma(v)
        sign *= gamma_sign(v)
    for v in down:
        ln -= math.lgamma(v)
        sign *= gamma_sign(v)
    return sign * math.exp(ln)


def gauss_2f1_unit(a1: float, a2: float, b: float) -> float:
    """2F1(a1, a2; b; 1) = Gamma(b) Gamma(b-a1-a2) / (Gamma(b-a1) Gamma(b-a2)),
    valid for b - a1 - a2 > 0."""
    s = b - a1 - a2
    if s <= 0:
        raise DivergenceError("2F1 at unit argument requires b - a1 - a2 > 0")
    if rgamma(b - a1) == 0.0 or rgamma(b - a2) == 0.0:
        return 0.0
    return _gamma_ratio((b, s), (b - a1, b - a2))


def _gauss_series(a1, a2, b, x, tol, max_terms) -> SeriesResult:
    return pfq((a1, a2), (b,), x, tol=tol, max_terms=max_terms)


def _gauss_log_case(a1: float, a2: float, b: float, w: float, tol, max_terms) -> SeriesResult:
    """Connection formula at integer m = b - a1 - a2 >= 0 in powers of w = 1-x."""
    m = round(b - a1 - a2)
    lw = math.log(w)
    total = 0.0
    terms_used = 0
    if m > 0:
        # finite part: Gamma(m) Gamma(b) / (Gamma(a1+m) Gamma(a2+m)) * sum_{n<m}
        coeff = _gamma_ratio((float(m), b), (a1 + m, a2 + m))
        t = 1.0
        s_fin = 0.0
        for n in range(m):
            s_fin += t
            if n + 1 < m:
                t = t * (a1 + n) * (a2 + n) * w / ((n + 1.0) * (n + 1.0 - m))
        total += coeff * s_fin
        terms_used += m
    # log part: -(-1)^m Gamma(b)/(Gamma(a1)Gamma(a2)) w^m sum_n c_n w^n [...]
    if rgamma(a1) == 0.0 or rgamma(a2) == 0.0:
        val = total  # 2F1 is a polynomial through the finite part only
        return SeriesResult(val, max(terms_used, 1), 0.0, True)
    coeff = -((-1.0) ** m) * _gamma_ratio((b,), (a1, a2)) * w**m
    t = 1.0 / math.factorial(m)
    s_log = 0.0
    small_streak = 0
    converged = False
    tail = 0.0
    # d1 = psi(a1+m+n) - psi(n+1), d2 = psi(a2+m+n) - psi(n+m+1), stepped by
    # psi(z+1) = psi(z) + 1/z; the differences stay small, so does their rounding
    d1 = digamma(a1 + m) - digamma(1.0)
    d2 = digamma(a2 + m) - digamma(m + 1.0)
    for n in range(max_terms):
        add = t * (lw + d1 + d2)
        s_log += add
        terms_used += 1
        ref = abs(total) + abs(coeff) * abs(s_log)
        if abs(coeff) * abs(add) <= tol * (1.0 - w) * max(ref, 1e-300):
            small_streak += 1
            if small_streak >= 3:
                converged = True
                tail = abs(coeff) * abs(add) / max(1.0 - w, 1e-6)
                break
        else:
            small_streak = 0
        t = t * (a1 + m + n) * (a2 + m + n) * w / ((n + 1.0) * (n + m + 1.0))
        d1 += (1.0 - a1 - m) / ((a1 + m + n) * (n + 1.0))
        d2 += (1.0 - a2) / ((a2 + m + n) * (n + m + 1.0))
    if not converged:
        raise ConvergenceError("2F1 logarithmic branch did not converge")
    total += coeff * s_log
    return SeriesResult(total, terms_used, tail, True)


def _gauss_nonint_connection(a1, a2, b, w, tol, max_terms) -> SeriesResult:
    """Two-term connection formula in w = 1-x, b - a1 - a2 not an integer."""
    s = b - a1 - a2
    if rgamma(b - a1) == 0.0 or rgamma(b - a2) == 0.0:
        c1 = 0.0
    else:
        c1 = _gamma_ratio((b, s), (b - a1, b - a2))
    if rgamma(a1) == 0.0 or rgamma(a2) == 0.0:
        c2 = 0.0
    else:
        c2 = _gamma_ratio((b, -s), (a1, a2)) * w**s
    terms = 0
    tail = 0.0
    total = 0.0
    if c1 != 0.0:
        r1 = pfq((a1, a2), (a1 + a2 - b + 1.0,), w, tol=tol, max_terms=max_terms)
        total += c1 * complex(r1.value).real
        terms += r1.terms_used
        tail += abs(c1) * r1.tail_estimate
    if c2 != 0.0:
        r2 = pfq((b - a1, b - a2), (b - a1 - a2 + 1.0,), w, tol=tol, max_terms=max_terms)
        total += c2 * complex(r2.value).real
        terms += r2.terms_used
        tail += abs(c2) * r2.tail_estimate
    return SeriesResult(total, max(terms, 1), tail, True)


def gauss_2f1(a1: float, a2: float, b: float, x: float,
              tol: float = DEFAULT_TOL, max_terms: int | None = None) -> SeriesResult:
    """Gauss hypergeometric function 2F1(a1, a2; b; x) for real parameters.

    -1 < x < 0: Pfaff transformation (DLMF 15.8.1) to a series in x/(x-1) in
    (0, 1/2), whose tail keeps one sign.  0 <= x <= 0.8: direct series.
    0.8 < x < 1: connection formulas in (1-x) (two-term for non-integer
    b-a1-a2, logarithmic branch for integer, Euler transformation first when
    b-a1-a2 is a negative integer).  x = 1: closed gamma formula, b - a1 - a2 > 0.
    """
    if max_terms is None:
        max_terms = DEFAULT_MAX_TERMS
    if _is_nonpositive_integer(b):
        raise PoleError(f"gauss_2f1 pole: b = {b}")
    if _is_nonpositive_integer(a1) or _is_nonpositive_integer(a2):
        return _gauss_series(a1, a2, b, x, tol, max_terms)  # terminating
    if x == 1.0:
        return SeriesResult(gauss_2f1_unit(a1, a2, b), 1, 0.0, True)
    if abs(x) >= 1.0:
        raise DivergenceError(f"gauss_2f1 requires |x| < 1 or x = 1, got {x}")
    if x < 0.0:
        # Pfaff: (1-x)^{-a1} 2F1(a1, b-a2; b; x/(x-1)); the direct series loses 4.6e-8
        u = x / (x - 1.0)
        inner = pfq((a1, b - a2), (b,), u, tol=tol, max_terms=max_terms)
        val = (1.0 - x) ** (-a1) * complex(inner.value).real
        return SeriesResult(val, inner.terms_used, abs(val) * tol, True)
    # Direct series up to 0.8: the connection formulas can lose ~8 digits just past 0.5
    if x <= 0.8:
        return _gauss_series(a1, a2, b, x, tol, max_terms)
    return gauss_2f1_near_unit(a1, a2, b, 1.0 - x, tol=tol, max_terms=max_terms)


def gauss_2f1_near_unit(a1: float, a2: float, b: float, w: float,
                        tol: float = DEFAULT_TOL, max_terms: int | None = None) -> SeriesResult:
    """2F1(a1, a2; b; 1 - w) parameterized by the exact distance w in (0, 1).

    This is the connection-formula entry point: callers that know the small
    distance to unit argument exactly (weight densities near the origin of
    the disk) stay accurate even where 1 - w rounds to 1.
    """
    if max_terms is None:
        max_terms = DEFAULT_MAX_TERMS
    if _is_nonpositive_integer(b):
        raise PoleError(f"gauss_2f1 pole: b = {b}")
    if not 0.0 < w < 1.0:
        raise ValueError(f"need 0 < w < 1, got {w}")
    if _is_nonpositive_integer(a1) or _is_nonpositive_integer(a2):
        return _gauss_series(a1, a2, b, 1.0 - w, tol, max_terms)  # polynomial
    s = b - a1 - a2
    if abs(s - round(s)) < 1e-10:
        m = round(s)
        if m >= 0:
            return _gauss_log_case(a1, a2, b, w, tol, max_terms)
        # Euler transformation flips the sign of b - a1 - a2
        inner = gauss_2f1_near_unit(b - a1, b - a2, b, w, tol=tol, max_terms=max_terms)
        val = w**s * complex(inner.value).real
        return SeriesResult(val, inner.terms_used, w**s * inner.tail_estimate, True)
    return _gauss_nonint_connection(a1, a2, b, w, tol, max_terms)
