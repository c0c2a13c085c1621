import cmath
import math

import numpy as np
import pytest

from ghcs import specfun as sf
from ghcs.errors import ConvergenceError, DivergenceError, GHSError, PoleError, RangeError


# ---------------------------------------------------------------- ln_gamma

def test_ln_gamma_at_one():
    assert sf.ln_gamma(1.0) == 0.0


def test_ln_gamma_half():
    # Gamma(1/2) = sqrt(pi) via the duplication identity; frozen value
    assert sf.ln_gamma(0.5) == pytest.approx(0.5723649429247001, abs=1e-14)


def test_ln_gamma_five():
    assert sf.ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-15)


def test_ln_gamma_against_exact_factorials():
    # oracle: log of exact integer factorials (arbitrary precision)
    fact = 1
    for n in range(2, 171):
        fact *= n - 1
        exact = math.log(fact)
        assert abs(sf.ln_gamma(float(n)) - exact) <= 1e-13 * max(1.0, exact)


def test_ln_gamma_complex_recurrence_and_reflection():
    z = 2.5 + 1.5j
    assert abs(cmath.exp(sf.ln_gamma(z + 1) - sf.ln_gamma(z)) - z) < 1e-13
    # principal branch at a negative real point: |Gamma(-0.5)| with sign pi
    v = sf.ln_gamma(-0.5)
    assert v.real == pytest.approx(math.log(2.0 * math.sqrt(math.pi)), rel=1e-13)
    assert abs(abs(v.imag) - math.pi) < 1e-13


def test_ln_gamma_poles():
    for x in (0.0, -1.0, -7.0, complex(-3.0, 0.0)):
        with pytest.raises(PoleError):
            sf.ln_gamma(x)


def test_digamma_values():
    euler = 0.5772156649015329
    assert sf.digamma(1.0) == pytest.approx(-euler, abs=1e-13)
    assert sf.digamma(0.5) == pytest.approx(-euler - 2.0 * math.log(2.0), abs=1e-13)


# -------------------------------------------------------------- pochhammer

def test_pochhammer_empty_product():
    assert sf.pochhammer(3.0, 0) == 1.0


def test_pochhammer_small_integers():
    assert sf.pochhammer(2.0, 2) == 6.0  # 2 * 3
    assert sf.pochhammer(0.5, 3) == 1.875  # 0.5 * 1.5 * 2.5


def test_pochhammer_negative_argument_by_product():
    assert sf.pochhammer(-1.5, 3) == pytest.approx((-1.5) * (-0.5) * 0.5, rel=1e-15)


def test_pochhammer_gamma_consistency():
    for a in (0.3, 1.0, 2.7, 11.5):
        for n in (1, 2, 5, 12):
            lhs = math.exp(sf.ln_gamma(a + n) - sf.ln_gamma(a))
            assert lhs == pytest.approx(sf.pochhammer(a, n), rel=1e-11)


# --------------------------------------------------------------------- pfq

def test_pfq_exponential():
    r = sf.pfq([], [], 1.0)
    assert r.value == pytest.approx(math.e, rel=1e-12)
    assert r.converged and r.terms_used >= 1


def test_pfq_binomial():
    assert sf.pfq([2.0], [], 0.5).value == pytest.approx(4.0, rel=1e-12)


def test_pfq_zero_argument():
    r = sf.pfq([3.3, 0.2], [1.1], 0.0)
    assert r.value == 1.0 and r.tail_estimate == 0.0


def test_pfq_divergence_rules():
    with pytest.raises(DivergenceError):
        sf.pfq([1.0, 1.0, 1.0], [1.0], 0.3)  # p > q + 1
    with pytest.raises(DivergenceError):
        sf.pfq([2.0], [], 1.2)  # outside the unit disk
    with pytest.raises(DivergenceError):
        sf.pfq([2.0], [], 1.0)  # eta >= 1 at the unit circle
    with pytest.raises(PoleError):
        sf.pfq([1.0], [-2.0], 0.3)


def test_pfq_terminating_series_escapes_domain_rules():
    # non-positive integer numerator parameter: a polynomial, any argument
    r = sf.pfq([-2.0, 5.0], [], 3.0)
    # sum_{n<=2} (-2)_n (5)_n 3^n / n! = 1 - 30 + 135
    assert r.value == pytest.approx(1.0 - 2 * 5 * 3 + (2 * 30 / 2) * 9, rel=1e-14)
    assert r.tail_estimate == 0.0


def test_pfq_tail_contract():
    for a, b, x, tol in (
        ([], [], 1.0, 1e-12),
        ([2.0], [], 0.9, 1e-12),
        ([0.5, 1.5], [2.0], 0.75, 1e-10),
    ):
        r = sf.pfq(a, b, x, tol=tol)
        assert r.converged
        assert r.tail_estimate <= tol * max(1.0, abs(r.value))


def test_pfq_tol_refinement_within_tail():
    r1 = sf.pfq([0.5, 1.5], [2.0], 0.72, tol=1e-8)
    r2 = sf.pfq([0.5, 1.5], [2.0], 0.72, tol=1e-9)
    assert abs(r1.value - r2.value) <= r1.tail_estimate


@pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("zeta", [0.1, 1.0, 9.0])
def test_pfq_bessel_bridge(b, zeta):
    lhs = sf.pfq([], [b], zeta).value
    rhs = math.gamma(b) * zeta ** ((1.0 - b) / 2.0) * sf.bessel_i(b - 1.0, 2.0 * math.sqrt(zeta))
    assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("zeta", [0.0, 0.25, 0.9])
def test_pfq_binomial_bridge(a, zeta):
    assert sf.pfq([a], [], zeta).value == pytest.approx((1.0 - zeta) ** (-a), rel=1e-10)


def test_kummer_matches_pfq():
    for a, b, x in ((1.3, 2.2, 0.7), (4.0, 0.5, 3.0), (-2.0, 1.5, 2.0)):
        assert sf.kummer_m(a, b, x) == pytest.approx(
            sf.pfq([a], [b], x, tol=1e-14).value, rel=1e-12
        )


def test_kummer_term_cap_read_at_call_time(monkeypatch):
    # the CLI's GHCS_MAX_TERMS lowers DEFAULT_MAX_TERMS after import
    monkeypatch.setattr(sf, "DEFAULT_MAX_TERMS", 5)
    for series in (lambda: sf.pfq([1.0], [2.5], 3.0), lambda: sf.kummer_m(1.0, 2.5, 3.0),
                   lambda: sf.bessel_i(0.5, 30.0)):
        with pytest.raises(ConvergenceError):
            series()


def test_bessel_k_integer_series_raises_at_term_cap(monkeypatch):
    # at 11 terms the I_1 part converges but the 1e-17 log series does not;
    # an unconverged sum must raise, not be returned
    monkeypatch.setattr(sf, "DEFAULT_MAX_TERMS", 11)
    with pytest.raises(ConvergenceError, match="integer series"):
        sf.bessel_k(1.0, 2.0)
    monkeypatch.undo()
    assert sf.bessel_k(1.0, 2.0) == pytest.approx(0.13986588181652243, rel=1e-13)


def test_pfq_compensated_summation_toggle():
    # same value through the Kahan-compensated path (used for deep moments)
    plain = sf.pfq([2.0], [4.0], 20.0, tol=1e-14)
    comp = sf.pfq([2.0], [4.0], 20.0, tol=1e-14, compensated=True)
    assert comp.value == pytest.approx(plain.value, rel=1e-13)
    assert comp.converged


# ------------------------------------------------------------------ bessel

def test_bessel_i_at_zero():
    assert sf.bessel_i(0.0, 0.0) == 1.0
    assert sf.bessel_i(1.0, 0.0) == 0.0


def test_bessel_i_cross_oracle():
    # 0F1(; 1; 1) = I_0(2)
    assert sf.bessel_i(0.0, 2.0) == pytest.approx(sf.pfq([], [1.0], 1.0).value, rel=1e-12)


def test_bessel_i_domain():
    with pytest.raises(ValueError):
        sf.bessel_i(-1.5, 1.0)
    with pytest.raises(ValueError):
        sf.bessel_i(0.5, -1.0)


def test_bessel_k_half_integer_closed_form():
    # K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}; frozen at x = 1
    assert sf.bessel_k(0.5, 1.0) == pytest.approx(0.46106850444789454, rel=1e-12)


@pytest.mark.parametrize("nu", [0.0, 0.3, 1.0, 2.0, 4.0, 0.9999999, 1.001])
@pytest.mark.parametrize("x", [0.01, 0.5, 2.0, 4.9, 5.1, 9.0, 15.9, 16.1, 35.0])
def test_bessel_wronskian(nu, x):
    w = sf.bessel_i(nu, x) * sf.bessel_k(nu + 1.0, x) + sf.bessel_i(nu + 1.0, x) * sf.bessel_k(nu, x)
    assert w * x == pytest.approx(1.0, rel=2e-10)


def test_bessel_k_log_singularity_at_origin():
    assert sf.bessel_k(0.0, 1e-6) > 10.0


def test_bessel_k_domain():
    with pytest.raises(ValueError):
        sf.bessel_k(0.3, 0.0)


def test_ln_bessel_k_large_argument():
    # asymptotic leading behaviour: log K ~ -x - log sqrt(2x/pi)
    v = sf.ln_bessel_k(0.2, 2000.0)
    lead = -2000.0 - 0.5 * math.log(2.0 * 2000.0 / math.pi)
    assert v == pytest.approx(lead, abs=1e-3)


def test_log_trapezoid_returns_only_converged_sums():
    assert sf._log_trapezoid(lambda s: -s * s, -9.0, 9.0, 64) == pytest.approx(
        0.5 * math.log(math.pi), abs=1e-14)
    with pytest.raises(ConvergenceError, match="cuts off"):  # window too narrow
        sf._log_trapezoid(lambda s: -s * s, -2.0, 2.0, 64)
    with pytest.raises(ConvergenceError, match="missed"):  # kink: error only O(h^2)
        sf._log_trapezoid(lambda s: -np.abs(s), -40.0, 40.0, 64)


@pytest.mark.parametrize("rule,xs", [
    (lambda x: sf._tricomi_laplace(1.7, 3.2, x), [0.05, 0.8, 3.0, 11.0, 29.0]),
    (lambda x: sf._tricomi_laplace(0.3, -1.5, x), [0.1, 2.0, 7.5]),
    (lambda x: sf._bessel_k_integral(2.5, x), [1e-4, 0.02, 0.9, 2.9, 7.0, 15.0]),
    (lambda x: sf._bessel_k_integral(0.0, x), [3.0, 9.0]),
])
def test_batched_trapezoid_rows_match_one_row_calls(rule, xs):
    # the rows share one step-halving loop; each keeps the sum that first met
    # the tolerance, so a row does not depend on the rows beside it
    xs = np.array(xs)
    rows = rule(xs)
    ones = np.array([rule(xs[i:i + 1])[0] for i in range(len(xs))])
    assert rows.shape == xs.shape
    assert np.allclose(rows, ones, rtol=1e-15, atol=0.0)


def test_array_arguments_match_scalar_calls():
    # branch masks: K rows on the asymptotic, integral and integer-series
    # branches, U rows on the asymptotic and Laplace branches, in one call each
    xs = np.array([1e-3, 0.7, 2.5, 3.5, 12.0, 20.0, 400.0])
    for nu in (0.0, 1.0, 1.4, 3.0):
        ln = sf.ln_bessel_k(nu, xs)
        assert np.allclose(ln, [sf.ln_bessel_k(nu, float(x)) for x in xs], rtol=1e-14, atol=1e-14)
    for a, b in ((0.6, 1.1), (2.0, 0.4)):
        u = sf.tricomi_u(a, b, xs)
        assert np.allclose(u, [sf.tricomi_u(a, b, float(x)) for x in xs], rtol=1e-14, atol=0.0)
    assert isinstance(sf.tricomi_u(0.6, 1.1, 2.0), float)
    assert isinstance(sf.ln_bessel_k(1.4, 2.0), float)


# ----------------------------------------------------------------- tricomi

def test_tricomi_power_law():
    # U(a, a+1, x) = x^{-a}
    assert sf.tricomi_u(1.5, 2.5, 2.0) == pytest.approx(2.0 ** -1.5, rel=1e-12)


def test_tricomi_degenerate():
    assert sf.tricomi_u(0.0, 1.3, 2.0) == 1.0


def test_tricomi_exponential_integral_oracle():
    # U(1,1,x) = e^x E_1(x); E_1(1) from its own alternating series
    euler = 0.5772156649015329
    e1 = -euler + sum((-1.0) ** (k + 1) / (k * math.factorial(k)) for k in range(1, 25))
    assert sf.tricomi_u(1.0, 1.0, 1.0) == pytest.approx(math.e * e1, rel=1e-10)


@pytest.mark.parametrize("x", [0.4, 2.0, 5.5, 12.0, 31.0])
def test_tricomi_integer_b(x):
    # U(1, 2, x) = 1/x exercises the integer-b branch at every x range
    assert sf.tricomi_u(1.0, 2.0, x) * x == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize("x", [0.3, 2.0, 40.0])
def test_tricomi_polynomial_case(x):
    # U(-2, -2, x) = 2 + 2x + x^2, assembled by hand from the terminating sum
    assert sf.tricomi_u(-2.0, -2.0, x) == pytest.approx(2.0 + 2.0 * x + x * x, rel=1e-14)


def test_tricomi_domain():
    with pytest.raises(ValueError):
        sf.tricomi_u(1.0, 1.0, 0.0)


def test_tricomi_out_of_double_range_is_structured():
    # U(3, 200, 0.5) is about 1e430 (Laplace branch): a GHSError that is also
    # an OverflowError, not a bare math range error
    with pytest.raises(RangeError) as info:
        sf.tricomi_u(3.0, 200.0, 0.5)
    assert isinstance(info.value, GHSError) and isinstance(info.value, OverflowError)


# --------------------------------------------------------------- gauss_2f1

def test_gauss_unit_numerator_kill():
    assert sf.gauss_2f1(2.3, 0.0, 1.1, 0.77).value == 1.0


def test_gauss_unit_argument():
    # Gamma(3)Gamma(1)/(Gamma(2)Gamma(2)) = 2
    assert sf.gauss_2f1(1.0, 1.0, 3.0, 1.0).value == pytest.approx(2.0, rel=1e-13)


@pytest.mark.parametrize("x", [0.5, 0.9])
def test_gauss_arcsine_oracle(x):
    v = sf.gauss_2f1(0.5, 0.5, 1.5, x * x).value
    assert v == pytest.approx(math.asin(x) / x, rel=1e-12)


@pytest.mark.parametrize("x", [0.6, 0.85, 0.99])
def test_gauss_log_case_m0(x):
    # 2F1(1,1;2;x) = -ln(1-x)/x
    assert sf.gauss_2f1(1.0, 1.0, 2.0, x).value == pytest.approx(
        -math.log1p(-x) / x, rel=1e-12
    )


@pytest.mark.parametrize("x", [0.52, 0.9, 0.999])
def test_gauss_log_case_m1(x):
    # 2F1(1,1;3;x) = 2 (x + (1-x) ln(1-x)) / x^2
    ref = 2.0 * (x + (1.0 - x) * math.log1p(-x)) / (x * x)
    assert sf.gauss_2f1(1.0, 1.0, 3.0, x).value == pytest.approx(ref, rel=1e-11)


def test_gauss_negative_integer_exponent_euler_flip():
    # 2F1(a,b;b;x) = (1-x)^{-a}; x = 0.85 forces the transformation region,
    # where b-a1-a2 = -2 routes through the Euler flip
    assert sf.gauss_2f1(2.0, 2.0, 2.0, 0.85).value == pytest.approx(
        0.15 ** -2.0, rel=1e-12
    )
    assert sf.gauss_2f1(2.0, 2.0, 2.0, 0.75).value == pytest.approx(16.0, rel=1e-11)


def test_gauss_pfaff_negative_argument():
    # 2F1(1/2,1/2;3/2;-x^2) = asinh(x)/x
    x = 0.8
    v = sf.gauss_2f1(0.5, 0.5, 1.5, -x * x).value
    assert v == pytest.approx(math.asinh(x) / x, rel=1e-12)


def test_gauss_divergence():
    with pytest.raises(DivergenceError):
        sf.gauss_2f1(2.0, 2.0, 3.0, 1.0)  # b - a1 - a2 = -1 at unit argument
    with pytest.raises(DivergenceError):
        sf.gauss_2f1(0.5, 0.5, 1.5, 1.3)


@pytest.mark.parametrize("abc", [(0.3, 0.4, 1.5), (1.0, 1.0, 3.0), (0.5, 1.5, 4.0),
                                 (0.2, 0.9, 2.3)])
def test_gauss_unit_vs_near_unit(abc):
    a1, a2, b = abc
    assert b - a1 - a2 > 0.2
    near = sf.gauss_2f1(a1, a2, b, 1.0 - 1e-8).value
    assert near == pytest.approx(sf.gauss_2f1_unit(a1, a2, b), abs=1e-5, rel=1e-5)


@pytest.mark.parametrize("abc,x", [
    ((0.3, 0.7, 1.9), 0.85), ((1.2, 0.4, 2.75), 0.9), ((2.0, 3.0, 4.5), 0.93),
    ((0.5, 1.5, 5.0), 0.88),
])
def test_gauss_connection_vs_raw_series(abc, x):
    a1, a2, b = abc
    v1 = sf.gauss_2f1(a1, a2, b, x).value
    v2 = sf.pfq([a1, a2], [b], x, tol=1e-15).value
    assert v1 == pytest.approx(v2, rel=5e-11)


# ------------------------------------------- accuracy contract (mpmath oracle)
# Seeded draws over each evaluator's stated domain, against 40-digit mpmath.

def _oracle_errors(f, ref, draws):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        return [(abs(f(*p) / float(ref(mpmath, *p)) - 1.0), p) for p in draws]


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


@pytest.mark.parametrize("a_range,x_range,bound", [
    ((-6.0, 6.0), (0.05, 40.0), 1e-10),
    ((1e-3, 0.25), (0.05, 30.0), 1e-13),  # Laplace rule alone, mass over many decades of t
])
def test_tricomi_u_oracle(a_range, x_range, bound):
    rng = np.random.default_rng(4)
    draws = [(rng.uniform(*a_range), rng.uniform(-4.0, 4.0), _log_uniform(rng, *x_range))
             for _ in range(150)]
    errs = _oracle_errors(sf.tricomi_u, lambda mp, a, b, x: mp.hyperu(a, b, x), draws)
    assert max(errs) < (bound,)


@pytest.mark.parametrize("log10_off,x_range", [
    (None, (1e-4, 16.0)),
    # orders 1e-8 to 0.1 from an integer, where the ascending series lose digits
    ((-8.0, -1.0), (3.0, 5.0)),
    # orders down to 1e-12 from an integer must not take the integer series
    ((-12.0, -1.0), (1e-4, 3.0)),
])
def test_bessel_k_oracle(log10_off, x_range):
    rng = np.random.default_rng(5)
    draws = []
    for _ in range(150):
        nu = rng.uniform(0.0, 6.0)
        if log10_off:
            nu = abs(round(nu) + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(*log10_off))
        draws.append((nu, _log_uniform(rng, *x_range)))
    errs = _oracle_errors(sf.bessel_k, lambda mp, nu, x: mp.besselk(nu, x), draws)
    assert max(errs) < (2e-12,)


def test_gauss_2f1_negative_argument_oracle():
    rng = np.random.default_rng(6)
    draws = [(rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0), rng.uniform(0.1, 6.0),
              rng.uniform(-0.8, 0.0)) for _ in range(300)]
    errs = _oracle_errors(lambda *p: sf.gauss_2f1(*p).value,
                          lambda mp, a1, a2, b, x: mp.hyp2f1(a1, a2, b, x), draws)
    assert max(errs) < (1e-12,)


def test_gauss_2f1_near_unit_argument_oracle():
    # x in (0.8, 1): the connection formulas in 1 - x.  Second band: integer
    # m = b - a1 - a2 >= 0, the logarithmic case, whose sum cancels up to
    # ~3e3-fold at a1, a2 ~ 6, b ~ 13, so its psi values must be good to
    # about an ulp.  Worst on 1,500 draws per band: 2.6e-12 (b - a1 - a2
    # within 1e-3 of an integer, where the two terms cancel) and 1.7e-12.
    rng = np.random.default_rng(7)
    draws = [(rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0), rng.uniform(0.1, 6.0),
              rng.uniform(0.8, 1.0)) for _ in range(300)]
    rng = np.random.default_rng(8)
    while len(draws) < 600:
        a1, a2, m = rng.uniform(0.1, 6.0), rng.uniform(-6.0, 6.0), int(rng.integers(0, 6))
        x = rng.uniform(0.8, 1.0)
        if a1 + a2 + m > 0.0:
            draws.append((a1, a2, a1 + a2 + m, x))
    errs = _oracle_errors(lambda *p: sf.gauss_2f1(*p).value,
                          lambda mp, a1, a2, b, x: mp.hyp2f1(a1, a2, b, x), draws)
    assert max(errs) < (5e-12,)


def test_kummer_m_oracle():
    # the direct term loop on a, b > 0, x >= 0, where no terms cancel; the
    # rounding grows with the ~x terms summed.  Worst on 1,500 draws: 5.0e-14
    rng = np.random.default_rng(9)
    draws = [(rng.uniform(0.1, 8.0), rng.uniform(0.1, 8.0), rng.uniform(0.0, 600.0))
             for _ in range(200)]
    errs = _oracle_errors(sf.kummer_m, lambda mp, a, b, x: mp.hyp1f1(a, b, x), draws)
    assert max(errs) < (1e-13,)


def test_kummer_m_overflow_raises_range_error():
    # M(2, 3, 784) ~ e^784 / 392 leaves the double range: a RangeError, not inf
    with pytest.raises(RangeError, match="exceeds double range"):
        sf.kummer_m(2.0, 3.0, 784.0)
    assert math.isfinite(sf.kummer_m(2.0, 3.0, 700.0))
