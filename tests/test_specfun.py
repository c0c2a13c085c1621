import cmath
import math

import numpy as np
import pytest

from ghcs import photstat as ps
from ghcs import specfun as sf
from ghcs import states as st
from ghcs import weights as wt
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


# ---------------------------------------------------------- ln_gamma_ratio

def test_ln_gamma_ratio_against_rising_factorials():
    # Gamma(a + n) / Gamma(a) = (a)_n, the rising factorial as a plain product (1 at n = 0);
    # negative a takes the sign of the product
    for a in (0.3, 1.0, 2.7, 11.5, -0.5, -1.5, -2.7, -5.2):
        for n in (0, 1, 2, 5, 12):
            ln, sign = sf.ln_gamma_ratio((a + n,), (a,))
            ref = math.prod(a + k for k in range(n))
            assert sign == math.copysign(1.0, ref)
            assert sign * math.exp(ln) == pytest.approx(ref, rel=1e-11)


def test_ln_gamma_ratio_poles_and_conjugate_pairs():
    assert sf.ln_gamma_ratio((2.5,), (-3.0, 1.5)) == (-math.inf, 0.0)  # 1/Gamma(-3) = 0
    with pytest.raises(PoleError):
        sf.ln_gamma_ratio((0.0, 2.5), (1.5,))
    with pytest.raises(PoleError):  # a pole above one below is still a pole
        sf.ln_gamma_ratio((-2.0,), (-2.0,))
    # |Gamma(1 + 2i)|^2 = 2 pi / sinh(2 pi), positive for the pair
    ln, sign = sf.ln_gamma_ratio((1 + 2j, 1 - 2j), ())
    assert sign == 1.0 and ln == pytest.approx(math.log(2.0 * math.pi / math.sinh(2.0 * math.pi)),
                                               rel=1e-13)
    # (1 + 2i)(2 + 2i) times its conjugate is |.|^2 = 5 * 8
    ln, sign = sf.ln_gamma_ratio((3 + 2j, 3 - 2j), (1 + 2j, 1 - 2j))
    assert sign == 1.0 and math.exp(ln) == pytest.approx(40.0, rel=1e-13)


def test_ln_gamma_ratio_sums_in_the_order_given():
    # the terms are summed as written, so a caller's hand-written lgamma sum keeps its bits
    a1, a2, b, s = 2.5, 1.8, 2.2, 0.3
    ln, sign = sf.ln_gamma_ratio((a1, a2), (b, s))
    assert (ln, sign) == (math.lgamma(a1) + math.lgamma(a2) - math.lgamma(b) - math.lgamma(s), 1.0)


# --------------------------------------------------------------------- pfq

def test_pfq_exponential():
    r = sf.pfq([], [], 1.0)
    assert r.value == pytest.approx(math.e, rel=1e-12)
    assert r.terms_used >= 1


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
    with pytest.raises(DivergenceError):
        sf.pfq([0.5], [], -1.0)  # the ring needs eta < 0, off x = 1 too
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
        assert r.tail_estimate <= tol * max(1.0, abs(r.value))


def test_pfq_tol_refinement_within_tail():
    r1 = sf.pfq([0.5, 1.5], [2.0], 0.72, tol=1e-8)
    r2 = sf.pfq([0.5, 1.5], [2.0], 0.72, tol=1e-9)
    assert abs(r1.value - r2.value) <= r1.tail_estimate


@pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("zeta", [0.1, 1.0, 9.0])
def test_pfq_bessel_bridge(b, zeta):
    # 0F1(; b; zeta) = Gamma(b) zeta^((1-b)/2) I_(b-1)(2 sqrt zeta), I from mpmath
    mpmath = pytest.importorskip("mpmath")
    lhs = sf.pfq([], [b], zeta).value
    i_b = float(mpmath.besseli(b - 1.0, 2.0 * math.sqrt(zeta)))
    rhs = math.gamma(b) * zeta ** ((1.0 - b) / 2.0) * i_b
    assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("zeta", [0.0, 0.25, 0.9])
def test_pfq_binomial_bridge(a, zeta):
    assert sf.pfq([a], [], zeta).value == pytest.approx((1.0 - zeta) ** (-a), rel=1e-10)


def test_kummer_term_cap_read_at_call_time(monkeypatch):
    # the CLI's GHCS_MAX_TERMS lowers DEFAULT_MAX_TERMS after import; every
    # series and continued fraction reads it at call time: pfq, the log case
    # of 2F1 and the closed-form Bessel and Kummer fractions
    monkeypatch.setattr(sf, "DEFAULT_MAX_TERMS", 5)
    for series in (lambda: sf.pfq([1.0], [2.5], 3.0), lambda: sf.gauss_2f1(3.0, 3.0, 8.0, 0.95),
                   lambda: ps.closed_form_stats("F01", st.validate([], [2.0]), 9.0),
                   lambda: ps.closed_form_stats("F11", st.validate([2.0], [3.0]), 9.0)):
        with pytest.raises(ConvergenceError):
            series()


def _pfq_loop(a, b, x, tol=sf.DEFAULT_TOL):
    # term-by-term reference: (value, terms, tail) of the sum pfq forms in blocks
    term = s = 1.0
    streak, last = 0, [1.0]
    for n in range(sf.DEFAULT_MAX_TERMS):
        num, den = x, n + 1.0
        for ai in a:
            num = num * (ai + n)
        for bj in b:
            den = den * (bj + n)
        ratio = num / den
        term = term * ratio
        if term == 0:
            return s, n + 2, 0.0
        s = s + term
        last = (last + [abs(term)])[-3:]
        streak = streak + 1 if abs(term) <= tol * abs(s) else 0
        r = abs(ratio)
        tail = abs(term) / (1.0 - r) if r < 1.0 else sum(last)
        if streak >= 3 and tail <= tol * max(1.0, abs(s)):
            return s, n + 2, tail
    raise ConvergenceError("reference loop")


def test_pfq_array_matches_term_loop():
    # an array x sums all its nodes in blocks, each node stopping at its own
    # first term that meets the rule: every node returns, bit for bit, the
    # value, terms and tail of the term-by-term loop and of its scalar call
    rng = np.random.default_rng(14)
    for p, q in ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)):
        a = tuple(rng.uniform(-3.0, 6.0, p).tolist())
        b = tuple(rng.uniform(0.1, 6.0, q).tolist())
        xs = rng.uniform(-0.95, 0.95, 40) if p > q else rng.uniform(-60.0, 60.0, 40)
        xs[0] = 0.0
        if p == 2 and q == 1:
            a = (-3.0, a[1])  # a terminating series
        rows = sf.pfq(a, b, xs)
        loop = [_pfq_loop(a, b, x) for x in xs.tolist()]
        ones = [sf.pfq(a, b, x) for x in xs.tolist()]
        assert rows.value.tolist() == [v for v, _, _ in loop] == [r.value for r in ones], (p, q)
        assert rows.tail_estimate.tolist() == [t for _, _, t in loop], (p, q)
        assert rows.terms_used == sum(n for _, n, _ in loop) == sum(r.terms_used for r in ones)
    assert isinstance(sf.pfq([1.5], [2.5], 3.0).value, float)


def test_pfq_weight_and_abs_sum():
    # weight g_0 sums t_n g_n, g stepped by sum 1/(a_i+n) - sum 1/(b_j+n)
    # - 1/(n+1) (the psi differences of the 2F1 log case); abs_sum is
    # sum |t_n| of the unweighted terms, alternating ones included
    for a, b, x, g0 in (((2.5, 1.5), (3.0,), 0.15, -0.8), ((-4.5,), (1.5,), 7.0, 2.0)):
        t, g, s, s_abs = 1.0, g0, g0, 1.0
        for n in range(400):
            t *= x * math.prod(ai + n for ai in a) / ((n + 1.0) * math.prod(bj + n for bj in b))
            g += sum(1.0 / (ai + n) for ai in a) - sum(1.0 / (bj + n) for bj in b) - 1.0 / (n + 1.0)
            s, s_abs = s + t * g, s_abs + abs(t)
        r = sf.pfq(a, b, np.array([x, x]), weight=np.array([g0, g0]), tol=1e-15)
        assert r.value == pytest.approx([s, s], rel=1e-13)
        assert r.abs_sum == pytest.approx([s_abs, s_abs], rel=1e-13)
        assert sf.pfq(a, b, x, tol=1e-15, weight=g0).value == pytest.approx(s, rel=1e-13)
        assert sf.pfq(a, b, x, tol=1e-15).abs_sum == pytest.approx(s_abs, rel=1e-13)


# ------------------------------------------------------------------ bessel

def _bessel_k(nu, x):
    """K_nu(x) as the exponential of ln_bessel_k, the package's K."""
    return math.exp(sf.ln_bessel_k(nu, x))


def test_bessel_k_half_integer_closed_form():
    # K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}; frozen at x = 1
    assert _bessel_k(0.5, 1.0) == pytest.approx(0.46106850444789454, rel=1e-12)
    # an integer order below x = 3 (the cosh integral); frozen K_1(2)
    assert _bessel_k(1.0, 2.0) == pytest.approx(0.13986588181652243, rel=1e-13)


@pytest.mark.parametrize("nu", [0.0, 0.3, 1.0, 2.0, 4.0, 0.9999999, 1.001])
@pytest.mark.parametrize("x", [0.01, 0.5, 2.0, 4.9, 5.1, 9.0, 15.9, 16.1, 35.0])
def test_bessel_wronskian(nu, x):
    # I_nu K_(nu+1) + I_(nu+1) K_nu = 1/x, I from mpmath
    mpmath = pytest.importorskip("mpmath")
    i_nu, i_up = (float(mpmath.besseli(v, x)) for v in (nu, nu + 1.0))
    w = i_nu * _bessel_k(nu + 1.0, x) + i_up * _bessel_k(nu, x)
    assert w * x == pytest.approx(1.0, rel=2e-10)


def test_bessel_k_log_singularity_at_origin():
    assert _bessel_k(0.0, 1e-6) > 10.0


def test_bessel_k_domain():
    with pytest.raises(ValueError):
        _bessel_k(0.3, 0.0)


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


def test_trapezoid_refines_only_open_rows(monkeypatch):
    # a row that has met the tolerance takes no further nodes, so a batch
    # hands log_f exactly the nodes of its one-row calls together (230,288)
    nodes = [0]
    trapezoid = sf._log_trapezoid

    def counted(log_f, *args):
        def f(t, *cols):
            nodes[0] += t.size
            return log_f(t, *cols)
        return trapezoid(f, *args)

    monkeypatch.setattr(sf, "_log_trapezoid", counted)
    xs = 2.0 * np.sqrt(np.logspace(-6.0, 4.0, 2000))
    sf.ln_bessel_k(1.0, xs)
    batch, nodes[0] = nodes[0], 0
    for x in xs.tolist():
        sf.ln_bessel_k(1.0, x)
    assert batch == nodes[0] < 250_000


def test_array_arguments_match_scalar_calls():
    # K rows at small and large x on the one cosh integral, U rows on the
    # Laplace, reflected Laplace, polynomial and recurrence branches,
    # 2F1 nodes on the direct, connection, logarithmic, Euler, unit and
    # polynomial branches and the direct series of the near-integer
    # fallback (x = 0.85 on the last set), in one call each
    xs = np.array([1e-3, 0.7, 2.5, 3.5, 12.0, 20.0, 400.0])
    for nu in (0.0, 1.0, 1.4, 3.0):
        ln = sf.ln_bessel_k(nu, xs)
        assert np.allclose(ln, [sf.ln_bessel_k(nu, float(x)) for x in xs], rtol=1e-14, atol=1e-14)
    for a, b in ((0.6, 1.1), (2.0, 0.4), (-0.5, -2.0), (-2.0, 0.5), (-2.5, -1.0)):
        u = sf.tricomi_u(a, b, xs)
        assert np.allclose(u, [sf.tricomi_u(a, b, float(x)) for x in xs], rtol=1e-14, atol=0.0)
    xs = np.array([0.0, 0.3, 0.8, 0.85, 0.93, 1.0 - 1e-9, 1.0])
    for a1, a2, b in ((0.3, 0.7, 1.9), (1.0, 1.0, 3.0), (2.0, 2.0, 2.0), (-2.0, 1.5, 2.5),
                      (4.89, 5.66, 11.55 - 3.77e-7)):
        at = xs if b - a1 - a2 > 0 else xs[:-1]  # the unit formula needs b - a1 - a2 > 0
        f = sf.gauss_2f1(a1, a2, b, at)
        ones = [sf.gauss_2f1(a1, a2, b, float(x)) for x in at]
        assert np.allclose(f.value, [r.value for r in ones], rtol=1e-15, atol=0.0)
        assert np.array_equal(f.tail_estimate, [r.tail_estimate for r in ones])
        assert all(isinstance(r.value, float) for r in ones)
    # F21 densities: x = 0 (unit formula), x <= 0.2 (connection formulas in
    # the exact distance x) and x > 0.2 (direct series in 1 - x); (3, 3; 2)
    # takes the log case
    xs = np.array([0.0, 1e-7, 0.15, 0.3, 0.5, 0.51, 0.9, 1.0 - 1e-9])
    for a in ([3.0, 3.0], [2.5, 1.8]):
        params = st.validate(a, [2.0])
        w = wt.weight_tilde("F21", params, xs)
        assert np.allclose(w, [wt.weight_tilde("F21", params, float(x)) for x in xs],
                           rtol=1e-15, atol=0.0)
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


def test_gamma_ratio_out_of_double_range_is_structured():
    # Gamma(1202) / Gamma(601.5)^2 is about exp(828.7): the unit formula and
    # the logarithmic connection case raise a RangeError naming the log, and
    # the two-term case (s = 1201.8) its own, not a bare 'math range error'
    for call in (lambda: sf.gauss_2f1_unit(-600.5, -600.5, 1.0),
                 lambda: sf.gauss_2f1(-600.5, -600.5, 1.0, 0.95),
                 lambda: sf.gauss_2f1(-600.3, -600.5, 1.0, 0.95)):
        with pytest.raises(RangeError, match=r"Gamma ratio exp\(8\d\d\.\d+\) exceeds double range"):
            call()


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


def test_gauss_divergence():
    with pytest.raises(DivergenceError):
        sf.gauss_2f1(2.0, 2.0, 3.0, 1.0)  # b - a1 - a2 = -1 at unit argument
    with pytest.raises(DivergenceError):
        sf.gauss_2f1(0.5, 0.5, 1.5, 1.3)
    # the domain is the |z|^2 of the states, 0 <= x <= 1: x < 0 is refused,
    # a terminating series and a node of an array included
    for a1 in (0.5, -2.0):
        with pytest.raises(DivergenceError, match="0 <= x <= 1"):
            sf.gauss_2f1(a1, 0.5, 1.5, -0.3)
    with pytest.raises(DivergenceError):
        sf.gauss_2f1(0.5, 0.5, 1.5, np.array([0.2, -0.3]))


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
    # large x on the Laplace integral and the recurrence; worst 8.8e-15 here
    ((-6.0, 6.0), (30.0, 1e4), 1e-13),
    ((-6.0, 6.0), (1e4, 1e10), 1e-13),
])
def test_tricomi_u_oracle(a_range, x_range, bound):
    rng = np.random.default_rng(4)
    draws = [(rng.uniform(*a_range), rng.uniform(-4.0, 4.0), _log_uniform(rng, *x_range))
             for _ in range(300)]
    errs = _oracle_errors(sf.tricomi_u, lambda mp, a, b, x: mp.hyperu(a, b, x), draws)
    assert max(errs) < (bound,)


def test_tricomi_u_oracle_recurrence_at_small_x():
    # a <= 0 and a - b + 1 <= 0 with b off the integers take the recurrence
    # from two Laplace anchors at every x: worst 3.0e-13 here, 8.0e-13 on 900
    rng = np.random.default_rng(4)
    draws = []
    while len(draws) < 300:
        a, b, x = rng.uniform(-6.0, 0.0), rng.uniform(-4.0, 4.0), _log_uniform(rng, 0.05, 5.0)
        if a - b + 1.0 <= 0.0 and abs(b - round(b)) >= 1e-3:
            draws.append((a, b, x))
    errs = _oracle_errors(sf.tricomi_u, lambda mp, a, b, x: mp.hyperu(a, b, x), draws)
    assert max(errs) < (1e-11,)


@pytest.mark.parametrize("log10_off,x_range", [
    (None, (1e-4, 16.0)),
    # orders 1e-8 to 0.1 from an integer, where the ascending series lose digits
    ((-8.0, -1.0), (3.0, 5.0)),
    # orders down to 1e-12 from an integer below x = 3
    ((-12.0, -1.0), (1e-4, 3.0)),
    # the cosh integral alone, far past where K underflows
    (None, (16.0, 1e9)),
    # integer orders 0..6 below x = 3, on the cosh integral; worst 8.4e-15
    ("integer", (1e-4, 3.0)),
])
def test_bessel_k_oracle(log10_off, x_range):
    rng = np.random.default_rng(5)
    draws = []
    for _ in range(150):
        nu = rng.uniform(0.0, 6.0)
        if log10_off == "integer":
            nu = float(round(nu))
        elif log10_off:
            nu = abs(round(nu) + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(*log10_off))
        draws.append((nu, _log_uniform(rng, *x_range)))
    errs = _oracle_errors(_bessel_k, lambda mp, nu, x: mp.besselk(nu, x),
                          [p for p in draws if p[1] <= 700.0])
    # above x = 700 K underflows: log K is held to the 2e-12 of K, on top of
    # the rounding of log K itself to a double (two ulps of |log K|)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        errs += [(abs(sf.ln_bessel_k(*p) - ref) - 2.0 * math.ulp(ref), p) for p in draws
                 if p[1] > 700.0 for ref in (float(mp.log(mp.besselk(*p))),)]
    assert max(errs) < (2e-12,)


def test_bessel_k_oracle_small_x_off_the_integers():
    # every order takes the cosh integral at small x too: worst 1.0e-14 here
    rng = np.random.default_rng(20)
    draws = [(rng.uniform(0.0, 6.0), _log_uniform(rng, 1e-4, 3.0)) for _ in range(600)]
    errs = _oracle_errors(_bessel_k, lambda mp, nu, x: mp.besselk(nu, x), draws)
    assert max(errs) < (2e-14,)


def test_gauss_2f1_near_unit_argument_oracle():
    # x in (0.8, 1): the connection formulas in 1 - x.  Second band: integer
    # m = b - a1 - a2 >= 0, the logarithmic case, whose sum cancels up to
    # ~3e3-fold at a1, a2 ~ 6, b ~ 13, so its psi values must be good to
    # about an ulp.  Worst on 1,500 draws per band: 3.2e-12 (a1 = -5.8 and
    # b - a1 - a2 0.022 from an integer, the direct series, whose terms
    # alternate) and 2.3e-12.
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


@pytest.mark.parametrize("a1_range,x_range,bound", [
    ((0.3, 6.0), (0.8, 0.99), 5e-13),
    # the log part's terms grow past the value as a1 does: these nodes take
    # the direct series, where the log case alone is up to 2e2 off
    ((6.0, 100.0), (0.8, 0.9), 5e-12),
])
def test_gauss_log_case_oracle(a1_range, x_range, bound):
    # integer m = b - a1 - a2 in 0..3: the logarithmic connection case
    rng = np.random.default_rng(3)
    draws = []
    for _ in range(60):
        a1, a2, m = rng.uniform(*a1_range), rng.uniform(0.3, 6.0), int(rng.integers(0, 4))
        draws.append((a1, a2, a1 + a2 + m, rng.uniform(*x_range)))
    errs = _oracle_errors(lambda *p: sf.gauss_2f1(*p).value,
                          lambda mp, a1, a2, b, x: mp.hyp2f1(a1, a2, b, x), draws)
    assert max(errs) < (bound,)


def test_gauss_2f1_large_parameter_oracle():
    # b in [180, 400]: the unit formula and the two connection coefficients
    # are Gamma ratios whose factors leave double range (1/Gamma(v) underflows
    # from v = 178.5, where a pole test by 1/Gamma == 0 dropped whole terms).
    # s = b - a1 - a2 stays off the integers: the logarithmic case is not in
    # this band.  Worst 8.1e-13 on 400 draws, about u sum |ln Gamma|
    rng = np.random.default_rng(29)
    draws = []
    while len(draws) < 100:
        a1, a2, b = rng.uniform(0.3, 6.0), rng.uniform(0.3, 6.0), rng.uniform(180.0, 400.0)
        if abs(b - a1 - a2 - round(b - a1 - a2)) > 1e-3:
            draws.append((a1, a2, b, rng.uniform(0.8, 1.0)))
    errs = _oracle_errors(lambda a1, a2, b, x: sf.gauss_2f1_unit(a1, a2, b),
                          lambda mp, a1, a2, b, x: mp.hyp2f1(a1, a2, b, 1), draws)
    errs += _oracle_errors(lambda *p: sf.gauss_2f1(*p).value,
                           lambda mp, a1, a2, b, x: mp.hyp2f1(a1, a2, b, x), draws)
    assert max(errs) < (2e-12,)


def test_gauss_2f1_near_integer_oracle():
    # s = b - a1 - a2 within 1e-7..1e-3 of an integer m, x in (0.8, 0.9]: the
    # two connection terms cancel and carry the rounding of s amplified
    # 1/|s - m| times, so these nodes take the direct series.  Worst here
    # 1.1e-14; the two-term formula alone is 1.7 off.  a1, a2 > 0: where
    # a2 < 0 puts x near a zero of 2F1 neither branch holds a relative bound
    rng = np.random.default_rng(15)
    draws = []
    while len(draws) < 300:
        a1, a2, m = rng.uniform(0.1, 6.0), rng.uniform(0.1, 6.0), int(rng.integers(-3, 6))
        b = a1 + a2 + m + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-7.0, -3.0)
        if b > 0.1:
            draws.append((a1, a2, b, rng.uniform(0.8, 0.9)))
    errs = _oracle_errors(lambda *p: sf.gauss_2f1(*p).value,
                          lambda mp, a1, a2, b, x: mp.hyp2f1(a1, a2, b, x), draws)
    assert max(errs) < (5e-12,)
    assert sf.gauss_2f1(4.89, 5.66, 11.55 - 3.77e-7, 0.85).value == pytest.approx(
        30.686748125650137, rel=0.0, abs=5e-12)


def test_f21_density_oracle():
    # wt(x) of the F21 disk weight on x in (0.2, 0.5], where its 2F1 argument
    # 1 - x lies in [0.5, 0.8): the direct series, not the connection formulas
    # (3.9e-8 off at (5.64, 4.61; 0.74), x = 0.4945).  Worst here 6.1e-14
    rng = np.random.default_rng(14)
    draws = [(5.64, 4.61, 0.74, 0.4945)]
    while len(draws) < 300:
        a1, a2, b = rng.uniform(0.3, 6.0, 3)
        if a1 + a2 - b > 1.05:
            draws.append((a1, a2, b, rng.uniform(0.2, 0.5)))

    def ref(mp, a1, a2, b, x):
        s, om = a1 + a2 - b, 1 - mp.mpf(x)
        return (mp.gamma(a1) * mp.gamma(a2) / (mp.gamma(b) * mp.gamma(s - 1)) * om ** (s - 2)
                * mp.hyp2f1(a2 - b, a1 - b, s - 1, om))

    errs = _oracle_errors(lambda a1, a2, b, x: wt.weight_tilde("F21", st.validate([a1, a2], [b]), x),
                          ref, draws)
    assert max(errs) < (2e-12,)


def test_pfq_oracle():
    # p, q <= 2 with positive parameters and real x >= 0, where no terms
    # cancel: the error is the truncation tail (tol = 1e-12 relative) plus
    # rounding.  x < 0.9 on the disk (p = q + 1), x <= 50 on the plane.
    # Worst 9.1e-13 on 2,000 draws
    rng = np.random.default_rng(11)
    draws = []
    for p, q in ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)):
        for _ in range(50):
            a = tuple(rng.uniform(0.1, 6.0, p).tolist())
            b = tuple(rng.uniform(0.1, 6.0, q).tolist())
            draws.append((a, b, rng.uniform(0.0, 0.9 if p > q else 50.0)))
    errs = _oracle_errors(lambda a, b, x: sf.pfq(a, b, x).value,
                          lambda mp, a, b, x: mp.hyper(a, b, x), draws)
    assert max(errs) < (2e-12,)
