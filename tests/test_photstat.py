import cmath
import math

import numpy as np
import pytest

from ghcs import ladder as ld
from ghcs import photstat as ps
from ghcs import specfun as sf
from ghcs import states as st
from ghcs.errors import DivergenceError, ParameterError

CS = st.validate([], [])

FIG_GRID = (
    [("F01", st.validate([], [b]), az) for b in (0.2, 1.0, 5.0) for az in (0.25, 0.75, 3.0)]
    + [("F11", st.validate([a], [b]), az)
       for a, b in ((2.0, 4.0), (4.0, 2.0), (3.0, 3.0)) for az in (0.25, 0.75, 3.0)]
    + [("F10", st.validate([a], []), az) for a in (1.5, 2.0, 4.0) for az in (0.25, 0.75)]
    + [("F21", st.validate([3.0, 3.0], [2.0]), az) for az in (0.25, 0.75)]
)


def test_poisson_distribution():
    d = ps.pn_distribution(st.StateSpec(CS, 3.0))
    for n in range(len(d.values)):
        ref = math.exp(-9.0 + n * math.log(9.0) - math.lgamma(n + 1.0))
        assert d.values[n] == pytest.approx(ref, rel=1e-12)
    assert d.norm_residual <= 1e-10


def test_vacuum_distribution():
    d = ps.pn_distribution(st.StateSpec(st.validate([2.0], [3.0]), 0.0))
    assert d.values[0] == 1.0 and len(d.values) == 1


def test_negative_binomial_shape():
    # (1;0): P(n) = (a)_n / n! (1-x)^a x^n
    a, x = 2.0, 0.5625
    d = ps.pn_distribution(st.StateSpec(st.validate([a], []), math.sqrt(x)))
    for n in range(min(12, len(d.values))):
        ref = math.prod(a + k for k in range(n)) / math.factorial(n) * (1 - x) ** a * x**n
        assert d.values[n] == pytest.approx(ref, rel=1e-11)


def test_unnormalizable_circle_has_no_distribution():
    with pytest.raises(DivergenceError):
        ps.pn_distribution(st.StateSpec(st.validate([2.0], []), 1.0))


# -------------------------------------------------------- factorial moments

def test_factorial_moment_power_law():
    # <n> = x and <n(n-1)> = mean (Q + mean) = x^2 for the coherent state
    mean, q = ps.mean_and_mandel(CS, 2.7)
    assert mean == pytest.approx(2.7, rel=1e-12)
    assert mean * (q + mean) == pytest.approx(2.7**2, rel=1e-12)


def test_factorial_moment_brute_force():
    params = st.validate([], [2.0])
    d = ps.pn_distribution(st.StateSpec(params, 2.0), tol=1e-14)
    brute = float(np.sum(d.grid * d.values))
    assert ps.mean_and_mandel(params, 4.0)[0] == pytest.approx(brute, rel=1e-9)


def test_factorial_moment_at_zero():
    assert ps.mean_and_mandel(st.validate([2.0], [3.0]), 0.0) == (0.0, 0.0)


def test_mean_and_mandel_geometric_family():
    m, q = ps.mean_and_mandel(st.validate([2.0], []), 0.25)
    assert m == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert q == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_mandel_continuous_extension_at_zero():
    assert ps.mean_and_mandel(st.validate([], [1.0]), 0.0) == (0.0, 0.0)


def test_bessel_family_nonclassical():
    _, q = ps.mean_and_mandel(st.validate([], [1.0]), 9.0)
    assert q < 0.0


# ----------------------------------------------------------- closed forms

def test_closed_form_cs():
    stats = ps.closed_form_stats("CS", CS, 9.0)
    assert stats.mean == 9.0 and stats.mandel_q == 0.0


def test_closed_form_f01_bessel_ratio():
    mpmath = pytest.importorskip("mpmath")
    stats = ps.closed_form_stats("F01", st.validate([], [1.0]), 9.0)
    ref = 3.0 * mpmath.besseli(1, 6) / mpmath.besseli(0, 6)
    assert stats.mean == pytest.approx(float(ref), rel=1e-12)


def _closed_form_errors(family, draws):
    """Worst mean error (relative) and Q error (relative to max(1, mean)) of
    closed_form_stats against 40-digit mpmath; draws are (a, b, x), a = None
    for F01, whose ratios are taken from I_v(2 sqrt x), a number for F11 and
    a pair for F21, whose ratios are taken from pFq(a+k; b+k; x)."""
    mpmath = pytest.importorskip("mpmath")
    worst = [0.0, 0.0]
    with mpmath.workdps(40):
        for a, b, x in draws:
            a = [] if a is None else list(a) if isinstance(a, tuple) else [a]
            stats = ps.closed_form_stats(family, st.validate(a, [b]), x)
            if not a:
                i = [mpmath.besseli(b - 1 + k, 2 * mpmath.sqrt(x)) for k in range(3)]
                mean = mpmath.sqrt(x) * i[1] / i[0]
                n2_over_mean = mpmath.sqrt(x) * i[2] / i[1]
            else:
                m = [mpmath.hyper([v + k for v in a], [b + k], x) for k in range(3)]
                shift = lambda k: mpmath.fprod(mpmath.mpf(v) + k for v in a) / (b + k)
                mean = x * shift(0) * m[1] / m[0]
                n2_over_mean = x * shift(1) * m[2] / m[1]
            worst[0] = max(worst[0], float(abs(stats.mean / mean - 1)))
            worst[1] = max(worst[1], float(abs(stats.mandel_q - (n2_over_mean - mean))
                                           / max(1, mean)))
    return worst


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


@pytest.mark.parametrize("family,x_range", [
    # F01 from the Bessel fraction: worst 4.3e-15 here, 4.9e-15 on 300 draws
    ("F01", (0.01, 1e5)),
    # F11 from the fraction in b: worst 4.8e-15 here (6.2e-15 on 300 draws),
    # and 7.0e-15 with x in (1e3, 1e4], where M(a; b; x) leaves double range
    ("F11", (0.01, 1e3)),
    ("F11", (1e3, 1e4)),
    # (2;3) at x = 4e4 and 6e4, past the 3e4 where the P(n) sum stopped at a
    # ratio below 1/2 and raised ConvergenceError; the geometric-rest stop
    # reaches them: worst 4.9e-17
    ("F11", [(2.0, 3.0, 4e4), (2.0, 3.0, 6e4)]),
])
def test_closed_form_ratio_oracle(family, x_range):
    rng = np.random.default_rng(17)
    draws = x_range if isinstance(x_range, list) else [
        (None if family == "F01" else rng.uniform(0.3, 6.0),
         rng.uniform(0.2 if family == "F01" else 0.3, 6.0), _log_uniform(rng, *x_range))
        for _ in range(100)]
    assert max(_closed_form_errors(family, draws)) < 1e-13


@pytest.mark.parametrize("near_integer_s,x_range", [
    (False, None), (False, (0.8, 0.9409)), (True, None), (True, (0.8, 0.9409))])
def test_closed_form_f21_oracle(near_integer_s, x_range):
    # the bench's F21 disk ranges, a1, a2, b in [0.3, 5] and |z| in (0, 0.97),
    # or x uniform in x_range; near_integer_s moves b so that s = b - a1 - a2
    # lies 1e-9..1e-3 from an integer, on either side.  Gauss's continued
    # fraction: worst 1.5e-14 here (1.9e-14 on 300 draws a band).  The three
    # gauss_2f1 values taken before were 3.7e-13 off on the first three
    # bands, and 2.4e-7 off on the last, where 5 of the 100 calls raised
    rng = np.random.default_rng(29)
    draws = []
    for _ in range(100):
        a1, a2, b = rng.uniform(0.3, 5.0, 3)
        if near_integer_s:
            b = a1 + a2 + round(b - a1 - a2) + rng.choice([-1, 1]) * 10 ** rng.uniform(-9, -3)
            b += 1.0 if b < 0.3 else 0.0
        x = rng.uniform(*x_range) if x_range else rng.uniform(0.0, 0.97) ** 2
        draws.append(((a1, a2), b, x))
    assert max(_closed_form_errors("F21", draws)) < 1e-13


@pytest.mark.parametrize("a,b,az", [
    ((0.548, 2.618), 3.16601, 0.97),  # s within 1e-5 of 1
    ((0.548, 2.618), 3.165, 0.97),
    ((1.2, 2.9), 5.1 - 3e-8, 0.96),  # s within 3e-8 of 1
    ((0.7, 1.3), 2.2, 0.97), ((0.3, 0.4), 4.5, 0.97), ((2.5, 4.0), 6.0, 0.97),
])
def test_closed_form_f21_pn_against_mpmath(a, b, az):
    # eta < 1: the F21 ratios rise towards x, and the slice is cut on the
    # larger of its last ratio and x.  P(n) sums to 1 within 1e-12 and each
    # P(n) is within 1e-13 of 40-digit mpmath (worst 4.3e-14); stepped from
    # the anchor 1/2F1 it was 2.4e-10 off at the first point and raised
    # ConvergenceError at the third
    mpmath = pytest.importorskip("mpmath")
    x = az * az
    pn = ps.closed_form_stats("F21", st.validate(list(a), [b]), x).pn
    assert abs(pn.values.sum() - 1.0) <= 1e-12
    worst = 0.0
    with mpmath.workdps(40):
        a1, a2, b = (mpmath.mpf(v) for v in (*a, b))
        ref = 1 / mpmath.hyp2f1(a1, a2, b, x)
        for n, p in enumerate(pn.values):
            worst = max(worst, float(abs(p / ref - 1)))
            ref *= x * (a1 + n) * (a2 + n) / ((b + n) * (n + 1))
    assert worst <= 1e-13


def test_closed_form_family_mismatch():
    with pytest.raises(ParameterError):
        ps.closed_form_stats("F01", st.validate([2.0], []), 0.5)
    with pytest.raises(ValueError):
        ps.closed_form_stats("XX", CS, 0.5)


def test_f11_reduces_to_cs_when_equal():
    for x in (0.0625, 9.0):
        s1 = ps.closed_form_stats("F11", st.validate([3.0], [3.0]), x)
        assert s1.mean == pytest.approx(x, rel=1e-12)
        assert abs(s1.mandel_q) <= 1e-10 * max(1.0, x)


def test_f21_reduces_to_f10_when_b_matches():
    s21 = ps.closed_form_stats("F21", st.validate([3.0, 2.0], [2.0]), 0.5625)
    s10 = ps.closed_form_stats("F10", st.validate([3.0], []), 0.5625)
    assert s21.mean == pytest.approx(s10.mean, rel=1e-11)
    assert s21.mandel_q == pytest.approx(s10.mandel_q, rel=1e-11)


@pytest.mark.parametrize("family,params,az", FIG_GRID,
                         ids=[f"{f}{p.label()}@{az}" for f, p, az in FIG_GRID])
def test_closed_vs_generic_oracle(family, params, az):
    x = az * az
    stats = ps.closed_form_stats(family, params, x)
    mean, q = ps.mean_and_mandel(params, x, tol=1e-14)
    assert stats.mean == pytest.approx(mean, rel=1e-8)
    assert abs(stats.mandel_q - q) <= 1e-8 * max(1.0, abs(q), mean)
    d = ps.pn_distribution(st.StateSpec(params, az), tol=1e-14)
    k = min(len(d.values), len(stats.pn.values))
    rel = np.abs(d.values[:k] - stats.pn.values[:k]) / np.maximum(stats.pn.values[:k], 1e-300)
    assert float(np.max(rel)) <= 1e-8
    assert d.norm_residual <= 1e-10 and stats.pn.norm_residual <= 1e-10


def test_mandel_sign_structure_f11():
    # Q > 0 for a < b and Q < 0 for a > b
    for az in (0.25, 0.75, 3.0):
        assert ps.mean_and_mandel(st.validate([2.0], [4.0]), az * az)[1] > 0.0
        assert ps.mean_and_mandel(st.validate([4.0], [2.0]), az * az)[1] < 0.0


def test_f10_mandel_independent_of_a():
    for x in (0.0625, 0.5625):
        ref = x / (1.0 - x)
        for a in (1.5, 2.0, 7.0):
            m, q = ps.mean_and_mandel(st.validate([a], []), x, tol=1e-14)
            assert q == pytest.approx(ref, rel=1e-12)
            assert m == pytest.approx(a * x / (1.0 - x), rel=1e-12)


def test_complex_pair_generic_path():
    # conjugate-pair parameters run through the generic machinery only
    params = st.validate([1 + 2j, 1 - 2j], [0.5])
    m, q = ps.mean_and_mandel(params, 0.25)
    assert m > 0.0 and math.isfinite(q)
    with pytest.raises(ParameterError):
        ps.closed_form_stats("F21", params, 0.25)


DRIFT_CASES = [("CS", [], [], 18.0), ("CS", [], [], 20.0), ("CS", [], [], 26.0),
               ("F11", [5.0], [1.0], 17.0), ("F11", [1.0], [2.0], 20.0)]


@pytest.mark.parametrize("family,a,b,az", DRIFT_CASES,
                         ids=[f"{f}({a};{b})@{az:g}" for f, a, b, az in DRIFT_CASES])
def test_pn_distribution_large_amplitude(family, a, b, az):
    # sum P(n) reaches 1 - 1e-12 only if log rho does not drift: a plain
    # running sum is off by ~1e-11 within the first 1,500 terms
    params = st.validate(a, b)
    d = ps.pn_distribution(st.StateSpec(params, az))
    assert d.norm_residual <= 1e-10
    ref = ps.closed_form_stats(family, params, az * az).pn.values
    k = min(len(d.values), len(ref))
    rel = np.abs(d.values[:k] - ref[:k]) / np.maximum(ref[:k], 1e-300)
    assert float(np.max(rel)) <= 1e-8


LARGE_AMPLITUDE = [("CS", [], []), ("F01", [], [2.0]), ("F11", [2.0], [3.0]),
                   ("F11", [5.0], [1.0])]


@pytest.mark.parametrize("family,a,b", LARGE_AMPLITUDE,
                         ids=[f"{f}({a};{b})" for f, a, b in LARGE_AMPLITUDE])
def test_state_core_at_absz_60(family, a, b):
    # N = pFq(x = 3600) is far beyond double range; everything stays finite
    params = st.validate(a, b)
    spec = st.StateSpec(params, 60.0)
    v = st.fock_vector(spec)
    d = ps.pn_distribution(spec)
    mean, q = ps.mean_and_mandel(params, 3600.0)
    assert np.all(np.isfinite(v.coeffs)) and np.all(np.isfinite(d.values))
    assert math.isfinite(mean) and math.isfinite(q)
    assert d.norm_residual <= 1e-10
    k = len(d.values)
    assert np.max(np.abs(d.values - np.abs(v.coeffs[:k]) ** 2)) <= 1e-12
    assert mean == pytest.approx(float(np.sum(d.grid * d.values)), rel=1e-10)


@pytest.mark.parametrize("az", [240.0, 250.0])
def test_pn_distribution_at_the_slice_cap(az):
    # log N ~ |z|^2 carries 3.6e-12 of rounding at |z| = 240: P(n) formed against the
    # slice's largest term sums to 1 within ulps, where exp(log t_n - log N)
    # summed to 1 - 3.6e-12 and missed the 1 - 1e-12 rule (ConvergenceError)
    spec = st.StateSpec(CS, az)
    d = ps.pn_distribution(spec)
    v = st.fock_vector(spec)
    assert d.norm_residual <= 1e-14 and abs(v.norm_sq() - 1.0) <= 1e-14
    assert float(np.sum(d.grid * d.values)) == pytest.approx(az * az, rel=1e-12)


def test_moments_against_mpmath_at_large_amplitude():
    mpmath = pytest.importorskip("mpmath")
    params, x = st.validate([2.0], [3.0]), 784.0  # |z| = 28: M(2, 3, 784) overflows
    mean, q = ps.mean_and_mandel(params, x)
    with mpmath.workdps(40):
        m = [mpmath.hyp1f1(2 + k, 3 + k, x) for k in range(3)]
        ref_mean = x * mpmath.mpf(2) / 3 * m[1] / m[0]
        ref_q = -ref_mean + x * mpmath.mpf(3) / 4 * m[2] / m[1]
    assert mean == pytest.approx(float(ref_mean), rel=1e-13)
    # Q = -mean + n2/mean cancels to 1.6e-6 of the mean: judge it on that scale
    assert abs(q - float(ref_q)) <= 1e-12 * mean


def test_circle_factorial_moments_from_the_gauss_sums():
    # at |z| = 1, 2F1(a1+k, a2+k; b+k; 1) = G(b+k) G(s-k) / (G(b-a1) G(b-a2)),
    # s = b - a1 - a2, so <n(n-1)...(n-k+1)> = prod_(i<k) (a1+i)(a2+i)/(s-1-i);
    # <n> is the mean and <n(n-1)> = mean (Q + mean)
    params, s = st.validate([0.5, 0.5], [16.0]), 15.0
    mean, q = ps.mean_and_mandel(params, 1.0)
    for k, got in ((1, mean), (2, mean * (q + mean))):
        ref = math.prod((0.5 + i) ** 2 / (s - 1.0 - i) for i in range(k))
        assert got == pytest.approx(ref, rel=1e-13)


def _mpmath_stats(a, b, x):
    """Mean and Q from 40-digit pFq(a+k; b+k; x), k = 0, 1, 2."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        m = [mpmath.hyper([v + k for v in a], [v + k for v in b], x) for k in range(3)]
        shift = lambda k: (mpmath.fprod(mpmath.mpmathify(v) + k for v in a)
                           / mpmath.fprod(mpmath.mpmathify(v) + k for v in b))
        mean = x * shift(0) * m[1] / m[0]
        return float(mpmath.re(mean)), float(mpmath.re(x * shift(1) * m[2] / m[1] - mean))


MOMENT_BANDS = {  # (a, b, |z|) per draw
    "F01": lambda rng: ([], [rng.uniform(0.2, 6.0)], rng.uniform(0.0, 60.0)),
    "F11": lambda rng: ([rng.uniform(0.3, 6.0)], [rng.uniform(0.3, 6.0)], rng.uniform(0.0, 240.0)),
    "F10": lambda rng: ([rng.uniform(0.3, 6.0)], [], rng.uniform(0.0, 0.97)),
    "F21": lambda rng: (list(rng.uniform(0.3, 5.0, 2)), [rng.uniform(0.3, 5.0)],
                        rng.uniform(0.0, 0.97)),
    "pair": lambda rng: ([1 + 2j, 1 - 2j], [5.5], rng.uniform(0.0, 0.97)),
}


@pytest.mark.parametrize("band", list(MOMENT_BANDS))
def test_mean_and_mandel_band_against_mpmath(band):
    # 60 draws a band, and F11 (2;3) at |z| = 240: the mean within 1e-13 of
    # itself and Q within 1e-13 of max(1, mean).  Worst measured: F01
    # 1.6e-15, F11 8.1e-15, the disk bands 1.8e-15.  With Q formed as
    # x c exp(log N_2 - log N_1) - mean, each log N rounded to an ulp of
    # |z|^2, the F11 band was 7.7e-12 off (2.3 % of Q at (2;3), |z| = 240)
    rng = np.random.default_rng(5)
    draws = [MOMENT_BANDS[band](rng) for _ in range(60)]
    if band == "F11":
        draws.append(([2.0], [3.0], 240.0))
    for a, b, az in draws:
        x = az * az
        mean, q = ps.mean_and_mandel(st.validate(a, b), x)
        ref_mean, ref_q = _mpmath_stats(a, b, x)
        assert abs(mean / ref_mean - 1.0) <= 1e-13, (a, b, az)
        assert abs(q - ref_q) <= 1e-13 * max(1.0, ref_mean), (a, b, az)


REFUSED_X = {
    "negative": (lambda: ps.mean_and_mandel(CS, -1.0), ValueError),
    "negative moment": (lambda: ps.closed_form_stats("CS", CS, -1.0), ValueError),
    "negative in array": (lambda: ps.mean_and_mandel(CS, np.array([0.0, 1.0, -1.0])), ValueError),
    "nan closed form": (lambda: ps.closed_form_stats("F11", st.validate([2.0], [3.0]), math.nan),
                        DivergenceError),
    "inf closed form": (lambda: ps.closed_form_stats("CS", CS, math.inf), DivergenceError),
    "nan": (lambda: ps.mean_and_mandel(CS, math.nan), DivergenceError),
    "inf moment": (lambda: ps.mean_and_mandel(st.validate([], [2.0]), math.inf),
                   DivergenceError),
    "inf in array": (lambda: ps.mean_and_mandel(CS, np.array([1.0, math.inf])), DivergenceError),
}


@pytest.mark.parametrize("case", list(REFUSED_X))
def test_bad_x_is_refused_up_front(case):
    # a negative x is named as such (not a math domain error of sqrt); a
    # non-finite one raises DivergenceError as StateSpec does (not a
    # non-positive ratio for nan, nor 65,536 terms and a RuntimeWarning for inf)
    call, error = REFUSED_X[case]
    with pytest.raises(error, match="non-negative" if error is ValueError else "finite"):
        call()


def test_coherent_mandel_q_is_exactly_zero():
    for az in (0.1, 1.1, 1.8, 2.7, 6.0, 28.0):
        assert ps.mean_and_mandel(CS, az * az)[1] == 0.0


# P(n) lengths of figures 1 (|z| = 3), 4 (|z| = 3) and 7 (|z| = 3/4); the
# closed forms share the length rule, so they give the same counts
FIGURE_PN_LENGTHS = [
    ("F01", [], [0.2], 3.0, 20), ("F01", [], [1.0], 3.0, 20), ("F01", [], [5.0], 3.0, 18),
    ("CS", [], [], 3.0, 46),
    ("F11", [2.0], [4.0], 3.0, 44), ("F11", [3.0], [3.0], 3.0, 46),
    ("F11", [4.0], [2.0], 3.0, 48),
    ("F10", [1.5], [], 0.75, 69), ("F10", [2.0], [], 0.75, 73), ("F10", [4.0], [], 0.75, 83),
    ("CS", [], [], 0.75, 17),
]


@pytest.mark.parametrize("family,a,b,az,count", FIGURE_PN_LENGTHS,
                         ids=[f"{f}({a};{b})@{az:g}" for f, a, b, az, _ in FIGURE_PN_LENGTHS])
def test_figure_pn_lengths_pinned(family, a, b, az, count):
    params = st.validate(a, b)
    assert len(ps.pn_distribution(st.StateSpec(params, az)).values) == count
    assert len(ps.closed_form_stats(family, params, az * az).pn.values) == count


def test_circle_pn_from_the_gauss_sum():
    p = st.validate([1.0, 1.0], [6.0])  # eta = -4
    d = ps.pn_distribution(st.StateSpec(p, 1.0))
    assert d.norm_residual <= 1e-10
    mean = float(np.sum(d.grid * d.values))
    assert mean == pytest.approx(1.0 / 3.0, rel=1e-8)  # a1 a2 / (s - 1), s = 4


@pytest.mark.parametrize("xs", [[2573.89, 2840.05, 4209.90], np.geomspace(1e-8, 6e4, 303)],
                         ids=["found", "log-spaced"])
def test_closed_form_cs_pn_sums_to_one_at_large_x(xs):
    # stepped from its anchor log P(0) = -x, whose rounding scaled the whole
    # row, the CS P(n) summed to 0.99999999999638 at x = 2573.89 and raised
    # ConvergenceError there and at 13 of the 303 points; the shares of the
    # positive-term sum reach 1 at every x
    for x in xs:
        pn = ps.closed_form_stats("CS", CS, float(x)).pn
        assert abs(pn.values.sum() - 1.0) <= 1e-10, x


def _mpmath_pn(family, vals, x, n):
    """P(0..n-1) at 40 digits: the family's closed-form P(0) (1/N from mpmath's
    own functions) stepped by its term ratio in 40-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        v = [mpmath.mpf(u) for u in vals]
        p, ratio = {
            "CS": lambda: (mpmath.exp(-x), lambda k: x / (k + 1)),
            "F01": lambda: (1 / mpmath.hyp0f1(v[0], x), lambda k: x / ((k + 1) * (v[0] + k))),
            "F11": lambda: (1 / mpmath.hyp1f1(v[0], v[1], x),
                            lambda k: x * (v[0] + k) / ((v[1] + k) * (k + 1))),
            "F10": lambda: ((1 - x) ** v[0], lambda k: x * (v[0] + k) / (k + 1)),
            "F21": lambda: (1 / mpmath.hyp2f1(v[0], v[1], v[2], x),
                            lambda k: x * (v[0] + k) * (v[1] + k) / ((v[2] + k) * (k + 1))),
        }[family]()
        out = []
        for k in range(n):
            out.append(p)
            p *= ratio(k)
        return out


def _pn_draws(family, rng):
    """(parameter values, x): 30 seeded draws of the family's band."""
    log_uniform = lambda lo, hi: math.exp(rng.uniform(math.log(lo), math.log(hi)))
    return [{"CS": lambda: ((), log_uniform(1e-8, 6e4)),
             "F01": lambda: ((rng.uniform(0.2, 6.0),), log_uniform(1e-8, 3e3)),
             "F11": lambda: (tuple(rng.uniform(0.2, 6.0, 2)), log_uniform(1e-8, 3e3)),
             "F10": lambda: ((rng.uniform(0.3, 6.0),), rng.uniform(0.0, 0.97)),
             "F21": lambda: (tuple(rng.uniform(0.3, 5.0, 3)), rng.uniform(0.0, 0.94)),
             }[family]() for _ in range(30)]


@pytest.mark.parametrize("family", ["CS", "F01", "F11", "F10", "F21"])
def test_closed_form_pn_band_against_mpmath(family):
    # every closed-form P(n) at least 1e-16 of its peak is within 2e-13 of
    # 40-digit mpmath (worst CS 4.2e-14, F01 1.1e-14, F11 1.9e-14, F10
    # 7.5e-14, F21 4.2e-14): the logs are summed outward from the first
    # ratio below 1, so the partial sums stay small where P(n) is large.
    # Summed up from n = 0 they grow to about x, and F11 was 5.9e-13 off
    # here; CS, stepped from log P(0) = -x, was 8.7e-13 off and raised
    # ConvergenceError at 2 of its 30 x.  F11 (0.3;6) at x = 15 and 400,
    # where the ratio is not monotone: at x = 15 it starts at 0.75, below 1,
    # and rises past 1 before it falls
    draws = _pn_draws(family, np.random.default_rng(5))
    if family == "F11":
        draws += [((0.3, 6.0), 15.0), ((0.3, 6.0), 400.0)]
    worst = 0.0
    for vals, x in draws:
        a, b = (vals[:-1], vals[-1:]) if family in ("F01", "F11", "F21") else (vals, ())
        got = ps.closed_form_stats(family, st.validate(list(a), list(b)), x).pn.values
        ref = _mpmath_pn(family, vals, x, len(got))
        for p, r in zip(got, ref):
            if p >= 1e-16 * got.max():
                worst = max(worst, float(abs(p / r - 1)))
    assert worst <= 2e-13


def test_closed_form_f11_overflow_fails_at_once():
    # M(2; 3; 784) leaves the double range, but the closed form takes only
    # ratios of contiguous functions and a log-scaled anchor: it returns the
    # mean and Q, and a P(n) that sums to 1
    worst = _closed_form_errors("F11", [(2.0, 3.0, 784.0)])
    assert max(worst) <= 1e-13
    stats = ps.closed_form_stats("F11", st.validate([2.0], [3.0]), 784.0)
    assert stats.pn.norm_residual <= 1e-10


# slices of 34 to 212 orders that settle at their start length, and three
# that grow past it (CS at |z|^2 = 53, F11 (2;3) at |z| = 4 and 5), which
# read the rho that their first pass built with room for a doubling
JOB_STATES = [(CS, 5.0), (st.validate([], [2.0]), 6.0), (st.validate([4.0], [2.0]), 5.0),
              (st.validate([2.0], []), 0.8), (st.validate([0.7, 1.3], [2.2]), 0.9),
              (CS, math.sqrt(53.0)), (st.validate([2.0], [3.0]), 4.0),
              (st.validate([2.0], [3.0]), 5.0)]


@pytest.mark.parametrize("params,az", JOB_STATES,
                         ids=[f"{p.label()}@{az:g}" for p, az in JOB_STATES])
def test_state_job_builds_rho_once_and_settles_once(monkeypatch, params, az):
    # the Fock vector, P(n), mean/Q and eigen residual of one plane or disk
    # state share the slice kept on the set: one rho build, one settling pass
    calls = {"rho": 0, "settle": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(st, "_log_ratio_sum", counted("rho", st._log_ratio_sum))
    monkeypatch.setattr(st, "_settled_slice", counted("settle", st._settled_slice))
    spec = st.StateSpec(st.ParameterSet(params.a, params.b), az * cmath.exp(0.7j))
    st.fock_vector(spec)
    ps.pn_distribution(spec)
    ps.mean_and_mandel(spec.params, abs(spec.z) ** 2)
    ld.eigenvalue_residual(spec)
    assert calls == {"rho": 1, "settle": 1}


def test_circle_job_builds_rho_once_and_sums_its_n1_once(monkeypatch):
    # a normalized circle job reads one kept row: one integer-grid rho build
    # and one N(1) of its own set (the moment ratios add the two shifted sets)
    params = st.validate([0.5, 0.5], [16.0])
    calls = {"rho": 0, "n1": 0}
    lrs, norm = st._log_ratio_sum, st.normalization

    def counted_lrs(p, k):
        calls["rho"] += int(p is params and k[0] == 0.0)
        return lrs(p, k)

    def counted_norm(p, x, tol=sf.DEFAULT_TOL):
        calls["n1"] += int(p is params)
        return norm(p, x, tol)

    monkeypatch.setattr(st, "_log_ratio_sum", counted_lrs)
    monkeypatch.setattr(st, "normalization", counted_norm)
    monkeypatch.setattr(ps, "normalization", counted_norm)
    spec = st.StateSpec(params, cmath.exp(0.7j))
    st.fock_vector(spec)
    ps.pn_distribution(spec)
    ps.mean_and_mandel(params, abs(spec.z) ** 2)
    ld.eigenvalue_residual(spec)
    assert calls == {"rho": 1, "n1": 1}


def test_kept_circle_n1_serves_only_its_tol():
    # (1, 1, 2; 9, 9) sums N(1) with pfq at the caller's tol, and the sums at
    # 1e-12 and 1e-14 differ: every call on one set, in either order, equals
    # the call on a fresh set at its own tol
    def fresh():
        return st.validate([1.0, 1.0, 2.0], [9.0, 9.0])

    z = cmath.exp(3.0j)
    assert st.normalization(fresh(), 1.0, tol=1e-12) != st.normalization(fresh(), 1.0, tol=1e-14)

    def job(params, tol):
        spec = st.StateSpec(params, z)
        v, pn = st.fock_vector(spec, tol=tol), ps.pn_distribution(spec, tol=tol)
        stats = ps.mean_and_mandel(params, 1.0, tol)
        return v.coeffs.tolist(), v.tail_bound, pn.values.tolist(), stats

    ref = {tol: job(fresh(), tol) for tol in (1e-12, 1e-14)}
    assert ref[1e-12] != ref[1e-14]
    for tols in ((1e-12, 1e-14), (1e-14, 1e-12)):
        params = fresh()
        for tol in tols + tols:
            assert job(params, tol) == ref[tol]


# the array form of mean_and_mandel (one log_terms pass per |z| grid)
# against one scalar call per point
ARRAY_SETS = [
    ("CS", CS, 6.0), ("F01", st.validate([], [0.2]), 6.0), ("F01", st.validate([], [5.0]), 12.0),
    ("F11", st.validate([2.0], [4.0]), 6.0), ("F11", st.validate([4.0], [2.0]), 6.0),
    ("F10", st.validate([2.0], []), 0.97), ("F21", st.validate([3.0, 3.0], [2.0]), 0.9),
    ("F21", st.validate([0.5, 0.5], [16.0]), 1.0),  # normalized circle point at |z| = 1
]


@pytest.mark.parametrize("family,params,hi", ARRAY_SETS,
                         ids=[f"{f}{p.label()}@{hi:g}" for f, p, hi in ARRAY_SETS])
def test_mean_and_mandel_array_matches_scalar_calls(family, params, hi):
    x = np.linspace(0.0, hi, 61) ** 2
    mean, q = ps.mean_and_mandel(params, x)
    ref_mean, ref_q = np.array([ps.mean_and_mandel(params, float(v)) for v in x]).T
    assert mean[0] == 0.0 and q[0] == 0.0
    assert np.all(np.abs(mean - ref_mean) <= 1e-14 * ref_mean)
    assert np.all(np.abs(q - ref_q) <= 1e-11 * np.maximum(1.0, ref_mean))
    if hi == 1.0:  # the circle point keeps the scalar call's Gauss sum
        assert (mean[-1], q[-1]) == (ref_mean[-1], ref_q[-1])


def test_mean_and_mandel_array_cs_q_exactly_zero():
    # Q = r_2 - r_1, both moment ratios exactly x for the coherent state, is
    # exactly 0 on the |z| grid of figures 2, 3, 5 and 6, as for scalar
    # calls; (3;3) is the coherent state again
    for params in (CS, st.validate([3.0], [3.0])):
        assert np.all(ps.mean_and_mandel(params, np.linspace(0.0, 6.0, 61) ** 2)[1] == 0.0)


def test_coherent_mandel_q_is_exactly_zero_off_the_figure_grids():
    # Q = r_2 - r_1 with both ratios exactly x, not n2/mean - mean with
    # n2/mean formed as x^2/x, which rounds for some x
    x = np.random.default_rng(0).uniform(0.0, 30.0, 2000) ** 2
    assert np.all(ps.mean_and_mandel(CS, x)[1] == 0.0)
    assert all(ps.mean_and_mandel(CS, v)[1] == 0.0 for v in x.tolist())


def test_mean_and_mandel_array_raises_as_the_scalar_call():
    params = st.validate([2.0], [])
    with pytest.raises(DivergenceError) as scalar:
        ps.mean_and_mandel(params, 1.21)
    with pytest.raises(DivergenceError) as array:
        ps.mean_and_mandel(params, np.array([0.0, 0.25, 1.21]))
    assert str(array.value) == str(scalar.value)
